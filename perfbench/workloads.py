"""The four benchmark workloads.

Each workload is a closed loop of CLI pipelines run in-process through
`gadgetlab.cli.main`, plus the library certificate calls the paper's YES and
NO analyses rest on. A workload has three parts:

- `prepare`: untimed; writes the generated inputs (decode indicators) that
  the program receives, all derived from the workload seed;
- `iteration`: the timed pipeline, from the first call to the last verdict;
- `check`: untimed; the correctness gate over the iteration's results and
  artifacts, returning verdicts, observed values, content facts and
  artifact digests.

Program calls go through module attributes (`cli.main`, `dto1.yes_check`,
...) so the tracer's wrappers see them.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from gadgetlab import cli, dto1, games, hadamard, longcode
from gadgetlab.seeding import derive_seed

from gate import Ledger, Op, canonical_digest, file_digest, is_independent, weight_of

EPSILON = Fraction(1, 10)


def run_cli(ledger: Ledger, name: str, argv: list, expect=(0,)) -> int | None:
    try:
        rc = cli.main([str(a) for a in argv])
    except Exception as exc:  # a traceback escaping the CLI is a failed operation
        ledger.fail(name, f"raised {type(exc).__name__}: {exc}")
        return None
    ledger.ops.append(Op(name, rc in expect, "" if rc in expect else f"exit {rc}"))
    return rc


def run_lib(ledger: Ledger, name: str, fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        ledger.fail(name, f"raised {type(exc).__name__}: {exc}")
        return None
    ledger.ops.append(Op(name, True))
    return result


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def artifact_digests(paths: dict[str, Path]) -> dict[str, str]:
    return {f"sha256.{k}": file_digest(p) for k, p in paths.items() if p.exists()}


class Workload:
    name = ""

    def __init__(self, seed: int):
        """Paths are relative to the working directory, so that artifacts,
        which embed their command's paths, do not depend on where it is."""
        self.seed = seed
        self.inputs = Path("inputs")
        self.out = Path("out")
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        pass

    def iteration(self, ledger: Ledger) -> dict:
        raise NotImplementedError

    def check(self, ledger: Ledger, state: dict, full: bool) -> tuple[dict, dict, dict, dict]:
        """Returns (verdicts, observed, facts, artifact digests).

        Verdicts are the answers a correct program gives whatever its speed
        (pinned at the default seed). Observed values may legitimately move
        with an algorithmic change, such as a best-found weight under a node
        budget; like the artifact digests they need only repeat exactly
        between runs of one program. Facts, the canonical hypergraph digests
        and sizes, are pinned too, but computed only when `full` is set,
        because they parse the largest artifacts."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Dto1Yes(Workload):
    name = "dto1-yes"
    # The smallest smooth 2-layer game (304 vertices, 98,304 edges): one
    # pipeline takes a few seconds, so a run holds several of them.
    GAME = ["--u", 1, "--v", 3, "--k", 1, "--d", 2]

    def iteration(self, ledger: Ledger) -> dict:
        o = self.out
        run_cli(ledger, "gen-game", ["gen-game", *self.GAME, "--seed", self.seed,
                                     "--out", o / "game.json"])
        run_cli(ledger, "build-mlpcp", ["build-mlpcp", "--game", o / "game.json", "--layers", 2,
                                        "--smooth-t", 1, "--out", o / "pcp.json"])
        run_cli(ledger, "build-dto1", ["build-dto1", "--pcp", o / "pcp.json", "--delta", 0.25,
                                       "--out", o / "dto1.json"])
        run_cli(ledger, "verify-two-color", ["verify", "--input", o / "dto1.json", "--mode",
                                             "two-color", "--out", o / "tc.json"])
        ledger.oracle_calls += 1
        pcp = games.LayeredPcp.from_json_dict(load(o / "pcp.json")["pcp"])
        gadget = run_lib(ledger, "dto1.build", dto1.build, pcp, 0.25)
        yes = None
        if gadget is not None:
            yes = run_lib(ledger, "dto1.yes_check", dto1.yes_check, gadget, pcp.planted_labeling)
        return {"yes": yes}

    def check(self, ledger, state, full):
        o = self.out
        tc = load(o / "tc.json")["two_colorable"] if (o / "tc.json").exists() else None
        ledger.gate("verify-two-color", tc is True, f"two_colorable={tc}")
        yes = state["yes"]
        ok = yes is not None and yes.ok and yes.coverage == "exhaustive"
        ledger.gate("dto1.yes_check", ok, "planted dictated colouring not certified")
        verdicts = {"two_colorable": tc,
                    "yes_check.ok": bool(yes and yes.ok),
                    "yes_check.checked": yes.checked if yes else None}
        facts = {}
        if full and (o / "dto1.json").exists():
            h = load(o / "dto1.json")["hypergraph"]
            facts["dto1.hypergraph"] = canonical_digest(h)
            facts["dto1.vertices"] = len(h["vertices"])
            facts["dto1.edges"] = len(h["edges"])
        files = artifact_digests({k: o / f"{k}.json" for k in ("game", "pcp", "dto1", "tc")})
        return verdicts, {}, facts, files


class Dto1Decode(Workload):
    name = "dto1-decode"
    # Labels 8 and 4 on 1 + 9 variables, 9 constraints; dense spectra give
    # every seed the same number of cross-expectation terms.
    GAME = ["--u", 3, "--v", 3, "--k", 1, "--d", 2]
    DICTATOR_SHARE = 0.7

    def _pcp_pipeline(self, ledger: Ledger, o: Path) -> None:
        run_cli(ledger, "gen-game", ["gen-game", *self.GAME, "--seed", self.seed,
                                     "--out", o / "game.json"])
        run_cli(ledger, "build-mlpcp", ["build-mlpcp", "--game", o / "game.json", "--layers", 2,
                                        "--smooth-t", 1, "--out", o / "pcp.json"])

    def prepare(self) -> None:
        """Noisy dictators of the planted labeling: 0.7 x dictator + 0.3 x
        uniform noise, so every Fourier coefficient is non-zero."""
        ledger = Ledger()
        self._pcp_pipeline(ledger, self.inputs)
        if ledger.failed:
            raise RuntimeError(f"{self.name}: input generation failed: {ledger.ops}")
        pcp = load(self.inputs / "pcp.json")["pcp"]
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "indicators"))
        indicators = {}
        for layer in range(pcp["layers"]):
            n = pcp["label_sizes"][layer]
            points = np.arange(1 << n)
            for var in range(pcp["var_counts"][layer]):
                j = pcp["planted_labeling"][layer][var]
                dictator = ((points >> j) & 1).astype(np.float64)
                noise = rng.random(1 << n)
                f = self.DICTATOR_SHARE * dictator + (1 - self.DICTATOR_SHARE) * noise
                indicators[f"{layer},{var}"] = f.tolist()
        (self.inputs / "indicators.json").write_text(json.dumps({"indicators": indicators}))

    def iteration(self, ledger: Ledger) -> dict:
        o = self.out
        self._pcp_pipeline(ledger, o)
        run_cli(ledger, "decode", ["decode", "--kind", "dto1", "--gadget", o / "pcp.json",
                                   "--indicator", self.inputs / "indicators.json",
                                   "--delta", 0.25, "--gamma", 0.05, "--seed", self.seed,
                                   "--out", o / "decode.json"])
        return {}

    def check(self, ledger, state, full):
        o = self.out
        report = load(o / "decode.json")["decode"] if (o / "decode.json").exists() else {}
        ledger.gate("decode", report.get("outcome") == "ok", f"outcome={report.get('outcome')}")
        verdicts = {"outcome": report.get("outcome"), "layer_pair": report.get("layer_pair")}
        observed = {"satisfied_fraction": report.get("satisfied_fraction")}
        files = artifact_digests({k: o / f"{k}.json" for k in ("game", "pcp", "decode")})
        return verdicts, observed, {}, files


class LongcodeExport(Workload):
    name = "longcode-export"
    # 162 vertices and 68,895 exported edges (a 3.6 MB artifact) per pipeline.
    PCP = ["--layers", 2, "--vars-per-layer", 3, "--label-sizes", "3,3"]
    DECODE_DELTA = 0.4

    def prepare(self) -> None:
        """The digit-1 dictator class of the planted labeling, as vertex ids."""
        run_cli(Ledger(), "build-mlpcp", ["build-mlpcp", *self.PCP, "--seed", self.seed,
                                          "--out", self.inputs / "plain.json"])
        pcp = games.LayeredPcp.from_json_dict(load(self.inputs / "plain.json")["pcp"])
        g = longcode.build(pcp, EPSILON)
        vertices = []
        for layer in range(pcp.layers):
            m = pcp.label_sizes[layer]
            for var in range(pcp.var_counts[layer]):
                step = 3 ** pcp.planted_labeling[layer][var]
                vertices.extend(g.vertex_id(layer, var, pt)
                                for pt in range(3 ** m) if (pt // step) % 3 == 1)
        (self.inputs / "indicator.json").write_text(json.dumps({"vertices": vertices}))

    def iteration(self, ledger: Ledger) -> dict:
        o = self.out
        run_cli(ledger, "build-mlpcp", ["build-mlpcp", *self.PCP, "--seed", self.seed,
                                        "--out", o / "plain.json"])
        run_cli(ledger, "build-longcode", ["build-longcode", "--pcp", o / "plain.json",
                                           "--epsilon", str(EPSILON), "--out", o / "lc.json"])
        pcp = games.LayeredPcp.from_json_dict(load(o / "plain.json")["pcp"])
        gadget = run_lib(ledger, "longcode.build", longcode.build, pcp, EPSILON)
        part = None
        if gadget is not None:
            part = run_lib(ledger, "longcode.yes_partition", longcode.yes_partition,
                           gadget, pcp.planted_labeling)
        run_cli(ledger, "decode", ["decode", "--kind", "longcode", "--gadget", o / "lc.json",
                                   "--indicator", self.inputs / "indicator.json",
                                   "--delta", self.DECODE_DELTA, "--seed", self.seed,
                                   "--out", o / "decode.json"])
        return {"part": part}

    def check(self, ledger, state, full):
        o = self.out
        part = state["part"]
        want = ((1 - EPSILON) / 2, (1 - EPSILON) / 2, EPSILON)
        ok = (part is not None and part.ok and part.coverage == "exhaustive"
              and tuple(part.weights) == want)
        ledger.gate("longcode.yes_partition", ok,
                    f"partition weights {part.weights if part else None}, want {want}")
        report = load(o / "decode.json")["decode"] if (o / "decode.json").exists() else {}
        ledger.gate("decode", report.get("satisfied_fraction") == "1",
                    f"satisfied_fraction={report.get('satisfied_fraction')}")
        verdicts = {"yes_partition.ok": bool(part and part.ok),
                    "yes_partition.checked_edges": part.checked_edges if part else None,
                    "yes_partition.weights": [str(w) for w in part.weights] if part else None,
                    "decode.layer_pair": report.get("layer_pair"),
                    "decode.satisfied_fraction": report.get("satisfied_fraction")}
        facts = {}
        if full and (o / "lc.json").exists():
            h = load(o / "lc.json")["hypergraph"]
            facts["longcode.hypergraph"] = canonical_digest(h)
            facts["longcode.vertices"] = len(h["vertices"])
            facts["longcode.edges"] = len(h["edges"])
        files = artifact_digests({k: o / f"{k}.json" for k in ("plain", "lc", "decode")})
        return verdicts, {}, facts, files


class HadamardMis(Workload):
    name = "hadamard-mis"
    # Ten triples make every instance too hard to finish within the budget,
    # so each costs BUDGET nodes whatever the seed; sixteen instances average
    # out how the cost of a node varies between instances.
    INSTANCES = 16
    LIN = ["--n", 9, "--eqs", 9]
    R = 1
    TRIPLES = 10
    BUDGET = 200

    def instance_seed(self, i: int) -> int:
        return derive_seed(self.seed, self.name, i) % 10**9

    def iteration(self, ledger: Ledger) -> dict:
        o = self.out
        state = {}
        for i in range(self.INSTANCES):
            s = self.instance_seed(i)
            lin, had = o / f"lin{i}.json", o / f"had{i}.json"
            run_cli(ledger, f"{i}:gen-3lin", ["gen-3lin", *self.LIN, "--seed", s, "--out", lin])
            run_cli(ledger, f"{i}:build-hadamard",
                    ["build-hadamard", "--instance", lin, "--r", self.R,
                     "--triples", self.TRIPLES, "--seed", s, "--out", had])
            run_cli(ledger, f"{i}:verify-yes", ["verify", "--input", had, "--mode", "yes"])
            run_cli(ledger, f"{i}:verify-two-color",
                    ["verify", "--input", had, "--mode", "two-color", "--out", o / f"tc{i}.json"],
                    expect=(0, 2))
            run_cli(ledger, f"{i}:verify-max-is",
                    ["verify", "--input", had, "--mode", "max-is", "--budget", self.BUDGET,
                     "--out", o / f"mis{i}.json"])
            ledger.oracle_calls += 2
            bundle = load(lin)
            inst = games.Lin3Instance.from_json_dict(bundle["instance"])
            gadget = run_lib(ledger, f"{i}:hadamard.build", hadamard.build, inst, self.R,
                             triples=self.TRIPLES,
                             seed=derive_seed(s, "build-hadamard"))
            if gadget is None:
                continue
            yes = run_lib(ledger, f"{i}:hadamard.yes_coloring", hadamard.yes_coloring,
                          gadget, bundle["planted_assignment"])
            if yes is None:
                continue
            class1 = {v for v, c in yes.colors.items() if c == 1}
            reports = [run_lib(ledger, f"{i}:extract_strategies.{t}",
                               hadamard.extract_strategies, gadget, class1, t)
                       for t in range(len(gadget.triples))]
            state[i] = (yes, reports)
        return state

    def check(self, ledger, state, full):
        o = self.out
        verdicts: dict = {}
        observed: dict = {}
        facts = {}
        files = {}
        for i in range(self.INSTANCES):
            had, mis, tc = o / f"had{i}.json", o / f"mis{i}.json", o / f"tc{i}.json"
            if not (had.exists() and mis.exists()):
                ledger.fail(f"{i}:artifacts", "missing artifact")
                continue
            h = load(had)["hypergraph"]
            res = load(mis)["max_is"]
            yes, reports = state.get(i, (None, []))
            weight = Fraction(*res["weight"])
            ok = is_independent(h, res["vertices"]) and weight_of(h, res["vertices"]) == weight
            if ok and yes is not None:
                # Each YES colour class is independent, so even a best-found
                # answer under the node budget must weigh at least as much.
                classes = [[v for v, c in yes.colors.items() if c == col] for col in (0, 1)]
                ok = weight >= max(weight_of(h, cls) for cls in classes)
            ledger.gate(f"{i}:verify-max-is", ok, f"max-IS result {res['weight']} fails the gate")
            if not res["optimal"]:
                ledger.inconclusive += 1
            ledger.gate(f"{i}:hadamard.yes_coloring",
                        yes is not None and yes.ok and not yes.removed,
                        "planted colouring not certified")
            for t, rep in enumerate(reports):
                ledger.gate(f"{i}:extract_strategies.{t}",
                            rep is not None and rep.independent_on_triple,
                            "colour-1 class not independent on its triple")
            verdicts[f"{i}.two_colorable"] = load(tc)["two_colorable"] if tc.exists() else None
            observed[f"{i}.max_is"] = [res["weight"], res["optimal"]]
            observed[f"{i}.inequality_holds"] = [bool(r and r.holds) for r in reports]
            if full:
                facts[f"{i}.hadamard.hypergraph"] = canonical_digest(h)
            files.update(artifact_digests({f"{k}{i}": o / f"{k}{i}.json"
                                           for k in ("lin", "had", "tc", "mis")}))
        return verdicts, observed, facts, files


WORKLOADS = {w.name: w for w in (Dto1Yes, Dto1Decode, LongcodeExport, HadamardMis)}
