"""Command-line pipelines over the generators, gadget builders, and oracles.

All artifacts are JSON written atomically (temp file + rename). Exit codes:
0 success, 2 certificate failure (a no, or a search whose node budget
ran out first), 1 usage or config error. Every stochastic stage derives
its stream from --seed and a stage name via seeding.derive_seed.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import boolfn, dto1, games, hadamard, longcode, ternary, verify
from .seeding import derive_rng, derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


ROWS_PER_WRITE = 4096
_TOKEN = f"int-rows-{os.urandom(8).hex()}"  # a JSON string that stands in for one 2-D int array


def write_artifact(path: str | Path, payload: dict) -> None:
    """The one artifact writer: atomically, json.dump(payload, indent=2,
    sort_keys=True) and a newline. Its one non-JSON type is np.ndarray, written
    as its tolist(); a non-empty 2-D integer array (edges) is rendered in its
    place from a %d template per row, ROWS_PER_WRITE rows at a time."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            arrays: list = []

            def array(value):
                if not isinstance(value, np.ndarray):
                    raise TypeError(f"Object of type {type(value).__name__} "
                                    "is not JSON serializable")
                if value.ndim == 2 and value.size and value.dtype.kind in "iu":
                    arrays.append(value)
                    return _TOKEN
                return value.tolist()

            text = json.dumps(payload, indent=2, sort_keys=True, default=array)
            pieces = text.split(f'"{_TOKEN}"')
            fh.write(pieces[0])
            for rows, before, after in zip(arrays, pieces, pieces[1:]):
                line = before.rsplit("\n", 1)[-1]
                pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
                row = pad + "  [" + ",".join([pad + "    %d"] * rows.shape[1]) + pad + "  ]"
                for start in range(0, len(rows), ROWS_PER_WRITE):
                    chunk = rows[start:start + ROWS_PER_WRITE]
                    fh.write(("," if start else "[") + ",".join([row] * len(chunk))
                             % tuple(chunk.ravel().tolist()))
                fh.write(pad + "]" + after)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Fields(dict):
    """A JSON object read from an artifact: reading a field it lacks is a
    UsageError that names the file and the field."""

    def __init__(self, path, fields: dict):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise UsageError(f"{self.path}: missing field {key!r}")


def read_artifact(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=functools.partial(_Fields, path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def cmd_gen_3lin(args) -> int:
    inst, witness = games.gen_3lin(args.n, args.eqs, derive_rng(args.seed, "gen-3lin"),
                                   planted=not args.random)
    payload = {"config": _config_dict(args), "instance": inst.to_json_dict()}
    if witness is not None:
        payload["planted_assignment"] = list(witness)
    write_artifact(args.out, payload)
    print(f"wrote {args.out}: {inst.n} variables, {len(inst.equations)} equations")
    return EXIT_OK


def cmd_gen_game(args) -> int:
    game = games.gen_toy_dto1_game(args.u, args.v, args.k, args.d,
                                   derive_rng(args.seed, "gen-game"),
                                   planted=not args.random, degree=args.degree)
    write_artifact(args.out, {"config": _config_dict(args), "game": game.to_json_dict()})
    print(f"wrote {args.out}: {args.v}x{args.u} game, labels {game.m}->{game.k}, d={game.d}")
    return EXIT_OK


def cmd_build_mlpcp(args) -> int:
    if args.game:
        payload = read_artifact(args.game)
        game = games.Dto1Game.from_json_dict(payload.get("game", payload))
        pcp = games.build_smooth_mlpcp(game, args.layers, args.smooth_t)
        smooth = games.check_smoothness(pcp)
        payload = {"config": _config_dict(args), "pcp": pcp.to_json_dict(),
                   "smoothness": {"max_collision": smooth["max_collision"],
                                  "bound": smooth["bound"], "ok": smooth["ok"]}}
        write_artifact(args.out, payload)
        print(f"wrote {args.out}: smooth {pcp.layers}-layer PCP, "
              f"label sizes {list(pcp.label_sizes)}, "
              f"smoothness {smooth['max_collision']:.4f} <= {smooth['bound']:.4f}: {smooth['ok']}")
        return EXIT_OK if smooth["ok"] else EXIT_CERT
    sizes = [int(x) for x in args.label_sizes.split(",")]
    pcp = games.gen_toy_mlpcp(args.layers, args.vars_per_layer, sizes,
                              derive_rng(args.seed, "build-mlpcp"),
                              density=args.density, planted=not args.random)
    write_artifact(args.out, {"config": _config_dict(args), "pcp": pcp.to_json_dict()})
    print(f"wrote {args.out}: plain {pcp.layers}-layer PCP, label sizes {list(pcp.label_sizes)}")
    return EXIT_OK


def cmd_build_hadamard(args) -> int:
    bundle = read_artifact(args.instance)
    inst = games.Lin3Instance.from_json_dict(bundle.get("instance", bundle))
    gadget = hadamard.build(inst, args.r, triples=args.triples,
                            seed=derive_seed(args.seed, "build-hadamard"),
                            distinct_blocks=args.distinct_blocks)
    h = gadget.to_hypergraph()
    payload = {
        "config": _config_dict(args),
        "instance": inst.to_json_dict(),
        "hypergraph": h.to_json_dict(),
    }
    if "planted_assignment" in bundle:
        payload["planted_assignment"] = bundle["planted_assignment"]
    write_artifact(args.out, payload)
    if args.edge_list:
        Path(args.edge_list).write_text(h.to_edge_list())
    print(f"wrote {args.out}: {len(h.vertices)} vertices, {len(h.edges)} edges, "
          f"{gadget.dropped_degenerate} degenerate raw edges dropped")
    return EXIT_OK


def _load_pcp(path: str) -> games.LayeredPcp:
    payload = read_artifact(path)
    return games.LayeredPcp.from_json_dict(payload.get("pcp", payload))


def _write_gadget(args, pcp: games.LayeredPcp, gadget: games.PcpGadget, **extra) -> int:
    payload = {"config": _config_dict(args), "pcp": pcp.to_json_dict(),
               "mode": gadget.mode, **extra}
    if gadget.mode == "enumerate":
        payload["hypergraph"] = gadget.to_hypergraph().to_json_dict()
    write_artifact(args.out, payload)
    print(f"wrote {args.out}: mode={gadget.mode}, {gadget.vertex_count} vertices")
    return EXIT_OK


def cmd_build_longcode(args) -> int:
    pcp = _load_pcp(args.pcp)
    return _write_gadget(args, pcp, longcode.build(pcp, Fraction(args.epsilon)))


def cmd_build_dto1(args) -> int:
    pcp = _load_pcp(args.pcp)
    return _write_gadget(args, pcp, dto1.build(pcp, args.delta), delta=args.delta)


def cmd_verify(args) -> int:
    bundle = read_artifact(args.input)
    if "hypergraph" not in bundle:
        raise UsageError(f"{args.input}: the file holds no hypergraph")
    h = verify.GenericHypergraph.from_json_dict(bundle["hypergraph"])
    if args.mode == "yes":  # the planted colouring, checked on the stored edges
        kind = bundle["hypergraph"]["meta"]["kind"]
        if type(kind) is not str:
            raise UsageError(f"{args.input}: field 'kind' is not a string: {kind!r}")
        gadget_cls = {"longcode": longcode.LongCodeGadget, "dto1": dto1.Dto1Gadget}.get(kind)
        if kind != "hadamard" and gadget_cls is None:
            raise UsageError(f"{args.input}: unknown hypergraph kind {kind!r}")
        if kind == "hadamard" and "planted_assignment" in bundle:
            cfg = bundle["config"]
            for name in ("r", "triples", "seed"):
                if type(cfg[name]) is not int:
                    raise UsageError(f"{args.input}: field {name!r} is not an integer: "
                                     f"{cfg[name]!r}")
            inst = games.Lin3Instance.from_json_dict(bundle["instance"])
            gadget = hadamard.build(inst, cfg["r"], triples=cfg["triples"],
                                    seed=derive_seed(cfg["seed"], "build-hadamard"),
                                    distinct_blocks=cfg.get("distinct_blocks", False))
            if gadget.to_hypergraph() != h:
                raise UsageError(f"{args.input}: the stored hypergraph is not the one its config builds")
            result = hadamard.yes_coloring(gadget, bundle["planted_assignment"])
            removed, surviving, violations = result.removed, result.surviving_edges, len(result.violations)
        elif gadget_cls and bundle.get("pcp", {}).get("planted_labeling"):
            pcp = games.LayeredPcp.from_json_dict(bundle["pcp"])
            colors = games.dictator_colors(pcp, gadget_cls.base, pcp.planted_labeling)
            if h.vertices != tuple(range(len(colors))):
                raise UsageError(f"{args.input}: the stored hypergraph does not fit its PCP's codes")
            mask = colors == gadget_cls.removed_digit
            kept, violating = verify.check_coloring(h.edges, colors, mask)
            removed = np.flatnonzero(mask).tolist()
            surviving, violations = int(kept.sum()), int(violating.sum())
        else:
            raise UsageError("verify --mode yes needs a bundle with a planted assignment")
        report = {"removed": len(removed), "violations": violations,
                  "surviving_edges": surviving, "ok": violations == 0}
        if args.out:
            write_artifact(args.out, {"config": _config_dict(args), "yes_certificate": report})
        print(f"yes-case certificate: removed={report['removed']} "
              f"violations={report['violations']} ok={report['ok']}")
        eps = Fraction(bundle["config"].get("epsilon", 0))  # only the long code removes: its * class
        within = not removed or h.weight_of(removed) <= eps * h.total_weight
        return EXIT_OK if report["ok"] and within else EXIT_CERT
    if args.mode == "max-is":
        res = verify.max_independent_set(h, budget=args.budget)
        report = {"weight": [res.weight.numerator, res.weight.denominator],
                  "size": len(res.vertices), "optimal": res.optimal,
                  "vertices": sorted(res.vertices)}
        if args.out:
            write_artifact(args.out, {"config": _config_dict(args), "max_is": report})
        print(f"max independent set: weight {res.weight} ({len(res.vertices)} vertices), "
              f"optimal={res.optimal}")
        return EXIT_OK
    if args.mode == "two-color":
        res = verify.two_colorable(h, budget=args.budget)
        label, report = "two-colorable", {"two_colorable": res.colorable}
    else:
        res = verify.almost_two_colorable(h, Fraction(args.epsilon), budget=args.budget)
        label = f"almost-two-colorable at eps={args.epsilon}"
        report = {"success": res.colorable,
                  "removed": None if res.removal is None else sorted(res.removal)}
    if args.out:
        write_artifact(args.out, {"config": _config_dict(args), **report})
    verdict = f"inconclusive after {res.nodes} nodes" if res.colorable is None else res.colorable
    print(f"{label}: {verdict}")
    return EXIT_OK if res.colorable else EXIT_CERT


def cmd_analyze(args) -> int:
    report: dict = {"config": _config_dict(args)}
    if args.correlations:
        report["correlations"] = dto1.correlation_suite(args.delta, args.r)
        dist = dto1.dist_table(args.delta, args.r)
        report["min_atom"] = report["correlations"]["min_atom"]
        if args.csv:
            Path(args.csv).write_text(dist.to_csv())
    if args.spectra:
        table = read_artifact(args.spectra)
        values = np.array(table["values"], dtype=np.float64)
        m = int(round(np.log2(values.size)))
        from . import gf2
        spec = gf2.fourier_transform(gf2.RealTable(m, values))
        report["spectrum_csv"] = gf2.spectrum_to_csv(spec)
    if args.family:
        fam = ternary.TernaryFamily.deserialize(Path(args.family).read_text().strip())
        inf = ternary.influences(fam)
        report["influences"] = [float(x) for x in inf]
        report["average_sensitivity"] = float(inf.sum())
        report["measure"] = ternary.measure(fam)
    if args.gamma is not None:
        lo, hi = boolfn.gamma_bounds(args.gamma, args.mu, args.nu)
        report["gamma_lower"] = lo
        report["gamma_upper"] = hi
    if args.out:
        write_artifact(args.out, report)
        print(f"wrote {args.out}")
    else:
        print(json.dumps({k: v for k, v in report.items() if k != "config"},
                         indent=2, sort_keys=True, default=str))
    return EXIT_OK


# decode flags that only the d-to-1 decoder reads
DTO1_DECODE_FLAGS = ("eps", "nu", "gamma", "tau", "s")


def cmd_decode(args) -> int:
    bundle = read_artifact(args.gadget)
    pcp = games.LayeredPcp.from_json_dict(bundle["pcp"])
    indicator_data = read_artifact(args.indicator)
    if args.kind == "longcode":
        if "epsilon" not in bundle.get("config", {}):
            raise UsageError(f"{args.gadget}: not a long-code gadget bundle (no config.epsilon)")
        gadget = longcode.build(pcp, Fraction(bundle["config"]["epsilon"]))
        outcome = longcode.decode(gadget, indicator_data["vertices"], args.delta,
                                  seed=derive_seed(args.seed, "decode"))
        report = {
            "labels_v": {f"{k[0]},{k[1]}": v for k, v in outcome.rho.items()},
            "labels_u": {f"{k[0]},{k[1]}": v for k, v in outcome.lam.items()},
        }
    else:
        T = (pcp.params or {}).get("T")
        if T is None:
            raise UsageError("decode --kind dto1 needs a smooth PCP, whose params carry T")
        params = dto1.DecodeParams(args.delta, args.eps, args.nu, args.gamma, args.tau, args.s, T)
        indicators = {
            (int(key.split(",")[0]), int(key.split(",")[1])): np.array(vals, dtype=np.float64)
            for key, vals in indicator_data["indicators"].items()
        }
        outcome = dto1.decode(indicators, pcp, params, seed=derive_seed(args.seed, "decode"))
        report = {"outcome": outcome.outcome}
    report.update(layer_pair=list(outcome.layer_pair),
                  satisfied_fraction=str(outcome.satisfied_fraction),
                  satisfied_fraction_all=str(outcome.satisfied_fraction_all))
    if args.out:
        config = _config_dict(args)
        if args.kind == "longcode":
            config = {k: v for k, v in config.items() if k not in DTO1_DECODE_FLAGS}
        write_artifact(args.out, {"config": config, "decode": report})
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    checks = []
    inputs = []
    for path in args.inputs:
        payload = read_artifact(path)
        inputs.append({"path": str(path),
                       "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()})
        for key, value in payload.items():
            if isinstance(value, dict) and "ok" in value:
                checks.append({"source": str(path), "check": key, "ok": bool(value["ok"])})
            elif key.endswith("_ok") or key == "ok":
                checks.append({"source": str(path), "check": key, "ok": bool(value)})
            elif key == "correlations":
                for ck, cv in value.items():
                    if ck.endswith("_ok"):
                        checks.append({"source": str(path), "check": ck, "ok": bool(cv)})
    summary = {
        "config": _config_dict(args),
        "inputs": inputs,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks) if checks else True,
    }
    write_artifact(args.out, summary)
    print(f"wrote {args.out}: {sum(c['ok'] for c in checks)}/{len(checks)} checks pass")
    return EXIT_OK if summary["all_ok"] else EXIT_CERT


def _epsilon(text: str) -> str:
    """A rational in [0, 1], kept as written, so that configs record it verbatim."""
    try:
        if 0 <= Fraction(text) <= 1:
            return text
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="gadgetlab",
                     description="hardness-reduction gadget constructors and exact checkers")
    parser.add_argument("--out-dir", help="default directory for artifacts (env GADGETLAB_OUT)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-3lin", help="toy Max-3Lin instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eqs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true", help="random right-hand sides (no witness)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_3lin)

    p = sub.add_parser("gen-game", help="toy bi-regular d-to-1 game")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_game)

    p = sub.add_parser("build-mlpcp", help="layered PCP: smooth (from a game) or toy plain")
    p.add_argument("--game", help="game artifact for the smooth build")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--smooth-t", type=int, default=1)
    p.add_argument("--vars-per-layer", type=int, default=2)
    p.add_argument("--label-sizes", default="3,3", help="comma list, plain build only")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_mlpcp)

    p = sub.add_parser("build-hadamard", help="4-uniform folded-code gadget")
    p.add_argument("--instance", required=True)
    p.add_argument("--r", type=_int_at_least(1), default=1)
    p.add_argument("--triples", type=_int_at_least(1), default=2)
    p.add_argument("--distinct-blocks", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-list", help="also write a flat edge list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_hadamard)

    p = sub.add_parser("build-longcode", help="3-uniform biased long-code gadget")
    p.add_argument("--pcp", required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True, help="rational, e.g. 1/10")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_longcode)

    p = sub.add_parser("build-dto1", help="3-uniform correlated-test gadget")
    p.add_argument("--pcp", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dto1)

    p = sub.add_parser("verify", help="oracles over an artifact")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("yes", "max-is", "two-color", "almost"), required=True)
    p.add_argument("--epsilon", type=_epsilon, default="0")
    p.add_argument("--budget", type=_int_at_least(0), default=verify.DEFAULT_NODE_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="spectra / influences / correlations / quadrant bounds")
    p.add_argument("--correlations", action="store_true")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--csv", help="write the distribution table as CSV")
    p.add_argument("--spectra", help="JSON file with a 'values' table")
    p.add_argument("--family", help="serialized ternary family file")
    p.add_argument("--gamma", type=float, help="correlation for quadrant probabilities")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decode", help="no-case decoding pipelines")
    p.add_argument("--kind", choices=("longcode", "dto1"), required=True)
    p.add_argument("--gadget", required=True)
    p.add_argument("--indicator", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=1e-4)
    p.add_argument("--s", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("report", help="merge JSON diagnostics into one summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out_dir is None:  # read per call: the parser is built once
            args.out_dir = os.environ.get("GADGETLAB_OUT", ".")
        for attr in ("out", "edge_list", "csv"):
            value = getattr(args, attr, None)
            if value is not None and not Path(value).is_absolute():
                setattr(args, attr, str(Path(args.out_dir) / value))
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError, games.NoLayerPairError,
            games.RejectionBudgetError, ternary.WitnessRetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
