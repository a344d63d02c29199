"""Command-line pipelines over the generators, gadget builders, and oracles.

Each cmd_* returns its exit code, its artifact body and a summary line;
main alone writes {"config": flags, **body} to --out, when given, as JSON
written atomically (temp file + rename), and prints the summary. Exit codes:
0 success, 2 certificate failure (a no, or a colouring search whose node
budget ran out first), 1 a refusal: one error: line for a UsageError, or
for the ValueError or OSError the library raises. Every stochastic stage
derives its stream from --seed and a stage name via seeding.derive_seed.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import boolfn, dto1, games, gf2, hadamard, longcode, ternary, verify
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
    """The one artifact writer: atomically, strict JSON (a NaN or infinity is a
    ValueError and leaves no file) as json.dump(payload, indent=2, sort_keys=True)
    and a newline. Its one non-JSON type is np.ndarray, written as its tolist();
    a non-empty 2-D integer array (edges) is rendered in its place,
    ROWS_PER_WRITE rows at a time, from per-column tables of its cells."""
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

            text = json.dumps(payload, indent=2, sort_keys=True, default=array, allow_nan=False)
            pieces = text.split(f'"{_TOKEN}"')
            fh.write(pieces[0])
            for rows, before, after in zip(arrays, pieces, pieces[1:]):
                line = before.rsplit("\n", 1)[-1]
                pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
                k, lo, hi = rows.shape[1], rows.min(), rows.max()
                heads = [pad + "  ]," + pad + "  [" + pad + "    "] + ["," + pad + "    "] * (k - 1)
                tables = ([np.array([h + str(v) for v in range(int(lo), int(hi) + 1)], dtype=object)
                           for h in heads] if int(hi) - int(lo) < ROWS_PER_WRITE else None)
                for start in range(0, len(rows), ROWS_PER_WRITE):
                    chunk = rows[start:start + ROWS_PER_WRITE]
                    cells = np.empty(chunk.shape, dtype=object)
                    for j, column in enumerate(chunk.T):
                        if tables:  # column - lo wraps at most once: its unsigned view is exact
                            cells[:, j] = tables[j][(column - lo).view(f"u{rows.itemsize}")]
                        else:
                            values, at = np.unique(column, return_inverse=True)
                            cells[:, j] = np.array([heads[j] + str(v) for v in values.tolist()], dtype=object)[at]
                    text = "".join(cells.ravel().tolist())  # each row's first cell closes the row before
                    fh.write(text if start else "[" + text[len(pad) + 4:])
                fh.write(pad + "  ]" + pad + "]" + after)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Fields(dict):
    """A JSON object read from an artifact: a field it lacks, or one typed
    reads of the wrong type, is a UsageError that names the file and the field."""

    def __init__(self, path, fields: dict):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise UsageError(f"{self.path}: missing field {key!r}")

    def typed(self, key: str, kind: type = dict):
        try:
            return games.typed_field(self, key, kind)
        except ValueError as exc:
            raise UsageError(f"{self.path}: {exc}") from None

    def numbers(self, key: str, kinds: tuple = (int, float), count: int | None = None) -> list:
        """The list at key, each item of one of kinds (a bool is no number),
        and count of them if count is given."""
        values = self.typed(key, games.LIST)
        if not {type(v) for v in values} <= set(kinds) or count not in (None, len(values)):
            what = "integers" if kinds == (int,) else "numbers"
            raise UsageError(f"{self.path}: field {key!r} is not a list of "
                             f"{what if count is None else f'{count} {what}'}")
        return values


_EDGES_KEY = re.compile(rb'"edges"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_ROWS_END = re.compile(rb"\][ \t\n\r]*\]")  # "]]" with any whitespace: where an int matrix ends


def _int_matrix(data: bytes, start: int, stop: int) -> np.ndarray | None:
    """data[start:stop], a JSON array of k-element arrays of integers of at
    most 18 digits, as a read-only (E, k) int64 array; None for any other
    text (bools, floats, ragged or nested rows, an empty array)."""
    dense = data[start:stop].translate(None, b" \t\n\r")
    if dense.translate(None, b"0123456789-,[]"):
        return None
    # a number split by whitespace would count as two runs of digits and signs,
    # which are the bytes from "-" to "9" once the check above has passed
    number = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start) - ord("-") <= 12
    numbers = np.count_nonzero(number[1:] > number[:-1])
    del number
    a = np.frombuffer(dense, dtype=np.uint8)
    # rows: "[[" row "],[" row ... "]]", each holding width runs of digits,
    # width - 1 commas between them and at most a sign before each
    row_open, row_close = np.flatnonzero(a == ord("["))[1:], np.flatnonzero(a == ord("]"))[:-1]
    digit = a - ord("0") < 10
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    lengths = np.flatnonzero(digit[:-1] > digit[1:]) + 1 - starts
    signs = np.flatnonzero(a == ord("-"))
    rows = len(row_open)
    width = len(starts) // max(rows, 1)
    if not (rows == len(row_close) > 0 and width > 0 and len(starts) == rows * width == numbers
            and row_open[0] == 1 and row_close[-1] == len(a) - 2
            and (row_open[1:] == row_close[:-1] + 2).all()
            and (row_open < starts[::width]).all() and (starts[width - 1::width] < row_close).all()
            and np.count_nonzero(a == ord(",")) == rows * width - 1
            and ((a[signs - 1] == ord("[")) | (a[signs - 1] == ord(","))).all()
            and digit[signs + 1].all()
            and lengths.max() <= 18 and not ((a[starts] == ord("0")) & (lengths > 1)).any()):
        return None
    values = np.fromstring(dense.translate(None, b"[]"), dtype=np.int64, sep=",")
    values = values.reshape(rows, width)
    values.flags.writeable = False
    return values


def _place_edges(path, edges: np.ndarray, placed: list, fields: dict) -> _Fields:
    """The object hook of a spliced read: a _Fields, with edges in place of
    the token that stands in for them."""
    if fields.get("edges") == _TOKEN:
        fields["edges"] = edges
        placed.append(True)
    return _Fields(path, fields)


def read_artifact(path: str | Path) -> _Fields:
    """The JSON object in the file at path, each object a _Fields. An "edges"
    array of integer rows (the first "edges" field) is read by numpy straight
    into a read-only int64 array; any other text takes the json route alone,
    which gives the same hypergraph or the same error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        key = _EDGES_KEY.search(data)
        end = _ROWS_END.search(data, key.end()) if key else None
        edges = _int_matrix(data, key.end(), end.end()) if end else None
        placed: list = []
        if edges is not None:  # the block is spliced out as one token, which the hook swaps back
            rest = data[:key.end()] + f'"{_TOKEN}"'.encode() + data[end.end():]
            hook = functools.partial(_place_edges, path, edges, placed)
            try:
                payload = json.loads(rest.decode(), object_hook=hook) if rest.isascii() else None
            except json.JSONDecodeError:
                placed = []
        if not placed:  # the match was no "edges" field json keeps: read it all as json
            with io.TextIOWrapper(io.BytesIO(data)) as fh:  # decoded as open(path) would
                payload = json.load(fh, object_hook=functools.partial(_Fields, path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc
    if not isinstance(payload, _Fields):
        raise UsageError(f"{path}: the file holds no JSON object")
    return payload


# a command's exit code, its artifact body and its one stdout summary
Result = tuple[int, dict, str]


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def cmd_gen_3lin(args) -> Result:
    inst, witness = games.gen_3lin(args.n, args.eqs, derive_rng(args.seed, "gen-3lin"),
                                   planted=not args.random)
    body = {"instance": inst.to_json_dict()}
    if witness is not None:
        body["planted_assignment"] = list(witness)
    return EXIT_OK, body, f"wrote {args.out}: {inst.n} variables, {len(inst.equations)} equations"


def cmd_gen_game(args) -> Result:
    game = games.gen_toy_dto1_game(args.u, args.v, args.k, args.d,
                                   derive_rng(args.seed, "gen-game"),
                                   planted=not args.random, degree=args.degree)
    return (EXIT_OK, {"game": game.to_json_dict()},
            f"wrote {args.out}: {args.v}x{args.u} game, labels {game.m}->{game.k}, d={game.d}")


def cmd_build_mlpcp(args) -> Result:
    if args.game:
        game = _load(read_artifact(args.game), "game", games.Dto1Game)
        pcp = games.build_smooth_mlpcp(game, args.layers, args.smooth_t)
        smooth = games.check_smoothness(pcp)
        body = {"pcp": pcp.to_json_dict(),
                "smoothness": {"max_collision": smooth["max_collision"],
                               "bound": smooth["bound"], "ok": smooth["ok"]}}
        return (EXIT_OK if smooth["ok"] else EXIT_CERT, body,
                f"wrote {args.out}: smooth {pcp.layers}-layer PCP, "
                f"label sizes {list(pcp.label_sizes)}, "
                f"smoothness {smooth['max_collision']:.4f} <= {smooth['bound']:.4f}: {smooth['ok']}")
    try:
        sizes = [int(x) for x in args.label_sizes.split(",")]
    except ValueError:
        raise UsageError(f"--label-sizes is not a comma list of integers: {args.label_sizes!r}") from None
    if min(sizes) < 1:
        raise UsageError(f"--label-sizes needs each size at least 1, got {args.label_sizes}")
    if len(sizes) != args.layers:
        raise UsageError(f"--label-sizes gives {len(sizes)} sizes for --layers {args.layers}")
    pcp = games.gen_toy_mlpcp(args.layers, args.vars_per_layer, sizes,
                              derive_rng(args.seed, "build-mlpcp"),
                              density=args.density, planted=not args.random)
    return (EXIT_OK, {"pcp": pcp.to_json_dict()},
            f"wrote {args.out}: plain {pcp.layers}-layer PCP, label sizes {list(pcp.label_sizes)}")


def cmd_build_hadamard(args) -> Result:
    bundle = read_artifact(args.instance)
    inst = _load(bundle, "instance", games.Lin3Instance)
    gadget = hadamard.build(inst, args.r, triples=args.triples,
                            seed=derive_seed(args.seed, "build-hadamard"),
                            distinct_blocks=args.distinct_blocks)
    h = gadget.to_hypergraph()
    body = {"instance": inst.to_json_dict(), "hypergraph": h.to_json_dict()}
    if "planted_assignment" in bundle:
        body["planted_assignment"] = bundle["planted_assignment"]
    if args.edge_list:
        Path(args.edge_list).write_text(h.to_edge_list())
    return (EXIT_OK, body, f"wrote {args.out}: {len(h.vertices)} vertices, {len(h.edges)} edges, "
                           f"{gadget.dropped_degenerate} degenerate raw edges dropped")


def _config_epsilon(bundle: _Fields) -> Fraction:
    """The bundle's config.epsilon, 0 when absent, read by the --epsilon rule."""
    config = bundle.typed("config")
    try:
        return Fraction(_epsilon(config.typed("epsilon", str) if "epsilon" in config else "0"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{bundle.path}: field 'epsilon': {exc}") from None


def _load(payload: _Fields, key: str, cls, bare: bool = True):
    """cls.from_json_dict of a file's key field, or (if bare) of the file
    itself when it has none; a malformed one is a UsageError that names the file."""
    fields = payload.typed(key) if key in payload or not bare else payload
    try:
        return cls.from_json_dict(fields)
    except ValueError as exc:
        raise UsageError(f"{payload.path}: {exc}") from None


def _gadget_result(args, pcp: games.LayeredPcp, gadget: games.PcpGadget, **extra) -> Result:
    body = {"pcp": pcp.to_json_dict(), "mode": gadget.mode, **extra}
    if gadget.mode == "enumerate":
        body["hypergraph"] = gadget.to_hypergraph().to_json_dict()
    return EXIT_OK, body, f"wrote {args.out}: mode={gadget.mode}, {gadget.vertex_count} vertices"


def cmd_build_longcode(args) -> Result:
    pcp = _load(read_artifact(args.pcp), "pcp", games.LayeredPcp)
    return _gadget_result(args, pcp, longcode.build(pcp, Fraction(args.epsilon)))


def cmd_build_dto1(args) -> Result:
    pcp = _load(read_artifact(args.pcp), "pcp", games.LayeredPcp)
    return _gadget_result(args, pcp, dto1.build(pcp, args.delta), delta=args.delta)


def cmd_verify(args) -> Result:
    bundle = read_artifact(args.input)
    if "hypergraph" not in bundle:
        raise UsageError(f"{args.input}: the file holds no hypergraph")
    h = _load(bundle, "hypergraph", verify.GenericHypergraph, bare=False)
    if args.mode == "yes":  # the planted colouring, checked on the stored edges
        kind = bundle["hypergraph"].typed("meta").typed("kind", str)
        gadget_cls = {"longcode": longcode.LongCodeGadget, "dto1": dto1.Dto1Gadget}.get(kind)
        if kind != "hadamard" and gadget_cls is None:
            raise UsageError(f"{args.input}: unknown hypergraph kind {kind!r}")
        eps = _config_epsilon(bundle)  # only the long code removes: its * class
        pcp_fields = bundle.typed("pcp") if "pcp" in bundle else {}
        if kind == "hadamard" and "planted_assignment" in bundle:
            cfg = bundle["config"]
            r, triples, seed = (cfg.typed(name, int) for name in ("r", "triples", "seed"))
            inst = _load(bundle, "instance", games.Lin3Instance, bare=False)
            gadget = hadamard.build(inst, r, triples=triples, seed=derive_seed(seed, "build-hadamard"),
                                    distinct_blocks=cfg.get("distinct_blocks", False))
            if gadget.to_hypergraph() != h:
                raise UsageError(f"{args.input}: the stored hypergraph is not the one its config builds")
            result = hadamard.yes_coloring(gadget, bundle["planted_assignment"])
            removed, surviving, violations = result.removed, result.surviving_edges, len(result.violations)
        elif gadget_cls and pcp_fields.get("planted_labeling"):
            pcp = _load(bundle, "pcp", games.LayeredPcp, bare=False)
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
        within = not removed or h.weight_of(removed) <= eps * h.total_weight
        return (EXIT_OK if report["ok"] and within else EXIT_CERT, {"yes_certificate": report},
                f"yes-case certificate: removed={report['removed']} "
                f"violations={report['violations']} ok={report['ok']}")
    if args.mode == "max-is":
        res = verify.max_independent_set(h, budget=args.budget)
        report = {"weight": [res.weight.numerator, res.weight.denominator],
                  "size": len(res.vertices), "optimal": res.optimal,
                  "vertices": sorted(res.vertices)}
        return (EXIT_OK, {"max_is": report},
                f"max independent set: weight {res.weight} ({len(res.vertices)} vertices), "
                f"optimal={res.optimal}")
    if args.mode == "two-color":
        res = verify.two_colorable(h, budget=args.budget)
        label, report = "two-colorable", {"two_colorable": res.colorable}
    else:
        res = verify.almost_two_colorable(h, Fraction(args.epsilon), budget=args.budget)
        label = f"almost-two-colorable at eps={args.epsilon}"
        report = {"success": res.colorable,
                  "removed": None if res.removal is None else sorted(res.removal)}
    verdict = f"inconclusive after {res.nodes} nodes" if res.colorable is None else res.colorable
    return EXIT_OK if res.colorable else EXIT_CERT, report, f"{label}: {verdict}"


def cmd_analyze(args) -> Result:
    if not (args.correlations or args.spectra or args.family or args.gamma is not None):
        raise UsageError("analyze needs one of --correlations, --spectra, --family, --gamma")
    body: dict = {}
    if args.correlations:
        body["correlations"] = dto1.correlation_suite(args.delta, args.r)
        dist = dto1.dist_table(args.delta, args.r)
        body["min_atom"] = body["correlations"]["min_atom"]
        if args.csv:
            Path(args.csv).write_text(dist.to_csv())
    if args.spectra:
        table = read_artifact(args.spectra)
        values = np.array(table.numbers("values"), dtype=np.float64)
        m = max(values.size, 1).bit_length() - 1
        if values.size != 1 << m:
            raise UsageError(f"{args.spectra}: field 'values' does not hold 2**m numbers")
        spec = gf2.fourier_transform(gf2.RealTable(m, values))
        body["spectrum_csv"] = gf2.spectrum_to_csv(spec)
    if args.family:
        fam = ternary.TernaryFamily.deserialize(Path(args.family).read_text().strip())
        inf = ternary.influences(fam)
        body["influences"] = [float(x) for x in inf]
        body["average_sensitivity"] = float(inf.sum())
        body["measure"] = ternary.measure(fam)
    if args.gamma is not None:
        lo, hi = boolfn.gamma_bounds(args.gamma, args.mu, args.nu)
        body["gamma_lower"] = lo
        body["gamma_upper"] = hi
    summary = (f"wrote {args.out}" if args.out
               else json.dumps(body, indent=2, sort_keys=True, default=str))
    return EXIT_OK, body, summary


# the flags only the d-to-1 decoder reads, and their defaults
DTO1_DECODE_FLAGS = {"eps": 0.5, "gamma": 0.01, "tau": 1e-4, "s": 3.0}


def cmd_decode(args) -> Result:
    for flag, default in DTO1_DECODE_FLAGS.items():
        if args.kind == "longcode" and getattr(args, flag) is not None:
            raise UsageError(f"decode --kind longcode does not take --{flag}")
        if args.kind == "dto1" and getattr(args, flag) is None:
            setattr(args, flag, default)  # so that main records it in the config
    bundle = read_artifact(args.gadget)
    pcp = _load(bundle, "pcp", games.LayeredPcp, bare=False)
    indicator_data = read_artifact(args.indicator)
    if args.kind == "longcode":
        if "epsilon" not in bundle.get("config", {}):
            raise UsageError(f"{args.gadget}: not a long-code gadget bundle (no config.epsilon)")
        gadget = longcode.build(pcp, _config_epsilon(bundle))
        outcome = longcode.decode(gadget, indicator_data.numbers("vertices", (int,)), args.delta,
                                  seed=derive_seed(args.seed, "decode"))
        report = {
            "labels_v": {f"{k[0]},{k[1]}": v for k, v in outcome.rho.items()},
            "labels_u": {f"{k[0]},{k[1]}": v for k, v in outcome.lam.items()},
        }
    else:
        T = (pcp.params or {}).get("T")
        if T is None:
            raise UsageError("decode --kind dto1 needs a smooth PCP, whose params carry T")
        params = dto1.DecodeParams(args.delta, args.eps, args.gamma, args.tau, args.s, T)
        variables = {f"{l},{v}": (l, v) for l in range(pcp.layers) for v in range(pcp.var_counts[l])}
        fields = indicator_data.typed("indicators")
        indicators = {}
        for key in fields:  # one "layer,var" key per PCP variable, 2**label_size numbers each
            if key not in variables:
                raise UsageError(f"{args.indicator}: field {key!r} names no PCP variable 'layer,var'")
            layer, var = variables[key]
            if pcp.label_sizes[layer] > gf2.MAX_TABLE_WIDTH:
                raise UsageError(f"{args.gadget}: label size {pcp.label_sizes[layer]} of layer {layer} "
                                 f"is over {gf2.MAX_TABLE_WIDTH}, the widest cube table")
            values = fields.numbers(key, count=1 << pcp.label_sizes[layer])
            indicators[layer, var] = np.array(values, dtype=np.float64)
        for key in variables:
            if key not in fields:
                raise UsageError(f"{args.indicator}: no indicator for PCP variable {key!r}")
        outcome = dto1.decode(indicators, pcp, params, seed=derive_seed(args.seed, "decode"))
        report = {"outcome": outcome.outcome}
    report.update(layer_pair=list(outcome.layer_pair),
                  satisfied_fraction=str(outcome.satisfied_fraction),
                  satisfied_fraction_all=str(outcome.satisfied_fraction_all))
    return EXIT_OK, {"decode": report}, json.dumps(report, indent=2, sort_keys=True)


def cmd_report(args) -> Result:
    checks = []
    inputs = []
    for path in args.inputs:
        payload = read_artifact(path)
        inputs.append({"path": str(path),
                       "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()})
        for key, value in payload.items():  # each ok a JSON bool: bool("false") would pass
            if isinstance(value, dict) and "ok" in value:
                checks.append({"source": str(path), "check": key, "ok": value.typed("ok", bool)})
            elif key.endswith("_ok") or key == "ok":
                checks.append({"source": str(path), "check": key, "ok": payload.typed(key, bool)})
            elif key == "correlations":
                correlations = payload.typed(key)
                for ck in correlations:
                    if ck.endswith("_ok"):
                        checks.append({"source": str(path), "check": ck,
                                       "ok": correlations.typed(ck, bool)})
    all_ok = all(c["ok"] for c in checks) if checks else True
    return (EXIT_OK if all_ok else EXIT_CERT, {"inputs": inputs, "checks": checks, "all_ok": all_ok},
            f"wrote {args.out}: {sum(c['ok'] for c in checks)}/{len(checks)} checks pass")


def _epsilon(text: str) -> str:
    """A rational in [0, 1], kept as written, so that configs record it verbatim."""
    try:
        if 0 <= Fraction(text) <= 1:
            return text
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")


def _density(text: str) -> float:
    if not 0 <= float(text) <= 1:  # NaN fails the comparison
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return float(text)


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
    p.add_argument("--eqs", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true", help="random right-hand sides (no witness)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_3lin)

    p = sub.add_parser("gen-game", help="toy bi-regular d-to-1 game")
    p.add_argument("--u", type=_int_at_least(1), required=True)
    p.add_argument("--v", type=_int_at_least(1), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--degree", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_game)

    p = sub.add_parser("build-mlpcp", help="layered PCP: smooth (from a game) or toy plain")
    p.add_argument("--game", help="game artifact for the smooth build")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--smooth-t", type=int, default=1)
    p.add_argument("--vars-per-layer", type=_int_at_least(1), default=2)
    p.add_argument("--label-sizes", default="3,3",
                   help="comma list, plain build only")
    p.add_argument("--density", type=_density, default=1.0)
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
    for flag, default in DTO1_DECODE_FLAGS.items():
        p.add_argument(f"--{flag}", type=float, help=f"--kind dto1 only (default {default})")
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
        code, body, summary = args.func(args)
        if args.out:
            write_artifact(args.out, {"config": _config_dict(args), **body})
        print(summary)
        return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
