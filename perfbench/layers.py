"""Trace targets for the traced run and the per-layer metrics derived from
their spans and counters.

Layers are the program's modules: games, hadamard, longcode, dto1, gf2,
ternary, boolfn, verify, cli. A target wraps the attribute the caller looks
up: `longcode.decode` calls `longcode.two_element_witness`, so that global is
wrapped under the span name `ternary.two_element_witness`. Per-element
helpers (`vertex_id`, `reduce_bits`, `point_digits`, the inner `local`) are
left alone: they run millions of times and would time the wrapper instead.
"""
from __future__ import annotations

import os

import numpy as np

from gadgetlab import cli, dto1, games, gf2, hadamard, longcode, ternary, verify

from tracing import Target

# The workload's dominant layer, per the workload's design; reported under
# one name so that every workload carries a time for its own bottleneck.
BOTTLENECK = {
    "dto1-yes": ("verify.two_colorable",),
    "dto1-decode": ("dto1.cross_expectation",),
    "longcode-export": ("longcode.to_hypergraph", "cli.write_artifact"),
    "hadamard-mis": ("verify.max_independent_set",),
}


def _export(module):
    def hook(count, args, kwargs, result):
        gadget = args[0]
        if module == "hadamard":
            raw = sum(len(e) for e in gadget.edges_per_triple)
        else:
            raw = sum(len(e) for e in gadget.constraint_edges if e is not None)
        count(f"{module}.to_hypergraph.edges", len(result.edges))
        count(f"{module}.to_hypergraph.raw_edges", raw)
        count(f"{module}.to_hypergraph.dropped_degenerate", result.meta["dropped_degenerate"])
    return hook


def _nonzero(a) -> int:
    return int(np.count_nonzero(np.abs(np.asarray(a)) > 1e-15))


def targets() -> list[Target]:
    gadgets = {"dto1": (dto1, dto1.Dto1Gadget), "longcode": (longcode, longcode.LongCodeGadget),
               "hadamard": (hadamard, hadamard.HadamardGadget)}
    out = [
        Target(cli, "main", "cli.main",
               hook=lambda c, a, k, r: c("cli.main.nonzero_exits", int(r != 0))),
        Target(cli, "write_artifact", "cli.write_artifact",
               hook=lambda c, a, k, r: c("cli.write_artifact.bytes", os.path.getsize(a[0]))),
        Target(cli, "read_artifact", "cli.read_artifact",
               hook=lambda c, a, k, r: c("cli.read_artifact.bytes", os.path.getsize(a[0]))),
        Target(games, "gen_3lin", "games.gen"),
        Target(games, "gen_toy_dto1_game", "games.gen"),
        Target(games, "gen_toy_mlpcp", "games.gen",
               hook=lambda c, a, k, r: c("games.constraints", len(r.constraints))),
        Target(games, "build_smooth_mlpcp", "games.build_smooth_mlpcp",
               hook=lambda c, a, k, r: c("games.constraints", len(r.constraints))),
        Target(verify.GenericHypergraph, "__post_init__", "verify.hypergraph_validate"),
        Target(verify.GenericHypergraph, "from_json_dict", "verify.from_json_dict"),
        Target(verify, "two_colorable", "verify.two_colorable",
               hook=lambda c, a, k, r: (c("verify.two_colorable.nodes", r.nodes),
                                        c("verify.two_colorable.max_depth", r.max_depth))),
        Target(verify, "max_independent_set", "verify.max_independent_set",
               hook=lambda c, a, k, r: (c("verify.max_independent_set.nodes", r.nodes_expanded),
                                        c("verify.max_independent_set.optimal", int(r.optimal)))),
        Target(dto1, "cross_expectation", "dto1.cross_expectation",
               pre=lambda c, a, k: c("dto1.cross_expectation.terms",
                                     _nonzero(a[0]) * _nonzero(a[1]))),
        Target(dto1, "cube_spectrum", "dto1.cube_spectrum"),
        Target(dto1, "noisy_influences", "dto1.influences"),
        Target(dto1, "block_noisy_influences", "dto1.influences"),
        Target(dto1, "shattered_decomposition", "dto1.shattered_decomposition"),
        Target(dto1, "decode", "dto1.decode"),
        Target(dto1, "yes_check", "dto1.yes_check",
               hook=lambda c, a, k, r: c("dto1.yes_check.checked", r.checked)),
        Target(longcode, "yes_partition", "longcode.yes_partition",
               hook=lambda c, a, k, r: c("longcode.yes_partition.checked_edges", r.checked_edges)),
        Target(longcode, "decode", "longcode.decode"),
        Target(longcode, "check_independent", "longcode.check_independent"),
        Target(longcode, "two_element_witness", "ternary.two_element_witness"),
        Target(ternary, "monotone_closure", "ternary.monotone_closure"),
        Target(hadamard, "yes_coloring", "hadamard.yes_coloring"),
        Target(hadamard, "extract_strategies", "hadamard.extract_strategies"),
        Target(gf2, "fourier_transform", "gf2.fourier_transform"),
        Target(gf2, "unfold", "gf2.unfold"),
    ]
    for name, (module, cls) in gadgets.items():
        out.append(Target(module, "build", f"{name}.build"))
        out.append(Target(cls, "to_hypergraph", f"{name}.to_hypergraph", hook=_export(name)))
    return out


# Every per-layer metric the traced run reports, with its unit.
SPAN_NAMES = sorted({t.span for t in targets()})
COUNTERS = {
    "cli.main.nonzero_exits": "count",
    "cli.write_artifact.bytes": "bytes",
    "cli.read_artifact.bytes": "bytes",
    "games.constraints": "count",
    "verify.two_colorable.nodes": "count",
    "verify.two_colorable.max_depth": "count",
    "verify.max_independent_set.nodes": "count",
    "dto1.cross_expectation.terms": "count",
    "dto1.yes_check.checked": "count",
    "longcode.yes_partition.checked_edges": "count",
    **{f"{m}.to_hypergraph.{k}": "count"
       for m in ("dto1", "longcode", "hadamard") for k in ("edges", "dropped_degenerate")},
}


def layer_metrics(workload: str, self_s: dict[str, float], counters: dict[str, float],
                  iterations: int) -> dict[str, tuple[float, str]]:
    """Per-iteration means: self time and calls of every span name, the
    counters, and the derived ratios. Names absent from the run read 0."""
    n = max(iterations, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
        out[f"{name}.calls"] = (counters.get(f"{name}.calls", 0) / n, "count")
    for name, unit in COUNTERS.items():
        out[name] = (counters.get(name, 0) / n, unit)
    for m in ("dto1", "longcode", "hadamard"):
        raw = counters.get(f"{m}.to_hypergraph.raw_edges", 0)
        edges = counters.get(f"{m}.to_hypergraph.edges", 0)
        out[f"{m}.to_hypergraph.dedup_ratio"] = (edges / raw if raw else 0.0, "ratio")
    mis_calls = counters.get("verify.max_independent_set.calls", 0)
    mis_time = self_s.get("verify.max_independent_set", 0.0)
    out["verify.max_independent_set.nodes_per_s"] = (
        counters.get("verify.max_independent_set.nodes", 0) / mis_time if mis_time else 0.0, "1/s")
    out["verify.max_independent_set.optimal_ratio"] = (
        counters.get("verify.max_independent_set.optimal", 0) / mis_calls if mis_calls else 0.0,
        "ratio")
    out["bottleneck.self_s"] = (sum(self_s.get(s, 0.0) for s in BOTTLENECK[workload]) / n, "s")
    return out
