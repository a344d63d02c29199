"""Weighted 3-uniform hypergraph over biased long codes of a layered PCP.

Each PCP variable carries a copy of {*, 1, 2}^(label count) weighted by the
biased product measure; hyperedges join one point of the smaller-side code
with two points of the larger-side code whenever no matched coordinate
triple is (1,1,1) or (2,2,2).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ternary
from .games import (LayeredPcp, PcpGadget, code_layout, dictator_colors, heavy_layer_pair,
                    satisfied_fractions)
from .seeding import derive_rng
from .ternary import TernaryFamily, WitnessPair, two_element_witness
from .verify import GenericHypergraph, rows_inside

SIZE_CAP = 10**7
ENUMERATE_LABEL_CAP = 4


# _FORBIDDEN[d, 3a + b]: x digit d rules out the (y, z) digit pair (a, b), as (d, a, b) is (1,1,1) or (2,2,2)
_FORBIDDEN = np.array([[d == a == b != ternary.STAR for a in range(3) for b in range(3)] for d in range(3)])


def _constraint_rows(proj: tuple[int, ...], r_big: int, r_small: int) -> np.ndarray:
    """All (x, y, z) index triples passing the coordinate rule: by x, then by
    the allowed (y, z) digit pair of each coordinate, coordinate 0 slowest:
    the kept cells of one mask over every x and all 9 pairs per coordinate."""
    xd = ternary.digits_matrix(r_small)
    keep = np.ones((3**r_small,) + (9,) * r_big, dtype=bool)
    for j, i in enumerate(proj):
        keep &= ~_FORBIDDEN[xd[:, i]].reshape((-1,) + (1,) * j + (9,) + (1,) * (r_big - 1 - j))
    flat = np.flatnonzero(keep)
    y_of, z_of = 3 ** np.arange(r_big) @ np.divmod(np.indices((9,) * r_big).reshape(r_big, -1), 3)
    rows = np.empty((len(flat), 3), dtype=np.int64)
    np.floor_divide(flat, 9**r_big, out=rows[:, 0])
    np.remainder(flat, 9**r_big, out=flat)
    np.take(y_of, flat, out=rows[:, 1], mode="clip")  # "clip" writes out without a buffer
    np.take(z_of, flat, out=rows[:, 2], mode="clip")
    return rows


@dataclass
class LongCodeGadget(PcpGadget):
    base = 3
    removed_digit = ternary.STAR

    epsilon: Fraction

    @property
    def p(self) -> Fraction:
        return 1 - self.epsilon

    def vertex_weight(self, layer: int, var: int, point: int) -> Fraction:
        m = self.pcp.label_sizes[layer]
        stars = ternary.point_digits(point, m).count(ternary.STAR)
        return self.epsilon**stars * (self.p / 2) ** (m - stars) / (self.pcp.layers * self.pcp.var_counts[layer])

    def point_weights(self) -> list[Fraction]:
        """vertex_weight of every vertex, in vertex id order: a weight depends only
        on the layer and the point's star count, so each layer has m + 1 of them."""
        per_layer = {}
        for l in dict.fromkeys(l for l, _ in self.offsets):
            m, share = self.pcp.label_sizes[l], self.pcp.layers * self.pcp.var_counts[l]
            by_stars = [self.epsilon**s * (self.p / 2) ** (m - s) / share for s in range(m + 1)]
            stars = (ternary.digits_matrix(m) == ternary.STAR).sum(axis=1)
            per_layer[l] = [by_stars[s] for s in stars.tolist()]
        return [w for l, _ in self.offsets for w in per_layer[l]]

    def edge_exists(self, ci: int, x: int, y: int, z: int) -> bool:
        """Whether (x, y, z) is a rule hit of constraint ci: no matched
        coordinate triple is (1, 1, 1) or (2, 2, 2). A y == z hit is a pair
        constraint, not a 3-uniform edge."""
        c = self.pcp.constraints[ci]
        xd = ternary.point_digits(x, self.pcp.label_sizes[c.to_layer])
        yd, zd = (ternary.point_digits(p, self.pcp.label_sizes[c.from_layer]) for p in (y, z))
        return not any(_FORBIDDEN[xd[i], 3 * yd[j] + zd[j]] for j, i in enumerate(c.projection))

    def sample_hits(self, ci: int, rng: random.Random, samples: int):
        """A uniform x, then a uniform allowed digit pair per coordinate."""
        allowed = [np.flatnonzero(~row).tolist() for row in _FORBIDDEN]
        c = self.pcp.constraints[ci]
        r_small = self.pcp.label_sizes[c.to_layer]
        for _ in range(samples):
            x = rng.randrange(3**r_small)
            xd = ternary.point_digits(x, r_small)
            pairs = [divmod(rng.choice(allowed[xd[i]]), 3) for i in c.projection]
            yield x, ternary.point_index(a for a, _ in pairs), ternary.point_index(b for _, b in pairs)

    def to_hypergraph(self) -> GenericHypergraph:
        return self._export({"kind": "longcode",
                             "epsilon": [self.epsilon.numerator, self.epsilon.denominator]})


def build(pcp: LayeredPcp, epsilon) -> LongCodeGadget:
    """Vertices, exact weights, and the per-constraint edge rule; edges are
    materialized when every label set is small enough to scan."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    offsets, total = code_layout(pcp, LongCodeGadget.base, SIZE_CAP)
    mode = "enumerate" if max(pcp.label_sizes) <= ENUMERATE_LABEL_CAP else "rule"
    tables: dict = {}  # (projection, label sizes) -> its constraints' shared hit table
    constraint_edges = []
    for c in pcp.constraints:
        key = (c.projection, pcp.label_sizes[c.from_layer], pcp.label_sizes[c.to_layer])
        if mode == "enumerate" and key not in tables:
            tables[key] = _constraint_rows(*key)
        constraint_edges.append(tables.get(key))
    return LongCodeGadget(pcp, mode, offsets, total, constraint_edges, eps)


@dataclass
class PartitionResult:
    class_of: dict[int, int]
    weights: tuple[Fraction, Fraction, Fraction]
    violations: list[tuple[int, int, int, int]]
    checked_edges: int
    surviving_edges: int
    coverage: str

    @property
    def ok(self) -> bool:
        return not self.violations


def yes_partition(g: LongCodeGadget, sigma, samples: int = 2000,
                  seed: int = 0) -> PartitionResult:
    """Partition by the coordinate named by a satisfying labeling.

    Classes are keyed 1, 2, 0(=star), with weights summed over their
    vertices; the certificate confirms that no surviving edge lies inside
    class 1 or class 2.
    """
    res = g.dictator_check(sigma, samples, seed)
    colors = dictator_colors(g.pcp, g.base, sigma) if res.colors is None else res.colors
    class_of = dict(enumerate(colors.tolist()))
    weights = [Fraction(0)] * 3
    for digit, w in zip(class_of.values(), g.point_weights()):
        weights[digit] += w
    return PartitionResult(
        class_of, (weights[ternary.ONE], weights[ternary.TWO], weights[ternary.STAR]),
        res.violations, res.checked, res.surviving, res.coverage)


@dataclass
class DecodeOutcome:
    heavy: dict[int, list[int]]
    layer_pair: tuple[int, int]
    witnesses: dict[tuple[int, int], WitnessPair]
    rho: dict[tuple[int, int], int]
    lam: dict[tuple[int, int], int]
    satisfied_fraction: Fraction
    satisfied_fraction_all: Fraction
    contradictions: list
    diagnostics: dict


def _indicator_families(g: LongCodeGadget, indicator: set[int]) -> dict[tuple[int, int], TernaryFamily]:
    members = np.isin(np.arange(g.vertex_count), list(indicator))
    return {(l, v): TernaryFamily(g.pcp.label_sizes[l], members[off:off + 3 ** g.pcp.label_sizes[l]],
                                  float(g.p))
            for (l, v), off in g.offsets.items()}


def check_independent(g: LongCodeGadget, families: dict[tuple[int, int], TernaryFamily],
                      samples: int = 5000, seed: int = 0) -> tuple[int, int, int] | None:
    """First edge inside the indicator, or None. Exhaustive in enumerate
    mode, sampled otherwise."""
    if g.mode == "enumerate":
        members = np.concatenate([families[key].membership for key in g.offsets])
        rows, starts = g.hit_rows()
        inside = g.local_hits(rows, starts, np.flatnonzero(rows_inside(members, rows))[:1])
        return inside[0] if inside else None
    rng = random.Random(seed)
    for ci, c in enumerate(g.pcp.constraints):
        xs = np.flatnonzero(families[(c.to_layer, c.u)].membership).tolist()
        ys = np.flatnonzero(families[(c.from_layer, c.v)].membership).tolist()
        if not xs or not ys:
            continue
        for _ in range(samples):
            x, y, z = rng.choice(xs), rng.choice(ys), rng.choice(ys)
            for hit in ((x, y, z), (x, y, y)):
                if g.edge_exists(ci, *hit):
                    return (ci, *hit)
    return None


def decode(g: LongCodeGadget, indicator, delta: float, seed: int = 0) -> DecodeOutcome:
    """No-case decoding: close the indicator monotonically, check it is
    independent, keep heavy variables, pick a dense layer pair, extract a
    two-element witness per variable, and label by witness-projection
    plurality."""
    pcp = g.pcp
    indicator = set(indicator)
    stray = [v for v in indicator if not 0 <= v < g.vertex_count]
    if stray:
        raise ValueError(f"indicator vertex {stray[0]} is not a vertex id in [0, {g.vertex_count})")
    members = np.isin(np.arange(g.vertex_count), list(indicator))
    weight = sum(itertools.compress(g.point_weights(), members), Fraction(0))
    if weight < Fraction(delta).limit_denominator(10**9):
        raise ValueError(f"indicator weight {weight} is below delta={delta}")
    families = {key: ternary.monotone_closure(f)
                for key, f in _indicator_families(g, indicator).items()}
    witness_edge = check_independent(g, families, seed=seed)
    if witness_edge is not None:
        raise ValueError(f"indicator contains edge {witness_edge} after closure")

    heavy, qualified, density = heavy_layer_pair(
        pcp, {key: ternary.measure(fam) for key, fam in families.items()}, delta)
    l, l2 = density["best_pair"]
    half = delta / 2.0

    rng = derive_rng(seed, "labels")
    witnesses: dict[tuple[int, int], WitnessPair] = {}
    contradictions = []
    rho: dict[tuple[int, int], int] = {}
    for v in sorted(qualified[l]):
        wrng = derive_rng(seed, "witness", l, v)
        wp = two_element_witness(families[(l, v)], half, wrng)
        if not wp.subset:
            contradictions.append((l, v, wp))
            continue
        witnesses[(l, v)] = wp
        rho[(l, v)] = wp.subset[rng.randrange(len(wp.subset))]

    lam: dict[tuple[int, int], int] = {}
    for u in sorted(qualified[l2]):
        counts = Counter(c.projection[rho[(l, c.v)]] for c in pcp.constraints_between(l, l2)
                         if c.u == u and (l, c.v) in rho)
        if counts:
            best = max(counts.values())
            lam[(l2, u)] = min(a for a, n in counts.items() if n == best)

    return DecodeOutcome(
        heavy, (l, l2), witnesses, rho, lam,
        *satisfied_fractions(pcp, (l, l2), rho, lam),
        contradictions,
        {"density": {str(k): str(f) for k, f in density["per_pair"].items()},
         "hypothesis_met": density["hypothesis_met"]},
    )


def _max_disjoint(sets: list[frozenset]) -> list[int]:
    """The first largest pairwise disjoint subfamily, by index, that a
    depth-first search taking each set before skipping it meets."""
    best: tuple[int, ...] = ()
    # (next index, union of the chosen sets, chosen indices); the take
    # branch is pushed last so it is searched first.
    stack = [(0, frozenset(), ())]
    while stack:
        idx, used, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        if idx == len(sets) or len(chosen) + (len(sets) - idx) <= len(best):
            continue
        stack.append((idx + 1, used, chosen))
        if not (sets[idx] & used):
            stack.append((idx + 1, used | sets[idx], chosen + (idx,)))
    return list(best)


def common_element(collection, T: int, D: int):
    """An element covering at least N/(T*D) of N sets, provided each set
    has size at most T and no D+1 of them are pairwise disjoint."""
    sets = [frozenset(s) for s in collection]
    if not sets:
        raise ValueError("empty collection")
    oversized = [i for i, s in enumerate(sets) if len(s) > T]
    if oversized:
        raise ValueError(f"set {oversized[0]} exceeds the size bound {T}")
    packing = _max_disjoint(sets)
    if len(packing) > D:
        witness = [sorted(sets[i]) for i in packing]
        raise ValueError(f"found {len(witness)} pairwise disjoint sets: {witness}")
    counts = Counter(e for s in sets for e in s)
    element = max(sorted(counts), key=lambda e: counts[e])
    count = counts[element]
    if count * T * D < len(sets):
        raise AssertionError("coverage bound violated; packing check must be wrong")
    return element, count
