"""Weighted 3-uniform hypergraph over biased long codes of a layered PCP.

Each PCP variable carries a copy of {*, 1, 2}^(label count) weighted by the
biased product measure; hyperedges join one point of the smaller-side code
with two points of the larger-side code whenever no matched coordinate
triple is (1,1,1) or (2,2,2).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ternary
from .games import (LayeredPcp, PcpGadget, code_layout, dictator_colors, heavy_layer_pair,
                    satisfied_fractions, split_degenerate)
from .seeding import derive_rng
from .ternary import TernaryFamily, WitnessPair, two_element_witness
from .verify import GenericHypergraph

SIZE_CAP = 10**7
ENUMERATE_LABEL_CAP = 4


class IndependenceError(ValueError):
    """The (closed) indicator contains a hyperedge."""


def _allowed_pairs(x_digit: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(3) for b in range(3)]
    if x_digit in (ternary.ONE, ternary.TWO):
        pairs.remove((x_digit, x_digit))
    return pairs


def _constraint_triples(proj: tuple[int, ...], r_big: int, r_small: int):
    """All (x, y, z) index triples passing the coordinate rule."""
    triples = []
    small_digits = ternary.digits_matrix(r_small)
    for x in range(3**r_small):
        xd = small_digits[x]
        partial: list[tuple[int, int, int]] = [(x, 0, 0)]
        for j in range(r_big):
            step = 3**j
            allowed = _allowed_pairs(int(xd[proj[j]]))
            partial = [(x, y + a * step, z + b * step)
                       for (_, y, z) in partial for (a, b) in allowed]
        triples += partial
    return triples


@dataclass
class LongCodeGadget(PcpGadget):
    base = 3
    removed_digit = ternary.STAR

    epsilon: Fraction

    @property
    def p(self) -> Fraction:
        return 1 - self.epsilon

    def vertex_weight(self, layer: int, var: int, point: int) -> Fraction:
        p = self.p
        digits = ternary.point_digits(point, self.pcp.label_sizes[layer])
        w = Fraction(1)
        for d in digits:
            w *= self.epsilon if d == ternary.STAR else p / 2
        return w / (self.pcp.layers * self.pcp.var_counts[layer])

    def edge_exists(self, ci: int, x: int, y: int, z: int) -> bool:
        """Whether (x, y, z) is a rule hit of constraint ci: no matched
        coordinate triple is (1, 1, 1) or (2, 2, 2). A y == z hit is a pair
        constraint, not a 3-uniform edge."""
        c = self.pcp.constraints[ci]
        xd = ternary.point_digits(x, self.pcp.label_sizes[c.to_layer])
        yd = ternary.point_digits(y, self.pcp.label_sizes[c.from_layer])
        zd = ternary.point_digits(z, self.pcp.label_sizes[c.from_layer])
        return all((xd[i], yd[j], zd[j]) not in ((1, 1, 1), (2, 2, 2))
                   for j, i in enumerate(c.projection))

    def sample_hits(self, ci: int, rng: random.Random, samples: int):
        """A uniform x, then a uniform allowed digit pair per coordinate."""
        c = self.pcp.constraints[ci]
        r_big = self.pcp.label_sizes[c.from_layer]
        r_small = self.pcp.label_sizes[c.to_layer]
        for _ in range(samples):
            x = rng.randrange(3**r_small)
            xd = ternary.point_digits(x, r_small)
            y = z = 0
            for j in range(r_big):
                a, b = rng.choice(_allowed_pairs(xd[c.projection[j]]))
                y += a * 3**j
                z += b * 3**j
            yield x, y, z

    def to_hypergraph(self) -> GenericHypergraph:
        return self._export(self.vertex_weight, {
            "kind": "longcode", "epsilon": [self.epsilon.numerator, self.epsilon.denominator]})


def build(pcp: LayeredPcp, epsilon) -> LongCodeGadget:
    """Vertices, exact weights, and the per-constraint edge rule; edges are
    materialized when every label set is small enough to scan."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    offsets, total = code_layout(pcp, LongCodeGadget.base)
    if total > SIZE_CAP:
        raise ValueError(f"gadget would have {total} vertices, cap is {SIZE_CAP}")
    mode = "enumerate" if max(pcp.label_sizes) <= ENUMERATE_LABEL_CAP else "rule"
    constraint_edges: list[list[tuple[int, int, int]] | None] = []
    constraint_pairs: list[list[tuple[int, int]] | None] = []
    for c in pcp.constraints:
        edges = pairs = None
        if mode == "enumerate":
            edges, pairs = split_degenerate(_constraint_triples(
                c.projection, pcp.label_sizes[c.from_layer], pcp.label_sizes[c.to_layer]))
        constraint_edges.append(edges)
        constraint_pairs.append(pairs)
    return LongCodeGadget(pcp, mode, offsets, total, constraint_edges, constraint_pairs, eps)


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
    class_of = dict(enumerate(dictator_colors(g.pcp, g.base, sigma).tolist()))
    weights = [Fraction(0)] * 3
    for digit, w in zip(class_of.values(), g.point_weights(g.vertex_weight)):
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
        inside = g.local_hits(rows, starts, np.flatnonzero(members[rows].all(axis=1))[:1])
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
    weight = sum(itertools.compress(g.point_weights(g.vertex_weight), members), Fraction(0))
    if weight < Fraction(delta).limit_denominator(10**9):
        raise ValueError(f"indicator weight {weight} is below delta={delta}")
    families = {key: ternary.monotone_closure(f)
                for key, f in _indicator_families(g, indicator).items()}
    witness_edge = check_independent(g, families, seed=seed)
    if witness_edge is not None:
        raise IndependenceError(f"indicator contains edge {witness_edge} after closure")

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
        counts: dict[int, int] = {}
        for c in pcp.constraints_between(l, l2):
            if c.u != u or (l, c.v) not in rho:
                continue
            a = c.projection[rho[(l, c.v)]]
            counts[a] = counts.get(a, 0) + 1
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


class DisjointnessError(ValueError):
    """The collection has more pairwise disjoint members than promised."""

    def __init__(self, witness):
        super().__init__(f"found {len(witness)} pairwise disjoint sets: {witness}")
        self.witness = witness


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
        raise DisjointnessError([sorted(sets[i]) for i in packing])
    counts: dict = {}
    for s in sets:
        for e in s:
            counts[e] = counts.get(e, 0) + 1
    element = max(sorted(counts), key=lambda e: counts[e])
    count = counts[element]
    if count * T * D < len(sets):
        raise AssertionError("coverage bound violated; packing check must be wrong")
    return element, count
