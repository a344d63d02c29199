"""Weighted 3-uniform hypergraph over biased long codes of a layered PCP.

Each PCP variable carries a copy of {*, 1, 2}^(label count) weighted by the
biased product measure; hyperedges join one point of the smaller-side code
with two points of the larger-side code whenever no matched coordinate
triple is (1,1,1) or (2,2,2).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ternary
from .games import (LayeredPcp, PcpConstraint, PcpGadget, check_labeling, code_layout,
                    heavy_layer_pair, satisfied_fractions, split_degenerate)
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


def _edge_allowed(proj: tuple[int, ...], x_digits, y_digits, z_digits) -> bool:
    for j, i in enumerate(proj):
        t = (x_digits[i], y_digits[j], z_digits[j])
        if t == (1, 1, 1) or t == (2, 2, 2):
            return False
    return True


@dataclass
class LongCodeGadget(PcpGadget):
    base = 3

    epsilon: Fraction

    @property
    def p(self) -> Fraction:
        return 1 - self.epsilon

    def vertex_info(self, vid: int) -> tuple[int, int, int]:
        best = None
        for (layer, var), off in self.offsets.items():
            if off <= vid and (best is None or off > best[2]):
                best = (layer, var, off)
        layer, var, off = best
        return layer, var, vid - off

    def vertex_weight(self, layer: int, var: int, point: int) -> Fraction:
        p = self.p
        digits = ternary.point_digits(point, self.pcp.label_sizes[layer])
        w = Fraction(1)
        for d in digits:
            w *= self.epsilon if d == ternary.STAR else p / 2
        return w / (self.pcp.layers * self.pcp.var_counts[layer])

    def edge_exists(self, ci: int, x: int, y: int, z: int) -> bool:
        """Rule test for distinct-point triples; y == z rule hits are pair
        constraints, not 3-uniform edges."""
        c = self.pcp.constraints[ci]
        xd = ternary.point_digits(x, self.pcp.label_sizes[c.to_layer])
        yd = ternary.point_digits(y, self.pcp.label_sizes[c.from_layer])
        zd = ternary.point_digits(z, self.pcp.label_sizes[c.from_layer])
        return y != z and _edge_allowed(c.projection, xd, yd, zd)

    def pair_exists(self, ci: int, x: int, y: int) -> bool:
        c = self.pcp.constraints[ci]
        xd = ternary.point_digits(x, self.pcp.label_sizes[c.to_layer])
        yd = ternary.point_digits(y, self.pcp.label_sizes[c.from_layer])
        return _edge_allowed(c.projection, xd, yd, yd)

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

    Classes are keyed 1, 2, 0(=star); the certificate confirms that no
    surviving edge lies inside class 1 or class 2.
    """
    pcp = g.pcp
    sigma = check_labeling(pcp, sigma)
    class_of: dict[int, int] = {}
    w1 = w2 = wstar = Fraction(0)
    for l in range(pcp.layers):
        share = Fraction(1, pcp.layers * pcp.var_counts[l])
        for v in range(pcp.var_counts[l]):
            j = sigma[l][v]
            m = pcp.label_sizes[l]
            step = 3**j
            for pt in range(3**m):
                class_of[g.vertex_id(l, v, pt)] = (pt // step) % 3
            wstar += g.epsilon * share
            w1 += (1 - g.epsilon) / 2 * share
            w2 += (1 - g.epsilon) / 2 * share

    violations: list[tuple[int, int, int, int]] = []
    checked = surviving = 0

    def check_edge(ci: int, c: PcpConstraint, x: int, y: int, z: int) -> None:
        nonlocal checked, surviving
        checked += 1
        cx = class_of[g.vertex_id(c.to_layer, c.u, x)]
        cy = class_of[g.vertex_id(c.from_layer, c.v, y)]
        cz = class_of[g.vertex_id(c.from_layer, c.v, z)]
        if ternary.STAR in (cx, cy, cz):
            return
        surviving += 1
        if cx == cy == cz:
            violations.append((ci, x, y, z))

    if g.mode == "enumerate":
        for ci, c in enumerate(pcp.constraints):
            for x, y, z in g.constraint_triples(ci):
                check_edge(ci, c, x, y, z)
        coverage = "exhaustive"
    else:
        rng = random.Random(seed)
        for ci, c in enumerate(pcp.constraints):
            r_big = pcp.label_sizes[c.from_layer]
            r_small = pcp.label_sizes[c.to_layer]
            for _ in range(samples):
                x = rng.randrange(3**r_small)
                xd = ternary.point_digits(x, r_small)
                y = z = 0
                for j in range(r_big):
                    a, b = rng.choice(_allowed_pairs(xd[c.projection[j]]))
                    y += a * 3**j
                    z += b * 3**j
                if y != z:
                    check_edge(ci, c, x, y, z)
        coverage = f"sampled:{samples} per constraint"
    return PartitionResult(class_of, (w1, w2, wstar), violations, checked, surviving, coverage)


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
    fams = {}
    p_float = float(g.p)
    for (l, v), off in g.offsets.items():
        size = 3 ** g.pcp.label_sizes[l]
        mem = np.zeros(size, dtype=bool)
        for pt in range(size):
            if off + pt in indicator:
                mem[pt] = True
        fams[(l, v)] = TernaryFamily(g.pcp.label_sizes[l], mem, p_float)
    return fams


def check_independent(g: LongCodeGadget, families: dict[tuple[int, int], TernaryFamily],
                      samples: int = 5000, seed: int = 0) -> tuple[int, int, int] | None:
    """First edge inside the indicator, or None. Exhaustive in enumerate
    mode, sampled otherwise."""
    pcp = g.pcp
    if g.mode == "enumerate":
        for ci, c in enumerate(pcp.constraints):
            fu = families[(c.to_layer, c.u)]
            fv = families[(c.from_layer, c.v)]
            for x, y, z in g.constraint_triples(ci):
                if fu.membership[x] and fv.membership[y] and fv.membership[z]:
                    return (ci, x, y, z)
        return None
    rng = random.Random(seed)
    for ci, c in enumerate(pcp.constraints):
        fu = families[(c.to_layer, c.u)]
        fv = families[(c.from_layer, c.v)]
        xs = [x for x in range(3 ** pcp.label_sizes[c.to_layer]) if fu.membership[x]]
        ys = [y for y in range(3 ** pcp.label_sizes[c.from_layer]) if fv.membership[y]]
        if not xs or not ys:
            continue
        for _ in range(samples):
            x, y, z = rng.choice(xs), rng.choice(ys), rng.choice(ys)
            if g.edge_exists(ci, x, y, z):
                return (ci, x, y, z)
            if g.pair_exists(ci, x, y):
                return (ci, x, y, y)
    return None


def decode(g: LongCodeGadget, indicator, delta: float, seed: int = 0) -> DecodeOutcome:
    """No-case decoding: close the indicator monotonically, check it is
    independent, keep heavy variables, pick a dense layer pair, extract a
    two-element witness per variable, and label by witness-projection
    plurality."""
    pcp = g.pcp
    indicator = set(indicator)
    weight = Fraction(0)
    for vid in indicator:
        l, v, pt = g.vertex_info(vid)
        weight += g.vertex_weight(l, v, pt)
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
