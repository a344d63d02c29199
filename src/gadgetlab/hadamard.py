"""The 4-uniform hypergraph over folded Hadamard-code positions.

Vertices are (block, canonical coset representative) pairs; hyperedges
come from sampled verifier triples (U, W, W') sharing a variable block.
The no-case pipeline unfolds block indicators, takes their spectra, and
builds the two prover strategies together with the quadratic-form
inequality they certify.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from . import gf2
from .games import (BlockGeometry, EquationBlock, Lin3Instance, RejectionBudgetError,
                    VariableBlock, block_geometry, repeat_free, sample_round)
from .verify import GenericHypergraph, check_coloring, unique_rows

MAX_R = 2


@dataclass(frozen=True)
class GadgetBlock:
    index: int
    block: EquationBlock
    geometry: BlockGeometry
    vertex_base: int
    reps: tuple[int, ...]
    rep_pos: dict[int, int] = field(compare=False, default_factory=dict)

    def vertex_id(self, x_bits: int) -> int:
        return self.vertex_base + self.rep_pos[self.geometry.subspace.reduce_bits(x_bits)]

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        """vertex_id of every point, indexed by the point's bits."""
        return np.array([self.vertex_id(x) for x in range(1 << self.geometry.subspace.ambient_width)])


@dataclass(frozen=True)
class Triple:
    """One verifier pairing: variable block U shared by blocks W and W'.

    Carries its own geometries: the subspace data is a property of the
    block, but the projection positions depend on this triple's U.
    """

    u: VariableBlock
    w_index: int
    wp_index: int
    geom_w: BlockGeometry
    geom_wp: BlockGeometry


@dataclass
class HadamardGadget:
    source: Lin3Instance
    r: int
    blocks: list[GadgetBlock]
    triples: list[Triple]
    edges_per_triple: list[np.ndarray]  # per triple, unique_rows of its hyperedges
    dropped_degenerate: int

    @property
    def vertex_count(self) -> int:
        return sum(len(b.reps) for b in self.blocks)

    def all_edges(self) -> np.ndarray:
        return unique_rows(np.concatenate(self.edges_per_triple))

    def to_hypergraph(self) -> GenericHypergraph:
        vertices = tuple(range(self.vertex_count))
        meta = {
            "kind": "hadamard",
            "r": self.r,
            "blocks": [list(b.block.eq_ids) for b in self.blocks],
            "triples": [
                {"u": list(t.u.var_ids), "w": t.w_index, "wp": t.wp_index}
                for t in self.triples
            ],
            "dropped_degenerate": self.dropped_degenerate,
        }
        return GenericHypergraph(4, vertices, self.all_edges(),
                                 {v: Fraction(1) for v in vertices}, meta)


def _raw_edges(blocks: list[GadgetBlock], r: int, triple: Triple) -> np.ndarray:
    """Each raw choice's folded 4-tuple as a sorted row, in (z, x, y) order."""
    w, wp = blocks[triple.w_index].vertex_ids, blocks[triple.wp_index].vertex_ids
    points = np.arange(len(w))
    hw = triple.geom_w.h_w.bits
    rows = []
    for z in range(1, 1 << r):
        xs = np.stack([w, w[points ^ triple.geom_w.lift_bits(z) ^ hw]], axis=1)
        ys = np.stack([wp, wp[points ^ triple.geom_wp.lift_bits(z)]], axis=1)
        rows.append(np.concatenate(np.broadcast_arrays(xs[:, None], ys[None, :]), axis=2))
    return np.sort(np.concatenate(rows).reshape(-1, 4), axis=1)


def build(inst: Lin3Instance, r: int, triples: int = 2, seed: int = 0,
          distinct_blocks: bool = False, budget: int = 10**6) -> HadamardGadget:
    """Instantiate a gadget from sampled verifier triples.

    Each triple is a round (W, U) plus a second block W' drawn uniformly
    among blocks whose i-th equation contains the i-th variable of U.
    Raw hyperedges touching fewer than 4 distinct folded positions are
    dropped and counted. r is capped at MAX_R, so checking up front that
    some r equations share no variable is one O(E^2) scan.
    """
    if r > MAX_R:
        raise ValueError(f"the gadget caps r at {MAX_R}, got {r}")
    if not any(repeat_free(inst, ids) for ids in combinations(range(len(inst.equations)), r)):
        raise ValueError(f"no repeat-free block of {r} equations exists among the "
                         f"{len(inst.equations)} equations; instance too small")
    rng = random.Random(seed)
    eq_with_var: dict[int, list[int]] = {}
    for ei, (i, j, k, _) in enumerate(inst.equations):
        for v in (i, j, k):
            eq_with_var.setdefault(v, []).append(ei)

    blocks: list[GadgetBlock] = []
    block_index: dict[tuple[int, ...], int] = {}
    geometries: dict = {}  # (eq_ids, var_ids) -> the block_geometry of W and U's picks

    def geometry(block: EquationBlock, picks: VariableBlock) -> BlockGeometry:
        key = (block.eq_ids, picks.var_ids)
        if key not in geometries:
            geometries[key] = block_geometry(block, picks, inst)
        return geometries[key]

    def register(block: EquationBlock, picks: VariableBlock) -> int:
        key = block.eq_ids
        if key in block_index:
            return block_index[key]
        geom = geometry(block, picks)
        base = sum(len(b.reps) for b in blocks)
        reps = tuple(v.bits for v in geom.subspace.coset_reps())
        gb = GadgetBlock(len(blocks), block, geom, base, reps,
                         {rep: t for t, rep in enumerate(reps)})
        blocks.append(gb)
        block_index[key] = gb.index
        return gb.index

    # one budget of draws for all triples; a draw is one W and, if W is repeat-free, one W'
    triple_list: list[Triple] = []
    draws = iter(range(budget))
    for _ in range(triples):
        for _draw in draws:
            try:
                w_block, picks = sample_round(inst, r, rng, budget=1)
            except RejectionBudgetError:
                continue
            wp_ids = tuple(rng.choice(eq_with_var[v]) for v in picks.var_ids)
            if not repeat_free(inst, wp_ids) or (distinct_blocks and wp_ids == w_block.eq_ids):
                continue
            wp_block = EquationBlock.from_instance(inst, wp_ids)
            wp_picks = VariableBlock(r, picks.var_ids)
            triple_list.append(Triple(picks, register(w_block, picks), register(wp_block, wp_picks),
                                      geometry(w_block, picks), geometry(wp_block, wp_picks)))
            break
        else:
            raise RejectionBudgetError(f"could not sample a consistent W' in {budget} attempts")

    raw = [_raw_edges(blocks, r, triple) for triple in triple_list]
    kept = [rows[(rows[:, 1:] != rows[:, :-1]).all(axis=1)] for rows in raw]
    dropped = sum(len(rows) - len(rows_kept) for rows, rows_kept in zip(raw, kept))
    return HadamardGadget(inst, r, blocks, triple_list, list(map(unique_rows, kept)), dropped)


@dataclass
class YesColoringResult:
    colors: dict[int, int]
    removed: frozenset[int]
    checked_edges: int
    surviving_edges: int
    violations: list[tuple[int, int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def yes_coloring(g: HadamardGadget, sigma) -> YesColoringResult:
    """Color good-block positions by the folded planted-code value and
    certify the four-term parity on every surviving hyperedge, each
    hyperedge of the exported set checked once."""
    sigma = list(sigma)
    if len(sigma) != g.source.n:
        raise ValueError("assignment must cover all instance variables")
    for bit in sigma:
        if not isinstance(bit, (int, np.integer)) or bit not in (0, 1):
            raise ValueError(f"assignment entry {bit!r} is not 0 or 1")
    colors = np.zeros(g.vertex_count, dtype=np.int8)
    removed = np.zeros(g.vertex_count, dtype=bool)
    for gb in g.blocks:
        span = slice(gb.vertex_base, gb.vertex_base + len(gb.reps))
        code = 1 << (3 * g.r)
        for pos, var in enumerate(gb.block.var_order):
            code |= sigma[var] << pos
        if any(gf2.dot_bits(code, h.bits) for h in gb.geometry.h):  # an equation fails
            removed[span] = True
        else:
            colors[span] = [gf2.dot_bits(code, rep) for rep in gb.reps]

    edges = g.all_edges()
    surviving, violating = check_coloring(edges, colors, removed, parity=True)
    kept = np.flatnonzero(~removed).tolist()
    return YesColoringResult(dict(zip(kept, colors[kept].tolist())),
                             frozenset(np.flatnonzero(removed).tolist()), len(edges),
                             int(surviving.sum()), list(map(tuple, edges[violating].tolist())))


@dataclass
class ProverStrategy:
    """Distribution over admissible characters with its unrenormalized mass."""

    support: dict[int, float]
    admissible_mass: float
    deficit: float

    @property
    def defined(self) -> bool:
        return bool(self.support)

    def probabilities(self) -> dict[int, float]:
        if not self.support:
            raise ValueError("strategy has empty support")
        return {a: m / self.admissible_mass for a, m in self.support.items()}


@dataclass
class StrategyReport:
    prover2: ProverStrategy
    prover1: ProverStrategy
    lhs: float
    rhs: float
    holds: bool
    independent_on_triple: bool
    spectrum_w: gf2.FourierSpectrum
    spectrum_wp: gf2.FourierSpectrum


def _indicator_table(gb: GadgetBlock, members: np.ndarray) -> gf2.RealTable:
    return gf2.RealTable(gb.geometry.subspace.ambient_width, members[gb.vertex_ids])


def extract_strategies(g: HadamardGadget, indicator, triple_index: int) -> StrategyReport:
    """Spectra of the unfolded block indicators, the two prover
    strategies, and both sides of the quadratic-form inequality."""
    indicator = set(indicator)
    members = np.fromiter((v in indicator for v in range(g.vertex_count)), dtype=bool)
    triple = g.triples[triple_index]
    table_a = _indicator_table(g.blocks[triple.w_index], members)
    table_b = _indicator_table(g.blocks[triple.wp_index], members)
    spec_a = gf2.fourier_transform(table_a)
    spec_b = gf2.fourier_transform(table_b)
    hw = triple.geom_w.h_w.bits

    support2 = {
        a: float(spec_a.coeffs[a] ** 2)
        for a in spec_a.support()
        if gf2.dot_bits(a, hw) == 1
    }
    mass2 = sum(support2.values())
    prover2 = ProverStrategy(support2, mass2, 1.0 - mass2)
    support1 = {b: float(spec_b.coeffs[b] ** 2) for b in spec_b.support()}
    mass1 = sum(support1.values())
    prover1 = ProverStrategy(support1, mass1, 1.0 - mass1)

    by_proj: dict[int, float] = {}
    for b in spec_b.support():
        pb = triple.geom_wp.project_bits(b)
        by_proj[pb] = by_proj.get(pb, 0.0) + float(spec_b.coeffs[b] ** 2)
    lhs = 0.0
    for a, mass in support2.items():
        lhs += mass * by_proj.get(triple.geom_w.project_bits(a), 0.0)
    rhs = float(spec_a.coeffs[0] ** 2 * spec_b.coeffs[0] ** 2) - 2.0 ** (-g.r)

    independent = not members[g.edges_per_triple[triple_index]].all(axis=1).any()
    return StrategyReport(prover2, prover1, lhs, rhs, lhs >= rhs - 1e-10,
                          independent, spec_a, spec_b)


def z_average_identity(spec_a: gf2.FourierSpectrum, spec_b: gf2.FourierSpectrum,
                       geom_w: BlockGeometry, geom_wp: BlockGeometry,
                       x_bits: int, y_bits: int) -> tuple[float, float]:
    """Both sides of the z-averaging step: the projection-matched
    character sum against the plain average over all shifts z.
    """
    table_a = gf2.inverse_fourier_transform(spec_a)
    table_b = gf2.inverse_fourier_transform(spec_b)
    hw = geom_w.h_w.bits
    r = geom_w.r
    spectral = 0.0
    by_proj: dict[int, float] = {}
    for b in spec_b.support():
        pb = geom_wp.project_bits(b)
        by_proj[pb] = by_proj.get(pb, 0.0) + float(spec_b.coeffs[b]) * gf2.chi(b, y_bits)
    for a in spec_a.support():
        term = float(spec_a.coeffs[a]) * gf2.chi(a, x_bits) * gf2.chi(a, hw)
        spectral += term * by_proj.get(geom_w.project_bits(a), 0.0)
    averaged = 0.0
    for z in range(1 << r):
        averaged += (table_a[x_bits ^ geom_w.lift_bits(z) ^ hw]
                     * table_b[y_bits ^ geom_wp.lift_bits(z)])
    averaged /= 1 << r
    return spectral, averaged
