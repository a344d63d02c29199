"""Max-3Lin instances, the 2-prover-1-round block game, and layered PCPs.

Variables, equations, labels and layers are all 0-based. Projections are
stored as explicit tuples: ``proj[label_of_source] = label_of_target``.
Layer indices order label sets largest-first, so constraints go from a
layer ``l`` to a layer ``l2 > l`` and project R_l onto R_{l2}.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import ClassVar

import numpy as np

from .gf2 import Gf2Subspace, Gf2Vector
from .seeding import as_rng, derive_rng
from .verify import GenericHypergraph, check_coloring, unique_rows

LABEL_TUPLE_CAP = 10**6


class RejectionBudgetError(RuntimeError):
    """Block sampling could not find a repeat-free block within budget."""


class SizeCapError(ValueError):
    """A construction would exceed its desk-scale size cap."""


class NoLayerPairError(RuntimeError):
    """No layer pair qualifies for decoding at the given thresholds."""


# ---------------------------------------------------------------------------
# Max-3Lin


@dataclass(frozen=True)
class Lin3Instance:
    """A system of 3-variable linear equations over GF(2)."""

    n: int
    equations: tuple[tuple[int, int, int, int], ...]
    declared_degree: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "equations", tuple(tuple(e) for e in self.equations))
        counts = [0] * self.n
        for eq in self.equations:
            i, j, k, b = eq
            if not (0 <= i < self.n and 0 <= j < self.n and 0 <= k < self.n):
                raise ValueError(f"equation {eq} has a variable out of range [0, {self.n})")
            if len({i, j, k}) != 3:
                raise ValueError(f"equation {eq} repeats a variable")
            if b not in (0, 1):
                raise ValueError(f"equation {eq} has a non-bit right-hand side")
            counts[i] += 1
            counts[j] += 1
            counts[k] += 1
        if self.declared_degree is not None:
            bad = [v for v, c in enumerate(counts) if c != self.declared_degree]
            if bad:
                raise ValueError(
                    f"declared degree {self.declared_degree} violated at variables {bad[:5]}"
                )

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "equations": [list(e) for e in self.equations]}
        if self.declared_degree is not None:
            d["declared_degree"] = self.declared_degree
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Lin3Instance":
        return cls(d["n"], tuple(tuple(e) for e in d["equations"]), d.get("declared_degree"))


def gen_3lin(n: int, eqs: int, rng: random.Random | int, planted: bool = True) -> tuple[Lin3Instance, tuple[int, ...] | None]:
    """Random toy instance; in planted mode the right-hand sides are read
    off a hidden assignment, which is returned as the witness."""
    rng = as_rng(rng)
    if n < 3:
        raise ValueError("need at least 3 variables")
    assignment = tuple(rng.randrange(2) for _ in range(n)) if planted else None
    equations = []
    for _ in range(eqs):
        i, j, k = rng.sample(range(n), 3)
        if planted:
            b = assignment[i] ^ assignment[j] ^ assignment[k]
        else:
            b = rng.randrange(2)
        equations.append((i, j, k, b))
    return Lin3Instance(n, tuple(equations)), assignment


def evaluate_lin(inst: Lin3Instance, assignment) -> Fraction:
    """Exact fraction of equations satisfied by a full assignment."""
    a = list(assignment)
    if len(a) != inst.n:
        raise ValueError(f"assignment has {len(a)} bits, instance has {inst.n} variables")
    sat = sum(1 for i, j, k, b in inst.equations if (a[i] ^ a[j] ^ a[k]) == b)
    return Fraction(sat, len(inst.equations))


# ---------------------------------------------------------------------------
# Blocks and block geometry


@dataclass(frozen=True)
class EquationBlock:
    """An ordered r-tuple of equations with 3r pairwise distinct variables."""

    r: int
    eq_ids: tuple[int, ...]
    var_order: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.eq_ids) != self.r or len(self.var_order) != 3 * self.r:
            raise ValueError("block shape mismatch")
        if len(set(self.var_order)) != 3 * self.r:
            raise ValueError("block repeats a variable")

    @classmethod
    def from_instance(cls, inst: Lin3Instance, eq_ids) -> "EquationBlock":
        eq_ids = tuple(eq_ids)
        var_order = []
        rhs = []
        for e in eq_ids:
            i, j, k, b = inst.equations[e]
            var_order.extend((i, j, k))
            rhs.append(b)
        return cls(len(eq_ids), eq_ids, tuple(var_order), tuple(rhs))


@dataclass(frozen=True)
class VariableBlock:
    """One variable per equation of a parent equation block."""

    r: int
    var_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.var_ids) != self.r:
            raise ValueError("variable block shape mismatch")
        if len(set(self.var_ids)) != self.r:
            raise ValueError("variable block repeats a variable")


def repeat_free(inst: Lin3Instance, eq_ids) -> bool:
    """True when no variable occurs in two of the equations eq_ids."""
    variables = [x for e in eq_ids for x in inst.equations[e][:3]]
    return len(set(variables)) == len(variables)


def sample_round(inst: Lin3Instance, r: int, rng: random.Random | int,
                 budget: int = 10**6) -> tuple[EquationBlock, VariableBlock]:
    """One verifier round: an equation block W and a variable block U.

    W is r equations sampled uniformly with replacement, resampled while
    the 3r variables repeat; U picks one variable per equation of W.
    """
    rng = as_rng(rng)
    if r < 1:
        raise ValueError("r must be >= 1")
    if not inst.equations:
        raise ValueError("instance has no equations")
    for _ in range(budget):
        eq_ids = tuple(rng.randrange(len(inst.equations)) for _ in range(r))
        if repeat_free(inst, eq_ids):
            block = EquationBlock.from_instance(inst, eq_ids)
            picks = tuple(block.var_order[3 * t + rng.randrange(3)] for t in range(r))
            return block, VariableBlock(r, picks)
    raise RejectionBudgetError(
        f"no repeat-free block of {r} equations found in {budget} attempts; instance too small"
    )


@dataclass(frozen=True)
class BlockGeometry:
    """Per-block linear data in F2^(3r+1).

    h[i] has ones at the i-th equation's three positions plus the extra
    position 3r when the equation's right-hand side is 1; h_w indicates the
    extra position; u_positions locate the variable block inside var_order.
    """

    r: int
    h: tuple[Gf2Vector, ...]
    subspace: Gf2Subspace
    h_w: Gf2Vector
    u_positions: tuple[int, ...]

    def project_bits(self, x_bits: int) -> int:
        z = 0
        for t, pos in enumerate(self.u_positions):
            z |= ((x_bits >> pos) & 1) << t
        return z

    def lift_bits(self, z_bits: int) -> int:
        x = 0
        for t, pos in enumerate(self.u_positions):
            x |= ((z_bits >> t) & 1) << pos
        return x


def block_geometry(block: EquationBlock, picks: VariableBlock, inst: Lin3Instance) -> BlockGeometry:
    """The h_i vectors, their span, h_W, and the U-coordinate projection."""
    r = block.r
    if picks.r != r:
        raise ValueError("variable block size does not match equation block")
    width = 3 * r + 1
    u_positions = []
    for t in range(r):
        triple = block.var_order[3 * t: 3 * t + 3]
        if picks.var_ids[t] not in triple:
            raise ValueError(
                f"variable {picks.var_ids[t]} is not in equation {block.eq_ids[t]} of the block"
            )
        u_positions.append(3 * t + triple.index(picks.var_ids[t]))
    hs = []
    for t in range(r):
        bits = (0b111 << (3 * t)) | (block.rhs[t] << (3 * r))
        hs.append(Gf2Vector(width, bits))
    sub = Gf2Subspace.span(hs)
    if sub.dim != r:
        raise AssertionError("h vectors are dependent despite distinct variables")
    return BlockGeometry(r, tuple(hs), sub, Gf2Vector.unit(width, 3 * r), tuple(u_positions))


def verifier_accepts(block: EquationBlock, picks: VariableBlock,
                     w_answer, u_answer) -> bool:
    """The 2P1R check: Prover-2's bits satisfy every equation of W and
    agree with Prover-1's bits on the variables of U."""
    w = list(w_answer)
    u = list(u_answer)
    if len(w) != 3 * block.r or len(u) != picks.r:
        raise ValueError("answer length mismatch")
    for t in range(block.r):
        if w[3 * t] ^ w[3 * t + 1] ^ w[3 * t + 2] != block.rhs[t]:
            return False
    for t, var in enumerate(picks.var_ids):
        if w[block.var_order.index(var)] != u[t]:
            return False
    return True


# ---------------------------------------------------------------------------
# Layered PCPs


@dataclass(frozen=True)
class PcpConstraint:
    from_layer: int
    to_layer: int
    v: int
    u: int
    projection: tuple[int, ...]


@dataclass(frozen=True)
class LayeredPcp:
    """Projection constraints between every pair of layers.

    label_sizes[l] is |R_l|; constraints project the larger label set of
    the earlier layer onto the later one. params carries (d, T) for the
    smooth variant and is None for the plain one.
    """

    layers: int
    var_counts: tuple[int, ...]
    label_sizes: tuple[int, ...]
    constraints: tuple[PcpConstraint, ...]
    params: dict | None = None
    planted_labeling: tuple[tuple[int, ...], ...] | None = None
    var_names: tuple[tuple[str, ...], ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.layers != len(self.var_counts) or self.layers != len(self.label_sizes):
            raise ValueError("layer count mismatch")
        for c in self.constraints:
            if not 0 <= c.from_layer < c.to_layer < self.layers:
                raise ValueError(f"bad layer pair ({c.from_layer}, {c.to_layer})")
            if not (0 <= c.v < self.var_counts[c.from_layer]
                    and 0 <= c.u < self.var_counts[c.to_layer]):
                raise ValueError("constraint variable out of range")
            if len(c.projection) != self.label_sizes[c.from_layer]:
                raise ValueError("projection table has wrong length")
            if any(not 0 <= t < self.label_sizes[c.to_layer] for t in c.projection):
                raise ValueError("projection value out of range")

    def constraints_between(self, l: int, l2: int) -> list[PcpConstraint]:
        return [c for c in self.constraints if c.from_layer == l and c.to_layer == l2]

    def layer_pairs(self) -> list[tuple[int, int]]:
        return sorted({(c.from_layer, c.to_layer) for c in self.constraints})

    def to_json_dict(self) -> dict:
        d = {
            "layers": self.layers,
            "var_counts": list(self.var_counts),
            "label_sizes": list(self.label_sizes),
            "constraints": [
                {"from_layer": c.from_layer, "to_layer": c.to_layer,
                 "v": c.v, "u": c.u, "projection": list(c.projection)}
                for c in self.constraints
            ],
        }
        if self.params is not None:
            d["params"] = dict(self.params)
        if self.planted_labeling is not None:
            d["planted_labeling"] = [list(x) for x in self.planted_labeling]
        if self.var_names is not None:
            d["var_names"] = [list(x) for x in self.var_names]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "LayeredPcp":
        return cls(
            d["layers"],
            tuple(d["var_counts"]),
            tuple(d["label_sizes"]),
            tuple(
                PcpConstraint(c["from_layer"], c["to_layer"], c["v"], c["u"],
                              tuple(c["projection"]))
                for c in d["constraints"]
            ),
            d.get("params"),
            tuple(tuple(x) for x in d["planted_labeling"]) if d.get("planted_labeling") else None,
            tuple(tuple(x) for x in d["var_names"]) if d.get("var_names") else None,
        )


def evaluate_pcp_labeling(pcp: LayeredPcp, labeling) -> dict[tuple[int, int], Fraction]:
    """Exact satisfied fraction per layer pair; pairs with no constraints
    are absent from the result."""
    lab = [list(layer) for layer in labeling]
    out: dict[tuple[int, int], list[int]] = {}
    for c in pcp.constraints:
        lv = lab[c.from_layer][c.v]
        lu = lab[c.to_layer][c.u]
        if lv is None or lu is None:
            raise ValueError(f"missing label for a constrained variable ({c.from_layer},{c.v})"
                             f" or ({c.to_layer},{c.u})")
        sat, tot = out.setdefault((c.from_layer, c.to_layer), [0, 0])
        out[(c.from_layer, c.to_layer)] = [sat + (c.projection[lv] == lu), tot + 1]
    return {pair: Fraction(s, t) for pair, (s, t) in out.items()}


def check_weak_density(pcp: LayeredPcp, layer_sets: dict[int, set[int]],
                       delta: float) -> dict:
    """Induced-constraint fraction for every supplied layer pair.

    Reports the maximizing pair and whether its fraction meets delta^2/4;
    hypothesis_met records whether the supplied sets satisfy the weak
    density definition's hypothesis (enough layers, each set large enough).
    """
    if not delta > 0:
        raise ValueError(f"weak-density threshold must be positive, got {delta}")
    for l, s in layer_sets.items():
        if not s:
            raise ValueError(f"empty set supplied for layer {l}")
    layers = sorted(layer_sets)
    hypothesis_met = len(layers) >= math.ceil(2.0 / delta) and all(
        len(layer_sets[l]) >= delta * pcp.var_counts[l] for l in layers
    )
    per_pair: dict[tuple[int, int], Fraction] = {}
    for l, l2 in itertools.combinations(layers, 2):
        cons = pcp.constraints_between(l, l2)
        if not cons:
            continue
        hit = sum(1 for c in cons if c.v in layer_sets[l] and c.u in layer_sets[l2])
        per_pair[(l, l2)] = Fraction(hit, len(cons))
    if not per_pair:
        return {"best_pair": None, "best_fraction": None, "per_pair": {},
                "meets_bound": False, "hypothesis_met": hypothesis_met}
    best_pair = max(per_pair, key=lambda p: (per_pair[p], (-p[0], -p[1])))
    best = per_pair[best_pair]
    return {
        "best_pair": best_pair,
        "best_fraction": best,
        "per_pair": per_pair,
        "meets_bound": best >= Fraction(delta).limit_denominator(10**9) ** 2 / 4,
        "hypothesis_met": hypothesis_met,
    }


def check_smoothness(pcp: LayeredPcp) -> dict:
    """Exact collision probabilities Pr_u[pi(i) = pi(j)] over random
    constrained neighbors, maximized over layer pairs, variables and
    distinct label pairs."""
    if pcp.params is None or "T" not in pcp.params:
        raise ValueError("smoothness is defined for the smooth variant only")
    T = pcp.params["T"]
    per_pair: dict[tuple[int, int], float] = {}
    skipped: list[tuple[int, int, int]] = []
    worst = 0.0
    for l, l2 in pcp.layer_pairs():
        cons = pcp.constraints_between(l, l2)
        by_v: dict[int, list[PcpConstraint]] = {}
        for c in cons:
            by_v.setdefault(c.v, []).append(c)
        pair_max = 0.0
        for v in range(pcp.var_counts[l]):
            if v not in by_v:
                skipped.append((l, l2, v))
                continue
            projs = np.array([c.projection for c in by_v[v]], dtype=np.int64)
            eq = projs[:, None, :] == projs[:, :, None]
            coll = eq.mean(axis=0)
            np.fill_diagonal(coll, 0.0)
            pair_max = max(pair_max, float(coll.max()))
        per_pair[(l, l2)] = pair_max
        worst = max(worst, pair_max)
    return {
        "max_collision": worst,
        "per_pair": per_pair,
        "bound": 1.0 / T,
        "ok": worst <= 1.0 / T,
        "skipped": skipped,
    }


def gen_toy_mlpcp(layers: int, vars_per_layer, label_sizes, rng: random.Random | int,
                  density: float = 1.0, planted: bool = True) -> LayeredPcp:
    """Toy plain multi-layered PCP with arbitrary projections; in planted
    mode every projection is consistent with a hidden labeling."""
    rng = as_rng(rng)
    var_counts = tuple(int(v) for v in (vars_per_layer if not isinstance(vars_per_layer, int)
                                        else [vars_per_layer] * layers))
    sizes = tuple(int(s) for s in (label_sizes if not isinstance(label_sizes, int)
                                   else [label_sizes] * layers))
    labeling = None
    if planted:
        labeling = tuple(tuple(rng.randrange(sizes[l]) for _ in range(var_counts[l]))
                         for l in range(layers))
    constraints = []
    for l in range(layers):
        for l2 in range(l + 1, layers):
            for v in range(var_counts[l]):
                for u in range(var_counts[l2]):
                    if rng.random() > density:
                        continue
                    proj = [rng.randrange(sizes[l2]) for _ in range(sizes[l])]
                    if planted:
                        proj[labeling[l][v]] = labeling[l2][u]
                    constraints.append(PcpConstraint(l, l2, v, u, tuple(proj)))
    return LayeredPcp(layers, var_counts, sizes, tuple(constraints),
                      params=None, planted_labeling=labeling)


# ---------------------------------------------------------------------------
# The label-cover gadget skeleton


def code_layout(pcp: LayeredPcp, base: int) -> tuple[dict[tuple[int, int], int], int]:
    """First vertex id of each variable's code of base ** label_size points,
    in (layer, var) order, and the total vertex count."""
    offsets = {}
    acc = 0
    for l in range(pcp.layers):
        for v in range(pcp.var_counts[l]):
            offsets[(l, v)] = acc
            acc += base ** pcp.label_sizes[l]
    return offsets, acc


def product_rows(factors: list) -> np.ndarray:
    """Every choice of one row per (m_i, 3) factor, summed, the first factor
    varying slowest: one (prod m_i, 3) int64 array. Factors on disjoint
    digits or bits make the sum their OR."""
    rows = np.zeros((1, 3), dtype=np.int64)
    for factor in factors:
        rows = (rows[:, None] + np.asarray(factor, dtype=np.int64)).reshape(-1, 3)
    return rows


def split_degenerate(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One constraint's (x, y, z) rule hits as read-only 3-uniform edges and
    (x, y) pairs: y == z leaves two distinct vertices, which the rule still
    forbids together, so those stay out of the 3-uniform edge set."""
    same = rows[:, 1] == rows[:, 2]
    edges, pairs = rows[~same], rows[same, :2]
    edges.flags.writeable = pairs.flags.writeable = False
    return edges, pairs


def check_labeling(pcp: LayeredPcp, sigma) -> list[list[int]]:
    """The labeling as one list per layer; ValueError unless it satisfies
    every constraint, since the YES certificates are read off it."""
    sigma = [list(layer) for layer in sigma]
    for c in pcp.constraints:
        if c.projection[sigma[c.from_layer][c.v]] != sigma[c.to_layer][c.u]:
            raise ValueError("labeling does not satisfy the PCP")
    return sigma


def dictator_colors(pcp: LayeredPcp, base: int, sigma, ids: np.ndarray | None = None) -> np.ndarray:
    """The colouring a satisfying labeling dictates: each point's digit at
    its variable's label sigma[l][v], as int8, for the vertex ids of the
    code_layout given (by default every vertex, in id order)."""
    sigma = check_labeling(pcp, sigma)
    offsets, total = code_layout(pcp, base)
    firsts = np.array(list(offsets.values()), dtype=np.int64)
    steps = np.array([base ** sigma[l][v] for l, v in offsets], dtype=np.int64)
    ids = np.arange(total) if ids is None else ids
    var = np.searchsorted(firsts, ids, side="right") - 1
    return ((ids - firsts[var]) // steps[var] % base).astype(np.int8)


def heavy_layer_pair(pcp: LayeredPcp, measures: dict[tuple[int, int], float],
                     threshold: float) -> tuple[dict[int, list[int]], dict[int, set[int]], dict]:
    """Heavy variables (measure >= threshold/2) per layer, the layers where
    a threshold/4 share of them is heavy, and check_weak_density's report at
    threshold/4 over those layers, whose best pair the decoders take."""
    half = threshold / 2.0
    heavy: dict[int, list[int]] = {l: [] for l in range(pcp.layers)}
    for (l, v), m in measures.items():
        if m >= half:
            heavy[l].append(v)
    if not any(heavy.values()):
        raise NoLayerPairError(f"no heavy variables at threshold {half}")
    quarter = threshold / 4.0
    qualified = {l: set(vs) for l, vs in heavy.items()
                 if len(vs) >= quarter * pcp.var_counts[l]}
    if len(qualified) < 2:
        raise NoLayerPairError(
            f"only {len(qualified)} layers reach a {quarter} fraction of heavy variables")
    density = check_weak_density(pcp, qualified, quarter)
    if density["best_pair"] is None:
        raise NoLayerPairError("no constraints between any pair of qualifying layers")
    return heavy, qualified, density


def satisfied_fractions(pcp: LayeredPcp, pair: tuple[int, int],
                        from_labels: dict[tuple[int, int], int],
                        to_labels: dict[tuple[int, int], int]) -> tuple[Fraction, Fraction]:
    """Satisfied share of the pair's constraints among those with both ends
    labelled, and among all of them; 0 for an empty count."""
    l, l2 = pair
    cons = pcp.constraints_between(l, l2)
    hits = [c.projection[from_labels[(l, c.v)]] == to_labels[(l2, c.u)]
            for c in cons if (l, c.v) in from_labels and (l2, c.u) in to_labels]
    sat = sum(hits)
    return (Fraction(sat, len(hits)) if hits else Fraction(0),
            Fraction(sat, len(cons)) if cons else Fraction(0))


@dataclass
class RuleCheck:
    """A colouring checked on rule hits: the monochromatic surviving hits as
    (ci, x, y, z), the hits visited, those with no removed point, whether
    every hit was visited or some constraints were sampled, and the colour
    of every vertex when all were coloured (None when only the hit ones)."""

    violations: list[tuple[int, int, int, int]]
    checked: int
    surviving: int
    coverage: str
    colors: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class PcpGadget:
    """A code of base ** label_size points on every PCP variable, joined per
    constraint by the gadget's local rule on (x, y, z): x a point of u, y and
    z points of v. A constraint's rule hits are materialised as split_degenerate's
    read-only edge and pair arrays, which constraints of one rule share, or
    None when only the rule is kept ("rule" or "mixed" mode).
    Points whose dictator digit is removed_digit leave the YES colouring;
    None matches no digit, so no point leaves."""

    base: ClassVar[int]
    removed_digit: ClassVar[int | None]

    pcp: LayeredPcp
    mode: str
    offsets: dict[tuple[int, int], int]
    vertex_count: int
    constraint_edges: list[np.ndarray | None]
    constraint_pairs: list[np.ndarray | None]

    @property
    def dropped_degenerate(self) -> int:
        return sum(len(p) for p in self.constraint_pairs if p is not None)

    @cached_property
    def code_firsts(self) -> np.ndarray:
        """The first vertex id of each code, in offsets order."""
        return np.fromiter(self.offsets.values(), dtype=np.int64)

    def vertex_id(self, layer: int, var: int, point: int) -> int:
        return self.offsets[(layer, var)] + point

    def sample_hits(self, ci: int, rng: random.Random, samples: int):
        """samples random rule hits (x, y, z) of constraint ci."""
        raise NotImplementedError

    def point_weights(self, weight) -> list:
        """weight(layer, var, point) of every vertex, in vertex id order."""
        return [weight(l, v, pt) for l, v in self.offsets
                for pt in range(self.base ** self.pcp.label_sizes[l])]

    def hit_rows(self, samples: int = 0, seed: int = 0,
                 pairs: bool = True) -> tuple[np.ndarray, list[int]]:
        """Every constraint's rule hits as one (H, 3) int64 array of vertex
        ids, in constraint order, and the first row of each constraint (then
        H). A materialised constraint gives its edges, then (unless pairs is
        False) its pairs as (x, y, y); a rule-only one gives samples draws
        from its own seeded stream, none unless samples are asked for."""
        counts = [samples if edges is None else len(edges) + pairs * len(pair_table)
                  for edges, pair_table in zip(self.constraint_edges, self.constraint_pairs)]
        starts = [0, *itertools.accumulate(counts)]
        rows = np.empty((starts[-1], 3), dtype=np.int64)
        tables = zip(self.pcp.constraints, self.constraint_edges, self.constraint_pairs)
        for ci, (c, edges, pair_table) in enumerate(tables):
            block = rows[starts[ci]:starts[ci + 1]]
            if edges is None:
                hits = list(self.sample_hits(ci, derive_rng(seed, "yes-check", ci), samples))
                block[:] = np.array(hits, dtype=np.int64).reshape(-1, 3)
            else:
                block[:len(edges)] = edges
                if pairs:
                    block[len(edges):] = pair_table[:, [0, 1, 1]]
            block[:, 0] += self.offsets[(c.to_layer, c.u)]  # x is a point of u, y and z of v
            block[:, 1:] += self.offsets[(c.from_layer, c.v)]
        return rows, starts

    def local_hits(self, rows: np.ndarray, starts: list[int],
                   index: np.ndarray) -> list[tuple[int, int, int, int]]:
        """The hit rows at index as (ci, x, y, z): the constraint and the
        points within their codes."""
        firsts = self.code_firsts
        hits = rows[index]
        local = hits - firsts[np.searchsorted(firsts, hits, side="right") - 1]
        ci = np.searchsorted(starts, index, side="right") - 1
        return [(c, *hit) for c, hit in zip(ci.tolist(), local.tolist())]

    def dictator_check(self, sigma, samples: int = 2000, seed: int = 0) -> RuleCheck:
        """The YES certificate of both label-cover reductions: colour every
        point of variable (l, v) by its digit at the label sigma[l][v]. A hit
        with a point on removed_digit is dropped with that colour class; no
        other hit may be monochromatic. Materialised constraints are walked
        whole; the others get samples draws of their own seeded stream."""
        rows, starts = self.hit_rows(samples, seed)
        ids, edges = None, rows
        if self.mode != "enumerate":  # rule-only codes may hold 2**32 points: colour the hit ones
            ids, edges = np.unique(rows, return_inverse=True)
            edges = edges.reshape(rows.shape)
        colors = dictator_colors(self.pcp, self.base, sigma, ids)
        surviving, violating = check_coloring(edges, colors, colors == self.removed_digit)
        sampled = sum(table is None for table in self.constraint_edges)
        coverage = ("exhaustive" if sampled == 0
                    else f"sampled:{samples} per constraint on {sampled} constraints")
        return RuleCheck(self.local_hits(rows, starts, np.flatnonzero(violating)), len(rows),
                         int(surviving.sum()), coverage, colors if ids is None else None)

    def _export(self, weight, meta: dict) -> GenericHypergraph:
        """The 3-uniform hypergraph of the materialised edges, with
        weight(layer, var, point) per vertex; meta gains dropped_degenerate."""
        if self.mode != "enumerate":
            raise ValueError("export requires enumerate mode")
        edges = unique_rows(self.hit_rows(pairs=False)[0])
        meta["dropped_degenerate"] = self.dropped_degenerate
        return GenericHypergraph(3, tuple(range(self.vertex_count)), edges,
                                 dict(enumerate(self.point_weights(weight))), meta)


# ---------------------------------------------------------------------------
# d-to-1 games and the smooth multi-layered construction


@dataclass(frozen=True)
class Dto1Game:
    """Bipartite projection game with exact-d preimages on every label."""

    d: int
    k: int
    m: int
    n_u: int
    n_v: int
    constraints: tuple[tuple[int, int, tuple[int, ...]], ...]
    planted: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.m != self.d * self.k:
            raise ValueError(f"exact-d games need m = d*k, got m={self.m}, d={self.d}, k={self.k}")
        u_deg = [0] * self.n_u
        v_deg = [0] * self.n_v
        for v, u, proj in self.constraints:
            if len(proj) != self.m:
                raise ValueError("projection table has wrong length")
            counts = [0] * self.k
            for t in proj:
                counts[t] += 1
            if any(c != self.d for c in counts):
                raise ValueError(f"projection of constraint ({v},{u}) is not exactly d-to-1")
            u_deg[u] += 1
            v_deg[v] += 1
        if len(set(u_deg)) > 1 or len(set(v_deg)) > 1:
            raise ValueError("game is not bi-regular")
        if self.planted is not None:
            u_labels, v_labels = self.planted
            for v, u, proj in self.constraints:
                if proj[v_labels[v]] != u_labels[u]:
                    raise ValueError("planted labeling does not satisfy the game")

    def to_json_dict(self) -> dict:
        d = {
            "d": self.d, "k": self.k, "m": self.m,
            "u_count": self.n_u, "v_count": self.n_v,
            "constraints": [[v, u, list(p)] for v, u, p in self.constraints],
        }
        if self.planted is not None:
            d["planted"] = {"u_labels": list(self.planted[0]), "v_labels": list(self.planted[1])}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dto1Game":
        planted = None
        if d.get("planted"):
            planted = (tuple(d["planted"]["u_labels"]), tuple(d["planted"]["v_labels"]))
        return cls(d["d"], d["k"], d["m"], d["u_count"], d["v_count"],
                   tuple((v, u, tuple(p)) for v, u, p in d["constraints"]), planted)


def _random_dto1_projection(k: int, d: int, rng: random.Random,
                            pin: tuple[int, int] | None = None) -> tuple[int, ...]:
    m = k * d
    labels = list(range(m))
    rng.shuffle(labels)
    proj = [0] * m
    for block in range(k):
        for t in labels[block * d:(block + 1) * d]:
            proj[t] = block
    if pin is not None:
        src, dst = pin
        if proj[src] != dst:
            swap = rng.choice([t for t in range(m) if proj[t] == dst])
            proj[src], proj[swap] = proj[swap], proj[src]
    return tuple(proj)


def gen_toy_dto1_game(n_u: int, n_v: int, k: int, d: int, rng: random.Random | int,
                      planted: bool = True, degree: int | None = None) -> Dto1Game:
    """Toy bi-regular d-to-1 game; complete bipartite unless a V-side
    degree is given (round-robin, which must divide out evenly)."""
    rng = as_rng(rng)
    m = k * d
    u_labels = tuple(rng.randrange(k) for _ in range(n_u)) if planted else None
    v_labels = tuple(rng.randrange(m) for _ in range(n_v)) if planted else None
    if degree is None:
        edges = [(v, u) for v in range(n_v) for u in range(n_u)]
    else:
        if (n_v * degree) % n_u:
            raise ValueError("round-robin degrees do not balance; pick degree with n_v*degree % n_u == 0")
        edges = [(v, (v + t) % n_u) for v in range(n_v) for t in range(degree)]
    constraints = []
    for v, u in edges:
        pin = (v_labels[v], u_labels[u]) if planted else None
        constraints.append((v, u, _random_dto1_projection(k, d, rng, pin)))
    return Dto1Game(d, k, m, n_u, n_v, tuple(constraints),
                    (u_labels, v_labels) if planted else None)


def build_smooth_mlpcp(game: Dto1Game, layers: int, T: int,
                       label_cap: int = LABEL_TUPLE_CAP) -> LayeredPcp:
    """Layered PCP over a d-to-1 game with the smoothness parameter T.

    Layer l (0-based) variables are sets of T*layers + layers - 1 - l
    V-variables and l U-variables of the game; labels are assignment
    tuples; constraints substitute V-variables with game-constrained
    U-neighbors and project by consistency. Every projection's preimage
    sizes are verified to equal d^(layer gap) during the build.
    """
    if layers < 2 or T < 1:
        raise ValueError("need layers >= 2 and T >= 1")
    n_vside = [T * layers + layers - 1 - l for l in range(layers)]
    n_uside = list(range(layers))
    if game.n_v < n_vside[0]:
        raise ValueError(f"game has {game.n_v} V-variables but layer 0 needs {n_vside[0]}")
    if game.n_u < n_uside[-1]:
        raise ValueError(f"game has {game.n_u} U-variables but the last layer needs {n_uside[-1]}")
    label_sizes = []
    for l in range(layers):
        size = game.m ** n_vside[l] * game.k ** n_uside[l]
        if size > label_cap:
            raise SizeCapError(f"layer {l} needs {size} label tuples, cap is {label_cap}")
        label_sizes.append(size)

    adjacency: dict[tuple[int, int], tuple[int, ...]] = {
        (v, u): proj for v, u, proj in game.constraints
    }
    layer_vars: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    var_index: list[dict[tuple[tuple[int, ...], tuple[int, ...]], int]] = []
    for l in range(layers):
        vs = [
            (vset, uset)
            for vset in itertools.combinations(range(game.n_v), n_vside[l])
            for uset in itertools.combinations(range(game.n_u), n_uside[l])
        ]
        layer_vars.append(vs)
        var_index.append({vu: i for i, vu in enumerate(vs)})

    def radices(vset, uset):
        return [game.m] * len(vset) + [game.k] * len(uset)

    constraints: list[PcpConstraint] = []
    seen_constraints: set[tuple] = set()
    for l in range(layers):
        for l2 in range(l + 1, layers):
            gap = l2 - l
            expected = game.d ** gap
            for vi, (vset, uset) in enumerate(layer_vars[l]):
                src_digits = np.unravel_index(np.arange(label_sizes[l]), radices(vset, uset))
                for removed in itertools.combinations(vset, gap):
                    kept_v = tuple(q for q in vset if q not in removed)
                    for added in itertools.permutations(range(game.n_u), gap):
                        if any(p in uset for p in added):
                            continue
                        if any((q, p) not in adjacency for q, p in zip(removed, added)):
                            continue
                        uset2 = tuple(sorted(uset + added))
                        target = (kept_v, uset2)
                        ui = var_index[l2].get(target)
                        if ui is None:
                            continue
                        # V and U variables are both numbered from 0: keep their slots apart
                        v_digits = dict(zip(vset, src_digits[:len(vset)]))
                        u_digits = dict(zip(uset, src_digits[len(vset):]))
                        for q, p in zip(removed, added):
                            u_digits[p] = np.asarray(adjacency[(q, p)])[v_digits[q]]
                        proj_table = np.ravel_multi_index(
                            [v_digits[q] for q in kept_v] + [u_digits[p] for p in uset2],
                            radices(kept_v, uset2))
                        counts = np.bincount(proj_table, minlength=label_sizes[l2])
                        if not np.all(counts == expected):
                            raise AssertionError(
                                f"preimage sizes {sorted(set(counts.tolist()))} != d^gap={expected}"
                            )
                        key = (l, l2, vi, ui, tuple(proj_table.tolist()))
                        if key not in seen_constraints:
                            seen_constraints.add(key)
                            constraints.append(PcpConstraint(*key))

    planted = None
    if game.planted is not None:
        u_labels, v_labels = game.planted
        planted = tuple(
            tuple(
                int(np.ravel_multi_index([v_labels[q] for q in vset] + [u_labels[p] for p in uset],
                                         radices(vset, uset)))
                for (vset, uset) in layer_vars[l]
            )
            for l in range(layers)
        )
    var_names = tuple(
        tuple(f"V{list(vset)}+U{list(uset)}" for (vset, uset) in layer_vars[l])
        for l in range(layers)
    )
    return LayeredPcp(layers, tuple(len(v) for v in layer_vars), tuple(label_sizes),
                      tuple(constraints), params={"d": game.d, "T": T},
                      planted_labeling=planted, var_names=var_names)
