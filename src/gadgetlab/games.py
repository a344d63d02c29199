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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import ClassVar

import numpy as np

from .gf2 import Gf2Subspace
from .seeding import as_rng, derive_rng
from .verify import GenericHypergraph, check_coloring, unique_rows

LABEL_TUPLE_CAP = 10**6
MAX_VARIABLES = 10**6  # variables of a LayeredPcp


# ---------------------------------------------------------------------------
# Max-3Lin


@dataclass(frozen=True)
class Lin3Instance:
    """A system of 3-variable linear equations over GF(2)."""

    n: int
    equations: tuple[tuple[int, int, int, int], ...]
    declared_degree: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "equations",
                           tuple(tuple(e) if isinstance(e, LIST) else e for e in self.equations))
        for eq in self.equations:
            if not isinstance(eq, tuple) or len(eq) != 4 or any(type(x) is not int for x in eq):
                raise ValueError(f"equation {eq!r} is not four integers i, j, k, b")
            i, j, k, b = eq
            if not (0 <= i < self.n and 0 <= j < self.n and 0 <= k < self.n):
                raise ValueError(f"equation {eq} has a variable out of range [0, {self.n})")
            if len({i, j, k}) != 3:
                raise ValueError(f"equation {eq} repeats a variable")
            if b not in (0, 1):
                raise ValueError(f"equation {eq} has a non-bit right-hand side")
        if self.declared_degree is not None:
            counts = Counter(v for eq in self.equations for v in eq[:3])
            bad = [v for v in range(self.n) if counts[v] != self.declared_degree]
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
        """The instance of a to_json_dict object; ValueError names a mistyped field."""
        degree = None if d.get("declared_degree") is None else typed_field(d, "declared_degree", int)
        return cls(typed_field(d, "n", int), tuple(typed_field(d, "equations", LIST)), degree)


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
                 budget: int = 10**6) -> tuple[EquationBlock, VariableBlock] | None:
    """One verifier round: an equation block W and a variable block U.

    W is r equations sampled uniformly with replacement, resampled while
    the 3r variables repeat; U picks one variable per equation of W. None
    when budget draws of W all repeat a variable.
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
    return None


@dataclass(frozen=True)
class BlockGeometry:
    """Per-block linear data in F2^(3r+1).

    h[i] has ones at the i-th equation's three positions plus the extra
    position 3r when the equation's right-hand side is 1; h_w indicates the
    extra position; u_positions locate the variable block inside var_order.
    """

    r: int
    h: tuple[int, ...]
    subspace: Gf2Subspace
    h_w: int
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
    hs = tuple((0b111 << (3 * t)) | (block.rhs[t] << (3 * r)) for t in range(r))
    sub = Gf2Subspace.span(hs, width)
    if sub.dim != r:
        raise AssertionError("h vectors are dependent despite distinct variables")
    return BlockGeometry(r, hs, sub, 1 << (3 * r), tuple(u_positions))


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
        if not all(type(n) is int and n >= 0 for n in self.var_counts) or not all(
                type(r) is int and r >= 1 for r in self.label_sizes):
            raise ValueError(f"var_counts {list(self.var_counts)} and label_sizes "
                             f"{list(self.label_sizes)} need integers >= 0 and >= 1")
        if sum(self.var_counts) > MAX_VARIABLES:  # gadgets and decoders keep an entry per variable
            raise ValueError(f"the PCP has {sum(self.var_counts)} variables, cap is {MAX_VARIABLES}")
        for c in self.constraints:
            if not 0 <= c.from_layer < c.to_layer < self.layers:
                raise ValueError(f"bad layer pair ({c.from_layer}, {c.to_layer})")
            if not (0 <= c.v < self.var_counts[c.from_layer]
                    and 0 <= c.u < self.var_counts[c.to_layer]):
                raise ValueError("constraint variable out of range")
            if len(c.projection) != self.label_sizes[c.from_layer]:
                raise ValueError("projection table has wrong length")
            if any(type(t) is not int or not 0 <= t < self.label_sizes[c.to_layer]
                   for t in c.projection):
                raise ValueError("projection value out of range")
        labeling = self.planted_labeling
        if labeling is not None and (not isinstance(labeling, LIST) or len(labeling) != self.layers):
            raise ValueError(f"planted_labeling is not one sequence per layer: {labeling!r}")
        for l, labels in enumerate(labeling or ()):
            if not isinstance(labels, LIST) or len(labels) != self.var_counts[l]:
                raise ValueError(f"planted_labeling layer {l} is {labels!r}, "
                                 f"not a sequence of {self.var_counts[l]} labels")
            bad = [(v, t) for v, t in enumerate(labels)
                   if type(t) is not int or not 0 <= t < self.label_sizes[l]]
            if bad:
                raise ValueError(f"planted_labeling layer {l} entry {bad[0][0]} is {bad[0][1]!r}, "
                                 f"not a label in [0, {self.label_sizes[l]})")
        names = self.var_names
        if names is not None and [len(row) if isinstance(row, LIST) and all(type(s) is str for s in row)
                                  else None for row in names] != list(self.var_counts):
            raise ValueError(f"var_names {names!r} is not one sequence of var_counts[l] strings per layer l")

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
        """The PCP of a to_json_dict object; ValueError names a mistyped field."""
        layers = typed_field(d, "layers", int)
        var_counts = tuple(typed_field(d, "var_counts", LIST))
        label_sizes = tuple(typed_field(d, "label_sizes", LIST))
        constraints = []
        for c in typed_field(d, "constraints", LIST):
            if not isinstance(c, dict):
                raise ValueError(f"constraint {c!r} is not an object")
            ends = (typed_field(c, key, int) for key in ("from_layer", "to_layer", "v", "u"))
            constraints.append(PcpConstraint(*ends, tuple(typed_field(c, "projection", LIST))))
        # a labeling row that is no list is kept as read, for __post_init__ to name
        rows = {key: tuple(tuple(x) if isinstance(x, LIST) else x for x in typed_field(d, key, LIST))
                for key in ("planted_labeling", "var_names") if d.get(key)}
        params = None if d.get("params") is None else typed_field(d, "params")
        if any(typed_field(params, key, int) < 1 for key in ("d", "T") if key in (params or {})):
            raise ValueError(f"params {params!r} need integers d and T >= 1")
        return cls(layers, var_counts, label_sizes, tuple(constraints), params,
                   rows.get("planted_labeling"), rows.get("var_names"))


LIST = (list, tuple)  # a JSON array, or the tuple a caller builds in its place
FIELD_KINDS = {dict: "an object", LIST: "a list", str: "a string", int: "an integer",
               bool: "true or false"}


def typed_field(d: dict, key: str, kind: type | tuple = dict):
    """d[key]; ValueError naming the field unless it is of kind (a bool is no int)."""
    value = d[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"field {key!r} is not {FIELD_KINDS[kind]}: {value!r}")
    return value


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


def code_layout(pcp: LayeredPcp, base: int, cap: int = 2**63) -> tuple[dict[tuple[int, int], int], int]:
    """First vertex id of each variable's code of base ** label_size points,
    in (layer, var) order, and the total vertex count. ValueError before any
    list per variable for over 2**63 vertices (ids the int64 edge arrays
    cannot hold) or over cap vertices."""
    sizes = [base ** m if m < 64 else 2**64 for m in pcp.label_sizes]  # base >= 2
    total = sum(n * size for n, size in zip(pcp.var_counts, sizes))
    if total > 2**63:
        raise ValueError(f"label sizes {list(pcp.label_sizes)} on {list(pcp.var_counts)} variables "
                         "give over 2**63 vertices, more than int64 vertex ids can name")
    if total > cap:
        raise ValueError(f"gadget would have {total} vertices, cap is {cap}")
    keys = [(l, v) for l in range(pcp.layers) for v in range(pcp.var_counts[l])]
    starts = [0, *itertools.accumulate(sizes[l] for l, _ in keys)]
    return dict(zip(keys, starts)), starts[-1]


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
        raise ValueError(f"no heavy variables at threshold {half}")
    quarter = threshold / 4.0
    qualified = {l: set(vs) for l, vs in heavy.items()
                 if len(vs) >= quarter * pcp.var_counts[l]}
    if len(qualified) < 2:
        raise ValueError(f"only {len(qualified)} layers reach a {quarter} fraction of heavy variables")
    density = check_weak_density(pcp, qualified, quarter)
    if density["best_pair"] is None:
        raise ValueError("no constraints between any pair of qualifying layers")
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
    z points of v. A constraint's rule hits are materialised as one read-only
    (n, 3) int64 table of code points, which constraints of one rule share,
    or None when only the rule is kept ("rule" or "mixed" mode). A hit with
    y == z is a pair the rule forbids, not a 3-uniform edge.
    Points whose dictator digit is removed_digit leave the YES colouring;
    None matches no digit, so no point leaves."""

    base: ClassVar[int]
    removed_digit: ClassVar[int | None]

    pcp: LayeredPcp
    mode: str
    offsets: dict[tuple[int, int], int]
    vertex_count: int
    constraint_edges: list[np.ndarray | None]  # per constraint, its rule hits (y == z ones too)

    def __post_init__(self) -> None:
        for table in self.constraint_edges:
            if table is not None:
                table.flags.writeable = False

    @property
    def dropped_degenerate(self) -> int:
        """The y == z hits: pairs, left out of the exported edges."""
        return sum(int(np.count_nonzero(t[:, 1] == t[:, 2]))
                   for t in self.constraint_edges if t is not None)

    @cached_property
    def code_firsts(self) -> np.ndarray:
        """The first vertex id of each code, in offsets order."""
        return np.fromiter(self.offsets.values(), dtype=np.int64)

    def vertex_id(self, layer: int, var: int, point: int) -> int:
        return self.offsets[(layer, var)] + point

    def sample_hits(self, ci: int, rng: random.Random, samples: int):
        """samples random rule hits (x, y, z) of constraint ci."""
        raise NotImplementedError

    def point_weights(self) -> list[Fraction]:
        """vertex_weight(layer, var, point) of every vertex, in vertex id order."""
        return [self.vertex_weight(l, v, pt) for l, v in self.offsets
                for pt in range(self.base ** self.pcp.label_sizes[l])]

    def _stack(self, tables: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
        """Each constraint's (n, 3) table of code points as vertex ids, in
        constraint order, as one (H, 3) int64 array, and the first row of
        each constraint (then H)."""
        starts = [0, *itertools.accumulate(map(len, tables))]
        rows = np.empty((starts[-1], 3), dtype=np.int64)
        for ci, (c, table) in enumerate(zip(self.pcp.constraints, tables)):
            u, v = self.offsets[(c.to_layer, c.u)], self.offsets[(c.from_layer, c.v)]
            np.add(table, (u, v, v), out=rows[starts[ci]:starts[ci + 1]])  # x of u; y, z of v
        return rows, starts

    def hit_rows(self, samples: int = 0, seed: int = 0) -> tuple[np.ndarray, list[int]]:
        """Every constraint's rule hits as one (H, 3) int64 array of vertex
        ids, in constraint order, and the first row of each constraint (then
        H). A materialised constraint gives its table; a rule-only one gives
        samples draws from its own seeded stream, none unless samples are
        asked for."""
        return self._stack([
            np.array(list(self.sample_hits(ci, derive_rng(seed, "yes-check", ci), samples)),
                     dtype=np.int64).reshape(-1, 3) if table is None else table
            for ci, table in enumerate(self.constraint_edges)])

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

    def _export(self, meta: dict) -> GenericHypergraph:
        """The 3-uniform hypergraph of the materialised edges, weighted by
        vertex_weight; meta gains dropped_degenerate.
        Both rules are symmetric in y and z, so only the y < z rows of each
        distinct table are kept: each (x, z, y) is the mirror of an (x, y, z),
        and the y == z rows are pairs. No array of all hits is built."""
        if self.mode != "enumerate":
            raise ValueError("export requires enumerate mode")
        distinct = {id(t): t for t in self.constraint_edges}
        halves = {key: t[t[:, 1] < t[:, 2]] for key, t in distinct.items()}
        edges = unique_rows(self._stack([halves[id(t)] for t in self.constraint_edges])[0])
        meta["dropped_degenerate"] = self.dropped_degenerate
        return GenericHypergraph(3, tuple(range(self.vertex_count)), edges,
                                 dict(enumerate(self.point_weights())), meta)


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
        # the sizes may come from a file: no list is as long as k, n_u or n_v
        u_deg, v_deg = Counter(), Counter()
        for v, u, proj in self.constraints:
            if not (type(v) is type(u) is int and 0 <= v < self.n_v and 0 <= u < self.n_u):
                raise ValueError(f"constraint ({v!r}, {u!r}) is not a pair of variables (v, u)")
            if (len(proj) != self.m or any(type(t) is not int or not 0 <= t < self.k for t in proj)
                    or set(Counter(proj).values()) - {self.d}):
                raise ValueError(f"projection of constraint ({v},{u}) "
                                 f"is not exactly d-to-1 onto [0, {self.k})")
            u_deg[u] += 1
            v_deg[v] += 1
        if any(len(deg) != n or len(set(deg.values())) > 1
               for deg, n in ((u_deg, self.n_u), (v_deg, self.n_v))):
            raise ValueError("game is not bi-regular")
        if self.planted is not None:
            u_labels, v_labels = self.planted
            if [len(u_labels), len(v_labels)] != [self.n_u, self.n_v] or not all(
                    type(t) is int and 0 <= t < size
                    for labels, size in ((u_labels, self.k), (v_labels, self.m)) for t in labels):
                raise ValueError(f"planted labels are not one label in [0, {self.k}) per U variable "
                                 f"and one in [0, {self.m}) per V variable")
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
        """The game of a to_json_dict object; ValueError names a mistyped field."""
        sizes = [typed_field(d, key, int) for key in ("d", "k", "m", "u_count", "v_count")]
        constraints = typed_field(d, "constraints", LIST)
        if not all(isinstance(c, LIST) and len(c) == 3 and isinstance(c[2], LIST) for c in constraints):
            raise ValueError("field 'constraints' is not a list of [v, u, projection] lists")
        planted = None
        if d.get("planted"):
            labels = typed_field(d, "planted")
            planted = tuple(tuple(typed_field(labels, key, LIST)) for key in ("u_labels", "v_labels"))
        return cls(*sizes, tuple((v, u, tuple(p)) for v, u, p in constraints), planted)


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


def build_smooth_mlpcp(game: Dto1Game, layers: int, T: int) -> LayeredPcp:
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
        if size > LABEL_TUPLE_CAP:
            raise ValueError(f"layer {l} needs {size} label tuples, cap is {LABEL_TUPLE_CAP}")
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
