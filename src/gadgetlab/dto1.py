"""The correlated-test 3-uniform hypergraph over +-1 long codes.

Cube points are bitmasks (bit j set means coordinate j equals -1), so the
GF(2) Walsh-Hadamard machinery doubles as the +-1-cube Fourier transform.
Per constraint, the hyperedge support is a product over target labels i of
the base distribution on (x_i, y restricted to the preimage of i, z there).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import FiniteJointDist, maximal_correlation
from .games import (LayeredPcp, PcpGadget, RuleCheck, code_layout, heavy_layer_pair,
                    satisfied_fractions)
from .gf2 import popcounts, walsh_hadamard
from .seeding import as_rng, derive_rng
from .verify import GenericHypergraph

MAX_TABLE_R = 10
EDGE_ENUM_BITS = 20


def _pm(mask: int, j: int) -> int:
    return -1 if (mask >> j) & 1 else 1


def _mask_tuple(mask: int, r: int) -> tuple[int, ...]:
    return tuple(_pm(mask, j) for j in range(r))


@dataclass(frozen=True)
class DDeltaR:
    """The base correlated distribution on (X, Y, Z) with Y, Z in {-1,1}^r."""

    delta: float
    r: int
    joint: FiniteJointDist

    @property
    def xi(self) -> float:
        return self.delta / (self.r * 2.0**self.r)

    def prob(self, x_bit: int, y_mask: int, z_mask: int) -> float:
        return float(self.joint.probs[x_bit, y_mask, z_mask])

    def support(self) -> list[tuple[int, int, int]]:
        """The atoms (x_bit, y, z) of positive probability, in C order."""
        return [tuple(atom) for atom in np.argwhere(self.joint.probs > 0).tolist()]

    def yz_marginal(self) -> FiniteJointDist:
        return FiniteJointDist(
            (self.joint.factors[1], self.joint.factors[2]),
            self.joint.marginal((1, 2)),
        )

    def to_csv(self) -> str:
        lines = ["atom,probability"]
        for x_bit, y, z in self.support():
            xs = "+" if x_bit == 0 else "-"
            ys = "".join("-" if (y >> j) & 1 else "+" for j in range(self.r))
            zs = "".join("-" if (z >> j) & 1 else "+" for j in range(self.r))
            lines.append(f"{xs}|{ys}|{zs},{self.prob(x_bit, y, z)!r}")
        return "\n".join(lines) + "\n"


def dist_table(delta: float, r: int) -> DDeltaR:
    """Exact atom table: with probability 1-delta, Z = -Y coordinatewise
    and X is an independent uniform bit; with probability delta a uniform
    coordinate j gets Y_j = Z_j = -X."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    if not 1 <= r <= MAX_TABLE_R:
        raise ValueError(f"r must be in [1, {MAX_TABLE_R}] for a full table, got {r}")
    size, full = 1 << r, (1 << r) - 1
    probs = np.zeros((2, size, size))
    points = np.arange(size)
    probs[:, points, points ^ full] = (1.0 - delta) / (2.0 * size)
    # the resampled atoms: no two share a cell, nor with the plain ones (z ^ y names j)
    for j in range(r):
        rest = points[(points >> j) & 1 == 0]
        for x_bit in range(2):
            target = (1 - x_bit) << j
            probs[x_bit, rest | target, ((rest ^ full) & ~(1 << j)) | target] = delta / (r * size)
    signs = tuple(_mask_tuple(m, r) for m in range(size))
    return DDeltaR(delta, r, FiniteJointDist(((1, -1), signs, signs), probs))


def sample(delta: float, r: int, rng: random.Random | int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """One generative draw of (X, Y, Z) as +-1 values."""
    rng = as_rng(rng)
    x = rng.choice((1, -1))
    y = [rng.choice((1, -1)) for _ in range(r)]
    z = [-v for v in y]
    if rng.random() < delta:
        j = rng.randrange(r)
        y[j] = z[j] = -x
    return x, tuple(y), tuple(z)


def support_safety(dist: DDeltaR) -> bool:
    """No positive atom has (X, Y_j, Z_j) monochromatic at any j."""
    return not any(_pm(x_bit, 0) == _pm(y, j) == _pm(z, j)
                   for x_bit, y, z in dist.support() for j in range(dist.r))


def correlation_suite(delta: float, r: int) -> dict:
    """Min atom and the four correlation quantities, each against its
    stated bound; the min-atom equality only binds when delta <= r/(r+2)."""
    dist = dist_table(delta, r)
    xi = dist.xi
    min_atom = dist.joint.min_atom()
    in_regime = delta <= r / (r + 2.0)
    rho_x_yz = maximal_correlation(dist.joint, ((0,), (1, 2)))
    rho_xy_z = maximal_correlation(dist.joint, ((0, 1), (2,)))
    rho_y_z = maximal_correlation(dist.yz_marginal(), ((0,), (1,)))
    rho_joint = max(maximal_correlation(dist.joint, ((1, 2), (0,))),
                    maximal_correlation(dist.joint, ((0, 2), (1,))), rho_xy_z)
    cap = 1.0 - xi**2 / 2.0
    return {
        "delta": delta, "r": r, "xi": xi,
        "min_atom": min_atom,
        "min_atom_bound": xi,
        "min_atom_regime": in_regime,
        "min_atom_ok": (min_atom == xi) if in_regime else (min_atom <= xi),
        "rho_x_yz": rho_x_yz, "rho_x_yz_ok": rho_x_yz <= delta + 1e-9,
        "rho_xy_z": rho_xy_z, "rho_xy_z_ok": rho_xy_z <= cap + 1e-9,
        "rho_y_z": rho_y_z, "rho_y_z_ok": rho_y_z <= cap + 1e-9,
        "rho_all": rho_joint, "rho_all_ok": rho_joint <= cap + 1e-9,
        "cap": cap,
    }


# ---------------------------------------------------------------------------
# Cube spectra (masks; bit j set means coordinate j is -1)

def cube_spectrum(values: np.ndarray) -> np.ndarray:
    return walsh_hadamard(values)


def blocks_of(projection: tuple[int, ...], target_size: int) -> list[int]:
    """Preimage bitmask per target label."""
    masks = [0] * target_size
    for j, i in enumerate(projection):
        masks[i] |= 1 << j
    return masks


def block_positions(blocks: list[int], n_bits: int) -> list[list[int]]:
    """Label bits of each block, lowest first."""
    return [[j for j in range(n_bits) if (b >> j) & 1] for b in blocks]


def block_hits(blocks: list[int], n_bits: int) -> np.ndarray:
    """Per character mask, the number of blocks it touches."""
    masks = np.arange(1 << n_bits)
    hits = np.zeros(1 << n_bits, dtype=np.int64)
    for b in blocks:
        hits += (masks & b) != 0
    return hits


def shattered_mask(blocks: list[int], n_bits: int) -> np.ndarray:
    """Boolean per character mask: True when no block holds two of its bits,
    that is, for blocks that partition the bits, when it touches as many
    blocks as it has bits."""
    return block_hits(blocks, n_bits) == popcounts(n_bits)


def _width(coeffs: np.ndarray) -> int:
    """n, for tables of 2^n entries along the last axis."""
    return coeffs.shape[-1].bit_length() - 1


@dataclass(frozen=True)
class ShatterDecomp:
    """Spectrum split into high-degree (f1), low-unshattered (f2) and low-shattered
    (f3) parts, kept as the coefficients and two masks; a part is built when read."""

    coeffs: np.ndarray
    high: np.ndarray
    shattered: np.ndarray
    s: float

    f1 = property(lambda self: np.where(self.high, self.coeffs, 0.0))
    f2 = property(lambda self: np.where(~self.high & ~self.shattered, self.coeffs, 0.0))
    f3 = property(lambda self: np.where(~self.high & self.shattered, self.coeffs, 0.0))


def shattered_decomposition(coeffs: np.ndarray, projection: tuple[int, ...],
                            target_size: int, s: float) -> ShatterDecomp:
    """The decomposition of each spectrum along the last axis."""
    n_bits = _width(coeffs)
    return ShatterDecomp(coeffs, popcounts(n_bits) >= s,
                         shattered_mask(blocks_of(projection, target_size), n_bits), s)


def _coordinate_mass(damped: np.ndarray) -> np.ndarray:
    """Per coordinate i, the total of damped over the characters holding i,
    for each table along the last axis: the odd rows of a (2^(n-1-i), 2, 2^i)
    view, summed with no copy."""
    n_bits, lead = _width(damped), damped.shape[:-1]
    out = np.empty((*lead, n_bits))
    for i in range(n_bits):
        out[..., i] = damped.reshape(*lead, 1 << (n_bits - 1 - i), 2, 1 << i)[..., 1, :].sum(axis=(-2, -1))
    return out


def noisy_influences(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Inf_i of T_{1-gamma} f per coordinate, by spectrum reweighting, for
    each spectrum along the last axis."""
    return _coordinate_mass((1.0 - gamma) ** (2 * popcounts(_width(coeffs))) * coeffs**2)


def block_noisy_influences(coeffs: np.ndarray, gamma: float,
                           blocks: list[int]) -> np.ndarray:
    """Inf_i over the cube of the blockwise noise operator, which damps a
    character by (1-gamma) per touched block rather than per coordinate,
    for each spectrum along the last axis."""
    return _coordinate_mass((1.0 - gamma) ** (2 * block_hits(blocks, _width(coeffs))) * coeffs**2)


def block_influence(coeffs: np.ndarray, block_mask: int) -> float:
    masks = np.arange(coeffs.size)
    return float((coeffs**2)[(masks & block_mask) != 0].sum())


def yz_character_matrix(dist: DDeltaR) -> np.ndarray:
    """M[a, b] = E[chi_a(Y) chi_b(Z)] under the base distribution: S P S^T
    with S[a, m] = chi_a(point m) and P the (Y, Z) marginal."""
    points = np.arange(1 << dist.r)
    signs = 1.0 - 2.0 * (popcounts(dist.r)[points[:, None] & points] & 1)
    return signs @ dist.joint.marginal((1, 2)) @ signs.T


def cross_expectation(f_coeffs: np.ndarray, g_coeffs: np.ndarray,
                      blocks: list[int], M: np.ndarray) -> float:
    """E[f(y) g(z)] when (y, z) restricted to each block is an independent
    draw of the base (Y, Z) pair: f^T (tensor over blocks of M) g, applied
    to g as one mode product per block, O(2^n 2^r #blocks) time and O(2^n)
    memory.

    The blocks must partition the n label bits into blocks of r bits each,
    where M is 2^r x 2^r; bit t of a block's local index is its t-th
    lowest label bit."""
    n_bits, r = _width(g_coeffs), _width(M)
    covered = 0
    for b in blocks:
        if bin(b).count("1") != r:
            raise ValueError(f"block {b:#b} has {bin(b).count('1')} bits, not r={r}")
        if b & covered:
            raise ValueError(f"block {b:#b} overlaps an earlier block")
        covered |= b
    if covered != (1 << n_bits) - 1:
        raise ValueError(f"blocks cover {covered:#b}, not all {n_bits} label bits")
    # Axis k of the (2,)*n view holds label bit n-1-k, so a block's axes in
    # increasing order flatten to its local index. One transpose puts the
    # blocks in order; each mode product then works on the leading block and
    # rotates it to the end, so after the last block the order is back.
    axes = [k for b in blocks for k in range(n_bits) if (b >> (n_bits - 1 - k)) & 1]
    g = np.asarray(g_coeffs, dtype=np.float64).reshape((2,) * n_bits).transpose(axes)
    for _ in blocks:
        g = (M @ g.reshape(1 << r, -1)).T.reshape(-1)
    f = np.asarray(f_coeffs, dtype=np.float64).reshape((2,) * n_bits).transpose(axes)
    return float(np.dot(f.reshape(-1), g.reshape(-1)))


# ---------------------------------------------------------------------------
# Gadget construction

@dataclass
class Dto1Gadget(PcpGadget):
    base = 2
    removed_digit = None

    delta: float
    constraint_r: list[int]

    def vertex_weight(self, layer: int, var: int, point: int) -> Fraction:
        return Fraction(1, (1 << self.pcp.label_sizes[layer])
                        * self.pcp.layers * self.pcp.var_counts[layer])

    def sample_hits(self, ci: int, rng: random.Random, samples: int):
        """Generative draws, one per block, scattered to the label bits."""
        c = self.pcp.constraints[ci]
        r = self.constraint_r[ci]
        block_pos = block_positions(blocks_of(c.projection, self.pcp.label_sizes[c.to_layer]),
                                    self.pcp.label_sizes[c.from_layer])
        for _ in range(samples):
            x = y = z = 0
            for i, positions in enumerate(block_pos):
                xv, yv, zv = sample(self.delta, r, rng)
                x |= (xv == -1) << i
                y |= sum((v == -1) << j for v, j in zip(yv, positions))
                z |= sum((v == -1) << j for v, j in zip(zv, positions))
            yield x, y, z

    def to_hypergraph(self) -> GenericHypergraph:
        return self._export({"kind": "dto1", "delta": self.delta})


def build(pcp: LayeredPcp, delta: float) -> Dto1Gadget:
    """Per-constraint product supports over the base distribution; full
    enumeration when the packed (x, y, z) description fits the bit cap."""
    if pcp.params is None or "d" not in pcp.params:
        raise ValueError("the correlated-test gadget needs a smooth layered PCP")
    d = pcp.params["d"]
    offsets, total = code_layout(pcp, Dto1Gadget.base)
    constraint_edges, constraint_r = [], []
    tables: dict = {}  # (projection, label sizes, r) -> its constraints' shared hit table
    for c in pcp.constraints:
        r = d ** (c.to_layer - c.from_layer)
        constraint_r.append(r)
        small, big = pcp.label_sizes[c.to_layer], pcp.label_sizes[c.from_layer]
        key = (c.projection, small, big, r)
        if key not in tables and small * (1 + 2 * r) <= EDGE_ENUM_BITS:
            atoms = np.array(dist_table(delta, r).support())
            # every choice of one atom per block, the first block slowest; per atom x's bit
            # at i and bit t of y and of z at label bit pos[t], so the blocks' sum is their OR
            rows = np.zeros((1, 3), dtype=np.int64)
            for i, pos in enumerate(block_positions(blocks_of(c.projection, small), big)):
                bits = atoms[:, 1:, None] >> np.arange(len(pos)) & 1
                block = np.column_stack([atoms[:, 0] << i, bits @ 2 ** np.array(pos, dtype=np.int64)])
                rows = (rows[:, None] + block).reshape(-1, 3)
            tables[key] = rows
        constraint_edges.append(tables.get(key))  # None: over the bit cap, rule only
    kept = sum(e is not None for e in constraint_edges)
    mode = "enumerate" if kept == len(constraint_edges) else "mixed" if kept else "rule"
    return Dto1Gadget(pcp, mode, offsets, total, constraint_edges, delta, constraint_r)


def yes_check(g: Dto1Gadget, sigma, samples: int = 2000, seed: int = 0) -> RuleCheck:
    """The dictated coloring (the bit named by the labeling) must make
    every edge non-monochromatic."""
    return g.dictator_check(sigma, samples, seed)


# ---------------------------------------------------------------------------
# Decoding

@dataclass(frozen=True)
class DecodeParams:
    """The caller-supplied parameter cascade; eta is derived once r is
    fixed by the chosen layer pair."""

    delta: float
    eps: float
    gamma: float
    tau: float
    s: float
    T: int

    def __post_init__(self) -> None:
        for name, ok, rule in (("delta", self.delta == self.delta, "a number"),
                               ("eps", self.eps == self.eps, "a number"),
                               ("gamma", 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
                               ("tau", 0.0 <= self.tau < np.inf, "finite and >= 0"),
                               ("s", self.s >= 0.0, ">= 0"), ("T", self.T >= 1, ">= 1")):
            if not ok:  # a NaN fails every rule
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    def eta(self, r: int) -> float:
        return 2.0 * self.delta / r


@dataclass
class Dto1DecodeResult:
    outcome: str
    layer_pair: tuple[int, int]
    r: int | None
    labels_v: dict[tuple[int, int], int]
    labels_u: dict[tuple[int, int], int]
    satisfied_fraction: Fraction
    satisfied_fraction_all: Fraction
    good_neighbors: dict[tuple[int, int], bool]
    diagnostics: dict


def decode(indicators: dict[tuple[int, int], np.ndarray], pcp: LayeredPcp,
           params: DecodeParams, seed: int = 0) -> Dto1DecodeResult:
    """Influence decoding: pick a heavy layer pair, mark good neighbors by the
    unshattered-mass bound, and label each side with probability proportional
    to its noisy influences. Each layer is one stack of indicators, and each
    distinct projection of the pair one pass over its variables' spectra."""
    if pcp.params is None or "d" not in pcp.params:
        raise ValueError("decode needs a smooth layered PCP")
    d = pcp.params["d"]
    layer_keys: dict[int, list[tuple[int, int]]] = {}
    for key, f in indicators.items():
        if np.shape(f) != (1 << pcp.label_sizes[key[0]],):
            raise ValueError(f"indicator {key} has shape {np.shape(f)}, "
                             f"not 2**{pcp.label_sizes[key[0]]} entries")
        layer_keys.setdefault(key[0], []).append(key)

    means, bad = {}, set()
    for layer, keys in layer_keys.items():
        values = np.array([indicators[k] for k in keys], dtype=np.float64)
        in_range = np.all((values >= -1e-12) & (values <= 1.0 + 1e-12), axis=-1)  # a NaN fails both
        bad.update(k for k, ok in zip(keys, in_range.tolist()) if not ok)
        means.update(zip(keys, values.mean(axis=-1).tolist()))
    values = None  # free the last stack: past this point only the spectra are held
    if bad:
        raise ValueError(f"indicator {next(k for k in indicators if k in bad)} is not [0, 1]-valued")

    _, qualified, density = heavy_layer_pair(pcp, means, params.eps)
    l, l2 = density["best_pair"]
    r = d ** (l2 - l)
    eta = params.eta(r)
    M = yz_character_matrix(dist_table(params.delta, r))
    small = pcp.label_sizes[l2]
    row: dict[tuple[int, int], int] = {}  # a qualified variable's row in its layer's stacks
    spectra, influences = {}, {}
    for layer in (l, l2):
        keys = [(layer, v) for v in sorted(qualified[layer])]
        row.update(zip(keys, range(len(keys))))
        spectra[layer] = cube_spectrum(np.array([indicators[k] for k in keys], dtype=np.float64))
        influences[layer] = noisy_influences(spectra[layer], params.gamma)

    cons = [c for c in pcp.constraints_between(l, l2)
            if c.v in qualified[l] and c.u in qualified[l2]]
    # each distinct (v, projection), in first-use order, and its index
    pairs = {pair: i for i, pair in enumerate(dict.fromkeys((c.v, c.projection) for c in cons))}
    f2_norm, eyz, gap = np.empty(len(pairs)), np.empty(len(pairs)), np.empty(len(pairs))
    block_mass = np.empty((len(pairs), small))  # per pair and target label, the block's influence
    for projection in dict.fromkeys(p for _, p in pairs):
        group = [i for (_, p), i in pairs.items() if p == projection]
        v_rows = [row[(l, v)] for v, p in pairs if p == projection]
        spec, blocks = spectra[l][v_rows], blocks_of(projection, small)
        f2_norm[group] = np.sqrt(
            (shattered_decomposition(spec, projection, small, params.s).f2**2).sum(axis=-1))
        eyz[group] = [cross_expectation(f, f, blocks, M) for f in spec]
        inf_bar = block_noisy_influences(spec, params.gamma, blocks)
        gap[group] = np.max(np.abs(inf_bar - influences[l][v_rows]), axis=-1, initial=0.0)
        block_mass[group] = inf_bar @ (np.array(projection)[:, None] == np.arange(small))

    good_bound = (params.s**2 / params.T) ** 0.25
    pair_floor = (params.eps / 2.0) ** (4.0 / eta)
    gap_bound = 2.0 * good_bound + params.tau / (16.0 * r * r)
    index = [pairs[(c.v, c.projection)] for c in cons]
    matched = np.any(np.minimum(influences[l2][[row[(l2, c.u)] for c in cons]],
                                4.0 * r * block_mass[index]) >= params.tau, axis=-1)
    norm, eyz, gap = f2_norm.tolist(), eyz.tolist(), gap.tolist()
    good = {(c.v, c.u): norm[i] <= good_bound for c, i in zip(cons, index)}
    diag_pairs = [{"v": c.v, "u": c.u, "good": norm[i] <= good_bound, "f2_norm": norm[i],
                   "pair_expectation": eyz[i], "pair_floor": pair_floor, "influence_gap": gap[i],
                   "influence_gap_bound": gap_bound, "matched_influence": is_matched}
                  for c, i, is_matched in zip(cons, index, matched.tolist())]

    labels: dict[int, dict[tuple[int, int], int]] = {l: {}, l2: {}}
    for key in sorted(row):
        weights = influences[key[0]][row[key]]
        total = float(weights.sum())
        if total > 0.0:  # the first label whose running sum reaches a uniform pick
            pick = derive_rng(seed, "label", *key).random() * total
            labels[key[0]][key] = min(int(np.searchsorted(np.cumsum(weights), pick)), weights.size - 1)
    if not (labels[l] or labels[l2]):
        return Dto1DecodeResult("no_influential_coordinates", (l, l2), r, {}, {}, Fraction(0),
                                Fraction(0), good, {"pairs": diag_pairs, "eta": eta})
    density = {str(k): str(f) for k, f in density["per_pair"].items()}
    return Dto1DecodeResult("ok", (l, l2), r, labels[l], labels[l2],
                            *satisfied_fractions(pcp, (l, l2), labels[l], labels[l2]),
                            good, {"pairs": diag_pairs, "eta": eta, "density": density})
