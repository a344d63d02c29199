"""The correlated-test 3-uniform hypergraph over +-1 long codes.

Cube points are bitmasks (bit j set means coordinate j equals -1), so the
GF(2) Walsh-Hadamard machinery doubles as the +-1-cube Fourier transform.
Per constraint, the hyperedge support is a product over target labels i of
the base distribution on (x_i, y restricted to the preimage of i, z there).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import FiniteJointDist, maximal_correlation
from .games import (LayeredPcp, PcpGadget, RuleCheck, code_layout, heavy_layer_pair,
                    product_rows, satisfied_fractions, split_degenerate)
from .gf2 import _fwht, popcounts
from .seeding import as_rng, derive_rng
from .verify import GenericHypergraph

MAX_TABLE_R = 10
EDGE_ENUM_BITS = 20
C_GAMMA = C_TAU = 1.0  # the decoding formulas' unspecified absolute constants


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
    size = 1 << r
    probs = np.zeros((2, size, size))
    full = size - 1
    plain = (1.0 - delta) / (2.0 * size)
    for x_bit in range(2):
        for y in range(size):
            probs[x_bit, y, y ^ full] += plain
    resampled = delta / (r * size) if delta else 0.0
    for j in range(r):
        for x_bit in range(2):
            target = (1 - x_bit) << j
            for rest in range(size):
                if (rest >> j) & 1:
                    continue
                y = (rest & ~(1 << j)) | target
                z_rest = (rest ^ full) & ~(1 << j)
                z = z_rest | target
                probs[x_bit, y, z] += resampled
    factors = (
        (1, -1),
        tuple(_mask_tuple(m, r) for m in range(size)),
        tuple(_mask_tuple(m, r) for m in range(size)),
    )
    return DDeltaR(delta, r, FiniteJointDist(factors, probs))


def sample(delta: float, r: int, rng: random.Random | int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """One generative draw of (X, Y, Z) as +-1 values."""
    rng = as_rng(rng)
    x = rng.choice((1, -1))
    y = [rng.choice((1, -1)) for _ in range(r)]
    z = [-v for v in y]
    if rng.random() < delta:
        j = rng.randrange(r)
        y[j] = -x
        z[j] = -x
    return x, tuple(y), tuple(z)


def support_safety(dist: DDeltaR) -> bool:
    """No positive atom has (X, Y_j, Z_j) monochromatic at any j."""
    for x_bit, y, z in dist.support():
        xv = 1 if x_bit == 0 else -1
        for j in range(dist.r):
            if xv == _pm(y, j) == _pm(z, j):
                return False
    return True


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
    rho_joint = max(
        maximal_correlation(dist.joint, ((1, 2), (0,))),
        maximal_correlation(dist.joint, ((0, 2), (1,))),
        maximal_correlation(dist.joint, ((0, 1), (2,))),
    )
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
    out = _fwht(values)
    return out / out.size


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
    """Boolean per character mask: True when no block holds two of its bits."""
    return block_hits(blocks, n_bits) == popcounts(n_bits)


@dataclass(frozen=True)
class ShatterDecomp:
    """Spectrum split into high-degree, low-unshattered, low-shattered."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    s: float

    @property
    def norms(self) -> tuple[float, float, float]:
        return (float(np.sqrt((self.f1**2).sum())),
                float(np.sqrt((self.f2**2).sum())),
                float(np.sqrt((self.f3**2).sum())))


def shattered_decomposition(coeffs: np.ndarray, projection: tuple[int, ...],
                            target_size: int, s: float) -> ShatterDecomp:
    n_bits = int(round(math.log2(coeffs.size)))
    pops = popcounts(n_bits)
    shat = block_hits(blocks_of(projection, target_size), n_bits) == pops
    high = pops >= s
    f1 = np.where(high, coeffs, 0.0)
    f2 = np.where(~high & ~shat, coeffs, 0.0)
    f3 = np.where(~high & shat, coeffs, 0.0)
    return ShatterDecomp(f1, f2, f3, s)


def _coordinate_mass(damped: np.ndarray) -> np.ndarray:
    """Per coordinate i, the total of damped over the characters holding i."""
    n_bits = int(round(math.log2(damped.size)))
    masks = np.arange(damped.size)
    out = np.zeros(n_bits)
    for i in range(n_bits):
        out[i] = float(damped[(masks >> i) & 1 == 1].sum())
    return out


def noisy_influences(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Inf_i of T_{1-gamma} f per coordinate, by spectrum reweighting."""
    n_bits = int(round(math.log2(coeffs.size)))
    return _coordinate_mass(coeffs**2 * (1.0 - gamma) ** (2 * popcounts(n_bits)))


def block_noisy_influences(coeffs: np.ndarray, gamma: float,
                           blocks: list[int]) -> np.ndarray:
    """Inf_i over the cube of the blockwise noise operator, which damps a
    character by (1-gamma) per touched block rather than per coordinate."""
    n_bits = int(round(math.log2(coeffs.size)))
    return _coordinate_mass(coeffs**2 * (1.0 - gamma) ** (2 * block_hits(blocks, n_bits)))


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
    to g as one mode product per block, O(2^n 2^r #blocks).

    The blocks must partition the n label bits into blocks of r bits each,
    where M is 2^r x 2^r; bit t of a block's local index is its t-th
    lowest label bit."""
    n_bits = int(round(math.log2(g_coeffs.size)))
    r = int(round(math.log2(M.shape[0])))
    covered = 0
    for b in blocks:
        if bin(b).count("1") != r:
            raise ValueError(f"block {b:#b} has {bin(b).count('1')} bits, not r={r}")
        if b & covered:
            raise ValueError(f"block {b:#b} overlaps an earlier block")
        covered |= b
    if covered != (1 << n_bits) - 1:
        raise ValueError(f"blocks cover {covered:#b}, not all {n_bits} label bits")
    # Axis k of the (2,)*n view holds label bit n-1-k, so a block's axes,
    # moved to the front in increasing order, flatten to its local index.
    g = np.asarray(g_coeffs, dtype=np.float64).reshape((2,) * n_bits)
    for b in blocks:
        axes = [k for k in range(n_bits) if (b >> (n_bits - 1 - k)) & 1]
        front = np.moveaxis(g, axes, range(r))
        moved = M @ front.reshape(1 << r, -1)
        g = np.moveaxis(moved.reshape(front.shape), range(r), axes)
    return float(np.dot(f_coeffs, g.reshape(-1)))


# ---------------------------------------------------------------------------
# Gadget construction

@dataclass
class Dto1Gadget(PcpGadget):
    base = 2
    removed_digit = None

    delta: float
    constraint_r: list[int]

    def vertex_weight(self, layer: int, var: int) -> Fraction:
        return Fraction(1, (1 << self.pcp.label_sizes[layer])
                        * self.pcp.layers * self.pcp.var_counts[layer])

    def edge_exists(self, ci: int, x: int, y: int, z: int) -> bool:
        c = self.pcp.constraints[ci]
        dist = dist_table(self.delta, self.constraint_r[ci])
        blocks = blocks_of(c.projection, self.pcp.label_sizes[c.to_layer])
        for i, positions in enumerate(block_positions(blocks, self.pcp.label_sizes[c.from_layer])):
            ym = sum(((y >> j) & 1) << t for t, j in enumerate(positions))
            zm = sum(((z >> j) & 1) << t for t, j in enumerate(positions))
            if dist.prob((x >> i) & 1, ym, zm) <= 0:
                return False
        return True

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
                x |= (1 if xv == -1 else 0) << i
                for t, j in enumerate(positions):
                    y |= (1 if yv[t] == -1 else 0) << j
                    z |= (1 if zv[t] == -1 else 0) << j
            yield x, y, z

    def to_hypergraph(self) -> GenericHypergraph:
        return self._export(lambda l, v, pt: self.vertex_weight(l, v),
                            {"kind": "dto1", "delta": self.delta})


def build(pcp: LayeredPcp, delta: float) -> Dto1Gadget:
    """Per-constraint product supports over the base distribution; full
    enumeration when the packed (x, y, z) description fits the bit cap."""
    if pcp.params is None or "d" not in pcp.params:
        raise ValueError("the correlated-test gadget needs a smooth layered PCP")
    d = pcp.params["d"]
    offsets, total = code_layout(pcp, Dto1Gadget.base)
    constraint_edges, constraint_pairs, constraint_r = [], [], []
    tables: dict = {}  # (projection, label sizes, r) -> its constraints' shared (edges, pairs)
    for c in pcp.constraints:
        r = d ** (c.to_layer - c.from_layer)
        constraint_r.append(r)
        small, big = pcp.label_sizes[c.to_layer], pcp.label_sizes[c.from_layer]
        key = (c.projection, small, big, r)
        if key not in tables and small * (1 + 2 * r) <= EDGE_ENUM_BITS:
            atoms = np.array(dist_table(delta, r).support())
            factors = []
            for i, pos in enumerate(block_positions(blocks_of(c.projection, small), big)):
                # per atom: x's bit at i, and bit t of y and of z at label bit pos[t]
                bits = atoms[:, 1:, None] >> np.arange(len(pos)) & 1
                factors.append(np.column_stack([atoms[:, 0] << i,
                                                bits @ 2 ** np.array(pos, dtype=np.int64)]))
            tables[key] = split_degenerate(product_rows(factors))
        edges, pairs = tables.get(key, (None, None))  # None: over the bit cap, rule only
        constraint_edges.append(edges)
        constraint_pairs.append(pairs)
    if all(e is not None for e in constraint_edges):
        mode = "enumerate"
    elif all(e is None for e in constraint_edges):
        mode = "rule"
    else:
        mode = "mixed"
    return Dto1Gadget(pcp, mode, offsets, total, constraint_edges, constraint_pairs,
                      delta, constraint_r)


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
    nu: float
    gamma: float
    tau: float
    s: float
    T: int

    def eta(self, r: int) -> float:
        return 2.0 * self.delta / r


def suggest_params(delta: float, eps: float, nu: float, r: int, T: int) -> DecodeParams:
    """The formula values with the unspecified absolute constants in gamma
    and tau (C_GAMMA, C_TAU) set to 1; suggestions only."""
    xi = delta / (r * 2.0**r)
    gamma = C_GAMMA * nu * xi**2 / (2.0 * math.log(1.0 / nu))
    tau = nu ** (C_TAU * math.log(1.0 / xi) * math.log(1.0 / nu) / (nu * (1.0 - delta)))
    s = max(r / xi * math.log(1.0 / nu),
            r / (2.0 * gamma) * math.log(32.0 * r * r / max(tau, 1e-300)))
    return DecodeParams(delta, eps, nu, gamma, tau, s, T)


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
    """Influence decoding: pick a heavy layer pair, mark good neighbors by
    the unshattered-mass bound, and label each side with probability
    proportional to its noisy influences."""
    if pcp.params is None or "d" not in pcp.params:
        raise ValueError("decode needs a smooth layered PCP")
    d = pcp.params["d"]
    for key, f in indicators.items():
        f = np.asarray(f)
        if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
            raise ValueError(f"indicator {key} is not [0, 1]-valued")

    _, qualified, density = heavy_layer_pair(
        pcp, {key: float(np.mean(f)) for key, f in indicators.items()}, params.eps)
    l, l2 = density["best_pair"]
    r = d ** (l2 - l)
    eta = params.eta(r)
    dist = dist_table(params.delta, r)
    M = yz_character_matrix(dist)

    spectra = {(layer, var): cube_spectrum(np.asarray(indicators[(layer, var)], dtype=np.float64))
               for layer in (l, l2) for var in qualified[layer]}

    good: dict[tuple[int, int], bool] = {}
    pair_floor = (params.eps / 2.0) ** (4.0 / eta)
    good_bound = (params.s**2 / params.T) ** 0.25
    diag_pairs = []
    cons = [c for c in pcp.constraints_between(l, l2)
            if c.v in qualified[l] and c.u in qualified[l2]]
    for c in cons:
        blocks = blocks_of(c.projection, pcp.label_sizes[l2])
        block_pos = block_positions(blocks, pcp.label_sizes[l])
        dec = shattered_decomposition(spectra[(l, c.v)], c.projection,
                                      pcp.label_sizes[l2], params.s)
        f2_norm = dec.norms[1]
        is_good = f2_norm <= good_bound
        good[(c.v, c.u)] = is_good
        eyz = cross_expectation(spectra[(l, c.v)], spectra[(l, c.v)], blocks, M)
        inf_bar = block_noisy_influences(spectra[(l, c.v)], params.gamma, blocks)
        inf_plain = noisy_influences(spectra[(l, c.v)], params.gamma)
        gap = float(np.max(np.abs(inf_bar - inf_plain))) if inf_bar.size else 0.0
        inf_u = noisy_influences(spectra[(l2, c.u)], params.gamma)
        matched = False
        for i, positions in enumerate(block_pos):
            block_sum = float(inf_bar[positions].sum())
            if min(inf_u[i], 4.0 * r * block_sum) >= params.tau:
                matched = True
                break
        diag_pairs.append({
            "v": c.v, "u": c.u, "good": is_good, "f2_norm": f2_norm,
            "pair_expectation": eyz, "pair_floor": pair_floor,
            "influence_gap": gap,
            "influence_gap_bound": 2.0 * good_bound + params.tau / (16.0 * r * r),
            "matched_influence": matched,
        })

    labels_v: dict[tuple[int, int], int] = {}
    labels_u: dict[tuple[int, int], int] = {}
    no_influence = True
    for (layer, var) in sorted(spectra):
        weights = noisy_influences(spectra[(layer, var)], params.gamma)
        total = float(weights.sum())
        if total <= 0.0:
            continue
        no_influence = False
        rng = derive_rng(seed, "label", layer, var)
        pick = rng.random() * total
        acc = 0.0
        chosen = weights.size - 1
        for i, w in enumerate(weights):
            acc += float(w)
            if pick <= acc:
                chosen = i
                break
        (labels_v if layer == l else labels_u)[(layer, var)] = chosen

    if no_influence:
        return Dto1DecodeResult("no_influential_coordinates", (l, l2), r, {}, {},
                                Fraction(0), Fraction(0), good,
                                {"pairs": diag_pairs, "eta": eta})

    return Dto1DecodeResult(
        "ok", (l, l2), r, labels_v, labels_u,
        *satisfied_fractions(pcp, (l, l2), labels_v, labels_u),
        good,
        {"pairs": diag_pairs, "eta": eta,
         "density": {str(k): str(f) for k, f in density["per_pair"].items()}},
    )
