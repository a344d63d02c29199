"""Correlated finite probability spaces and noise-operator machinery.

Joint distributions are dense arrays over the product of small atom sets;
functions on product spaces carry their own per-coordinate measures so
influences, noise operators, and Efron-Stein parts all use the right one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf2 import popcounts, walsh_hadamard

PRODUCT_SIZE_CAP = 10**6
EFRON_STEIN_CAP = 10**5


@dataclass(frozen=True)
class FiniteJointDist:
    """A joint distribution over a product of finite atom sets."""

    factors: tuple[tuple, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != tuple(len(f) for f in self.factors):
            raise ValueError(f"probability array shape {probs.shape} does not match factors")
        if np.any(probs < 0):
            raise ValueError("negative probability")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))

    @property
    def arity(self) -> int:
        return len(self.factors)

    def marginal(self, axes) -> np.ndarray:
        axes = tuple(axes)
        drop = tuple(i for i in range(self.arity) if i not in axes)
        out = self.probs.sum(axis=drop) if drop else self.probs
        ranks = np.argsort(np.argsort(axes))
        return np.transpose(out, ranks)

    def min_atom(self) -> float:
        positive = self.probs[self.probs > 0]
        return float(positive.min())

    def grouped(self, left_axes, right_axes) -> np.ndarray:
        """Joint matrix over the flattened bipartition (left, right)."""
        left_axes = tuple(left_axes)
        right_axes = tuple(right_axes)
        if sorted(left_axes + right_axes) != list(range(self.arity)):
            raise ValueError("bipartition must split all factors")
        perm = left_axes + right_axes
        arr = np.transpose(self.probs, perm)
        nl = int(np.prod([len(self.factors[i]) for i in left_axes]))
        return arr.reshape(nl, -1)

    def tensor(self, other: "FiniteJointDist") -> "FiniteJointDist":
        """Independent product, factorwise: arity must match."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        factors = tuple(
            tuple(itertools.product(a, b))
            for a, b in zip(self.factors, other.factors)
        )
        na = [len(f) for f in self.factors]
        nb = [len(f) for f in other.factors]
        # outer product arranged so axis i enumerates (a_i, b_i) pairs
        probs = np.multiply.outer(self.probs, other.probs)
        perm = [i for pair in zip(range(self.arity), range(self.arity, 2 * self.arity))
                for i in pair]
        probs = np.transpose(probs, perm).reshape([x * y for x, y in zip(na, nb)])
        return FiniteJointDist(factors, probs)


def maximal_correlation(joint: FiniteJointDist, bipartition) -> float:
    """Second singular value of mu(a,b)/sqrt(mu(a) mu(b)) after dropping
    zero-mass atoms; equals the sup over mean-zero unit-variance pairs."""
    left, right = bipartition
    M = joint.grouped(left, right)
    pa = M.sum(axis=1)
    pb = M.sum(axis=0)
    keep_a = pa > 0
    keep_b = pb > 0
    if not keep_a.any() or not keep_b.any():
        raise ValueError("degenerate marginal: no atom with positive mass")
    M = M[np.ix_(keep_a, keep_b)]
    pa = pa[keep_a]
    pb = pb[keep_b]
    Q = M / np.sqrt(np.outer(pa, pb))
    svals = np.linalg.svd(Q, compute_uv=False)
    if svals.size < 2:
        return 0.0
    return float(min(1.0, svals[1]))


@dataclass(frozen=True)
class CoordSpace:
    atoms: tuple
    measure: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.measure):
            raise ValueError("atoms and measure lengths differ")
        if any(p < 0 for p in self.measure):
            raise ValueError("negative atom mass")
        if abs(sum(self.measure) - 1.0) > 1e-12:
            raise ValueError("coordinate measure must sum to 1")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "measure", tuple(float(p) for p in self.measure))


def uniform_space(atoms) -> CoordSpace:
    atoms = tuple(atoms)
    return CoordSpace(atoms, tuple(1.0 / len(atoms) for _ in atoms))


def pm_cube_spaces(n: int) -> tuple[CoordSpace, ...]:
    return tuple(uniform_space((-1, 1)) for _ in range(n))


@dataclass(frozen=True)
class ProductFn:
    """A real function on a product of finite measured coordinate spaces."""

    spaces: tuple[CoordSpace, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        shape = tuple(len(s.atoms) for s in self.spaces)
        if values.shape != shape:
            raise ValueError(f"value array shape {values.shape}, expected {shape}")
        if values.size > PRODUCT_SIZE_CAP:
            raise ValueError(f"product size {values.size} exceeds cap {PRODUCT_SIZE_CAP}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spaces", tuple(self.spaces))

    @property
    def arity(self) -> int:
        return len(self.spaces)

    def expectation(self, other: "ProductFn | None" = None) -> float:
        vals = self.values if other is None else self.values * other.values
        total = vals
        for axis in range(self.arity):
            w = np.array(self.spaces[axis].measure)
            total = np.tensordot(total, w, axes=([0], [0]))
        return float(total)

    def variance(self) -> float:
        mu = self.expectation()
        sq = ProductFn(self.spaces, (self.values - mu) ** 2)
        return sq.expectation()

    def l2_norm(self) -> float:
        sq = ProductFn(self.spaces, self.values**2)
        return math.sqrt(max(0.0, sq.expectation()))


def _axis_mean(f: ProductFn, axis: int) -> np.ndarray:
    w = np.array(f.spaces[axis].measure)
    shape = [1] * f.arity
    shape[axis] = w.size
    return (f.values * w.reshape(shape)).sum(axis=axis, keepdims=True)


def bonami_beckner(f: ProductFn, rho: float) -> ProductFn:
    """Coordinatewise noise: each coordinate is resampled from its own
    measure with probability 1 - rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    out = f.values.copy()
    for axis in range(f.arity):
        mean = _axis_mean(ProductFn(f.spaces, out), axis)
        out = rho * out + (1.0 - rho) * mean
    return ProductFn(f.spaces, out)


def influence(f: ProductFn, i: int) -> float:
    """Expected variance along coordinate i, the rest held at random."""
    w = np.array(f.spaces[i].measure)
    shape = [1] * f.arity
    shape[i] = w.size
    wr = w.reshape(shape)
    mean_i = (f.values * wr).sum(axis=i, keepdims=True)
    var_i = (((f.values - mean_i) ** 2) * wr).sum(axis=i, keepdims=True)
    return ProductFn(f.spaces, np.broadcast_to(var_i, f.values.shape)).expectation()


@dataclass(frozen=True)
class EfronSteinParts:
    spaces: tuple[CoordSpace, ...]
    parts: dict[frozenset[int], np.ndarray]

    def reconstruct(self) -> np.ndarray:
        total = np.zeros(tuple(len(s.atoms) for s in self.spaces))
        for arr in self.parts.values():
            total = total + arr
        return total

    def weights(self) -> dict[frozenset[int], float]:
        out = {}
        for s, arr in self.parts.items():
            out[s] = ProductFn(self.spaces, arr**2).expectation()
        return out


def efron_stein(f: ProductFn) -> EfronSteinParts:
    """Inclusion-exclusion of conditional means over coordinate subsets."""
    if f.values.size > EFRON_STEIN_CAP:
        raise ValueError(f"full decomposition capped at {EFRON_STEIN_CAP} points")
    n = f.arity
    cond: dict[frozenset[int], np.ndarray] = {}
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), sz) for sz in range(n + 1)):
        kept = frozenset(subset)
        out = f.values
        for axis in range(n):
            if axis in kept:
                continue
            w = np.array(f.spaces[axis].measure)
            shape = [1] * n
            shape[axis] = w.size
            out = (out * w.reshape(shape)).sum(axis=axis, keepdims=True)
        cond[kept] = np.broadcast_to(out, f.values.shape).copy()
    parts: dict[frozenset[int], np.ndarray] = {}
    for kept in cond:
        total = np.zeros_like(f.values)
        for sz in range(len(kept) + 1):
            for sub in itertools.combinations(sorted(kept), sz):
                total += (-1.0) ** (len(kept) - sz) * cond[frozenset(sub)]
        parts[kept] = total
    return EfronSteinParts(f.spaces, parts)


# ---------------------------------------------------------------------------
# Gaussian quadrant probabilities

def gamma_bounds(rho: float, mu: float, nu: float) -> tuple[float, float]:
    """Quadrant probabilities of a standard bivariate normal pair with
    covariance rho: lower = Pr[X <= a, Y >= b_bar], upper = Pr[X <= a, Y <= b],
    where a, b, b_bar are the normal quantiles of mu, nu, 1 - nu.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if not 0.0 <= mu <= 1.0 or not 0.0 <= nu <= 1.0:
        raise ValueError("mu, nu must be in [0, 1]")
    if mu in (0.0, 1.0) or nu in (0.0, 1.0):
        lower = 0.0 if (mu == 0.0 or nu == 0.0) else (nu if mu == 1.0 else mu)
        upper = 0.0 if (mu == 0.0 or nu == 0.0) else (nu if mu == 1.0 else mu)
        return lower, upper
    # imported here: scipy is most of the CLI's start-up time, and statistics adds to its memory
    from statistics import NormalDist

    from scipy import integrate

    normal = NormalDist()
    a = normal.inv_cdf(mu)
    b = normal.inv_cdf(nu)
    denom = math.sqrt(1.0 - rho * rho)

    def cdf(x: float) -> float:  # erfc keeps its relative accuracy in the lower tail
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def lower_integrand(x: float) -> float:
        return normal.pdf(x) * cdf((b + rho * x) / denom)

    def upper_integrand(x: float) -> float:
        return normal.pdf(x) * cdf((b - rho * x) / denom)

    # Pr[X <= a, Y >= Phi^{-1}(1-nu)] = Pr[X <= a, -Y <= Phi^{-1}(nu)] with
    # cov(X, -Y) = -rho, hence the sign flip in the conditional mean. The
    # tolerance is relative only: the tail values reach far below 1e-10.
    lower, _ = integrate.quad(lower_integrand, -np.inf, a, epsabs=0, epsrel=1e-10, limit=200)
    upper, _ = integrate.quad(upper_integrand, -np.inf, a, epsabs=0, epsrel=1e-10, limit=200)
    return float(lower), float(upper)


# ---------------------------------------------------------------------------
# Reverse hypercontractivity on the cube

def reverse_hyper_check(a_set, b_set, n: int, rho: float) -> tuple[float, float, bool]:
    """Exact Pr[y in A, y' in B] for rho-correlated uniform cube points,
    against the Gaussian-density bound exp[-(a^2 + b^2 + 2 rho a b) / (2(1-rho^2))].
    """
    if n > 14:
        raise ValueError("cube dimension capped at 14")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    a_ind = np.zeros(1 << n)
    b_ind = np.zeros(1 << n)
    a_ind[list(a_set)] = 1.0
    b_ind[list(b_set)] = 1.0
    if a_ind.sum() == 0 or b_ind.sum() == 0:
        raise ValueError("empty set")
    lhs = float(np.sum(walsh_hadamard(a_ind) * walsh_hadamard(b_ind) * rho**popcounts(n)))
    dens_a = a_ind.mean()
    dens_b = b_ind.mean()
    aa = math.sqrt(-2.0 * math.log(dens_a)) if dens_a < 1.0 else 0.0
    bb = math.sqrt(-2.0 * math.log(dens_b)) if dens_b < 1.0 else 0.0
    rhs = math.exp(-(aa * aa + bb * bb + 2.0 * rho * aa * bb) / (2.0 * (1.0 - rho * rho)))
    return lhs, rhs, lhs >= rhs - 1e-12


# ---------------------------------------------------------------------------
# Multi-function noise gap

def _joint_product_expectation(coord_joints: list[FiniteJointDist],
                               fns: list[ProductFn]) -> float:
    """E[prod_j f_j(x^(j))] where per coordinate i the tuple of the j-th
    components is drawn from coord_joints[i], independently across i."""
    k = len(fns)
    n = len(coord_joints)
    total = 0.0
    supports = []
    for joint in coord_joints:
        idx = np.argwhere(joint.probs > 0)
        supports.append([(tuple(ix), float(joint.probs[tuple(ix)])) for ix in idx])
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, p in combo:
            prob *= p
        val = 1.0
        for j in range(k):
            point = tuple(combo[i][0][j] for i in range(n))
            val *= float(fns[j].values[point])
        total += prob * val
    return total


def noise_gap_report(coord_joints: list[FiniteJointDist], fns: list[ProductFn],
                     gamma: float) -> dict:
    """|E[prod f_j] - E[prod T_{1-gamma} f_j]| and the variance-product
    factor that multiplies nu in the smoothing bound. No pass/fail: the
    bound's absolute constant is not specified.
    """
    k = len(fns)
    n = len(coord_joints)
    for j, f in enumerate(fns):
        if f.arity != n:
            raise ValueError(f"function {j} has arity {f.arity}, expected {n}")
        for i in range(n):
            expected = tuple(coord_joints[i].factors[j])
            if tuple(f.spaces[i].atoms) != expected:
                raise ValueError(f"function {j}, coordinate {i}: atoms do not match the joint")
            marg = coord_joints[i].marginal((j,))
            if np.max(np.abs(np.asarray(f.spaces[i].measure) - marg)) > 1e-9:
                raise ValueError(f"function {j}, coordinate {i}: measure does not match the joint marginal")
    noisy = [bonami_beckner(f, 1.0 - gamma) for f in fns]
    plain = _joint_product_expectation(coord_joints, fns)
    smoothed = _joint_product_expectation(coord_joints, noisy)
    bound_factor = 0.0
    for j in range(k):
        mixed = noisy[:j] + fns[j + 1:]
        # Var of the product of the other k-1 functions under the joint.
        others_sq = _joint_product_expectation(
            coord_joints, [ProductFn(g.spaces, g.values**2) for g in mixed])
        others_mean = _joint_product_expectation(coord_joints, mixed)
        var_mixed = max(0.0, others_sq - others_mean**2)
        bound_factor += math.sqrt(fns[j].variance()) * math.sqrt(var_mixed)
    return {
        "gap": abs(plain - smoothed),
        "plain": plain,
        "smoothed": smoothed,
        "bound_factor": bound_factor,
        "gamma": gamma,
    }
