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
