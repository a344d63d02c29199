"""Biased long-code machinery on {*, 1, 2}^m.

Points are base-3 indices with digit 0 = *, 1 = 1, 2 = 2; digit j of an
index is its j-th coordinate. The bias p puts mass 1-p on * and p/2 on
each of 1 and 2, per coordinate.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .seeding import as_rng

MAX_M = 10
STAR, ONE, TWO = 0, 1, 2

WITNESS_GRID_POINTS = 32
WITNESS_RETRY_CAP = 10**4


@functools.cache
def digits_matrix(m: int) -> np.ndarray:
    """(3^m, m) int8 matrix of base-3 digits; column j is coordinate j."""
    idx = np.arange(3**m)
    cols = [(idx // 3**j) % 3 for j in range(m)]
    return np.stack(cols, axis=1).astype(np.int8)


def point_index(digits) -> int:
    return sum(int(d) * 3**j for j, d in enumerate(digits))


def point_digits(idx: int, m: int) -> tuple[int, ...]:
    return tuple((idx // 3**j) % 3 for j in range(m))


@dataclass(frozen=True)
class TernaryFamily:
    """A subset of {*, 1, 2}^m with a bias parameter attached."""

    m: int
    membership: np.ndarray
    p: float

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_M:
            raise ValueError(f"m must be in [1, {MAX_M}], got {self.m}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"bias must be in (0, 1), got {self.p}")
        mem = np.asarray(self.membership, dtype=bool)
        if mem.shape != (3**self.m,):
            raise ValueError(f"membership must have exactly 3**{self.m} entries")
        mem = mem.copy()
        mem.setflags(write=False)
        object.__setattr__(self, "membership", mem)

    def contains(self, point) -> bool:
        idx = point if isinstance(point, int) else point_index(point)
        return bool(self.membership[idx])

    @classmethod
    def deserialize(cls, text: str) -> "TernaryFamily":
        m_s, p_s, bits = text.split()
        mem = np.array([c == "1" for c in bits])
        return cls(int(m_s), mem, float(p_s))


def point_weights(m: int, p: float) -> np.ndarray:
    """mu_p weight of every point of {*, 1, 2}^m."""
    stars = (digits_matrix(m) == STAR).sum(axis=1)
    return (1.0 - p) ** stars * (p / 2.0) ** (m - stars)


def measure(fam: TernaryFamily, p: float | None = None) -> float:
    p = fam.p if p is None else p
    w = point_weights(fam.m, p)
    return float(math.fsum(w[fam.membership]))


def is_monotone(fam: TernaryFamily) -> bool:
    """Closed under changing any * to 1 or 2."""
    mem = fam.membership
    for j in range(fam.m):
        step = 3**j
        view = mem.reshape(-1, 3, step)
        star, one, two = view[:, STAR, :], view[:, ONE, :], view[:, TWO, :]
        if np.any(star & ~one) or np.any(star & ~two):
            return False
    return True


def monotone_closure(fam: TernaryFamily) -> TernaryFamily:
    mem = fam.membership.copy()
    changed = True
    while changed:
        changed = False
        for j in range(fam.m):
            step = 3**j
            view = mem.reshape(-1, 3, step)
            star = view[:, STAR, :]
            for c in (ONE, TWO):
                grow = star & ~view[:, c, :]
                if grow.any():
                    view[:, c, :] |= star
                    changed = True
    return TernaryFamily(fam.m, mem, fam.p)


def influences(fam: TernaryFamily, p: float | None = None) -> np.ndarray:
    """Per-coordinate influence: the mu_p mass of points whose *-version
    leaves the family while some {1,2}-version stays in it."""
    p = fam.p if p is None else p
    m = fam.m
    mem = fam.membership
    w = point_weights(m, p)
    out = np.zeros(m)
    for j in range(m):
        step = 3**j
        view = mem.reshape(-1, 3, step)
        star, one, two = view[:, STAR, :], view[:, ONE, :], view[:, TWO, :]
        pivotal = ~star & (one | two)
        fiber_w = w.reshape(-1, 3, step)[:, STAR, :] / (1.0 - p)
        out[j] = float((pivotal * fiber_w).sum())
    return out


def average_sensitivity(fam: TernaryFamily, p: float | None = None) -> float:
    return float(influences(fam, p).sum())


def russo_check(fam: TernaryFamily, p: float | None = None, h: float = 1e-4) -> dict:
    """Central-difference derivative of mu_p against the sensitivity
    bracket [as_p / 2, as_p], with tolerance 10 h on both ends."""
    p = fam.p if p is None else p
    if not is_monotone(fam):
        raise ValueError("Russo bracket requires a monotone family")
    derivative = (measure(fam, p + h) - measure(fam, p - h)) / (2.0 * h)
    as_p = average_sensitivity(fam, p)
    tol = 10.0 * h
    ok = (as_p / 2.0 - tol) <= derivative <= (as_p + tol)
    return {"derivative": derivative, "as_p": as_p, "ok": ok, "tol": tol}


# ---------------------------------------------------------------------------
# Core search

def _fiber_masses(fam: TernaryFamily, subset: tuple[int, ...], p: float):
    """Per assignment on the subset: (mass of F in the fiber, fiber mass)."""
    m = fam.m
    w = point_weights(m, p)
    dm = digits_matrix(m)
    key = np.zeros(3**m, dtype=np.int64)
    for t, j in enumerate(subset):
        key += dm[:, j].astype(np.int64) * 3**t
    size = 3 ** len(subset)
    mass_in = np.bincount(key, weights=w * fam.membership, minlength=size)
    mass_tot = np.bincount(key, weights=w, minlength=size)
    return mass_in, mass_tot


def junta_error(fam: TernaryFamily, subset: tuple[int, ...], p: float) -> float:
    """Symmetric-difference mass of the best junta on the subset: each
    fiber votes by majority of its conditional mass."""
    mass_in, mass_tot = _fiber_masses(fam, subset, p)
    return float(np.minimum(mass_in, mass_tot - mass_in).sum())


@dataclass(frozen=True)
class CoreResult:
    core: tuple[int, ...]
    error: float
    threshold: float
    core_family: tuple[tuple[int, ...], ...]
    core_family_mass: float


def core_family(fam: TernaryFamily, subset: tuple[int, ...], p: float,
                threshold: float = 0.75) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Assignments on the subset whose conditional membership probability
    exceeds the threshold, and their mu_p^subset mass."""
    mass_in, mass_tot = _fiber_masses(fam, subset, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(mass_tot > 0, mass_in / mass_tot, 0.0)
    members = []
    mass = 0.0
    for a in range(3 ** len(subset)):
        if cond[a] > threshold:
            members.append(point_digits(a, len(subset)))
            mass += float(mass_tot[a])
    # mass_tot is the full-space fiber mass, which already equals the
    # mu_p^subset weight of the assignment since off-subset mass sums to 1.
    return tuple(members), mass


def find_core(fam: TernaryFamily, delta: float, p: float | None = None,
              threshold: float = 0.75) -> CoreResult:
    """Smallest coordinate subset whose best junta is delta-close to the
    family, searched exhaustively by size then lexicographic order."""
    p = fam.p if p is None else p
    for size in range(fam.m + 1):
        for subset in itertools.combinations(range(fam.m), size):
            err = junta_error(fam, subset, p)
            if err <= delta + 1e-15:
                members, mass = core_family(fam, subset, p, threshold)
                return CoreResult(subset, err, threshold, members, mass)
    raise AssertionError("unreachable: the full coordinate set has error 0")


# ---------------------------------------------------------------------------
# The pair distribution and the two-element witness

def sample_dp(p: float, m: int, rng: random.Random | int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One draw from the pair distribution: per coordinate (1,2) or (2,1)
    with equal odds, then each side goes to * independently with
    probability 1-p. Marginals are mu_p; (1,1) and (2,2) never occur."""
    rng = as_rng(rng)
    f = []
    g = []
    for _ in range(m):
        a, b = (ONE, TWO) if rng.random() < 0.5 else (TWO, ONE)
        f.append(STAR if rng.random() < 1.0 - p else a)
        g.append(STAR if rng.random() < 1.0 - p else b)
    return tuple(f), tuple(g)


@dataclass(frozen=True)
class WitnessPair:
    subset: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    p_prime: float
    retries: int

    def __post_init__(self) -> None:
        for j in range(len(self.first)):
            if j in self.subset:
                continue
            pair = (self.first[j], self.second[j])
            if pair in ((ONE, ONE), (TWO, TWO)):
                raise ValueError(f"witness pair agrees on a non-core coordinate {j}")


def two_element_witness(fam: TernaryFamily, delta: float,
                        rng: random.Random | int,
                        p: float | None = None) -> WitnessPair:
    """Two family members that disagree-or-star on every coordinate
    outside a small core.

    Picks p' in [p, (1+p)/2] minimizing average sensitivity over a grid,
    finds a (delta/4, p')-core, anchors both members to a core-family
    element there, and fills the rest with pair-distribution draws until
    both land in the family.
    """
    p = fam.p if p is None else p
    rng = as_rng(rng)
    if measure(fam, p) < delta:
        raise ValueError(f"family measure {measure(fam, p)!r} is below delta={delta}")
    grid = np.linspace(p, (1.0 + p) / 2.0, WITNESS_GRID_POINTS)
    sensitivities = [average_sensitivity(fam, float(q)) for q in grid]
    p_prime = float(grid[int(np.argmin(sensitivities))])
    core = find_core(fam, delta / 4.0, p_prime)
    if not core.core_family:
        raise ValueError("core family is empty; input family too sparse for its measure")
    anchor = core.core_family[0]
    rest = [j for j in range(fam.m) if j not in core.core]
    for attempt in range(WITNESS_RETRY_CAP):
        draw_f, draw_g = sample_dp(p_prime, len(rest), rng)
        first = [0] * fam.m
        second = [0] * fam.m
        for t, j in enumerate(core.core):
            first[j] = anchor[t]
            second[j] = anchor[t]
        for t, j in enumerate(rest):
            first[j] = draw_f[t]
            second[j] = draw_g[t]
        if fam.contains(tuple(first)) and fam.contains(tuple(second)):
            return WitnessPair(core.core, tuple(first), tuple(second), p_prime, attempt)
    raise ValueError(f"no witness pair found in {WITNESS_RETRY_CAP} draws")


def random_monotone_family(m: int, p: float, rng: random.Random | int,
                           density: float = 0.25) -> TernaryFamily:
    """Monotone closure of a random point set; used by tests and demos."""
    rng = as_rng(rng)
    mem = np.array([rng.random() < density for _ in range(3**m)])
    return monotone_closure(TernaryFamily(m, mem, p))
