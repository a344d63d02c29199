"""GF(2) vector algebra, Walsh-Hadamard transforms, and coset unfolding.

Bit convention: coordinate ``i`` (0-based) of a vector is bit ``i`` of the
packed integer, so the all-ones vector of width 3 is ``0b111``. Tables and
spectra over F2^m are float64 arrays of length ``2**m`` indexed by the
packed integer of the point/character.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_VECTOR_WIDTH = 30
MAX_TABLE_WIDTH = 24
PARSEVAL_TOL = 1e-12
_BYTE_POPCOUNTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.int64)
_BYTE_POPCOUNTS.flags.writeable = False


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def dot_bits(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def _rref(vectors: list[int]) -> list[int]:
    """Reduced row echelon basis (pivot = lowest set bit, ascending)."""
    by_pivot: dict[int, int] = {}
    for v in vectors:
        cur = v
        while cur:
            p = _lowest_bit(cur)
            if p in by_pivot:
                cur ^= by_pivot[p]
            else:
                by_pivot[p] = cur
                break
    pivots = sorted(by_pivot)
    for p in pivots:
        for q in pivots:
            if q != p and (by_pivot[q] >> p) & 1:
                by_pivot[q] ^= by_pivot[p]
    return [by_pivot[p] for p in pivots]


@dataclass(frozen=True)
class Gf2Subspace:
    """A subspace of F2^m held as a reduced basis with ascending pivots."""

    ambient_width: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.ambient_width <= MAX_VECTOR_WIDTH:
            raise ValueError("empty or oversized ambient width")
        pivots = tuple(_lowest_bit(b) for b in self.basis)
        object.__setattr__(self, "pivots", pivots)
        if len(set(pivots)) != len(pivots):
            raise ValueError("basis is not in reduced form")

    @classmethod
    def span(cls, vectors, width: int) -> "Gf2Subspace":
        vectors = list(vectors)
        for v in vectors:
            if not isinstance(v, int) or not 0 <= v < 1 << width:
                raise ValueError(f"generator {v!r} is not a vector of F2^{width}")
        return cls(width, tuple(_rref(vectors)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_bits(self, x):
        """Canonical (lexicographic-minimum) representative of x's coset, for
        one int or elementwise over an integer array."""
        for p, b in zip(self.pivots, self.basis):
            x = x ^ ((x >> p) & 1) * b
        return x

    @cached_property
    def coset_index(self) -> np.ndarray:
        """For every point of F2^m, indexed by its bits, the place of its
        coset's representative in coset_reps(): one read-only int64 array."""
        points = np.arange(1 << self.ambient_width)
        index = np.searchsorted(self.coset_reps(), self.reduce_bits(points))
        index.flags.writeable = False
        return index

    def coset_reps(self) -> list[int]:
        """All canonical representatives, one per coset, in increasing order:
        the vectors that are zero at every pivot."""
        reps = [0]
        for pos in range(self.ambient_width):
            if pos not in self.pivots:
                reps += [x | 1 << pos for x in reps]
        return reps


def _check_values(width: int, values: np.ndarray, what: str) -> np.ndarray:
    if not 1 <= width <= MAX_TABLE_WIDTH:
        raise ValueError(f"{what} width must be in [1, {MAX_TABLE_WIDTH}], got {width}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (1 << width,):
        raise ValueError(f"{what} must have exactly 2**{width} entries, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} entries must all be finite")
    values = values.copy()
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class RealTable:
    """A real-valued function on F2^m, fully tabulated."""

    width: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.width, self.values, "table"))

    def __getitem__(self, x_bits: int) -> float:
        return float(self.values[x_bits])


@dataclass(frozen=True)
class FourierSpectrum:
    """Fourier coefficients of a table, in the expectation normalization.

    coeffs[alpha] is the average of A(x) * (-1)^(alpha . x) over x, so
    coeffs[0] equals the mean of the table.
    """

    width: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_values(self.width, self.coeffs, "spectrum"))

    def __getitem__(self, alpha_bits: int) -> float:
        return float(self.coeffs[alpha_bits])

    def support(self, tol: float = 1e-12) -> list[int]:
        return [int(a) for a in np.nonzero(np.abs(self.coeffs) > tol)[0]]


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly along the last axis, O(m 2^m)
    per table, on one working copy."""
    out = np.array(vec, dtype=np.float64)
    *lead, size = out.shape
    h = 1
    while h < size:
        halves = out.reshape(*lead, size // (2 * h), 2, h)
        left, right = halves[..., 0, :], halves[..., 1, :]
        diff = left - right
        left += right
        right[...] = diff
        h *= 2
    return out


def popcounts(n_bits: int) -> np.ndarray:
    """Set-bit count of every mask below 2^n_bits, as int64: the byte table
    for the low byte, added to the counts of the bits above it."""
    if n_bits <= 8:
        return _BYTE_POPCOUNTS[:1 << n_bits].copy()
    return (popcounts(n_bits - 8)[:, None] + _BYTE_POPCOUNTS).reshape(-1)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """The average of values[x] * (-1)^(alpha . x) over x, for every alpha
    and each table along the last axis (also the +-1-cube transform when
    bit j set means coordinate j is -1)."""
    out = _fwht(values)
    return np.divide(out, out.shape[-1], out=out)


def fourier_transform(table: RealTable) -> FourierSpectrum:
    spectrum = FourierSpectrum(table.width, walsh_hadamard(table.values))
    power = float(np.mean(table.values**2))
    mass = float(np.sum(spectrum.coeffs**2))
    if abs(power - mass) > PARSEVAL_TOL * max(1.0, power):
        raise ArithmeticError(f"Parseval violation: E[A^2]={power!r} vs sum of squares {mass!r}")
    return spectrum


@dataclass(frozen=True)
class FoldedTable:
    """Values keyed by canonical coset representatives of a subspace."""

    subspace: Gf2Subspace
    values: dict[int, float]

    def __post_init__(self) -> None:
        reps = set(self.subspace.coset_reps())
        if set(self.values) != reps:
            missing = sorted(reps - set(self.values))[:3]
            extra = sorted(set(self.values) - reps)[:3]
            raise ValueError(f"rep-key mismatch: missing {missing}, extra {extra}")

    @property
    def width(self) -> int:
        return self.subspace.ambient_width


def unfold(folded: FoldedTable) -> RealTable:
    """Extend rep-keyed values to the full space, constant on each coset."""
    sub = folded.subspace
    values = np.array([folded.values[rep] for rep in sub.coset_reps()], dtype=np.float64)
    return RealTable(sub.ambient_width, values[sub.coset_index])


def spectrum_to_csv(spectrum: FourierSpectrum) -> str:
    """CSV export: header ``alpha,coeff``; alpha as a big-endian bit string."""
    lines = ["alpha,coeff"]
    m = spectrum.width
    for a in range(spectrum.coeffs.size):
        lines.append(f"{format(a, f'0{m}b')},{float(spectrum.coeffs[a])!r}")
    return "\n".join(lines) + "\n"
