"""GF(2) vector algebra, Walsh-Hadamard transforms, and coset folding.

Bit convention: coordinate ``i`` (0-based) of a vector is bit ``i`` of the
packed integer, so the all-ones vector of width 3 is ``0b111``. Tables and
spectra over F2^m are float64 arrays of length ``2**m`` indexed by the
packed integer of the point/character.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_VECTOR_WIDTH = 30
MAX_TABLE_WIDTH = 24
PARSEVAL_TOL = 1e-12


class FoldConsistencyError(ValueError):
    """Raised when a table is not constant on some coset of the subspace."""


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class Gf2Vector:
    """A vector in F2^m, packed into a machine integer."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_VECTOR_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_VECTOR_WIDTH}], got {self.width}")
        if self.bits >> self.width:
            raise ValueError("bits above position width-1 must be zero")

    @classmethod
    def zero(cls, width: int) -> "Gf2Vector":
        return cls(width, 0)

    @classmethod
    def unit(cls, width: int, i: int) -> "Gf2Vector":
        """Standard basis vector e_i (0-based coordinate)."""
        if not 0 <= i < width:
            raise ValueError(f"coordinate {i} out of range for width {width}")
        return cls(width, 1 << i)

    @classmethod
    def from_coords(cls, coords) -> "Gf2Vector":
        coords = list(coords)
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinate {i} is {c}, expected 0 or 1")
            bits |= c << i
        return cls(len(coords), bits)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.width))

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} != {other.width}")
        return Gf2Vector(self.width, self.bits ^ other.bits)

    __add__ = __xor__

    def dot(self, other: "Gf2Vector") -> int:
        """Parity of the coordinatewise product of two equal-width vectors."""
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} != {other.width}")
        return (self.bits & other.bits).bit_count() & 1

    def to_bitstring(self) -> str:
        """Big-endian rendering of the packed integer, zero-padded to width."""
        return format(self.bits, f"0{self.width}b")

    def __str__(self) -> str:
        return self.to_bitstring()


def dot_bits(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def chi(alpha_bits: int, x_bits: int) -> int:
    """Character value (-1)^(alpha . x), as +-1."""
    return -1 if dot_bits(alpha_bits, x_bits) else 1


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
    basis: tuple[Gf2Vector, ...]
    pivots: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.ambient_width <= MAX_VECTOR_WIDTH:
            raise ValueError("empty or oversized ambient width")
        pivots = tuple(_lowest_bit(b.bits) for b in self.basis)
        object.__setattr__(self, "pivots", pivots)
        if len(set(pivots)) != len(pivots):
            raise ValueError("basis is not in reduced form")

    @classmethod
    def span(cls, vectors, width: int | None = None) -> "Gf2Subspace":
        vectors = list(vectors)
        if width is None:
            if not vectors:
                raise ValueError("ambient width required for an empty generating set")
            width = vectors[0].width
        for v in vectors:
            if v.width != width:
                raise ValueError(f"width mismatch: {v.width} != {width}")
        basis = tuple(Gf2Vector(width, b) for b in _rref([v.bits for v in vectors]))
        return cls(width, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_bits(self, x: int) -> int:
        """Canonical (lexicographic-minimum) representative of x's coset."""
        for p, b in zip(self.pivots, self.basis):
            if (x >> p) & 1:
                x ^= b.bits
        return x

    def reduce(self, v: Gf2Vector) -> Gf2Vector:
        if v.width != self.ambient_width:
            raise ValueError(f"width mismatch: {v.width} != {self.ambient_width}")
        return Gf2Vector(self.ambient_width, self.reduce_bits(v.bits))

    def contains(self, v: Gf2Vector) -> bool:
        return self.reduce(v).bits == 0

    def coset_reps(self) -> list[Gf2Vector]:
        """All canonical representatives, one per coset."""
        free = [i for i in range(self.ambient_width) if i not in self.pivots]
        reps = []
        for counter in range(1 << len(free)):
            bits = 0
            for t, pos in enumerate(free):
                if (counter >> t) & 1:
                    bits |= 1 << pos
            reps.append(Gf2Vector(self.ambient_width, bits))
        return reps

    def elements(self) -> list[Gf2Vector]:
        """All 2^dim members of the subspace."""
        out = []
        for counter in range(1 << self.dim):
            bits = 0
            for t, b in enumerate(self.basis):
                if (counter >> t) & 1:
                    bits ^= b.bits
            out.append(Gf2Vector(self.ambient_width, bits))
        return out


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
    """Unnormalized Walsh-Hadamard butterfly, O(m 2^m), on one working copy
    (also the +-1-cube transform when bit j set means coordinate j is -1)."""
    out = np.array(vec, dtype=np.float64)
    h = 1
    while h < out.size:
        halves = out.reshape(-1, 2, h)
        left, right = halves[:, 0], halves[:, 1]
        diff = left - right
        left += right
        right[...] = diff
        h *= 2
    return out


def popcounts(n_bits: int) -> np.ndarray:
    """Set-bit count of every mask below 2^n_bits, as int64: the table for
    n bits is the one for n-1 bits followed by itself plus one."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        out = np.concatenate((out, out + 1))
    return out


def fourier_transform(table: RealTable) -> FourierSpectrum:
    coeffs = _fwht(table.values) / table.values.size
    spectrum = FourierSpectrum(table.width, coeffs)
    power = float(np.mean(table.values**2))
    mass = float(np.sum(spectrum.coeffs**2))
    if abs(power - mass) > PARSEVAL_TOL * max(1.0, power):
        raise ArithmeticError(f"Parseval violation: E[A^2]={power!r} vs sum of squares {mass!r}")
    return spectrum


def inverse_fourier_transform(spectrum: FourierSpectrum) -> RealTable:
    return RealTable(spectrum.width, _fwht(spectrum.coeffs))


@dataclass(frozen=True)
class FoldedTable:
    """Values keyed by canonical coset representatives of a subspace."""

    subspace: Gf2Subspace
    values: dict[int, float]

    def __post_init__(self) -> None:
        reps = {r.bits for r in self.subspace.coset_reps()}
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
    m = sub.ambient_width
    values = np.empty(1 << m, dtype=np.float64)
    for x in range(1 << m):
        values[x] = folded.values[sub.reduce_bits(x)]
    return RealTable(m, values)


def fold(table: RealTable, subspace: Gf2Subspace) -> FoldedTable:
    """Collapse a coset-constant table onto representatives.

    Raises FoldConsistencyError with a violating pair if the table is not
    constant on some coset of the subspace.
    """
    if table.width != subspace.ambient_width:
        raise ValueError(f"width mismatch: {table.width} != {subspace.ambient_width}")
    values: dict[int, float] = {}
    first_seen: dict[int, int] = {}
    for x in range(table.values.size):
        rep = subspace.reduce_bits(x)
        v = float(table.values[x])
        if rep not in values:
            values[rep] = v
            first_seen[rep] = x
        elif values[rep] != v:
            raise FoldConsistencyError(
                f"table differs within a coset: A({first_seen[rep]:#x})={values[rep]!r} "
                f"but A({x:#x})={v!r}; {x:#x} = {first_seen[rep]:#x} + subspace element"
            )
    return FoldedTable(subspace, values)


def spectrum_to_csv(spectrum: FourierSpectrum) -> str:
    """CSV export: header ``alpha,coeff``; alpha as a big-endian bit string."""
    lines = ["alpha,coeff"]
    m = spectrum.width
    for a in range(spectrum.coeffs.size):
        lines.append(f"{format(a, f'0{m}b')},{float(spectrum.coeffs[a])!r}")
    return "\n".join(lines) + "\n"


def spectrum_from_csv(text: str) -> FourierSpectrum:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != "alpha,coeff":
        raise ValueError(f"bad header: {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    m = len(rows[0][0])
    coeffs = np.zeros(1 << m, dtype=np.float64)
    for alpha, coeff in rows:
        coeffs[int(alpha, 2)] = float(coeff)
    return FourierSpectrum(m, coeffs)
