"""GF(2) vectors, transforms, and folding."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import dto1, gf2
from gadgetlab.gf2 import Gf2Subspace


def chi(alpha_bits: int, x_bits: int) -> int:
    """Character value (-1)^(alpha . x), as +-1."""
    return -1 if gf2.dot_bits(alpha_bits, x_bits) else 1


def subspace_elements(sub: Gf2Subspace) -> list[int]:
    """All 2^dim members of the subspace."""
    out = [0]
    for b in sub.basis:
        out += [x ^ b for x in out]
    return out


def inverse_fourier_transform(spectrum: gf2.FourierSpectrum) -> gf2.RealTable:
    return gf2.RealTable(spectrum.width, gf2.walsh_hadamard(spectrum.coeffs) * spectrum.coeffs.size)


class FoldConsistencyError(ValueError):
    """Raised when a table is not constant on some coset of the subspace."""


def fold(table: gf2.RealTable, subspace: Gf2Subspace) -> gf2.FoldedTable:
    """Collapse a coset-constant table onto representatives: the inverse of
    gf2.unfold. Raises FoldConsistencyError naming the first point whose
    value differs from that of its coset's first point."""
    if table.width != subspace.ambient_width:
        raise ValueError(f"width mismatch: {table.width} != {subspace.ambient_width}")
    index = subspace.coset_index
    first = np.unique(index, return_index=True)[1]  # each coset's first point
    values = table.values[first]
    differs = np.flatnonzero(table.values != values[index])
    if differs.size:
        x = int(differs[0])
        f = int(first[index[x]])
        raise FoldConsistencyError(
            f"table differs within a coset: A({f:#x})={float(table.values[f])!r} "
            f"but A({x:#x})={float(table.values[x])!r}; {x:#x} = {f:#x} + subspace element"
        )
    return gf2.FoldedTable(subspace, dict(zip(subspace.coset_reps(), values.tolist())))


def naive_spectrum(table: gf2.RealTable) -> np.ndarray:
    """Direct summation oracle: average of A(x) chi_alpha(x) over all x."""
    n = table.values.size
    out = np.zeros(n)
    for alpha in range(n):
        out[alpha] = np.mean([
            table.values[x] * chi(alpha, x) for x in range(n)
        ])
    return out


def copying_fwht(vec: np.ndarray) -> np.ndarray:
    """Reference butterfly that copies both halves at every level."""
    out = vec.astype(np.float64, copy=True)
    n = out.size
    h = 1
    while h < n:
        out = out.reshape(-1, 2 * h)
        left = out[:, :h].copy()
        right = out[:, h:].copy()
        out[:, :h] = left + right
        out[:, h:] = left - right
        out = out.reshape(n)
        h *= 2
    return out


def random_subspace(m: int, max_dim: int, rng: random.Random) -> Gf2Subspace:
    return Gf2Subspace.span([rng.randrange(1, 1 << m) for _ in range(max_dim)], m)


def lex_min_rep(sub: Gf2Subspace, x: int) -> int:
    """Reference: the member of x's coset whose coordinate tuple, coordinate
    0 first, is least."""
    return min((x ^ h for h in subspace_elements(sub)),
               key=lambda y: [(y >> i) & 1 for i in range(sub.ambient_width)])


def random_folded_table(sub: Gf2Subspace, rng: random.Random) -> gf2.RealTable:
    folded = {r: rng.uniform(-1, 1) for r in sub.coset_reps()}
    return gf2.unfold(gf2.FoldedTable(sub, folded))


class TestDot:
    def test_zero_vector(self):
        assert gf2.dot_bits(0, 0b1101) == 0

    def test_standard_basis_reads_coordinate(self):
        x = 0b101
        for i in range(3):
            assert gf2.dot_bits(1 << i, x) == (x >> i) & 1

    def test_all_ones(self):
        assert gf2.dot_bits(0b111, 0b111) == 1


class TestFourier:
    def test_constant_table(self):
        spec = gf2.fourier_transform(gf2.RealTable(4, np.full(16, 2.5)))
        assert spec[0] == pytest.approx(2.5, abs=1e-12)
        assert np.max(np.abs(spec.coeffs[1:])) < 1e-12

    def test_character_table(self):
        beta = 0b101
        values = np.array([chi(beta, x) for x in range(16)], dtype=float)
        spec = gf2.fourier_transform(gf2.RealTable(4, values))
        assert spec[beta] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(spec.coeffs, beta)
        assert np.max(np.abs(others)) < 1e-12

    def test_point_indicator_matches_direct_oracle(self):
        m = 5
        values = np.zeros(1 << m)
        values[0] = 1.0
        table = gf2.RealTable(m, values)
        spec = gf2.fourier_transform(table)
        assert np.allclose(spec.coeffs, 2.0**-m, atol=1e-13)
        assert np.allclose(spec.coeffs, naive_spectrum(table), atol=1e-12)

    def test_random_table_matches_direct_oracle(self):
        rng = random.Random(7)
        values = np.array([rng.uniform(-3, 3) for _ in range(64)])
        table = gf2.RealTable(6, values)
        assert np.allclose(gf2.fourier_transform(table).coeffs,
                           naive_spectrum(table), atol=1e-12)

    def test_round_trip(self):
        rng = random.Random(11)
        values = np.array([rng.uniform(-5, 5) for _ in range(256)])
        table = gf2.RealTable(8, values)
        back = inverse_fourier_transform(gf2.fourier_transform(table))
        assert np.max(np.abs(back.values - table.values)) < 1e-12

    def test_parseval_on_random_tables(self):
        rng = random.Random(3)
        for m in (2, 5, 9):
            values = np.array([rng.gauss(0, 1) for _ in range(1 << m)])
            spec = gf2.fourier_transform(gf2.RealTable(m, values))
            assert np.sum(spec.coeffs**2) == pytest.approx(np.mean(values**2), abs=1e-12)

    def test_butterfly_bit_identical_to_copying_reference(self):
        # the in-place butterfly keeps the left + right / left - right
        # arithmetic, so the transform and the cube spectrum built on it
        # reproduce the copying butterfly bit for bit
        rng = np.random.default_rng(41)
        for m in range(11):
            for values in (rng.normal(size=1 << m), rng.uniform(0, 1, size=1 << m),
                           rng.integers(-3, 4, size=1 << m)):
                before = values.copy()
                assert np.array_equal(gf2._fwht(values), copying_fwht(values))
                assert np.array_equal(dto1.cube_spectrum(values),
                                      copying_fwht(values) / values.size)
                assert np.array_equal(values, before)

    def test_width_cap(self):
        with pytest.raises(ValueError, match="width"):
            gf2.RealTable(25, np.zeros(1 << 25))


class TestCharacters:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_laws_exhaustive(self, m):
        n = 1 << m
        for alpha in range(n):
            mean = sum(chi(alpha, f) for f in range(n)) / n
            assert mean == (1.0 if alpha == 0 else 0.0)
            for beta in range(n):
                for f in range(n):
                    assert chi(alpha ^ beta, f) == chi(alpha, f) * chi(beta, f)


class TestSpan:
    def test_single_vector(self):
        sub = Gf2Subspace.span([0b01], 2)
        assert sub.dim == 1
        assert sub.coset_reps() == [0b00, 0b10]

    def test_empty_input(self):
        sub = Gf2Subspace.span([], 3)
        assert sub.dim == 0
        assert sub.coset_reps() == list(range(8))

    def test_duplicates_collapse(self):
        assert Gf2Subspace.span([0b11, 0b11], 2).dim == 1

    @pytest.mark.parametrize("generator", [-1, 8, 2**40, 1.0, "1"])
    def test_generator_outside_width_rejected(self, generator):
        with pytest.raises(ValueError, match=f"^generator {generator!r} is not a vector of F2\\^3$"):
            Gf2Subspace.span([1, generator], 3)

    @pytest.mark.parametrize("m,dim", [(4, 2), (8, 3), (12, 5)])
    def test_coset_reps_partition_exhaustively(self, m, dim):
        rng = random.Random(m * 31 + dim)
        sub = random_subspace(m, dim, rng)
        reps = sub.coset_reps()
        assert len(reps) == 1 << (m - sub.dim)
        seen = set()
        for x in range(1 << m):
            rep = sub.reduce_bits(x)
            assert rep == sub.reduce_bits(rep)
            seen.add(rep)
        assert seen == set(reps) and reps == sorted(reps)

    def test_canonical_rep_is_lex_minimum(self):
        rng = random.Random(5)
        sub = random_subspace(6, 3, rng)
        assert len(set(subspace_elements(sub))) == 1 << sub.dim
        for x in range(64):
            assert sub.reduce_bits(x) == lex_min_rep(sub, x)


@settings(max_examples=200)
@given(data=st.data(), m=st.integers(1, 12))
def test_array_reduce_equals_scalar_reduce_and_lex_minimum(data, m):
    gens = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=m))
    sub = Gf2Subspace.span(gens, m)
    points = np.arange(1 << m)
    reduced = sub.reduce_bits(points)
    assert np.array_equal(points, np.arange(1 << m))  # the input is not reduced in place
    assert reduced.dtype == points.dtype
    assert reduced.tolist() == [sub.reduce_bits(x) for x in range(1 << m)]
    for x in data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8)):
        assert reduced[x] == lex_min_rep(sub, x)
    assert np.unique(reduced).tolist() == sub.coset_reps()


class TestFolding:
    def test_trivial_subspace_unfold_is_identity(self):
        sub = Gf2Subspace.span([], 3)
        vals = {r: float(r) for r in sub.coset_reps()}
        table = gf2.unfold(gf2.FoldedTable(sub, vals))
        assert np.array_equal(table.values, np.arange(8, dtype=float))

    def test_full_space_unfold_is_constant(self):
        sub = Gf2Subspace.span([1, 2], 2)
        table = gf2.unfold(gf2.FoldedTable(sub, {0: 4.25}))
        assert np.all(table.values == 4.25)

    def test_fold_unfold_identity(self):
        rng = random.Random(9)
        sub = random_subspace(6, 2, rng)
        vals = {r: rng.uniform(-1, 1) for r in sub.coset_reps()}
        refolded = fold(gf2.unfold(gf2.FoldedTable(sub, vals)), sub)
        assert refolded.values == vals

    def test_inconsistent_table_raises_with_pair(self):
        sub = Gf2Subspace.span([0b11], 2)
        bad = gf2.RealTable(2, np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(FoldConsistencyError, match="within a coset"):
            fold(bad, sub)

    def test_rep_key_mismatch(self):
        sub = Gf2Subspace.span([0b01], 2)
        with pytest.raises(ValueError, match="rep-key mismatch"):
            gf2.FoldedTable(sub, {1: 0.0, 3: 1.0})

    def test_folding_lemma_on_random_tables(self):
        rng = random.Random(2024)
        for _ in range(40):
            m = rng.randrange(3, 13)
            sub = random_subspace(m, max(1, m // 2), rng)
            table = random_folded_table(sub, rng)
            spec = gf2.fourier_transform(table)
            for alpha in spec.support():
                for b in sub.basis:
                    assert gf2.dot_bits(alpha, b) == 0


def unfold_per_point(folded: gf2.FoldedTable) -> np.ndarray:
    """Reference: every point's value, looked up one point at a time."""
    sub = folded.subspace
    return np.array([folded.values[sub.reduce_bits(x)] for x in range(1 << sub.ambient_width)],
                    dtype=np.float64)


def fold_per_point(table: gf2.RealTable, sub: Gf2Subspace) -> dict | str:
    """Reference: the rep-keyed values, one point at a time, or the message
    naming the first point whose value differs from its coset's first point."""
    values: dict[int, float] = {}
    first_seen: dict[int, int] = {}
    for x in range(table.values.size):
        rep = sub.reduce_bits(x)
        v = float(table.values[x])
        if rep not in values:
            values[rep] = v
            first_seen[rep] = x
        elif values[rep] != v:
            return (f"table differs within a coset: A({first_seen[rep]:#x})={values[rep]!r} "
                    f"but A({x:#x})={v!r}; {x:#x} = {first_seen[rep]:#x} + subspace element")
    return values


@settings(max_examples=150)
@given(data=st.data(), m=st.integers(1, 12))
def test_fold_and_unfold_match_per_point_loops(data, m):
    sub = Gf2Subspace.span(data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=m)), m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    reps = sub.coset_reps()
    folded = gf2.FoldedTable(sub, dict(zip(reps, rng.integers(-2, 3, len(reps)).tolist())))
    table = gf2.unfold(folded)
    assert np.array_equal(table.values, unfold_per_point(folded))
    values = table.values.copy()  # a few points changed: mostly no longer constant on cosets
    for x in data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3)):
        values[x] = rng.integers(-2, 3)
    table = gf2.RealTable(m, values)
    expected = fold_per_point(table, sub)
    if isinstance(expected, str):
        with pytest.raises(FoldConsistencyError) as info:
            fold(table, sub)
        assert str(info.value) == expected
    else:
        assert fold(table, sub).values == expected


class TestCsv:
    def test_round_trip(self):
        rng = random.Random(1)
        values = np.array([rng.uniform(-2, 2) for _ in range(16)])
        spec = gf2.fourier_transform(gf2.RealTable(4, values))
        text = gf2.spectrum_to_csv(spec)
        assert text.splitlines()[0] == "alpha,coeff"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [int(alpha, 2) for alpha, _ in rows] == list(range(16))
        assert np.array_equal([float(coeff) for _, coeff in rows], spec.coeffs)

    def test_alpha_rendering(self):
        spec = gf2.FourierSpectrum(3, np.arange(8, dtype=float))
        lines = gf2.spectrum_to_csv(spec).splitlines()
        assert lines[1].startswith("000,")
        assert lines[2].startswith("001,")
        assert lines[5].startswith("100,")
