"""GF(2) vectors, transforms, and folding."""
import random

import numpy as np
import pytest

from gadgetlab import dto1, gf2
from gadgetlab.gf2 import Gf2Vector, Gf2Subspace


def naive_spectrum(table: gf2.RealTable) -> np.ndarray:
    """Direct summation oracle: average of A(x) chi_alpha(x) over all x."""
    n = table.values.size
    out = np.zeros(n)
    for alpha in range(n):
        out[alpha] = np.mean([
            table.values[x] * gf2.chi(alpha, x) for x in range(n)
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
    gens = [Gf2Vector(m, rng.randrange(1, 1 << m)) for _ in range(max_dim)]
    return Gf2Subspace.span(gens, width=m)


def random_folded_table(sub: Gf2Subspace, rng: random.Random) -> gf2.RealTable:
    folded = {r.bits: rng.uniform(-1, 1) for r in sub.coset_reps()}
    return gf2.unfold(gf2.FoldedTable(sub, folded))


class TestDot:
    def test_zero_vector(self):
        x = Gf2Vector.from_coords([1, 0, 1, 1])
        assert Gf2Vector.zero(4).dot(x) == 0

    def test_standard_basis_reads_coordinate(self):
        x = Gf2Vector.from_coords([1, 0, 1])
        for i in range(3):
            assert Gf2Vector.unit(3, i).dot(x) == x.coords[i]

    def test_all_ones(self):
        v = Gf2Vector.from_coords([1, 1, 1])
        assert v.dot(v) == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            Gf2Vector.zero(3).dot(Gf2Vector.zero(4))


class TestFourier:
    def test_constant_table(self):
        spec = gf2.fourier_transform(gf2.RealTable(4, np.full(16, 2.5)))
        assert spec[0] == pytest.approx(2.5, abs=1e-12)
        assert np.max(np.abs(spec.coeffs[1:])) < 1e-12

    def test_character_table(self):
        beta = 0b101
        values = np.array([gf2.chi(beta, x) for x in range(16)], dtype=float)
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
        back = gf2.inverse_fourier_transform(gf2.fourier_transform(table))
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
            mean = sum(gf2.chi(alpha, f) for f in range(n)) / n
            assert mean == (1.0 if alpha == 0 else 0.0)
            for beta in range(n):
                for f in range(n):
                    assert gf2.chi(alpha ^ beta, f) == gf2.chi(alpha, f) * gf2.chi(beta, f)


class TestSpan:
    def test_single_vector(self):
        sub = Gf2Subspace.span([Gf2Vector.from_coords([1, 0])])
        assert sub.dim == 1
        assert len(sub.coset_reps()) == 2

    def test_empty_input(self):
        sub = Gf2Subspace.span([], width=3)
        assert sub.dim == 0
        assert len(sub.coset_reps()) == 8

    def test_duplicates_collapse(self):
        v = Gf2Vector.from_coords([1, 1])
        assert Gf2Subspace.span([v, v]).dim == 1

    def test_empty_without_width_rejected(self):
        with pytest.raises(ValueError):
            Gf2Subspace.span([])

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
        assert seen == {r.bits for r in reps}

    def test_canonical_rep_is_lex_minimum(self):
        rng = random.Random(5)
        sub = random_subspace(6, 3, rng)
        for x in range(64):
            rep = sub.reduce(Gf2Vector(6, x))
            coset = [Gf2Vector(6, x ^ h.bits) for h in sub.elements()]
            assert rep.coords == min(c.coords for c in coset)


class TestFolding:
    def test_trivial_subspace_unfold_is_identity(self):
        sub = Gf2Subspace.span([], width=3)
        vals = {r.bits: float(r.bits) for r in sub.coset_reps()}
        table = gf2.unfold(gf2.FoldedTable(sub, vals))
        assert np.array_equal(table.values, np.arange(8, dtype=float))

    def test_full_space_unfold_is_constant(self):
        sub = Gf2Subspace.span([Gf2Vector(2, 1), Gf2Vector(2, 2)])
        table = gf2.unfold(gf2.FoldedTable(sub, {0: 4.25}))
        assert np.all(table.values == 4.25)

    def test_fold_unfold_identity(self):
        rng = random.Random(9)
        sub = random_subspace(6, 2, rng)
        vals = {r.bits: rng.uniform(-1, 1) for r in sub.coset_reps()}
        refolded = gf2.fold(gf2.unfold(gf2.FoldedTable(sub, vals)), sub)
        assert refolded.values == vals

    def test_inconsistent_table_raises_with_pair(self):
        sub = Gf2Subspace.span([Gf2Vector.from_coords([1, 1])])
        bad = gf2.RealTable(2, np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(gf2.FoldConsistencyError, match="within a coset"):
            gf2.fold(bad, sub)

    def test_rep_key_mismatch(self):
        sub = Gf2Subspace.span([Gf2Vector.from_coords([1, 0])])
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
                    assert gf2.dot_bits(alpha, b.bits) == 0


class TestCsv:
    def test_round_trip(self):
        rng = random.Random(1)
        values = np.array([rng.uniform(-2, 2) for _ in range(16)])
        spec = gf2.fourier_transform(gf2.RealTable(4, values))
        text = gf2.spectrum_to_csv(spec)
        assert text.splitlines()[0] == "alpha,coeff"
        again = gf2.spectrum_from_csv(text)
        assert np.array_equal(again.coeffs, spec.coeffs)

    def test_alpha_rendering(self):
        spec = gf2.FourierSpectrum(3, np.arange(8, dtype=float))
        lines = gf2.spectrum_to_csv(spec).splitlines()
        assert lines[1].startswith("000,")
        assert lines[2].startswith("001,")
        assert lines[5].startswith("100,")
