"""Correlated spaces, noise operators, decompositions, quadrant bounds."""
import itertools
import math
import random

import numpy as np
import pytest

from gadgetlab import boolfn
from gadgetlab.boolfn import (CoordSpace, FiniteJointDist, ProductFn,
                              pm_cube_spaces)


def random_joint(rng: random.Random, shape) -> FiniteJointDist:
    probs = np.array([rng.random() for _ in range(int(np.prod(shape)))]).reshape(shape)
    probs /= probs.sum()
    factors = tuple(tuple(range(s)) for s in shape)
    return FiniteJointDist(factors, probs)


def random_product_fn(rng: random.Random, spaces, low=-1.0, high=1.0) -> ProductFn:
    shape = tuple(len(s.atoms) for s in spaces)
    vals = np.array([rng.uniform(low, high) for _ in range(int(np.prod(shape)))]).reshape(shape)
    return ProductFn(spaces, vals)


def random_spaces(rng: random.Random, n: int) -> tuple[CoordSpace, ...]:
    out = []
    for _ in range(n):
        size = rng.choice((2, 3))
        w = np.array([rng.uniform(0.2, 1.0) for _ in range(size)])
        w /= w.sum()
        out.append(CoordSpace(tuple(range(size)), tuple(w)))
    return tuple(out)


class TestMaximalCorrelation:
    def test_product_distribution_is_zero(self):
        d = FiniteJointDist(((0, 1), (0, 1)), np.outer([0.3, 0.7], [0.4, 0.6]))
        assert boolfn.maximal_correlation(d, ((0,), (1,))) == pytest.approx(0.0, abs=1e-10)

    def test_identical_uniform_pair_is_one(self):
        d = FiniteJointDist(((-1, 1), (-1, 1)), np.eye(2) / 2)
        assert boolfn.maximal_correlation(d, ((0,), (1,))) == pytest.approx(1.0, abs=1e-12)

    def test_grid_optimization_oracle(self):
        # brute-force the supremum over mean-zero unit-variance pairs on a
        # small grid of function values and compare with the SVD route
        rng = random.Random(3)
        d = random_joint(rng, (2, 2))
        rho = boolfn.maximal_correlation(d, ((0,), (1,)))
        pa = d.probs.sum(axis=1)
        pb = d.probs.sum(axis=0)
        best = 0.0
        for fa in np.linspace(-3, 3, 121):
            # mean-zero on two atoms fixes the other value
            f = np.array([fa, -fa * pa[0] / pa[1]])
            vf = float(pa @ f**2)
            if vf < 1e-12:
                continue
            f = f / math.sqrt(vf)
            for gb in np.linspace(-3, 3, 121):
                g = np.array([gb, -gb * pb[0] / pb[1]])
                vg = float(pb @ g**2)
                if vg < 1e-12:
                    continue
                g = g / math.sqrt(vg)
                best = max(best, abs(float(f @ d.probs @ g)))
        assert rho == pytest.approx(best, abs=1e-6)

    def test_connected_support_bound(self):
        # connected bipartite support with min atom alpha: rho <= 1 - alpha^2/2
        rng = random.Random(9)
        for _ in range(20):
            d = random_joint(rng, (3, 3))
            alpha = d.min_atom()
            rho = boolfn.maximal_correlation(d, ((0,), (1,)))
            assert rho <= 1.0 - alpha**2 / 2.0 + 1e-9

    def test_zero_mass_atoms_dropped(self):
        probs = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        d = FiniteJointDist(((0, 1), (0, 1, 2)), probs)
        assert boolfn.maximal_correlation(d, ((0,), (1,))) == pytest.approx(1.0)

    def test_tensor_product_bounded_by_max_factor(self):
        rng = random.Random(21)
        for _ in range(10):
            d1 = random_joint(rng, (2, 3))
            d2 = random_joint(rng, (3, 2))
            r1 = boolfn.maximal_correlation(d1, ((0,), (1,)))
            r2 = boolfn.maximal_correlation(d2, ((0,), (1,)))
            prod = d1.tensor(d2)
            rp = boolfn.maximal_correlation(prod, ((0,), (1,)))
            assert rp <= max(r1, r2) + 1e-9


class TestBonamiBeckner:
    def test_dictator_eigenfunction(self):
        spaces = pm_cube_spaces(3)
        vals = np.broadcast_to(np.array([-1.0, 1.0]).reshape(2, 1, 1), (2, 2, 2)).copy()
        f = ProductFn(spaces, vals)
        assert np.allclose(boolfn.bonami_beckner(f, 0.7).values, 0.7 * vals)

    def test_constant_preserved(self):
        f = ProductFn(pm_cube_spaces(2), np.full((2, 2), 3.25))
        assert np.allclose(boolfn.bonami_beckner(f, 0.3).values, 3.25)

    def test_parity_eigenvalue_matches_full_table_oracle(self):
        # k-coordinate parity picks up a rho^k factor; oracle applies the
        # one-coordinate operator tensor-wise by explicit summation
        spaces = pm_cube_spaces(4)
        idx = np.indices((2, 2, 2, 2))
        parity = np.ones((2, 2, 2, 2))
        for i in range(3):
            parity *= np.where(idx[i] == 0, -1.0, 1.0)
        f = ProductFn(spaces, parity)
        rho = 0.6
        assert np.allclose(boolfn.bonami_beckner(f, rho).values, rho**3 * parity)

    def test_out_of_range_rho(self):
        f = ProductFn(pm_cube_spaces(1), np.zeros(2))
        with pytest.raises(ValueError):
            boolfn.bonami_beckner(f, 1.5)

    def test_composition_law(self):
        rng = random.Random(31)
        for _ in range(10):
            spaces = random_spaces(rng, 3)
            f = random_product_fn(rng, spaces)
            a, b = rng.uniform(0, 1), rng.uniform(0, 1)
            twice = boolfn.bonami_beckner(boolfn.bonami_beckner(f, a), b)
            once = boolfn.bonami_beckner(f, a * b)
            assert np.max(np.abs(twice.values - once.values)) < 1e-10


class TestEfronStein:
    def test_completeness_and_orthogonality(self):
        rng = random.Random(5)
        spaces = random_spaces(rng, 3)
        f = random_product_fn(rng, spaces)
        es = boolfn.efron_stein(f)
        assert np.max(np.abs(es.reconstruct() - f.values)) < 1e-10
        keys = list(es.parts)
        for a, b in itertools.combinations(keys, 2):
            inner = ProductFn(spaces, es.parts[a] * es.parts[b]).expectation()
            assert abs(inner) < 1e-10

    def test_uniform_cube_matches_fourier_monomials(self):
        rng = random.Random(8)
        spaces = pm_cube_spaces(3)
        f = random_product_fn(rng, spaces)
        es = boolfn.efron_stein(f)
        # chi_S as a ProductFn; f_S must equal fhat_S * chi_S
        idx = np.indices((2, 2, 2))
        for S in map(frozenset, itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in range(4))):
            chi = np.ones((2, 2, 2))
            for i in S:
                chi *= np.where(idx[i] == 0, -1.0, 1.0)
            coeff = ProductFn(spaces, f.values * chi).expectation()
            assert np.allclose(es.parts[S], coeff * chi, atol=1e-10)

    def test_contraction_with_minimum_weight(self):
        rng = random.Random(13)
        for _ in range(10):
            spaces = random_spaces(rng, 3)
            f = random_product_fn(rng, spaces)
            es = boolfn.efron_stein(f)
            s = 2
            high = sum((arr for key, arr in es.parts.items() if len(key) >= s),
                       np.zeros_like(f.values))
            g = ProductFn(spaces, high)
            rho = rng.uniform(0.1, 0.9)
            lhs = boolfn.bonami_beckner(g, rho)
            assert lhs.l2_norm() <= rho**s * g.l2_norm() + 1e-10


class TestInfluence:
    def test_dictator(self):
        spaces = pm_cube_spaces(3)
        vals = np.broadcast_to(np.array([-1.0, 1.0]).reshape(1, 2, 1), (2, 2, 2)).copy()
        f = ProductFn(spaces, vals)
        assert boolfn.influence(f, 1) == pytest.approx(f.variance())
        assert boolfn.influence(f, 0) == pytest.approx(0.0)
        assert boolfn.influence(f, 2) == pytest.approx(0.0)

    def test_constant(self):
        f = ProductFn(pm_cube_spaces(2), np.full((2, 2), 1.5))
        assert boolfn.influence(f, 0) == 0.0

    def test_cube_fourier_formula(self):
        rng = random.Random(4)
        spaces = pm_cube_spaces(3)
        f = random_product_fn(rng, spaces)
        es = boolfn.efron_stein(f)
        weights = es.weights()
        for i in range(3):
            from_parts = sum(w for key, w in weights.items() if i in key)
            assert boolfn.influence(f, i) == pytest.approx(from_parts, abs=1e-10)


class TestGammaBounds:
    def test_rho_zero_product(self):
        lo, hi = boolfn.gamma_bounds(0.0, 0.3, 0.45)
        assert lo == pytest.approx(0.3 * 0.45, abs=1e-8)
        assert hi == pytest.approx(0.3 * 0.45, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.1 * k for k in range(1, 10)])
    def test_arcsin_formula_at_half(self, rho):
        lo, _ = boolfn.gamma_bounds(rho, 0.5, 0.5)
        assert lo == pytest.approx(0.25 - math.asin(rho) / (2 * math.pi), abs=1e-6)

    def test_monte_carlo_oracle(self):
        rho = 0.37
        rng = np.random.default_rng(1234)
        n = 10**7
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        y = rho * z1 + math.sqrt(1 - rho * rho) * z2
        estimate = np.mean((z1 <= 0) & (y >= 0))
        sigma = math.sqrt(estimate * (1 - estimate) / n)
        lo, _ = boolfn.gamma_bounds(rho, 0.5, 0.5)
        assert abs(lo - estimate) <= 3 * sigma

    def test_boundary_arguments(self):
        assert boolfn.gamma_bounds(0.5, 0.0, 0.4) == (0.0, 0.0)
        assert boolfn.gamma_bounds(0.5, 1.0, 0.4) == (0.4, 0.4)
        assert boolfn.gamma_bounds(0.5, 0.3, 1.0) == (0.3, 0.3)

    def test_complement_identity(self):
        rng = random.Random(2)
        for _ in range(20):
            rho = rng.uniform(0.0, 0.95)
            mu = rng.uniform(0.05, 0.95)
            nu = rng.uniform(0.05, 0.95)
            lo, _ = boolfn.gamma_bounds(rho, mu, nu)
            _, hi = boolfn.gamma_bounds(rho, mu, 1.0 - nu)
            assert lo + hi == pytest.approx(mu, abs=1e-7)

    def test_quadrant_monotonicity_in_rho(self):
        # aligned quadrant grows with correlation, mixed quadrant shrinks
        for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
            for nu in (0.1, 0.5, 0.9):
                lower = []
                upper = []
                for rho in np.linspace(0.0, 0.9, 10):
                    lo, hi = boolfn.gamma_bounds(rho, mu, nu)
                    lower.append(lo)
                    upper.append(hi)
                assert np.all(np.diff(lower) <= 1e-9)
                assert np.all(np.diff(upper) >= -1e-9)

    def test_inverse_cdf_accuracy(self):
        # at rho = 0 both quadrants are mu * nu: this checks the normal quantiles where they
        # are used; the quadrature's own error reaches 1e-5 relative at the 1e-9 tails
        tails = (1e-9, 1e-6, 0.0101, 0.2, 0.5, 0.81, 0.999, 1 - 1e-8)
        for mu, nu in itertools.product(tails, tails):
            assert boolfn.gamma_bounds(0.0, mu, nu) == pytest.approx((mu * nu, mu * nu),
                                                                     rel=1e-4, abs=0)


class TestReverseHyper:
    def test_full_cube(self):
        lhs, rhs, ok = boolfn.reverse_hyper_check(range(16), range(16), 4, 0.5)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0) and ok

    def test_rho_zero_equality(self):
        rng = random.Random(6)
        a = set(rng.sample(range(256), 64))
        b = set(rng.sample(range(256), 32))
        lhs, rhs, ok = boolfn.reverse_hyper_check(a, b, 8, 0.0)
        assert lhs == pytest.approx(len(a) * len(b) / 4.0**8, abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)
        assert ok

    def test_exact_agreement_with_enumeration(self):
        rng = random.Random(7)
        n = 6
        a = set(rng.sample(range(1 << n), 16))
        b = set(rng.sample(range(1 << n), 16))
        rho = 0.45
        total = 0.0
        for x in range(1 << n):
            for y in range(1 << n):
                agree = n - bin(x ^ y).count("1")
                p = ((1 + rho) / 4) ** agree * ((1 - rho) / 4) ** (n - agree)
                total += p * (x in a) * (y in b)
        lhs, _, _ = boolfn.reverse_hyper_check(a, b, n, rho)
        assert lhs == pytest.approx(total, abs=1e-12)

    def test_random_quarter_density_holds(self):
        rng = random.Random(8)
        a = set(rng.sample(range(1024), 256))
        b = set(rng.sample(range(1024), 256))
        lhs, rhs, ok = boolfn.reverse_hyper_check(a, b, 10, 0.9)
        assert ok and lhs >= rhs

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            boolfn.reverse_hyper_check(set(), {1}, 3, 0.5)


class TestNoiseGap:
    def _setup(self, rng: random.Random):
        from gadgetlab import dto1
        joint = dto1.dist_table(0.25, 1).joint
        joints = [joint, joint]
        spaces = []
        for j in range(3):
            marg = tuple(float(x) for x in joint.marginal((j,)))
            spaces.append(tuple(CoordSpace(joint.factors[j], marg) for _ in range(2)))
        fns = [random_product_fn(rng, spaces[j], low=0.0, high=1.0) for j in range(3)]
        return joints, fns

    def test_gamma_zero_gap_is_zero(self):
        rng = random.Random(11)
        joints, fns = self._setup(rng)
        report = boolfn.noise_gap_report(joints, fns, gamma=0.0)
        assert report["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_constant_functions(self):
        rng = random.Random(12)
        joints, fns = self._setup(rng)
        const = [ProductFn(f.spaces, np.full_like(f.values, 0.5)) for f in fns]
        report = boolfn.noise_gap_report(joints, const, gamma=0.1)
        assert report["gap"] == pytest.approx(0.0, abs=1e-12)
        assert report["bound_factor"] == pytest.approx(0.0, abs=1e-12)

    def test_random_functions_report_both_sides(self):
        rng = random.Random(13)
        joints, fns = self._setup(rng)
        report = boolfn.noise_gap_report(joints, fns, gamma=0.1)
        assert report["gap"] >= 0.0
        assert report["bound_factor"] >= 0.0
        assert "plain" in report and "smoothed" in report

    def test_mismatched_atoms_rejected(self):
        rng = random.Random(14)
        joints, fns = self._setup(rng)
        bad = ProductFn(pm_cube_spaces(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="atoms"):
            boolfn.noise_gap_report(joints, [bad, fns[1], fns[2]], gamma=0.1)
