"""Biased ternary-cube families: measure, influences, cores, witnesses."""
import math
import random

import numpy as np
import pytest

from gadgetlab import ternary
from gadgetlab.ternary import TernaryFamily, point_digits


def from_points(m: int, points, p: float) -> TernaryFamily:
    mem = np.zeros(3**m, dtype=bool)
    for pt in points:
        mem[ternary.point_index(pt)] = True
    return TernaryFamily(m, mem, p)


def serialize(fam: TernaryFamily) -> str:
    """The text TernaryFamily.deserialize reads: m, p and the membership bits."""
    return f"{fam.m} {fam.p!r} {''.join('1' if b else '0' for b in fam.membership)}"


def dependent_coordinates(fam: TernaryFamily) -> tuple[int, ...]:
    """Coordinates the family actually depends on."""
    out = []
    for j in range(fam.m):
        view = fam.membership.reshape(-1, 3, 3**j)
        if not (np.array_equal(view[:, 0, :], view[:, 1, :])
                and np.array_equal(view[:, 0, :], view[:, 2, :])):
            out.append(j)
    return tuple(out)


def brute_measure(fam: TernaryFamily, p: float) -> float:
    total = 0.0
    for idx in range(3**fam.m):
        if not fam.membership[idx]:
            continue
        w = 1.0
        for d in point_digits(idx, fam.m):
            w *= (1.0 - p) if d == 0 else p / 2.0
        total += w
    return total


def one_junta(m: int, coord: int, p: float) -> TernaryFamily:
    mem = np.array([point_digits(i, m)[coord] != 0 for i in range(3**m)])
    return TernaryFamily(m, mem, p)


class TestMeasure:
    def test_star_atom(self):
        fam = from_points(1, [(0,)], 0.9)
        assert ternary.measure(fam) == pytest.approx(0.1)

    def test_nonstar_atom(self):
        fam = from_points(1, [(1,)], 0.9)
        assert ternary.measure(fam) == pytest.approx(0.45)

    def test_full_family(self):
        fam = TernaryFamily(2, np.ones(9, bool), 0.6)
        assert ternary.measure(fam) == pytest.approx(1.0)

    def test_matches_per_point_oracle(self):
        rng = random.Random(3)
        for _ in range(10):
            fam = ternary.random_monotone_family(4, rng.uniform(0.3, 0.9), rng)
            for p in (0.5, 0.8):
                assert ternary.measure(fam, p) == pytest.approx(brute_measure(fam, p), abs=1e-12)


class TestMonotone:
    def test_closure_is_superset_with_larger_measure(self):
        rng = random.Random(5)
        for _ in range(10):
            mem = np.array([rng.random() < 0.3 for _ in range(3**4)])
            fam = TernaryFamily(4, mem, 0.8)
            closed = ternary.monotone_closure(fam)
            assert np.all(closed.membership | ~fam.membership)
            assert ternary.is_monotone(closed)
            assert ternary.measure(closed) >= ternary.measure(fam)

    def test_measure_increasing_in_p_for_monotone(self):
        rng = random.Random(7)
        for _ in range(10):
            fam = ternary.random_monotone_family(5, 0.5, rng)
            grid = np.linspace(0.2, 0.95, 12)
            values = [ternary.measure(fam, float(p)) for p in grid]
            assert np.all(np.diff(values) >= -1e-12)

    def test_star_singleton_not_monotone(self):
        fam = from_points(1, [(0,)], 0.5)
        assert not ternary.is_monotone(fam)


class TestInfluences:
    def test_one_coordinate_family(self):
        fam = from_points(1, [(1,), (2,)], 0.7)
        inf = ternary.influences(fam)
        assert inf[0] == pytest.approx(1.0)
        assert ternary.measure(fam) == pytest.approx(0.7)

    def test_constant_family(self):
        fam = TernaryFamily(3, np.ones(27, bool), 0.8)
        assert ternary.average_sensitivity(fam) == 0.0

    def test_junta_sensitivity_is_its_coordinate_influence(self):
        fam = one_junta(3, 1, 0.8)
        inf = ternary.influences(fam)
        assert inf[0] == 0.0 and inf[2] == 0.0
        assert ternary.average_sensitivity(fam) == pytest.approx(inf[1])

    def test_influence_event_oracle(self):
        # direct enumeration of the defining event
        rng = random.Random(11)
        fam = ternary.random_monotone_family(3, 0.7, rng)
        w = ternary.point_weights(3, 0.7)
        for i in range(3):
            mass = 0.0
            for idx in range(27):
                digits = list(point_digits(idx, 3))
                star = list(digits)
                star[i] = 0
                in_some = False
                for c in (1, 2):
                    v = list(digits)
                    v[i] = c
                    if fam.contains(tuple(v)):
                        in_some = True
                if not fam.contains(tuple(star)) and in_some:
                    mass += w[idx]
            assert ternary.influences(fam)[i] == pytest.approx(mass, abs=1e-12)


class TestRusso:
    @pytest.mark.parametrize("p", [0.5, 0.8, 0.9])
    def test_bracket_on_random_monotone(self, p):
        rng = random.Random(int(p * 100))
        for _ in range(15):
            fam = ternary.random_monotone_family(5, p, rng)
            res = ternary.russo_check(fam, p)
            assert res["ok"], res

    def test_one_coordinate_example(self):
        fam = from_points(1, [(1,), (2,)], 0.7)
        res = ternary.russo_check(fam)
        assert res["derivative"] == pytest.approx(1.0, abs=1e-6)
        assert res["as_p"] == pytest.approx(1.0)

    def test_non_monotone_rejected(self):
        fam = from_points(2, [(0, 0)], 0.5)
        with pytest.raises(ValueError, match="monotone"):
            ternary.russo_check(fam)


class TestFindCore:
    def test_one_junta(self):
        fam = one_junta(3, 0, 0.8)
        core = ternary.find_core(fam, 0.0)
        assert core.core == (0,)
        assert core.error == pytest.approx(0.0, abs=1e-12)

    def test_full_family_has_empty_core(self):
        fam = TernaryFamily(3, np.ones(27, bool), 0.8)
        assert ternary.find_core(fam, 0.0).core == ()

    def test_zero_delta_returns_dependency_set(self):
        rng = random.Random(13)
        for _ in range(10):
            fam = ternary.random_monotone_family(4, 0.8, rng)
            core = ternary.find_core(fam, 0.0)
            assert core.core == dependent_coordinates(fam)

    def test_core_family_mass_bound(self):
        # core-family mass >= mu_p(F) - 3 delta
        rng = random.Random(17)
        delta = 0.1
        for _ in range(15):
            fam = ternary.random_monotone_family(5, 0.8, rng)
            core = ternary.find_core(fam, delta)
            assert core.core_family_mass >= ternary.measure(fam) - 3 * delta - 1e-12

    def test_smaller_subsets_searched_first(self):
        fam = one_junta(4, 2, 0.7)
        core = ternary.find_core(fam, 0.5)
        # at delta = 0.5 even the empty junta fits: min(mu, 1-mu) <= 0.5
        assert core.core == ()


class TestSampleDp:
    def test_marginal_frequencies(self):
        rng = random.Random(0)
        n = 10**5
        counts = [0, 0, 0]
        for _ in range(n):
            f, g = ternary.sample_dp(0.9, 1, rng)
            counts[f[0]] += 1
            assert (f[0], g[0]) not in ((1, 1), (2, 2))
        for freq, expect in zip((c / n for c in counts), (0.1, 0.45, 0.45)):
            sigma = math.sqrt(expect * (1 - expect) / n)
            assert abs(freq - expect) <= 3 * sigma

    def test_no_stars_at_p_one(self):
        rng = random.Random(1)
        for _ in range(500):
            f, g = ternary.sample_dp(1.0, 4, rng)
            assert 0 not in f and 0 not in g


class TestWitness:
    def test_one_junta_witness(self):
        fam = one_junta(3, 0, 0.9)
        wp = ternary.two_element_witness(fam, 0.2, 0)
        assert wp.subset == (0,)
        assert wp.first[0] == wp.second[0] != 0
        for j in (1, 2):
            assert (wp.first[j], wp.second[j]) not in ((1, 1), (2, 2))

    def test_full_cube_gives_empty_subset(self):
        fam = TernaryFamily(2, np.ones(9, bool), 0.8)
        wp = ternary.two_element_witness(fam, 0.2, 1)
        assert wp.subset == ()
        assert wp.retries == 0

    def test_low_measure_rejected(self):
        fam = from_points(3, [(1, 1, 1)], 0.5)
        with pytest.raises(ValueError, match="below delta"):
            ternary.two_element_witness(fam, 0.5, 0)

    def test_invariant_and_membership_on_random_families(self):
        rng = random.Random(23)
        retries = []
        for _ in range(20):
            fam = ternary.random_monotone_family(5, 0.8, rng)
            if ternary.measure(fam) < 0.2:
                continue
            wp = ternary.two_element_witness(fam, 0.2, rng.randrange(1 << 30))
            assert fam.contains(wp.first) and fam.contains(wp.second)
            for j in range(fam.m):
                if j not in wp.subset:
                    assert (wp.first[j], wp.second[j]) not in ((1, 1), (2, 2))
            retries.append(wp.retries)
        assert retries and sum(retries) / len(retries) <= 4.0

    def test_invalid_pair_rejected_by_type(self):
        with pytest.raises(ValueError, match="non-core"):
            ternary.WitnessPair((0,), (1, 1), (1, 1), 0.9, 0)


class TestSerialization:
    def test_round_trip(self):
        fam = ternary.random_monotone_family(4, 0.85, 3)
        again = TernaryFamily.deserialize(serialize(fam))
        assert again.m == fam.m and again.p == fam.p
        assert np.array_equal(again.membership, fam.membership)
