"""Correlated-test gadget: distribution facts, build, decomposition, decode."""
import itertools
import math
import random
import re
from fractions import Fraction

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadgetlab import boolfn, dto1, games
from gadgetlab.dto1 import (DecodeParams, blocks_of, cross_expectation,
                            cube_spectrum, dist_table, shattered_decomposition,
                            shattered_mask, yz_character_matrix)
from gadgetlab.seeding import derive_rng


@pytest.fixture(scope="module")
def toy_smooth():
    game = games.gen_toy_dto1_game(2, 3, 1, 2, 5)
    pcp = games.build_smooth_mlpcp(game, 2, 1)
    return pcp


def enumerate_cross_expectation(f_vals: np.ndarray, g_vals: np.ndarray,
                                blocks: list[int], dist: dto1.DDeltaR) -> float:
    """Direct oracle: E[f(y) g(z)] by summing over per-block (Y, Z) atoms."""
    yz = dist.joint.marginal((1, 2))
    support = [(ym, zm, float(yz[ym, zm]))
               for ym in range(yz.shape[0]) for zm in range(yz.shape[1])
               if yz[ym, zm] > 0]
    n_bits = int(round(math.log2(f_vals.size)))
    block_pos = [[j for j in range(n_bits) if (b >> j) & 1] for b in blocks]
    total = 0.0
    for combo in itertools.product(support, repeat=len(blocks)):
        y = z = 0
        p = 1.0
        for (ym, zm, pb), positions in zip(combo, block_pos):
            p *= pb
            for t, j in enumerate(positions):
                y |= ((ym >> t) & 1) << j
                z |= ((zm >> t) & 1) << j
        total += p * float(f_vals[y]) * float(g_vals[z])
    return total


def edge_exists(g: dto1.Dto1Gadget, ci: int, x: int, y: int, z: int) -> bool:
    """Rule-mode membership: (x, y, z) is a hit of constraint ci when every
    block's (x bit, y bits, z bits) is an atom of the base distribution."""
    c = g.pcp.constraints[ci]
    dist = dist_table(g.delta, g.constraint_r[ci])
    blocks = blocks_of(c.projection, g.pcp.label_sizes[c.to_layer])
    for i, positions in enumerate(dto1.block_positions(blocks, g.pcp.label_sizes[c.from_layer])):
        ym = sum(((y >> j) & 1) << t for t, j in enumerate(positions))
        zm = sum(((z >> j) & 1) << t for t, j in enumerate(positions))
        if dist.prob((x >> i) & 1, ym, zm) <= 0:
            return False
    return True


def yz_character_matrix_loop(dist: dto1.DDeltaR) -> np.ndarray:
    """Oracle: one weighted sum over the (Y, Z) table per entry (a, b)."""
    size = 1 << dist.r
    yz = dist.joint.marginal((1, 2))
    M = np.zeros((size, size))
    signs = np.array([[(-1) ** bin(a & m).count("1") for m in range(size)]
                      for a in range(size)], dtype=np.float64)
    for a in range(size):
        for b in range(size):
            M[a, b] = float((np.outer(signs[a], signs[b]) * yz).sum())
    return M


def decode_per_constraint(indicators, pcp, params, seed=0) -> dto1.Dto1DecodeResult:
    """Reference: decode as it was before the whole-array passes, one
    spectrum per variable and every table rebuilt per constraint."""
    if pcp.params is None or "d" not in pcp.params:
        raise ValueError("decode needs a smooth layered PCP")
    d = pcp.params["d"]
    for key, f in indicators.items():
        f = np.asarray(f)
        if not np.all((f >= -1e-12) & (f <= 1.0 + 1e-12)):  # a NaN fails both
            raise ValueError(f"indicator {key} is not [0, 1]-valued")

    _, qualified, density = games.heavy_layer_pair(
        pcp, {key: float(np.mean(f)) for key, f in indicators.items()}, params.eps)
    l, l2 = density["best_pair"]
    r = d ** (l2 - l)
    eta = params.eta(r)
    dist = dist_table(params.delta, r)
    M = yz_character_matrix(dist)

    spectra = {(layer, var): cube_spectrum(np.asarray(indicators[(layer, var)], dtype=np.float64))
               for layer in (l, l2) for var in qualified[layer]}
    influences = {key: dto1.noisy_influences(spec, params.gamma) for key, spec in spectra.items()}

    good = {}
    pair_floor = (params.eps / 2.0) ** (4.0 / eta)
    good_bound = (params.s**2 / params.T) ** 0.25
    diag_pairs = []
    cons = [c for c in pcp.constraints_between(l, l2)
            if c.v in qualified[l] and c.u in qualified[l2]]
    for c in cons:
        spec = spectra[(l, c.v)]
        blocks = blocks_of(c.projection, pcp.label_sizes[l2])
        block_pos = dto1.block_positions(blocks, pcp.label_sizes[l])
        f2 = shattered_decomposition(spec, c.projection, pcp.label_sizes[l2], params.s).f2
        f2_norm = float(np.sqrt((f2**2).sum()))
        is_good = f2_norm <= good_bound
        good[(c.v, c.u)] = is_good
        eyz = cross_expectation(spec, spec, blocks, M)
        inf_bar = dto1.block_noisy_influences(spec, params.gamma, blocks)
        gap = float(np.max(np.abs(inf_bar - influences[(l, c.v)]))) if inf_bar.size else 0.0
        inf_u = influences[(l2, c.u)]
        matched = any(min(inf_u[i], 4.0 * r * float(inf_bar[positions].sum())) >= params.tau
                      for i, positions in enumerate(block_pos))
        diag_pairs.append({
            "v": c.v, "u": c.u, "good": is_good, "f2_norm": f2_norm,
            "pair_expectation": eyz, "pair_floor": pair_floor,
            "influence_gap": gap,
            "influence_gap_bound": 2.0 * good_bound + params.tau / (16.0 * r * r),
            "matched_influence": matched,
        })

    labels_v, labels_u = {}, {}
    no_influence = True
    for (layer, var) in sorted(spectra):
        weights = influences[(layer, var)]
        total = float(weights.sum())
        if total <= 0.0:
            continue
        no_influence = False
        rng = derive_rng(seed, "label", layer, var)
        pick = rng.random() * total  # the first label whose running sum reaches pick
        chosen = min(int(np.searchsorted(np.cumsum(weights), pick)), weights.size - 1)
        (labels_v if layer == l else labels_u)[(layer, var)] = chosen

    if no_influence:
        return dto1.Dto1DecodeResult("no_influential_coordinates", (l, l2), r, {}, {},
                                     Fraction(0), Fraction(0), good,
                                     {"pairs": diag_pairs, "eta": eta})
    return dto1.Dto1DecodeResult(
        "ok", (l, l2), r, labels_v, labels_u,
        *games.satisfied_fractions(pcp, (l, l2), labels_v, labels_u),
        good,
        {"pairs": diag_pairs, "eta": eta,
         "density": {str(k): str(f) for k, f in density["per_pair"].items()}},
    )


def exact_projection(r: int, targets: int, rnd: random.Random) -> tuple[int, ...]:
    """A random projection with exactly r preimages per target label."""
    p = [i for i in range(targets) for _ in range(r)]
    rnd.shuffle(p)
    return tuple(p)


def random_smooth_pcp(rnd: random.Random, distinct: bool) -> games.LayeredPcp:
    """A 2-layer d-to-1 PCP whose constraints draw exact d-to-1 projections
    from a pool of one or two (repeated) or each its own (distinct, as far
    as the label sizes allow)."""
    d, targets = rnd.choice([2, 3]), rnd.randint(1, 4)
    counts = (rnd.randint(1, 3), rnd.randint(1, 4))
    seen: set = set()

    def projection():
        for _ in range(20):
            p = exact_projection(d, targets, rnd)
            if p not in seen:
                break
        seen.add(p)
        return p

    pool = [projection() for _ in range(rnd.randint(1, 2))]
    cons = tuple(games.PcpConstraint(0, 1, v, u, projection() if distinct else rnd.choice(pool))
                 for v in range(counts[0]) for u in range(counts[1]) if rnd.random() < 0.8)
    cons = cons or (games.PcpConstraint(0, 1, 0, 0, pool[0]),)
    labeling = (tuple(rnd.randrange(d * targets) for _ in range(counts[0])),
                tuple(rnd.randrange(targets) for _ in range(counts[1])))
    return games.LayeredPcp(2, counts, (d * targets, targets), cons,
                            params={"d": d, "T": rnd.choice([1, 3, 10_000])},
                            planted_labeling=labeling)


def random_indicators(pcp: games.LayeredPcp, kind: str, rng: np.random.Generator) -> dict:
    """Per variable: a noisy dictator of its planted label, a uniform table
    in [0, 1], or a uniform 0/1 table."""
    out = {}
    for l in range(pcp.layers):
        points = np.arange(1 << pcp.label_sizes[l])
        for v in range(pcp.var_counts[l]):
            dictator = (points >> pcp.planted_labeling[l][v]) & 1
            out[(l, v)] = {"dictator": lambda: 0.7 * dictator + 0.3 * rng.random(points.size),
                           "uniform": lambda: rng.random(points.size),
                           "bits": lambda: (rng.random(points.size) < 0.5).astype(float)}[kind]()
    return out


class TestDistTable:
    def test_min_atom_quarter_r1(self):
        dist = dist_table(0.25, 1)
        assert dist.joint.min_atom() == 0.125
        assert dist.xi == 0.125

    def test_marginals_identical(self):
        for delta, r in ((0.1, 1), (0.25, 2), (0.4, 3)):
            dist = dist_table(delta, r)
            assert np.allclose(dist.joint.marginal((1,)), dist.joint.marginal((2,)))
            # Y marginal is uniform
            assert np.allclose(dist.joint.marginal((1,)), 2.0 ** (-r))

    def test_delta_zero_is_pure_anticorrelation(self):
        dist = dist_table(0.0, 2)
        full = (1 << 2) - 1
        for x_bit, y, z in dist.support():
            assert z == y ^ full
        assert len(dist.support()) == 2 * 4

    def test_branch_supports_disjoint(self):
        dist = dist_table(0.3, 2)
        full = 3
        for x_bit, y, z in dist.support():
            plain = z == y ^ full
            leak = any((y >> j) & 1 == (z >> j) & 1 for j in range(2))
            assert plain != leak

    def test_x_independent_coordinates_independent(self):
        # Y_i is independent of (Y_j, Z_j) for i != j
        dist = dist_table(0.25, 2)
        probs = dist.joint.probs
        p_y0 = probs.sum(axis=(0, 2)).reshape(2, 2).sum(axis=1)  # marginal of Y_0
        joint_all = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(4):
                for z in range(4):
                    joint_all[(y >> 0) & 1, (y >> 1) & 1, (z >> 1) & 1] += probs[x, y, z]
        for y0 in range(2):
            for y1 in range(2):
                for z1 in range(2):
                    marg = joint_all[:, y1, z1].sum()
                    assert joint_all[y0, y1, z1] == pytest.approx(p_y0[y0] * marg, abs=1e-12)

    def test_sampler_goodness_of_fit(self):
        rng = random.Random(0)
        delta, r = 0.25, 1
        dist = dist_table(delta, r)
        n = 10**5
        counts: dict[tuple[int, int, int], int] = {}
        for _ in range(n):
            x, y, z = dto1.sample(delta, r, rng)
            key = (0 if x == 1 else 1,
                   sum((1 << j) for j in range(r) if y[j] == -1),
                   sum((1 << j) for j in range(r) if z[j] == -1))
            counts[key] = counts.get(key, 0) + 1
        for atom in dist.support():
            p = dist.prob(*atom)
            freq = counts.get(atom, 0) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * sigma

    def test_r_cap(self):
        with pytest.raises(ValueError, match="full table"):
            dist_table(0.1, 11)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [0.0, 0.25, 1.0])
    def test_support_and_csv_match_the_cube_walk(self, delta, r):
        dist = dist_table(delta, r)
        atoms, lines = [], ["atom,probability"]
        for x_bit in range(2):
            for y in range(1 << r):
                for z in range(1 << r):
                    p = float(dist.joint.probs[x_bit, y, z])
                    if p > 0:
                        atoms.append((x_bit, y, z))
                        xs = "+" if x_bit == 0 else "-"
                        ys = "".join("-" if (y >> j) & 1 else "+" for j in range(r))
                        zs = "".join("-" if (z >> j) & 1 else "+" for j in range(r))
                        lines.append(f"{xs}|{ys}|{zs},{p!r}")
        support = dist.support()
        assert support == atoms and all(type(v) is int for atom in support for v in atom)
        assert dist.to_csv() == "\n".join(lines) + "\n"

    def test_csv_has_positive_atoms_only(self):
        dist = dist_table(0.25, 1)
        lines = dist.to_csv().strip().splitlines()
        assert lines[0] == "atom,probability"
        assert len(lines) - 1 == len(dist.support())


class TestCorrelationSuite:
    @pytest.mark.parametrize("delta", [0.1, 0.25])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_min_atom_equality_in_regime(self, delta, r):
        rep = dto1.correlation_suite(delta, r)
        assert rep["min_atom_regime"]
        assert rep["min_atom"] == rep["min_atom_bound"]

    def test_min_atom_out_of_regime_flagged(self):
        # delta > r/(r+2): the plain atoms are lighter than the leak atoms
        rep = dto1.correlation_suite(0.5, 1)
        assert not rep["min_atom_regime"]
        assert rep["min_atom"] == pytest.approx((1 - 0.5) / 4)
        assert rep["min_atom"] < rep["min_atom_bound"]

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_x_vs_yz_correlation_is_sqrt_delta(self, delta, r):
        # the claimed bound is delta, but the maximal correlation of a
        # (1-delta)-mixture with an exact leak is sqrt(delta); the suite
        # reports the claimed bound as failed.
        rep = dto1.correlation_suite(delta, r)
        assert rep["rho_x_yz"] == pytest.approx(math.sqrt(delta), abs=1e-9)
        assert not rep["rho_x_yz_ok"]

    @pytest.mark.parametrize("delta", [0.1, 0.25])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_remaining_bounds_hold(self, delta, r):
        rep = dto1.correlation_suite(delta, r)
        assert rep["rho_y_z_ok"]
        assert rep["rho_xy_z_ok"]
        assert rep["rho_all_ok"]

    def test_joint_rho_matches_definition(self):
        dist = dist_table(0.25, 2)
        expected = max(
            boolfn.maximal_correlation(dist.joint, ((1, 2), (0,))),
            boolfn.maximal_correlation(dist.joint, ((0, 2), (1,))),
            boolfn.maximal_correlation(dist.joint, ((0, 1), (2,))),
        )
        rep = dto1.correlation_suite(0.25, 2)
        assert rep["rho_all"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("delta,r", [(0.1, 1), (0.25, 2), (0.4, 3)])
    def test_support_safety(self, delta, r):
        assert dto1.support_safety(dist_table(delta, r))


class TestBuild:
    def test_single_label_support_is_the_table(self):
        pcp = games.LayeredPcp(2, (1, 1), (1, 1),
                               (games.PcpConstraint(0, 1, 0, 0, (0,)),),
                               params={"d": 1, "T": 1})
        g = dto1.build(pcp, 0.25)
        dist = dist_table(0.25, 1)
        got = set(map(tuple, g.constraint_edges[0].tolist()))
        assert got == set(dist.support())

    def test_vertex_weights(self, toy_smooth):
        pcp = toy_smooth
        g = dto1.build(pcp, 0.25)
        for l in range(pcp.layers):
            w = g.vertex_weight(l, 0, 0)
            assert w == Fraction(1, (1 << pcp.label_sizes[l]) * pcp.layers * pcp.var_counts[l])
            total = sum(
                g.vertex_weight(l, v, pt)
                for v in range(pcp.var_counts[l]) for pt in range(1 << pcp.label_sizes[l])
            )
            assert total == Fraction(1, pcp.layers)

    def test_yes_coloring_proper_on_all_edges(self, toy_smooth):
        pcp = toy_smooth
        g = dto1.build(pcp, 0.25)
        assert g.mode == "enumerate"
        res = dto1.yes_check(g, pcp.planted_labeling)
        assert res.ok
        assert res.coverage == "exhaustive"
        assert res.checked == sum(map(len, g.constraint_edges))

    def test_unsatisfying_labeling_rejected(self, toy_smooth):
        pcp = toy_smooth
        bad = [list(layer) for layer in pcp.planted_labeling]
        bad[1][0] = (bad[1][0] + 1) % pcp.label_sizes[1]
        with pytest.raises(ValueError, match="does not satisfy"):
            dto1.yes_check(dto1.build(pcp, 0.25), bad)

    def test_rule_mode_membership(self):
        game = games.gen_toy_dto1_game(2, 5, 1, 2, 7)
        pcp = games.build_smooth_mlpcp(game, 2, 2)  # label sizes 32, 16: over the bit cap
        g = dto1.build(pcp, 0.25)
        assert g.mode == "rule"
        c = pcp.constraints[0]
        full = (1 << pcp.label_sizes[0]) - 1
        # z = -y coordinatewise with arbitrary x is always in the support
        assert edge_exists(g, 0, 0, 0, full)
        res = dto1.yes_check(g, pcp.planted_labeling, samples=200)
        assert res.ok and res.coverage.startswith("sampled")

    def test_edge_exists_matches_enumerated_support(self):
        # two constraints with different projections share one r
        pcp = games.LayeredPcp(2, (2, 1), (4, 2),
                               (games.PcpConstraint(0, 1, 0, 0, (0, 0, 1, 1)),
                                games.PcpConstraint(0, 1, 1, 0, (0, 1, 0, 1))),
                               params={"d": 2, "T": 1})
        g = dto1.build(pcp, 0.25)
        assert g.mode == "enumerate"
        for ci in range(len(pcp.constraints)):
            members = set(map(tuple, g.constraint_edges[ci].tolist()))
            for x, y, z in itertools.product(range(4), range(16), range(16)):
                assert edge_exists(g, ci, x, y, z) == ((x, y, z) in members)

    def test_export_three_uniform(self, toy_smooth):
        h = dto1.build(toy_smooth, 0.25).to_hypergraph()
        assert h.k == 3
        assert h.total_weight == 1


class TestShatteredDecomposition:
    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=16)
        dec = shattered_decomposition(coeffs, (0, 0, 1, 1), 2, s=2)
        assert np.allclose(dec.f1 + dec.f2 + dec.f3, coeffs)
        assert np.count_nonzero(dec.f1 * dec.f2) == 0
        assert np.count_nonzero(dec.f1 * dec.f3) == 0

    def test_injective_projection_has_no_f2(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=16)
        dec = shattered_decomposition(coeffs, (0, 1, 2, 3), 4, s=3)
        assert np.allclose(dec.f2, 0.0)

    def test_s_zero_puts_everything_high(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=8)
        dec = shattered_decomposition(coeffs, (0, 0, 1), 2, s=0)
        assert np.allclose(dec.f1, coeffs)
        assert np.allclose(dec.f2, 0.0) and np.allclose(dec.f3, 0.0)

    def test_shattered_iff_projection_injective_on_set(self):
        proj = (0, 0, 1, 2)
        blocks = blocks_of(proj, 3)
        shat = shattered_mask(blocks, 4)
        for alpha in range(16):
            members = [j for j in range(4) if (alpha >> j) & 1]
            images = {proj[j] for j in members}
            assert shat[alpha] == (len(images) == len(members))

    def test_unshattered_probability_union_bound(self, toy_smooth):
        # Pr_u[alpha not shattered] <= sum over pairs of collision
        # probabilities: the counting fact behind the s/sqrt(T) lemma
        pcp = toy_smooth
        cons = pcp.constraints_between(0, 1)
        n_bits = pcp.label_sizes[0]
        for alpha in range(1 << n_bits):
            members = [j for j in range(n_bits) if (alpha >> j) & 1]
            not_shattered = 0
            pair_bound = 0.0
            for c in cons:
                images = {c.projection[j] for j in members}
                not_shattered += len(images) < len(members)
            for i, j in itertools.combinations(members, 2):
                pair_bound += sum(c.projection[i] == c.projection[j] for c in cons)
            assert not_shattered <= pair_bound + 1e-12

    def test_mean_f2_norm_bound(self, toy_smooth):
        pcp = toy_smooth
        rng = np.random.default_rng(7)
        s = 2.0
        T = pcp.params["T"]
        cons = pcp.constraints_between(0, 1)
        coeffs = rng.normal(size=1 << pcp.label_sizes[0])
        coeffs /= math.sqrt(float((coeffs**2).sum()))
        norms = [np.linalg.norm(shattered_decomposition(coeffs, c.projection,
                                                        pcp.label_sizes[1], s).f2)
                 for c in cons]
        assert float(np.mean(norms)) <= s / math.sqrt(T) + 1e-12


class TestPopcounts:
    @pytest.mark.parametrize("n_bits", range(0, 11))
    def test_matches_bin_count(self, n_bits):
        oracle = np.array([bin(m).count("1") for m in range(1 << n_bits)])
        got = dto1.popcounts(n_bits)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle)

    def test_block_hits_counts_touched_blocks(self):
        blocks = [0b0011, 0b1100]
        hits = dto1.block_hits(blocks, 4)
        oracle = [sum(1 for b in blocks if m & b) for m in range(16)]
        assert np.array_equal(hits, oracle)


class TestCrossExpectation:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        delta, r = 0.25, 2
        dist = dist_table(delta, r)
        blocks = [0b0011, 0b1100]
        M = yz_character_matrix(dist)
        for _ in range(5):
            f = rng.uniform(0, 1, size=16)
            g = rng.uniform(0, 1, size=16)
            spectral = cross_expectation(cube_spectrum(f), cube_spectrum(g), blocks, M)
            direct = enumerate_cross_expectation(f, g, blocks, dist)
            assert spectral == pytest.approx(direct, abs=1e-10)

    def test_shattered_closed_form(self):
        # E[f3(y) f3(z)] equals the (-1+eta)^|alpha| reweighting of f3
        rng = np.random.default_rng(13)
        delta, r = 0.25, 2
        eta = 2 * delta / r
        dist = dist_table(delta, r)
        proj = (0, 0, 1, 1)
        blocks = blocks_of(proj, 2)
        M = yz_character_matrix(dist)
        f = rng.uniform(0, 1, size=16)
        dec = shattered_decomposition(cube_spectrum(f), proj, 2, s=10)
        spectral = cross_expectation(dec.f3, dec.f3, blocks, M)
        pops = dto1.popcounts(4)
        closed = float((dec.f3**2 * (-1.0 + eta) ** pops).sum())
        assert spectral == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("blocks, message", [
        ([0b0011], "cover 0b11, not all 4"),
        ([0b0011, 0b0110, 0b1000], "0b110 overlaps"),
        ([0b0011, 0b1100, 0b110000], "cover 0b111111, not all 4"),
    ], ids=["bit-missing", "overlap", "bit-outside"])
    def test_blocks_must_partition_the_label_bits(self, blocks, message):
        M = yz_character_matrix(dist_table(0.25, 2))
        f = np.ones(16)
        with pytest.raises(ValueError, match=message):
            cross_expectation(f, f, blocks, M)

    def test_block_width_must_be_r(self):
        M = yz_character_matrix(dist_table(0.25, 2))
        f = np.ones(16)
        with pytest.raises(ValueError, match="has 1 bits, not r=2"):
            cross_expectation(f, f, [0b0001, 0b0110, 0b1000], M)


class TestCharacterMatrix:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("delta", [0.0, 0.25, 0.7])
    def test_matches_loop_oracle(self, r, delta):
        dist = dist_table(delta, r)
        assert np.max(np.abs(yz_character_matrix(dist) - yz_character_matrix_loop(dist))) <= 1e-12


class TestInfluenceLemmas:
    def test_square_difference_inequality_grid(self):
        grid = np.linspace(-1.0, 1.0, 17)
        for a1 in grid:
            for a2 in grid:
                lhs_row = (a1 * a2 - np.outer(grid, grid)) ** 2
                rhs_row = 2.0 * ((a1 - grid[:, None]) ** 2 + (a2 - grid[None, :]) ** 2)
                assert np.all(lhs_row <= rhs_row + 1e-12)

    def test_product_influence_at_most_four_times(self):
        # F(y, z) = f(y) f(z) on the correlated pair space, per block
        rng = np.random.default_rng(17)
        delta, r = 0.25, 1
        dist = dist_table(delta, r)
        yz = dist.joint.marginal((1, 2))
        pairs = [(ym, zm) for ym in range(2) for zm in range(2) if yz[ym, zm] > 0]
        pair_measure = [float(yz[ym, zm]) for ym, zm in pairs]
        n_blocks = 3
        pair_space = boolfn.CoordSpace(tuple(pairs), tuple(pair_measure))
        y_space = boolfn.uniform_space((0, 1))
        for _ in range(20):
            f_vals = rng.uniform(0, 1, size=(2,) * n_blocks)
            f = boolfn.ProductFn((y_space,) * n_blocks, f_vals)
            big = np.zeros((len(pairs),) * n_blocks)
            for combo in itertools.product(range(len(pairs)), repeat=n_blocks):
                ys = tuple(pairs[c][0] for c in combo)
                zs = tuple(pairs[c][1] for c in combo)
                big[combo] = f_vals[ys] * f_vals[zs]
            F = boolfn.ProductFn((pair_space,) * n_blocks, big)
            for i in range(n_blocks):
                assert boolfn.influence(F, i) <= 4.0 * boolfn.influence(f, i) + 1e-10

    def test_block_influence_at_most_r_times_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            coeffs = cube_spectrum(rng.uniform(0, 1, size=16))
            for mask in (0b0011, 0b1100, 0b0110):
                r = bin(mask).count("1")
                block = dto1.block_influence(coeffs, mask)
                fine = sum(float((coeffs**2)[(np.arange(16) >> j) & 1 == 1].sum())
                           for j in range(4) if (mask >> j) & 1)
                assert block <= r * fine + 1e-10

    def test_block_influence_matches_variance_definition(self):
        # spectrum route vs direct E[Var over the block]
        rng = np.random.default_rng(23)
        vals = rng.uniform(0, 1, size=16)
        coeffs = cube_spectrum(vals)
        mask = 0b0101
        direct = 0.0
        others = [j for j in range(4) if not (mask >> j) & 1]
        for rest in itertools.product((0, 1), repeat=len(others)):
            pts = []
            for blockbits in itertools.product((0, 1), repeat=2):
                m = 0
                for bit, j in zip(rest, others):
                    m |= bit << j
                for bit, j in zip(blockbits, [0, 2]):
                    m |= bit << j
                pts.append(float(vals[m]))
            mean = sum(pts) / 4
            direct += sum((p - mean) ** 2 for p in pts) / 4
        direct /= 2 ** len(others)
        assert dto1.block_influence(coeffs, mask) == pytest.approx(direct, abs=1e-10)

    def test_influence_gap_bound_for_good_neighbors(self):
        # premises: ||f2|| within the good bound and s large enough that the
        # high part is fully damped; then the gap obeys the stated bound
        rng = np.random.default_rng(29)
        delta, r = 0.25, 2
        proj = (0, 0, 1, 1)
        blocks = blocks_of(proj, 2)
        gamma, tau, T = 0.3, 0.5, 10**6
        s = (r / (2 * gamma)) * math.log(32 * r * r / tau)
        good_bound = (s**2 / T) ** 0.25
        for _ in range(10):
            coeffs = cube_spectrum(rng.uniform(0, 1, size=16))
            dec = shattered_decomposition(coeffs, proj, 2, s)
            f2n = float(np.sqrt((dec.f2**2).sum()))
            if f2n > good_bound:
                shrink = 0.9 * good_bound / f2n
                coeffs = dec.f1 + shrink * dec.f2 + dec.f3
            inf_bar = dto1.block_noisy_influences(coeffs, gamma, blocks)
            inf_plain = dto1.noisy_influences(coeffs, gamma)
            bound = 2.0 * good_bound + tau / (16 * r * r)
            assert float(np.max(np.abs(inf_bar - inf_plain))) <= bound + 1e-10

    def test_decomposition_gap_lemmas(self):
        # both displayed inequalities with nu = (1-eta)^(s/r)
        rng = np.random.default_rng(31)
        delta, r = 0.25, 2
        eta = 2 * delta / r
        dist = dist_table(delta, r)
        proj = (0, 0, 1, 1)
        blocks = blocks_of(proj, 2)
        M = yz_character_matrix(dist)
        s = 3.0
        nu = (1 - eta) ** (s / r)
        pops = dto1.popcounts(4)
        for _ in range(10):
            coeffs = cube_spectrum(rng.uniform(0, 1, size=16))
            dec = shattered_decomposition(coeffs, proj, 2, s)
            f2_norm = float(np.sqrt((dec.f2**2).sum()))
            noise_full = float((coeffs**2 * (eta - 1.0) ** pops).sum())
            noise_f3 = float((dec.f3**2 * (eta - 1.0) ** pops).sum())
            assert abs(noise_full - noise_f3) <= 2 * f2_norm + 2 * nu + 1e-10
            pair_full = cross_expectation(coeffs, coeffs, blocks, M)
            pair_f3 = cross_expectation(dec.f3, dec.f3, blocks, M)
            assert abs(pair_full - pair_f3) <= 2 * f2_norm + 2 * nu + 1e-10


class TestDecode:
    def dictator_indicators(self, pcp):
        out = {}
        for l in range(pcp.layers):
            for v in range(pcp.var_counts[l]):
                j = pcp.planted_labeling[l][v]
                masks = np.arange(1 << pcp.label_sizes[l])
                out[(l, v)] = (((masks >> j) & 1) == 0).astype(float)
        return out

    def test_dictators_recover_planted_labeling(self, toy_smooth):
        pcp = toy_smooth
        params = DecodeParams(delta=0.25, eps=0.5, gamma=0.05,
                              tau=1e-4, s=3.0, T=1)
        res = dto1.decode(self.dictator_indicators(pcp), pcp, params, seed=1)
        assert res.outcome == "ok"
        assert res.satisfied_fraction == 1
        assert res.satisfied_fraction_all == 1
        for (l, v), label in res.labels_v.items():
            assert label == pcp.planted_labeling[l][v]
        for (l, u), label in res.labels_u.items():
            assert label == pcp.planted_labeling[l][u]

    def test_gamma_zero_keeps_raw_influences(self):
        rng = np.random.default_rng(37)
        coeffs = cube_spectrum(rng.uniform(0, 1, size=16))
        raw = dto1.noisy_influences(coeffs, 0.0)
        for i in range(4):
            masks = np.arange(16)
            direct = float((coeffs**2)[(masks >> i) & 1 == 1].sum())
            assert raw[i] == pytest.approx(direct, abs=1e-12)

    def test_constant_indicators_report_no_influence(self, toy_smooth):
        pcp = toy_smooth
        params = DecodeParams(delta=0.25, eps=0.5, gamma=0.05,
                              tau=1e-4, s=3.0, T=1)
        flat = {
            (l, v): np.full(1 << pcp.label_sizes[l], 0.5)
            for l in range(pcp.layers) for v in range(pcp.var_counts[l])
        }
        res = dto1.decode(flat, pcp, params, seed=0)
        assert res.outcome == "no_influential_coordinates"

    def test_no_heavy_variables(self, toy_smooth):
        pcp = toy_smooth
        params = DecodeParams(delta=0.25, eps=0.5, gamma=0.05,
                              tau=1e-4, s=3.0, T=1)
        tiny = {
            (l, v): np.full(1 << pcp.label_sizes[l], 0.01)
            for l in range(pcp.layers) for v in range(pcp.var_counts[l])
        }
        with pytest.raises(ValueError, match="^no heavy variables at threshold 0.25$"):
            dto1.decode(tiny, pcp, params, seed=0)

    def test_pair_expectation_diagnostics(self, toy_smooth):
        pcp = toy_smooth
        params = DecodeParams(delta=0.25, eps=0.5, gamma=0.05,
                              tau=1e-4, s=3.0, T=1)
        res = dto1.decode(self.dictator_indicators(pcp), pcp, params, seed=2)
        assert res.diagnostics["pairs"]
        for pair in res.diagnostics["pairs"]:
            assert pair["pair_expectation"] >= pair["pair_floor"] - 1e-9
            assert pair["influence_gap"] <= pair["influence_gap_bound"] + 1e-9

    def test_eta_rule(self):
        params = DecodeParams(delta=0.3, eps=0.5, gamma=0.05,
                              tau=1e-4, s=3.0, T=2)
        assert params.eta(2) == pytest.approx(0.3)
        assert params.eta(3) == pytest.approx(0.2)

    @pytest.mark.parametrize("field, value, rule", [
        ("gamma", float("nan"), "in [0, 1]"), ("gamma", 1.5, "in [0, 1]"),
        ("gamma", -1.0, "in [0, 1]"), ("tau", float("nan"), "finite and >= 0"),
        ("tau", float("inf"), "finite and >= 0"), ("tau", -1e-9, "finite and >= 0"),
        ("s", float("nan"), ">= 0"), ("s", -1.0, ">= 0"),
        ("delta", float("nan"), "a number"), ("eps", float("nan"), "a number"),
        ("T", 0, ">= 1"),
    ])
    def test_params_refuse_meaningless_values(self, field, value, rule):
        fields = dict(delta=0.25, eps=0.5, gamma=0.05, tau=1e-4, s=3.0, T=1)
        with pytest.raises(ValueError, match=rf"^{field} must be {re.escape(rule)}, got"):
            DecodeParams(**{**fields, field: value})

    def test_params_take_their_boundary_values(self):
        DecodeParams(delta=0.0, eps=1.0, gamma=0.0, tau=0.0, s=0.0, T=1)
        DecodeParams(delta=1.0, eps=0.5, gamma=1.0, tau=1e300, s=float("inf"), T=1)


class TestDecodePasses:
    """decode in whole-array passes (one spectrum stack per layer, one pass
    per distinct projection) against the per-constraint reference."""

    PARAMS = dict(delta=0.25, eps=0.5, gamma=0.05, tau=1e-4, s=3.0)

    @staticmethod
    def outcome(decoder, *args, **kwargs):
        try:
            res = decoder(*args, **kwargs)
        except ValueError as exc:
            return type(exc), str(exc)
        return (res.outcome, res.layer_pair, res.r, res.labels_v, res.labels_u,
                res.satisfied_fraction, res.satisfied_fraction_all, res.good_neighbors,
                res.diagnostics)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distinct=st.booleans(),
           kind=st.sampled_from(["dictator", "uniform", "bits"]),
           delta=st.sampled_from([0.1, 0.25, 0.4]), eps=st.sampled_from([0.3, 0.5, 0.9]),
           gamma=st.sampled_from([0.0, 0.05, 0.3, 1.0]), tau=st.sampled_from([0.0, 1e-4, 0.01, 0.2]),
           s=st.sampled_from([0.0, 2.0, 3.0, 5.0]))
    @example(seed=0, distinct=False, kind="dictator", delta=0.25, eps=0.5, gamma=0.05, tau=1e-4, s=3.0)
    @example(seed=1, distinct=True, kind="dictator", delta=0.25, eps=0.5, gamma=0.05, tau=1e-4, s=2.0)
    def test_matches_the_per_constraint_reference(self, seed, distinct, kind, delta, eps, gamma, tau, s):
        # every field, the diagnostics' floats bit for bit
        rnd = random.Random(seed)
        pcp = random_smooth_pcp(rnd, distinct)
        indicators = random_indicators(pcp, kind, np.random.default_rng(seed))
        params = DecodeParams(delta, eps, gamma, tau, s, pcp.params["T"])
        want = self.outcome(decode_per_constraint, indicators, pcp, params, seed=seed)
        assert self.outcome(dto1.decode, indicators, pcp, params, seed=seed) == want

    @pytest.mark.parametrize("kind", ["dictator", "uniform", "bits"])
    def test_matches_the_reference_on_the_toy_smooth_pcp(self, toy_smooth, kind):
        # a built smooth PCP: several variables share each projection
        assert len({(c.v, c.projection) for c in toy_smooth.constraints}) < len(toy_smooth.constraints)
        indicators = random_indicators(toy_smooth, kind, np.random.default_rng(3))
        params = DecodeParams(**self.PARAMS, T=toy_smooth.params["T"])
        for seed in range(3):
            want = self.outcome(decode_per_constraint, indicators, toy_smooth, params, seed=seed)
            assert want[0] in ("ok", "no_influential_coordinates")
            assert self.outcome(dto1.decode, indicators, toy_smooth, params, seed=seed) == want

    def test_wrong_length_indicator_is_named(self, toy_smooth):
        indicators = random_indicators(toy_smooth, "dictator", np.random.default_rng(4))
        indicators[(1, 2)] = indicators[(1, 2)][:-1]
        indicators[(1, 4)] = np.zeros((2, 8))
        params = DecodeParams(**self.PARAMS, T=1)
        with pytest.raises(ValueError, match=r"^indicator \(1, 2\) has shape \(15,\), not 2\*\*4 entries$"):
            dto1.decode(indicators, toy_smooth, params)

    def test_first_out_of_range_indicator_is_named(self, toy_smooth):
        # in the caller's order, across layers
        indicators = dict(reversed(random_indicators(toy_smooth, "uniform",
                                                     np.random.default_rng(5)).items()))
        indicators[(1, 3)][0] = 1.5
        indicators[(0, 0)][3] = float("nan")
        params = DecodeParams(**self.PARAMS, T=1)
        for decoder in (dto1.decode, decode_per_constraint):
            with pytest.raises(ValueError, match=r"^indicator \(1, 3\) is not \[0, 1\]-valued$"):
                decoder(indicators, toy_smooth, params)

    def test_a_twenty_bit_variable_holds_a_few_tables(self):
        # one layer-0 variable at n = 20 under four constraints of three
        # projections: no per-constraint or per-block stack of 2^n tables
        n, targets = 20, 10
        rnd = random.Random(3)
        projections = [exact_projection(2, targets, rnd) for _ in range(3)]
        pcp = games.LayeredPcp(2, (1, 4), (n, targets),
                               tuple(games.PcpConstraint(0, 1, 0, u, projections[min(u, 2)])
                                     for u in range(4)), params={"d": 2, "T": 1})
        rng = np.random.default_rng(0)
        indicators = {(0, 0): 0.7 * ((np.arange(1 << n) >> 3) & 1) + 0.3 * rng.random(1 << n)}
        indicators.update({(1, u): 0.7 * ((np.arange(1 << targets) >> 1) & 1)
                           + 0.3 * rng.random(1 << targets) for u in range(4)})
        tracemalloc.start()
        try:
            res = dto1.decode(indicators, pcp, DecodeParams(**self.PARAMS, T=1), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.outcome == "ok" and len(res.diagnostics["pairs"]) == 4
        assert 8 << n <= peak < 6 * 8 << n  # six 2^n float64 tables
