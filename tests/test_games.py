"""Max-3Lin, block games, layered PCPs, and the smooth construction."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from gadgetlab import dto1, games, longcode
from gadgetlab.games import (Dto1Game, EquationBlock, LayeredPcp, Lin3Instance,
                             PcpConstraint, VariableBlock)


def count_satisfied(pcp: LayeredPcp, labeling) -> dict:
    """Independent counting oracle for evaluate_pcp_labeling."""
    out = {}
    for c in pcp.constraints:
        sat, tot = out.setdefault((c.from_layer, c.to_layer), [0, 0])
        out[(c.from_layer, c.to_layer)] = [
            sat + (c.projection[labeling[c.from_layer][c.v]] == labeling[c.to_layer][c.u]),
            tot + 1,
        ]
    return {k: Fraction(s, t) for k, (s, t) in out.items()}


class TestEvaluateLin:
    def test_all_zero_on_homogeneous(self):
        inst = Lin3Instance(4, ((0, 1, 2, 0), (1, 2, 3, 0)))
        assert games.evaluate_lin(inst, [0, 0, 0, 0]) == 1

    def test_single_equation(self):
        inst = Lin3Instance(3, ((0, 1, 2, 1),))
        assert games.evaluate_lin(inst, [1, 0, 0]) == 1
        assert games.evaluate_lin(inst, [0, 0, 0]) == 0

    def test_exact_fraction(self):
        inst = Lin3Instance(4, ((0, 1, 2, 0), (0, 1, 3, 1), (1, 2, 3, 1)))
        assert games.evaluate_lin(inst, [0, 0, 0, 0]) == Fraction(1, 3)

    def test_length_checked(self):
        inst = Lin3Instance(3, ((0, 1, 2, 0),))
        with pytest.raises(ValueError):
            games.evaluate_lin(inst, [0, 1])


class TestSampleRound:
    def test_r1_shape(self):
        inst, _ = games.gen_3lin(9, 9, 0)
        block, picks = games.sample_round(inst, 1, 3)
        i, j, k, _ = inst.equations[block.eq_ids[0]]
        assert picks.var_ids[0] in (i, j, k)
        assert block.var_order == (i, j, k)

    def test_deterministic_under_seed(self):
        inst, _ = games.gen_3lin(12, 12, 1)
        a = games.sample_round(inst, 2, 99)
        b = games.sample_round(inst, 2, 99)
        assert (a[0].eq_ids, a[1].var_ids) == (b[0].eq_ids, b[1].var_ids)

    def test_rejection_exhaustion(self):
        inst = Lin3Instance(3, ((0, 1, 2, 0),))
        with pytest.raises(games.RejectionBudgetError):
            games.sample_round(inst, 2, 0, budget=500)

    def test_blocks_have_distinct_variables(self):
        inst, _ = games.gen_3lin(15, 20, 2)
        for seed in range(20):
            block, picks = games.sample_round(inst, 3, seed)
            assert len(set(block.var_order)) == 9
            assert len(set(picks.var_ids)) == 3


class TestBlockGeometry:
    def test_r1_inhomogeneous(self):
        inst = Lin3Instance(3, ((0, 1, 2, 1),))
        block = EquationBlock.from_instance(inst, (0,))
        geom = games.block_geometry(block, VariableBlock(1, (0,)), inst)
        assert geom.h[0].coords == (1, 1, 1, 1)

    def test_r1_homogeneous(self):
        inst = Lin3Instance(3, ((0, 1, 2, 0),))
        block = EquationBlock.from_instance(inst, (0,))
        geom = games.block_geometry(block, VariableBlock(1, (1,)), inst)
        assert geom.h[0].coords == (1, 1, 1, 0)

    def test_h_w_is_extra_coordinate(self):
        inst, _ = games.gen_3lin(12, 12, 5)
        for r in (1, 2, 3):
            block, picks = games.sample_round(inst, r, r)
            geom = games.block_geometry(block, picks, inst)
            assert geom.h_w.bits == 1 << (3 * r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_h_independent_dim_r(self, r):
        inst, _ = games.gen_3lin(14, 18, 8)
        for seed in range(10):
            block, picks = games.sample_round(inst, r, seed)
            geom = games.block_geometry(block, picks, inst)
            assert geom.subspace.dim == r

    def test_projection_section(self):
        inst, _ = games.gen_3lin(12, 12, 4)
        block, picks = games.sample_round(inst, 2, 0)
        geom = games.block_geometry(block, picks, inst)
        for z in range(4):
            assert geom.project_bits(geom.lift_bits(z)) == z

    def test_inconsistent_picks_rejected(self):
        inst = Lin3Instance(6, ((0, 1, 2, 0), (3, 4, 5, 1)))
        block = EquationBlock.from_instance(inst, (0, 1))
        with pytest.raises(ValueError, match="not in equation"):
            games.block_geometry(block, VariableBlock(2, (0, 1)), inst)


class TestTwoProverConsistency:
    def test_global_assignment_passes_when_block_good(self):
        inst, sigma = games.gen_3lin(12, 14, 9)
        for seed in range(25):
            block, picks = games.sample_round(inst, 2, seed)
            w_answer = [sigma[v] for v in block.var_order]
            u_answer = [sigma[v] for v in picks.var_ids]
            assert games.verifier_accepts(block, picks, w_answer, u_answer)

    def test_violated_equation_rejected(self):
        inst = Lin3Instance(3, ((0, 1, 2, 1),))
        block = EquationBlock.from_instance(inst, (0,))
        picks = VariableBlock(1, (0,))
        assert not games.verifier_accepts(block, picks, [0, 0, 0], [0])

    def test_inconsistent_u_rejected(self):
        inst = Lin3Instance(3, ((0, 1, 2, 1),))
        block = EquationBlock.from_instance(inst, (0,))
        picks = VariableBlock(1, (0,))
        assert not games.verifier_accepts(block, picks, [1, 0, 0], [0])


class TestSmoothMlpcp:
    def test_layer_shapes_l2_t1(self):
        game = games.gen_toy_dto1_game(2, 3, 1, 2, 0)
        pcp = games.build_smooth_mlpcp(game, 2, 1)
        # layer 0 holds 3 V-variables, layer 1 holds 2 V-variables + 1 U-variable
        assert pcp.label_sizes == (game.m**3, game.m**2 * game.k)
        assert pcp.var_counts == (1, 6)

    def test_label_counts_match_tuple_counting(self):
        game = games.gen_toy_dto1_game(2, 5, 2, 2, 1)
        pcp = games.build_smooth_mlpcp(game, 2, 1)
        for l in range(2):
            n_v = 1 * 2 + 2 - 1 - l
            n_u = l
            assert pcp.label_sizes[l] == game.m**n_v * game.k**n_u

    def test_preimage_law_holds_everywhere(self):
        game = games.gen_toy_dto1_game(2, 5, 1, 2, 3)
        pcp = games.build_smooth_mlpcp(game, 3, 1)
        d = pcp.params["d"]
        for c in pcp.constraints:
            gap = c.to_layer - c.from_layer
            counts = [0] * pcp.label_sizes[c.to_layer]
            for t in c.projection:
                counts[t] += 1
            assert set(counts) == {d**gap}

    def test_planted_labeling_satisfies_everything(self):
        game = games.gen_toy_dto1_game(2, 5, 1, 2, 4)
        pcp = games.build_smooth_mlpcp(game, 2, 2)
        fractions = games.evaluate_pcp_labeling(pcp, pcp.planted_labeling)
        assert fractions and all(f == 1 for f in fractions.values())

    def test_label_cap(self):
        game = games.gen_toy_dto1_game(2, 8, 2, 2, 5)
        with pytest.raises(games.SizeCapError):
            games.build_smooth_mlpcp(game, 2, 2, label_cap=10**3)


def _mixed_radix_encode(digits, radices) -> int:
    idx = 0
    for dgt, rad in zip(digits, radices):
        idx = idx * rad + dgt
    return idx


def _mixed_radix_decode(idx: int, radices) -> list[int]:
    out = [0] * len(radices)
    for t in range(len(radices) - 1, -1, -1):
        out[t] = idx % radices[t]
        idx //= radices[t]
    return out


def reference_smooth_tables(game: Dto1Game, layers: int, T: int):
    """The per-label mixed-radix build of build_smooth_mlpcp: its
    constraints in build order and its planted labels."""
    n_vside = [T * layers + layers - 1 - l for l in range(layers)]
    adjacency = {(v, u): proj for v, u, proj in game.constraints}
    layer_vars = [[(vset, uset)
                   for vset in itertools.combinations(range(game.n_v), n_vside[l])
                   for uset in itertools.combinations(range(game.n_u), l)]
                  for l in range(layers)]
    var_index = [{vu: i for i, vu in enumerate(vs)} for vs in layer_vars]

    def radices(vset, uset):
        return [game.m] * len(vset) + [game.k] * len(uset)

    constraints = []
    for l in range(layers):
        for l2 in range(l + 1, layers):
            gap = l2 - l
            for vi, (vset, uset) in enumerate(layer_vars[l]):
                for removed in itertools.combinations(vset, gap):
                    kept_v = tuple(q for q in vset if q not in removed)
                    for added in itertools.permutations(range(game.n_u), gap):
                        if any(p in uset for p in added):
                            continue
                        if any((q, p) not in adjacency for q, p in zip(removed, added)):
                            continue
                        uset2 = tuple(sorted(uset + added))
                        ui = var_index[l2].get((kept_v, uset2))
                        if ui is None:
                            continue
                        rad_src, rad_dst = radices(vset, uset), radices(kept_v, uset2)
                        dst_slot_of = {q: t for t, q in enumerate(kept_v)}
                        dst_u_slot = {p: len(kept_v) + t for t, p in enumerate(uset2)}
                        pair_u = dict(zip(removed, added))
                        proj_table = []
                        for src_label in range(math.prod(rad_src)):
                            digits = _mixed_radix_decode(src_label, rad_src)
                            dst_digits = [0] * len(rad_dst)
                            for t, q in enumerate(vset):
                                if q in pair_u:
                                    p = pair_u[q]
                                    dst_digits[dst_u_slot[p]] = adjacency[(q, p)][digits[t]]
                                else:
                                    dst_digits[dst_slot_of[q]] = digits[t]
                            for t, p in enumerate(uset):
                                dst_digits[dst_u_slot[p]] = digits[len(vset) + t]
                            proj_table.append(_mixed_radix_encode(dst_digits, rad_dst))
                        c = PcpConstraint(l, l2, vi, ui, tuple(proj_table))
                        if c not in constraints:
                            constraints.append(c)
    u_labels, v_labels = game.planted
    planted = tuple(
        tuple(_mixed_radix_encode([v_labels[q] for q in vset] + [u_labels[p] for p in uset],
                                  radices(vset, uset))
              for vset, uset in layer_vars[l])
        for l in range(layers))
    return tuple(constraints), planted


class TestSmoothTablesReference:
    @pytest.mark.parametrize("u, v, k, d, layers, T, seed", [
        (1, 3, 1, 2, 2, 1, 0), (3, 5, 1, 2, 2, 1, 1), (3, 3, 2, 2, 2, 1, 2),
        (2, 4, 1, 3, 2, 1, 3), (2, 7, 1, 2, 3, 1, 4), (2, 6, 2, 2, 2, 2, 5),
    ])
    def test_tables_and_planted_labels_match_the_loop(self, u, v, k, d, layers, T, seed):
        game = games.gen_toy_dto1_game(u, v, k, d, seed)
        pcp = games.build_smooth_mlpcp(game, layers, T)
        constraints, planted = reference_smooth_tables(game, layers, T)
        assert pcp.constraints == constraints
        assert pcp.planted_labeling == planted


class TestSmoothness:
    def test_injective_projections_give_zero(self):
        game = games.gen_toy_dto1_game(2, 3, 2, 1, 6)  # d=1: all projections bijective
        pcp = games.build_smooth_mlpcp(game, 2, 1)
        assert games.check_smoothness(pcp)["max_collision"] == 0.0

    def test_appendix_build_meets_bound(self):
        for T in (1, 2):
            game = games.gen_toy_dto1_game(2, 2 * T + 3, 1, 2, T)
            pcp = games.build_smooth_mlpcp(game, 2, T)
            res = games.check_smoothness(pcp)
            assert res["ok"] and res["max_collision"] <= 1.0 / T

    def test_single_neighbor_with_collision_hits_one(self):
        pcp = LayeredPcp(2, (1, 1), (3, 2), (PcpConstraint(0, 1, 0, 0, (0, 0, 1)),),
                         params={"d": 1, "T": 2})
        res = games.check_smoothness(pcp)
        assert res["max_collision"] == 1.0
        assert not res["ok"]

    def test_variable_without_neighbors_reported(self):
        pcp = LayeredPcp(2, (2, 1), (2, 2), (PcpConstraint(0, 1, 0, 0, (0, 1)),),
                         params={"d": 1, "T": 1})
        res = games.check_smoothness(pcp)
        assert (0, 1, 1) in res["skipped"]


class TestWeakDensity:
    def test_full_layers_give_fraction_one(self):
        pcp = games.gen_toy_mlpcp(3, 3, 2, 0)
        sets = {l: set(range(3)) for l in range(3)}
        res = games.check_weak_density(pcp, sets, delta=0.5)
        assert all(f == 1 for f in res["per_pair"].values())
        assert res["meets_bound"]

    def test_guarantee_on_random_sets(self):
        rng = random.Random(12)
        pcp = games.gen_toy_mlpcp(4, 8, 2, 1)
        delta = 0.5
        for _ in range(10):
            sets = {l: set(rng.sample(range(8), 4)) for l in range(4)}
            res = games.check_weak_density(pcp, sets, delta)
            assert res["hypothesis_met"]
            assert res["best_fraction"] >= Fraction(1, 16)  # delta^2 / 4

    def test_zero_cross_constraints(self):
        pcp = LayeredPcp(2, (2, 2), (2, 2),
                         (PcpConstraint(0, 1, 0, 0, (0, 1)),), params=None)
        res = games.check_weak_density(pcp, {0: {1}, 1: {1}}, delta=0.5)
        assert res["best_fraction"] == 0
        assert not res["hypothesis_met"]  # |S| = 1 < delta * 2 needs 2 layers... sets too small

    def test_empty_set_rejected(self):
        pcp = games.gen_toy_mlpcp(2, 2, 2, 3)
        with pytest.raises(ValueError, match="empty set"):
            games.check_weak_density(pcp, {0: set(), 1: {0}}, 0.5)

    @pytest.mark.parametrize("delta", [0, 0.0, -0.5])
    def test_non_positive_threshold_rejected(self, delta):
        # ceil(2 / delta) would divide by zero or count negative layers
        pcp = games.gen_toy_mlpcp(2, 2, 2, 3)
        with pytest.raises(ValueError, match="must be positive"):
            games.check_weak_density(pcp, {0: {0}, 1: {0}}, delta)


class TestEvaluateLabeling:
    def test_planted_satisfies(self):
        pcp = games.gen_toy_mlpcp(3, 4, 3, 7)
        fractions = games.evaluate_pcp_labeling(pcp, pcp.planted_labeling)
        assert all(f == 1 for f in fractions.values())

    def test_adversarial_matches_counting_oracle(self):
        rng = random.Random(21)
        pcp = games.gen_toy_mlpcp(3, 4, 3, 13, density=0.7)
        for _ in range(5):
            labeling = [[rng.randrange(pcp.label_sizes[l]) for _ in range(pcp.var_counts[l])]
                        for l in range(pcp.layers)]
            assert games.evaluate_pcp_labeling(pcp, labeling) == count_satisfied(pcp, labeling)

    def test_pair_without_constraints_absent(self):
        pcp = LayeredPcp(3, (1, 1, 1), (2, 2, 2),
                         (PcpConstraint(0, 1, 0, 0, (0, 1)),), params=None)
        fractions = games.evaluate_pcp_labeling(pcp, [[0], [0], [0]])
        assert (0, 2) not in fractions and (1, 2) not in fractions

    def test_missing_label_raises(self):
        pcp = games.gen_toy_mlpcp(2, 2, 2, 3)
        labeling = [[None, 0], [0, 0]]
        with pytest.raises(ValueError, match="missing label"):
            games.evaluate_pcp_labeling(pcp, labeling)

    def test_invariant_under_consistent_relabeling(self):
        rng = random.Random(31)
        pcp = games.gen_toy_mlpcp(2, 3, 3, 17)
        perms = [list(rng.sample(range(s), s)) for s in pcp.label_sizes]
        inv = [sorted(range(len(p)), key=lambda i: p[i]) for p in perms]
        relabeled = LayeredPcp(
            pcp.layers, pcp.var_counts, pcp.label_sizes,
            tuple(
                PcpConstraint(c.from_layer, c.to_layer, c.v, c.u,
                              tuple(perms[c.to_layer][c.projection[inv[c.from_layer][j]]]
                                    for j in range(pcp.label_sizes[c.from_layer])))
                for c in pcp.constraints
            ), params=None)
        for _ in range(5):
            labeling = [[rng.randrange(pcp.label_sizes[l]) for _ in range(pcp.var_counts[l])]
                        for l in range(pcp.layers)]
            mapped = [[perms[l][x] for x in labeling[l]] for l in range(pcp.layers)]
            assert (games.evaluate_pcp_labeling(pcp, labeling)
                    == games.evaluate_pcp_labeling(relabeled, mapped))


class TestDto1Game:
    def test_exact_preimages_enforced(self):
        with pytest.raises(ValueError, match="not exactly d-to-1"):
            Dto1Game(1, 2, 2, 1, 1, ((0, 0, (0, 0)),))

    def test_non_bi_regular_rejected(self):
        proj = (0, 1)
        with pytest.raises(ValueError, match="bi-regular"):
            Dto1Game(1, 2, 2, 2, 2, ((0, 0, proj), (1, 0, proj), (1, 1, proj)))

    def test_planted_validated(self):
        game = games.gen_toy_dto1_game(3, 4, 2, 2, 11)
        u_labels, v_labels = game.planted
        for v, u, proj in game.constraints:
            assert proj[v_labels[v]] == u_labels[u]

    def test_round_robin_degree(self):
        game = games.gen_toy_dto1_game(2, 4, 1, 2, 13, degree=1)
        v_deg = [0] * 4
        u_deg = [0] * 2
        for v, u, _ in game.constraints:
            v_deg[v] += 1
            u_deg[u] += 1
        assert set(v_deg) == {1} and set(u_deg) == {2}


class TestJsonRoundTrips:
    def test_lin3(self):
        inst, _ = games.gen_3lin(9, 9, 3)
        assert Lin3Instance.from_json_dict(inst.to_json_dict()) == inst

    def test_game(self):
        game = games.gen_toy_dto1_game(2, 3, 2, 2, 5)
        assert Dto1Game.from_json_dict(game.to_json_dict()) == game

    def test_pcp(self):
        game = games.gen_toy_dto1_game(2, 3, 1, 2, 5)
        pcp = games.build_smooth_mlpcp(game, 2, 1)
        again = LayeredPcp.from_json_dict(pcp.to_json_dict())
        assert again == pcp

    def test_plain_pcp(self):
        pcp = games.gen_toy_mlpcp(3, 3, 2, 19, density=0.8)
        assert LayeredPcp.from_json_dict(pcp.to_json_dict()) == pcp


class TestAsRng:
    def test_int_seeds_a_fresh_stream_and_random_passes_through(self):
        from gadgetlab.seeding import as_rng
        assert [as_rng(9).random() for _ in range(3)] == [random.Random(9).random()] * 3
        rng = random.Random(4)
        assert as_rng(rng) is rng


def reference_export_edges(gadget: games.PcpGadget) -> list[tuple[int, int, int]]:
    """The set-of-sorted-tuples export: every materialised rule hit plus its
    constraint's offsets, each sorted, each once, in sorted order."""
    edges = set()
    for ci, c in enumerate(gadget.pcp.constraints):
        ou = gadget.offsets[(c.to_layer, c.u)]
        ov = gadget.offsets[(c.from_layer, c.v)]
        for x, y, z in gadget.constraint_edges[ci]:
            edges.add(tuple(sorted((ou + x, ov + y, ov + z))))
    return sorted(edges)


class TestPcpGadgetExport:
    @pytest.mark.parametrize("layers, vars_per_layer, sizes, seed", [
        (2, 2, 3, 7), (2, 1, 2, 0), (3, 2, (2, 3, 2), 4), (2, 3, 2, 9),
    ])
    def test_longcode_matches_the_set_reference(self, layers, vars_per_layer, sizes, seed):
        pcp = games.gen_toy_mlpcp(layers, vars_per_layer, sizes, seed)
        gadget = longcode.build(pcp, Fraction(1, 10))
        h = gadget.to_hypergraph()
        assert [tuple(e) for e in h.edges.tolist()] == reference_export_edges(gadget)
        assert h.vertices == tuple(range(gadget.vertex_count))

    @pytest.mark.parametrize("u, v, seed", [(1, 3, 1), (2, 3, 5)])
    def test_dto1_matches_the_set_reference(self, u, v, seed):
        pcp = games.build_smooth_mlpcp(games.gen_toy_dto1_game(u, v, 1, 2, seed), 2, 1)
        gadget = dto1.build(pcp, 0.25)
        h = gadget.to_hypergraph()
        assert [tuple(e) for e in h.edges.tolist()] == reference_export_edges(gadget)
