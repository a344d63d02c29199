"""Biased long-code gadget: build, YES partition, decoding, set lemma."""
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import games, longcode, ternary
from gadgetlab.games import LayeredPcp, PcpConstraint


@pytest.fixture(scope="module")
def toy():
    pcp = games.gen_toy_mlpcp(2, 2, 3, 7)
    gadget = longcode.build(pcp, Fraction(1, 10))
    return pcp, gadget


def dictator_class(gadget: longcode.LongCodeGadget, sigma, digit: int) -> set[int]:
    """All vertices whose coordinate named by sigma carries the digit."""
    out = set()
    pcp = gadget.pcp
    for l in range(pcp.layers):
        for v in range(pcp.var_counts[l]):
            for pt in range(3 ** pcp.label_sizes[l]):
                if ternary.point_digits(pt, pcp.label_sizes[l])[sigma[l][v]] == digit:
                    out.add(gadget.vertex_id(l, v, pt))
    return out


def all_constraint_tuples(gadget: longcode.LongCodeGadget):
    """3-uniform edges plus degenerate pair constraints (y == z), as vertex
    tuples."""
    out = []
    for ci, c in enumerate(gadget.pcp.constraints):
        for x, y, z in gadget.constraint_edges[ci].tolist():
            out.append((
                gadget.vertex_id(c.to_layer, c.u, x),
                gadget.vertex_id(c.from_layer, c.v, y),
                gadget.vertex_id(c.from_layer, c.v, z),
            ))
    return out


def greedy_independent(gadget: longcode.LongCodeGadget, rng: random.Random) -> set[int]:
    ids = list(range(gadget.vertex_count))
    rng.shuffle(ids)
    chosen: set[int] = set()
    by_vertex: dict[int, list[tuple[int, ...]]] = {}
    for e in all_constraint_tuples(gadget):
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    for vid in ids:
        chosen.add(vid)
        if any(all(u in chosen for u in e) for e in by_vertex.get(vid, ())):
            chosen.remove(vid)
    return chosen


def is_independent(gadget: longcode.LongCodeGadget, vertex_set: set[int]) -> bool:
    return not any(all(v in vertex_set for v in e)
                   for e in all_constraint_tuples(gadget))


def max_disjoint_recursive(sets: list[frozenset]) -> list[int]:
    """Reference: the recursive search that the explicit-stack
    `longcode._max_disjoint` replaced, kept as it was."""
    best: list[int] = []

    def dfs(idx: int, used: frozenset, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(sets) or len(chosen) + (len(sets) - idx) <= len(best):
            return
        if not (sets[idx] & used):
            chosen.append(idx)
            dfs(idx + 1, used | sets[idx], chosen)
            chosen.pop()
        dfs(idx + 1, used, chosen)

    dfs(0, frozenset(), [])
    return best


def frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestBuild:
    def test_layer_weights_are_one_over_l(self, toy):
        pcp, g = toy
        for l in range(pcp.layers):
            total = sum(
                g.vertex_weight(l, v, pt)
                for v in range(pcp.var_counts[l])
                for pt in range(3 ** pcp.label_sizes[l])
            )
            assert total == Fraction(1, pcp.layers)

    @settings(max_examples=40, deadline=None)
    @given(layers=st.integers(2, 3), counts=st.lists(st.integers(1, 3), min_size=3, max_size=3),
           sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3), seed=st.integers(0, 2**16),
           eps=st.fractions(Fraction(1, 100), Fraction(99, 100)))
    def test_point_weights_are_the_vertex_weights(self, layers, counts, sizes, seed, eps):
        # one Fraction per layer and star count, against one power chain per vertex
        sizes = sorted(sizes[:layers], reverse=True)
        pcp = games.gen_toy_mlpcp(layers, counts[:layers], sizes, seed)
        g = longcode.build(pcp, eps)
        assert g.point_weights() == [g.vertex_weight(l, v, pt) for l, v in g.offsets
                                     for pt in range(3 ** pcp.label_sizes[l])]

    def test_single_constraint_support_matches_triple_scan(self):
        # |R_l| = |R_l2| = 1: compare against scanning all 27 digit triples
        pcp = LayeredPcp(2, (1, 1), (1, 1), (PcpConstraint(0, 1, 0, 0, (0,)),))
        g = longcode.build(pcp, Fraction(1, 5))
        got = set(map(tuple, g.constraint_edges[0].tolist()))
        expect = set()
        for x, y, z in itertools.product(range(3), repeat=3):
            if (x, y, z) in ((1, 1, 1), (2, 2, 2)):
                continue
            expect.add((x, y, z))
        assert got == expect

    def test_matched_all_ones_is_not_an_edge(self, toy):
        pcp, g = toy
        for ci, c in enumerate(pcp.constraints):
            m = pcp.label_sizes[c.from_layer]
            all_one_big = ternary.point_index([1] * m)
            all_one_small = ternary.point_index([1] * pcp.label_sizes[c.to_layer])
            assert not g.edge_exists(ci, all_one_small, all_one_big, all_one_big)
            assert (all_one_small, all_one_big, all_one_big) not in set(
                map(tuple, g.constraint_edges[ci].tolist()))

    def test_size_cap(self):
        pcp = games.gen_toy_mlpcp(2, 500, 10, 0, density=0.01)
        with pytest.raises(ValueError, match="cap"):
            longcode.build(pcp, Fraction(1, 10))

    def test_rule_mode_above_label_cap(self):
        pcp = games.gen_toy_mlpcp(2, 1, 5, 1)
        g = longcode.build(pcp, Fraction(1, 10))
        assert g.mode == "rule"
        assert g.edge_exists(0, 0, ternary.point_index([0] * 5),
                             ternary.point_index([1] * 5))

    def test_export_is_three_uniform_with_exact_weights(self, toy):
        pcp, g = toy
        h = g.to_hypergraph()
        assert h.k == 3
        assert h.total_weight == 1
        for e in h.edges:
            assert len(set(e)) == 3


class TestYesPartition:
    def test_planted_weights_and_certificate(self, toy):
        pcp, g = toy
        res = longcode.yes_partition(g, pcp.planted_labeling)
        eps = Fraction(1, 10)
        assert res.weights == ((1 - eps) / 2, (1 - eps) / 2, eps)
        assert res.violations == []
        assert res.coverage == "exhaustive"

    def test_star_weight_equals_epsilon_exactly(self):
        pcp = games.gen_toy_mlpcp(2, 2, 2, 3)
        for eps in (Fraction(1, 100), Fraction(1, 3), Fraction(9, 10)):
            g = longcode.build(pcp, eps)
            res = longcode.yes_partition(g, pcp.planted_labeling)
            assert res.weights[2] == eps

    def test_unsatisfying_labeling_rejected(self, toy):
        pcp, g = toy
        bad = [list(layer) for layer in pcp.planted_labeling]
        bad[0][0] = (bad[0][0] + 1) % pcp.label_sizes[0]
        sat = games.evaluate_pcp_labeling(pcp, bad)
        if all(f == 1 for f in sat.values()):
            pytest.skip("perturbed labeling still satisfies this instance")
        with pytest.raises(ValueError, match="does not satisfy"):
            longcode.yes_partition(g, bad)

    def test_sampled_certificate_reports_coverage(self):
        pcp = games.gen_toy_mlpcp(2, 1, 5, 1)
        g = longcode.build(pcp, Fraction(1, 10))
        res = longcode.yes_partition(g, pcp.planted_labeling, samples=300)
        assert res.coverage.startswith("sampled")
        assert res.violations == []


class TestDecode:
    def test_yes_class_decodes_to_satisfying_labeling(self, toy):
        pcp, g = toy
        h1 = dictator_class(g, pcp.planted_labeling, digit=1)
        out = longcode.decode(g, h1, delta=0.4, seed=0)
        assert out.satisfied_fraction == 1
        assert out.satisfied_fraction_all == 1
        l, l2 = out.layer_pair
        for (layer, v), label in out.rho.items():
            assert label == pcp.planted_labeling[layer][v]

    def test_light_indicator_rejected(self, toy):
        pcp, g = toy
        h1 = dictator_class(g, pcp.planted_labeling, digit=1)
        small = set(list(h1)[:3])
        with pytest.raises(ValueError, match="below delta"):
            longcode.decode(g, small, delta=0.4, seed=0)

    def test_one_heavy_layer_has_no_layer_pair(self, toy):
        # every point of variable (0, 0) and nothing else: independent and
        # heavy enough, but layer 1 holds no heavy variable
        pcp, g = toy
        v0_all = {g.vertex_id(0, 0, pt) for pt in range(3 ** pcp.label_sizes[0])}
        with pytest.raises(ValueError, match="only 1 layers"):
            longcode.decode(g, v0_all, delta=0.2, seed=0)

    def test_dependent_indicator_rejected(self, toy):
        pcp, g = toy
        with pytest.raises(ValueError, match=re.escape("indicator contains edge (0, 0, 0, 0) after closure")):
            longcode.decode(g, set(range(g.vertex_count)), delta=0.4, seed=0)

    def test_full_cube_variable_forces_dependence(self, toy):
        # a variable whose restriction is the whole cube admits no witness
        # core, and indeed always completes a hyperedge with any nonempty
        # neighbor restriction
        pcp, g = toy
        h1 = dictator_class(g, pcp.planted_labeling, digit=1)
        v0_all = {g.vertex_id(0, 0, pt) for pt in range(3 ** pcp.label_sizes[0])}
        with pytest.raises(ValueError, match=re.escape("indicator contains edge (0, 3, 0, 0) after closure")):
            longcode.decode(g, h1 | v0_all, delta=0.4, seed=0)

    def test_closure_preserves_independence(self, toy):
        pcp, g = toy
        rng = random.Random(5)
        for _ in range(5):
            ind = greedy_independent(g, rng)
            families = longcode._indicator_families(g, ind)
            closed = {k: ternary.monotone_closure(f) for k, f in families.items()}
            closed_set = set()
            for (l, v), fam in closed.items():
                for pt in range(3 ** pcp.label_sizes[l]):
                    if fam.membership[pt]:
                        closed_set.add(g.vertex_id(l, v, pt))
            assert closed_set >= ind
            assert is_independent(g, closed_set)

    def test_lambda_invariant_under_constraint_order(self, toy):
        pcp, g = toy
        h1 = dictator_class(g, pcp.planted_labeling, digit=1)
        out1 = longcode.decode(g, h1, delta=0.4, seed=3)
        permuted = LayeredPcp(pcp.layers, pcp.var_counts, pcp.label_sizes,
                              tuple(reversed(pcp.constraints)), pcp.params,
                              pcp.planted_labeling)
        g2 = longcode.build(permuted, g.epsilon)
        out2 = longcode.decode(g2, h1, delta=0.4, seed=3)
        assert out1.lam == out2.lam


class TestCommonElement:
    def test_identical_singletons(self):
        elem, count = longcode.common_element([{7}] * 9, T=1, D=1)
        assert elem == 7 and count == 9

    def test_disjoint_plus_copies_meets_bound(self):
        base = [{0, 1}, {2, 3}, {4, 5}]
        sets = base + [{0, 1}] * 6
        elem, count = longcode.common_element(sets, T=2, D=3)
        assert count >= len(sets) / (2 * 3)
        assert elem in (0, 1)

    def test_empty_collection(self):
        with pytest.raises(ValueError, match="empty"):
            longcode.common_element([], T=1, D=1)

    def test_oversized_set_rejected(self):
        with pytest.raises(ValueError, match="size bound"):
            longcode.common_element([{1, 2, 3}], T=2, D=1)

    def test_hypothesis_violation_carries_witness(self):
        with pytest.raises(ValueError, match=re.escape("found 3 pairwise disjoint sets: [[1], [2], [3]]")):
            longcode.common_element([{1}, {2}, {3}], T=1, D=2)

    def test_random_collections_obey_lemma(self):
        rng = random.Random(11)
        for _ in range(20):
            T = rng.randrange(1, 4)
            sets = [set(rng.sample(range(8), rng.randrange(1, T + 1))) for _ in range(12)]
            packing = longcode._max_disjoint([frozenset(s) for s in sets])
            D = len(packing)
            elem, count = longcode.common_element(sets, T=T, D=D)
            assert count * T * D >= len(sets)

    def test_explicit_stack_matches_recursive_search(self):
        rng = random.Random(31)
        for _ in range(300):
            sets = [frozenset(rng.sample(range(10), rng.randrange(1, 4)))
                    for _ in range(rng.randrange(0, 15))]
            assert longcode._max_disjoint(sets) == max_disjoint_recursive(sets)

    def test_packing_deeper_than_recursion_limit(self):
        sets = [frozenset({i}) for i in range(400)]
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 150)
        try:
            packing = longcode._max_disjoint(sets)
            with pytest.raises(RecursionError):
                max_disjoint_recursive(sets)
        finally:
            sys.setrecursionlimit(old)
        assert packing == list(range(400))
