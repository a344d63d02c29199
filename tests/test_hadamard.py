"""Folded Hadamard-code gadget: build, YES coloring, NO pipeline."""
import random

import numpy as np
import pytest

from gadgetlab import games, gf2, hadamard, verify


@pytest.fixture(scope="module")
def planted():
    inst, sigma = games.gen_3lin(10, 10, 4)
    return inst, sigma


@pytest.fixture(scope="module")
def gadget(planted):
    inst, _ = planted
    return hadamard.build(inst, r=1, triples=2, seed=11)


@pytest.fixture(scope="module")
def one_triple(planted):
    inst, _ = planted
    return hadamard.build(inst, r=1, triples=1, seed=3, distinct_blocks=True)


def raw_edges_generator(blocks, r, triple):
    """Reference: the per-choice generator the broadcast rows replaced, kept
    as it was. Yield each raw choice's sorted folded 4-tuple, or None if
    degenerate."""
    bw = blocks[triple.w_index]
    bwp = blocks[triple.wp_index]
    m = 3 * r + 1
    lift_w = [triple.geom_w.lift_bits(z) for z in range(1 << r)]
    lift_wp = [triple.geom_wp.lift_bits(z) for z in range(1 << r)]
    hw = triple.geom_w.h_w.bits
    for z in range(1, 1 << r):
        shift_w = lift_w[z] ^ hw
        shift_wp = lift_wp[z]
        for x in range(1 << m):
            v1 = bw.vertex_id(x)
            v2 = bw.vertex_id(x ^ shift_w)
            for y in range(1 << m):
                v3 = bwp.vertex_id(y)
                v4 = bwp.vertex_id(y ^ shift_wp)
                ids = (v1, v2, v3, v4)
                yield tuple(sorted(ids)) if len(set(ids)) == 4 else None


@pytest.mark.parametrize("r, triples, seeds", [(1, 6, range(6)), (2, 2, range(2))])
@pytest.mark.parametrize("distinct_blocks", [False, True])
def test_broadcast_rows_match_generator(r, triples, seeds, distinct_blocks):
    for seed in seeds:
        inst, _ = games.gen_3lin(12, 14, seed)
        g = hadamard.build(inst, r, triples=triples, seed=seed, distinct_blocks=distinct_blocks)
        raw = [list(raw_edges_generator(g.blocks, r, t)) for t in g.triples]
        assert ([list(map(tuple, edges.tolist())) for edges in g.edges_per_triple]
                == [sorted(set(edges) - {None}) for edges in raw])
        assert g.dropped_degenerate == sum(edges.count(None) for edges in raw)
        for t, edges in zip(g.triples, raw):  # row for row, degenerate rows included
            rows = hadamard._raw_edges(g.blocks, r, t).tolist()
            assert [tuple(row) for row, e in zip(rows, edges) if e] == [e for e in edges if e]
            assert len(rows) == len(edges)


def edges_per_triple_reference(g):
    """Reference: hadamard.build's per-triple tuple lists as they were built
    from the broadcast rows, before the rows stayed arrays."""
    out = []
    for t in g.triples:
        rows = hadamard._raw_edges(g.blocks, g.r, t)
        bad = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        out.append(sorted(set(map(tuple, rows[~bad].tolist()))))
    return out


def all_edges_reference(edges_per_triple):
    """Reference: HadamardGadget.all_edges as the union of the tuple sets."""
    return sorted(set().union(*edges_per_triple))


@pytest.mark.parametrize("r, triples, seeds", [(1, 6, range(8)), (2, 3, range(3))])
@pytest.mark.parametrize("distinct_blocks", [False, True])
def test_edge_arrays_match_tuple_builders(r, triples, seeds, distinct_blocks):
    for seed in seeds:
        inst, _ = games.gen_3lin(12, 14, seed)
        g = hadamard.build(inst, r, triples=triples, seed=seed, distinct_blocks=distinct_blocks)
        want = edges_per_triple_reference(g)
        arrays = [*g.edges_per_triple, g.all_edges()]
        for got, rows in zip(arrays, [*want, all_edges_reference(want)]):
            assert got.dtype == np.int64 and got.shape == (len(rows), 4)
            assert not got.flags.writeable
            assert list(map(tuple, got.tolist())) == rows
        assert np.array_equal(g.to_hypergraph().edges, g.all_edges())


@pytest.mark.parametrize("r, triples, seeds", [(1, 10, range(4)), (2, 3, range(2))])
def test_block_geometry_built_once_per_key(monkeypatch, r, triples, seeds):
    keys = []

    def counted(block, picks, inst):
        keys.append((block.eq_ids, picks.var_ids))
        return games.block_geometry(block, picks, inst)

    monkeypatch.setattr(hadamard, "block_geometry", counted)
    for seed in seeds:
        inst, _ = games.gen_3lin(12, 14, seed)
        keys.clear()
        g = hadamard.build(inst, r, triples=triples, seed=seed)
        assert len(keys) == len(set(keys))
        assert set(keys) == {(g.blocks[index].block.eq_ids, t.u.var_ids)
                             for t in g.triples for index in (t.w_index, t.wp_index)}
        # every geometry is the one a fresh call gives, as when each was built anew
        for t in g.triples:
            assert t.geom_w == games.block_geometry(g.blocks[t.w_index].block, t.u, inst)
            assert t.geom_wp == games.block_geometry(g.blocks[t.wp_index].block, t.u, inst)
        for gb in g.blocks:
            first = next(t for t in g.triples if gb.index in (t.w_index, t.wp_index))
            assert gb.geometry == games.block_geometry(gb.block, first.u, inst)


class TestBuild:
    def test_raw_choice_count_r1(self, one_triple):
        raw = list(hadamard._raw_edges(one_triple.blocks, one_triple.r,
                                       one_triple.triples[0]))
        assert len(raw) == 16 * 16 * 1

    def test_vertices_per_block(self, gadget):
        for b in gadget.blocks:
            assert len(b.reps) == 2 ** (2 * gadget.r + 1)

    def test_edges_have_four_distinct_vertices(self, gadget):
        for edge in gadget.all_edges():
            assert len(set(edge)) == 4

    def test_degenerate_raw_edges_counted(self, gadget):
        kept = sum(len(set(e)) for e in gadget.all_edges())
        assert gadget.dropped_degenerate >= 0
        assert kept > 0

    def test_enumerate_r_cap(self, planted):
        inst, _ = planted
        with pytest.raises(ValueError, match="caps r"):
            hadamard.build(inst, r=3, triples=1)

    def test_impossible_r_rejected_before_sampling(self, monkeypatch):
        # with one equation there are no two equations with disjoint variables
        def sampled(*args, **kwargs):
            raise AssertionError("sample_round was called")

        monkeypatch.setattr(hadamard, "sample_round", sampled)
        inst = games.Lin3Instance(3, ((0, 1, 2, 1),))
        with pytest.raises(ValueError, match="no repeat-free block of 2 equations exists among "
                                             "the 1 equations; instance too small"):
            hadamard.build(inst, r=2, triples=1)

    def test_w_prime_rejection_budget(self):
        # W' must differ from W, but each variable lies in one equation only
        inst = games.Lin3Instance(6, ((0, 1, 2, 1), (3, 4, 5, 0)))
        with pytest.raises(games.RejectionBudgetError, match="consistent W' in 50 attempts"):
            hadamard.build(inst, r=2, triples=1, distinct_blocks=True, budget=50)

    @pytest.mark.parametrize("triples", [1, 3])
    def test_one_draw_budget_for_every_triple(self, monkeypatch, triples):
        # each sample_round call may draw as many W as its budget allows, and
        # each W that is repeat-free adds one W' draw: the sum is the draws
        inst = games.Lin3Instance(6, ((0, 1, 2, 1), (3, 4, 5, 0)))
        allowed = []

        def counted(*args, **kwargs):
            allowed.append(kwargs["budget"])
            return games.sample_round(*args, **kwargs)

        monkeypatch.setattr(hadamard, "sample_round", counted)
        with pytest.raises(games.RejectionBudgetError, match="consistent W' in 50 attempts"):
            hadamard.build(inst, r=2, triples=triples, distinct_blocks=True, budget=50)
        assert len(allowed) == 50 and sum(allowed) <= 50

    def test_draw_budget_is_shared_across_triples(self, planted):
        inst, _ = planted
        g = hadamard.build(inst, r=1, triples=3, seed=2)
        # r = 1 draws never repeat a variable and W' is any equation holding
        # U's variable, so three triples take exactly three draws
        assert len(g.triples) == 3
        hadamard.build(inst, r=1, triples=3, seed=2, budget=3)
        with pytest.raises(games.RejectionBudgetError):
            hadamard.build(inst, r=1, triples=3, seed=2, budget=2)

    def test_deterministic_under_seed(self, planted):
        inst, _ = planted
        a = hadamard.build(inst, r=1, triples=2, seed=7)
        b = hadamard.build(inst, r=1, triples=2, seed=7)
        assert a.all_edges().tolist() == b.all_edges().tolist()

    def test_shared_block_keeps_per_triple_projections(self):
        # one equation forces every triple onto the same block while the
        # sampled variable blocks differ; each triple's edges must follow
        # its own projection, not the block's first registration
        inst = games.Lin3Instance(3, ((0, 1, 2, 1),))
        gadget = hadamard.build(inst, r=1, triples=6, seed=2)
        assert len(gadget.blocks) == 1
        assert len({t.u.var_ids for t in gadget.triples}) > 1
        for ti, triple in enumerate(gadget.triples):
            bw = gadget.blocks[triple.w_index]
            bwp = gadget.blocks[triple.wp_index]
            geom_w = games.block_geometry(bw.block, triple.u, inst)
            geom_wp = games.block_geometry(bwp.block, triple.u, inst)
            expected = set()
            for z in range(1, 2):
                shift_w = geom_w.lift_bits(z) ^ geom_w.h_w.bits
                shift_wp = geom_wp.lift_bits(z)
                for x in range(16):
                    for y in range(16):
                        ids = (bw.vertex_id(x), bw.vertex_id(x ^ shift_w),
                               bwp.vertex_id(y), bwp.vertex_id(y ^ shift_wp))
                        if len(set(ids)) == 4:
                            expected.add(tuple(sorted(ids)))
            assert set(map(tuple, gadget.edges_per_triple[ti].tolist())) == expected

    def test_export_round_trip(self, gadget):
        h = gadget.to_hypergraph()
        again = verify.GenericHypergraph.from_json_dict(h.to_json_dict())
        assert again == h
        assert len(h.to_edge_list().splitlines()) == len(h.edges)


class TestYesColoring:
    def test_planted_removes_nothing_and_parity_holds(self, gadget, planted):
        _, sigma = planted
        res = hadamard.yes_coloring(gadget, sigma)
        assert res.removed == frozenset()
        assert res.violations == []
        assert res.surviving_edges == res.checked_edges > 0

    def test_every_surviving_edge_bichromatic(self, gadget, planted):
        _, sigma = planted
        res = hadamard.yes_coloring(gadget, sigma)
        for edge in gadget.all_edges():
            colors = [res.colors[v] for v in edge]
            assert colors[0] ^ colors[1] ^ colors[2] ^ colors[3] == 1
            assert len(set(colors)) == 2

    def test_bad_block_vertices_all_removed(self, gadget, planted):
        inst, sigma = planted
        bad = list(sigma)
        touched = gadget.blocks[0].block.var_order[0]
        bad[touched] ^= 1
        res = hadamard.yes_coloring(gadget, bad)
        for gb in gadget.blocks:
            good = all(
                bad[gb.block.var_order[3 * t]] ^ bad[gb.block.var_order[3 * t + 1]]
                ^ bad[gb.block.var_order[3 * t + 2]] == gb.block.rhs[t]
                for t in range(gadget.r)
            )
            ids = set(range(gb.vertex_base, gb.vertex_base + len(gb.reps)))
            if good:
                assert not ids & res.removed
            else:
                assert ids <= res.removed

    def test_shared_hyperedges_checked_once(self):
        # one equation puts every triple on the same block, so triples share edges
        inst = games.Lin3Instance(3, ((0, 1, 2, 1),))
        gadget = hadamard.build(inst, r=1, triples=6, seed=2)
        h = gadget.to_hypergraph()
        assert sum(len(e) for e in gadget.edges_per_triple) > len(h.edges)
        res = hadamard.yes_coloring(gadget, [1, 0, 0])
        assert res.ok and not res.removed
        assert res.checked_edges == res.surviving_edges == len(h.edges)

    def test_assignment_length_checked(self, gadget):
        with pytest.raises(ValueError):
            hadamard.yes_coloring(gadget, [0, 1])

    @pytest.mark.parametrize("entry", [2, -1, "1", 1.0, None])
    def test_assignment_entries_must_be_bits(self, gadget, planted, entry):
        # a 2 would shift into the next position of the planted code
        _, sigma = planted
        with pytest.raises(ValueError, match=f"^assignment entry {entry!r} is not 0 or 1$"):
            hadamard.yes_coloring(gadget, [*sigma[:-1], entry])


class TestExtractStrategies:
    @pytest.mark.parametrize("name", ["gadget", "one_triple"])
    def test_indicator_table_matches_the_folded_route(self, request, name):
        g = request.getfixturevalue(name)
        rng = random.Random(len(name))
        members = np.array([rng.random() < 0.5 for _ in range(g.vertex_count)])
        for gb in g.blocks:
            folded = members[gb.vertex_base:gb.vertex_base + len(gb.reps)].astype(np.float64).tolist()
            ref = gf2.unfold(gf2.FoldedTable(gb.geometry.subspace, dict(zip(gb.reps, folded))))
            table = hadamard._indicator_table(gb, members)
            assert table.width == ref.width and np.array_equal(table.values, ref.values)

    def test_empty_indicator(self, one_triple):
        rep = hadamard.extract_strategies(one_triple, set(), 0)
        assert rep.lhs == 0.0
        assert rep.rhs == -2.0 ** (-one_triple.r)
        assert rep.holds
        assert not rep.prover2.defined

    def test_full_indicator_flagged_dependent(self, one_triple):
        rep = hadamard.extract_strategies(one_triple, set(range(one_triple.vertex_count)), 0)
        assert not rep.independent_on_triple
        assert rep.lhs >= 0.0

    def test_max_independent_set_satisfies_eq7(self, one_triple):
        h = one_triple.to_hypergraph()
        res = verify.max_independent_set(h)
        assert res.optimal
        rep = hadamard.extract_strategies(one_triple, res.vertices, 0)
        assert rep.independent_on_triple
        assert rep.lhs >= rep.rhs - 1e-10

    def test_independence_product_law_exhaustive(self, one_triple):
        h = one_triple.to_hypergraph()
        res = verify.max_independent_set(h)
        ind = res.vertices
        for edge in one_triple.edges_per_triple[0]:
            prod = 1
            for v in edge:
                prod *= 1 if v in ind else 0
            assert prod == 0

    def test_prover2_support_satisfies_block(self, one_triple, planted):
        inst, _ = planted
        rng = random.Random(10)
        indicator = {v for v in range(one_triple.vertex_count) if rng.random() < 0.5}
        rep = hadamard.extract_strategies(one_triple, indicator, 0)
        bw = one_triple.blocks[one_triple.triples[0].w_index]
        for alpha in rep.prover2.support:
            assert gf2.dot_bits(alpha, bw.geometry.h_w.bits) == 1
            bits = [(alpha >> i) & 1 for i in range(3 * one_triple.r)]
            for t in range(one_triple.r):
                assert bits[3 * t] ^ bits[3 * t + 1] ^ bits[3 * t + 2] == bw.block.rhs[t]

    def test_renormalized_probabilities(self, one_triple):
        rng = random.Random(12)
        indicator = {v for v in range(one_triple.vertex_count) if rng.random() < 0.7}
        rep = hadamard.extract_strategies(one_triple, indicator, 0)
        if rep.prover2.defined:
            assert sum(rep.prover2.probabilities().values()) == pytest.approx(1.0)
        assert rep.prover1.deficit == pytest.approx(1.0 - rep.prover1.admissible_mass)

    def test_block_spectra_obey_folding_lemma(self, one_triple):
        rng = random.Random(14)
        indicator = {v for v in range(one_triple.vertex_count) if rng.random() < 0.4}
        rep = hadamard.extract_strategies(one_triple, indicator, 0)
        bw = one_triple.blocks[one_triple.triples[0].w_index]
        bwp = one_triple.blocks[one_triple.triples[0].wp_index]
        for spec, sub in ((rep.spectrum_w, bw.geometry.subspace),
                          (rep.spectrum_wp, bwp.geometry.subspace)):
            for alpha in spec.support():
                for b in sub.basis:
                    assert gf2.dot_bits(alpha, b.bits) == 0


class TestZAveraging:
    def test_identity_on_random_folded_tables(self, one_triple):
        rng = random.Random(77)
        bw = one_triple.blocks[one_triple.triples[0].w_index]
        bwp = one_triple.blocks[one_triple.triples[0].wp_index]
        for _ in range(10):
            ta = gf2.unfold(gf2.FoldedTable(
                bw.geometry.subspace,
                {r.bits: rng.uniform(-1, 1) for r in bw.geometry.subspace.coset_reps()}))
            tb = gf2.unfold(gf2.FoldedTable(
                bwp.geometry.subspace,
                {r.bits: rng.uniform(-1, 1) for r in bwp.geometry.subspace.coset_reps()}))
            sa = gf2.fourier_transform(ta)
            sb = gf2.fourier_transform(tb)
            x = rng.randrange(16)
            y = rng.randrange(16)
            lhs, rhs = hadamard.z_average_identity(sa, sb, bw.geometry, bwp.geometry, x, y)
            assert lhs == pytest.approx(rhs, abs=1e-10)
