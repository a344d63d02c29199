"""The label-cover gadgets' per-constraint rule tables: one broadcast product
per rule, diff-tested row for row against the tuple builders it replaced,
shared read-only between the constraints of one rule, and exported as the
deduplicated y < z half of the full hit array."""
import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import dto1, games, longcode, ternary, verify


# ---------------------------------------------------------------------------
# The replaced tuple builders, kept as references


def constraint_triples_reference(proj: tuple[int, ...], r_big: int, r_small: int):
    """All (x, y, z) index triples passing the coordinate rule: no matched
    coordinate triple is (1, 1, 1) or (2, 2, 2)."""
    triples = []
    small_digits = ternary.digits_matrix(r_small)
    for x in range(3**r_small):
        xd = small_digits[x]
        partial: list[tuple[int, int, int]] = [(x, 0, 0)]
        for j in range(r_big):
            step = 3**j
            allowed = [(a, b) for a in range(3) for b in range(3)
                       if (int(xd[proj[j]]), a, b) not in ((1, 1, 1), (2, 2, 2))]
            partial = [(x, y + a * step, z + b * step)
                       for (_, y, z) in partial for (a, b) in allowed]
        triples += partial
    return triples


def dto1_table_reference(proj: tuple[int, ...], big: int, small: int, delta: float, r: int):
    """The per-constraint loop of dto1.build as it was: the support of the
    base distribution scattered onto each block, multiplied out as tuples."""
    support = dto1.dist_table(delta, r).support()
    block_pos = dto1.block_positions(dto1.blocks_of(proj, small), big)
    partial: list[tuple[int, int, int]] = [(0, 0, 0)]
    for i, positions in enumerate(block_pos):
        scattered = []
        for x_bit, ym, zm in support:
            ys = sum(((ym >> t) & 1) << j for t, j in enumerate(positions))
            zs = sum(((zm >> t) & 1) << j for t, j in enumerate(positions))
            scattered.append((x_bit << i, ys, zs))
        partial = [
            (x | xb, y | yb, z | zb)
            for (x, y, z) in partial
            for (xb, yb, zb) in scattered
        ]
    return partial


def assert_tables_match(g: games.PcpGadget, ci: int, triples) -> None:
    """The constraint's one table holds the triples in their order, the
    y == z ones among them."""
    table = g.constraint_edges[ci]
    assert table.dtype == np.int64 and table.shape == (len(triples), 3)
    assert list(map(tuple, table.tolist())) == triples


def pcp_of(sizes, constraints, params=None) -> games.LayeredPcp:
    """A two-layer PCP with two variables per layer."""
    return games.LayeredPcp(2, (2, 2), sizes,
                            tuple(games.PcpConstraint(0, 1, v, u, proj)
                                  for v, u, proj in constraints), params=params)


# ---------------------------------------------------------------------------
# Row for row against the references


@settings(max_examples=80)
@given(data=st.data(), big=st.integers(1, longcode.ENUMERATE_LABEL_CAP),
       small=st.integers(1, longcode.ENUMERATE_LABEL_CAP))
def test_longcode_tables_match_reference(data, big, small):
    proj = tuple(data.draw(st.lists(st.integers(0, small - 1), min_size=big, max_size=big)))
    g = longcode.build(pcp_of((big, small), [(0, 0, proj)]), Fraction(1, 10))
    assert_tables_match(g, 0, constraint_triples_reference(proj, big, small))


def test_longcode_tables_match_reference_at_four_labels():
    proj = (2, 0, 3, 3)
    g = longcode.build(pcp_of((4, 4), [(0, 0, proj)]), Fraction(1, 10))
    assert_tables_match(g, 0, constraint_triples_reference(proj, 4, 4))


def test_longcode_table_peaks_below_twice_its_bytes():
    """At label sizes (4, 4) the masked pass holds the table, one int64 index
    per kept row and the mask: no more than the 2.0x of the table's bytes
    that the per-x product reached."""
    tracemalloc.start()
    try:
        table = longcode._constraint_rows((2, 0, 3, 3), 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (391875, 3)
    assert peak <= 2.0 * table.nbytes


@settings(max_examples=60)
@given(data=st.data(), r=st.sampled_from([1, 2]), delta=st.sampled_from([0.0, 0.25, 1.0]),
       small=st.integers(1, 2))
def test_dto1_tables_match_reference(data, r, delta, small):
    # an exactly r-to-1 projection; delta = 0 leaves a smaller support
    proj = tuple(data.draw(st.permutations([i for i in range(small) for _ in range(r)])))
    g = dto1.build(pcp_of((small * r, small), [(0, 0, proj)], {"d": r, "T": 1}), delta)
    assert g.mode == "enumerate"
    assert_tables_match(g, 0, dto1_table_reference(proj, small * r, small, delta, r))


# ---------------------------------------------------------------------------
# Shared, read-only tables


def shared_gadgets():
    """Each gadget on a PCP whose constraints 0 and 1 have one projection
    (on different variables) and constraint 2 another."""
    constraints = [(0, 0, (0, 0, 1, 1)), (1, 1, (0, 0, 1, 1)), (0, 1, (0, 1, 0, 1))]
    yield longcode.build(pcp_of((4, 2), constraints), Fraction(1, 10))
    yield dto1.build(pcp_of((4, 2), constraints, {"d": 2, "T": 1}), 0.25)


@pytest.mark.parametrize("g", shared_gadgets(), ids=["longcode", "dto1"])
def test_equal_keys_share_one_read_only_table(g):
    assert g.constraint_edges[0] is g.constraint_edges[1]
    assert g.constraint_edges[2] is not g.constraint_edges[0]
    for table in (g.constraint_edges[0], g.constraint_edges[2]):
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("g", shared_gadgets(), ids=["longcode", "dto1"])
def test_hit_rows_of_shared_tables_add_each_constraints_offsets(g):
    rows, starts = g.hit_rows()
    blocks = [rows[starts[ci]:starts[ci + 1]] for ci in range(3)]
    assert blocks[0].shape == blocks[1].shape
    c0, c1 = g.pcp.constraints[:2]
    shift = [g.offsets[(c1.to_layer, c1.u)] - g.offsets[(c0.to_layer, c0.u)]] + 2 * [
        g.offsets[(c1.from_layer, c1.v)] - g.offsets[(c0.from_layer, c0.v)]]
    assert min(shift) > 0
    assert np.array_equal(blocks[1], blocks[0] + shift)
    for ci, c in enumerate(g.pcp.constraints):
        local = blocks[ci] - [g.offsets[(c.to_layer, c.u)], *2 * [g.offsets[(c.from_layer, c.v)]]]
        assert np.array_equal(local, g.constraint_edges[ci])


# ---------------------------------------------------------------------------
# The export against the full hit array


def mixed_dto1(seed: int) -> dto1.Dto1Gadget:
    """A three-layer d = 3 gadget: its 0 -> 1 constraints (labels 9 -> 3) keep
    only the rule, its 1 -> 2 constraints (3 -> 1) are materialised."""
    rng = random.Random(seed)

    def proj(small):  # exactly 3-to-1
        table = [t for t in range(small) for _ in range(3)]
        rng.shuffle(table)
        return tuple(table)

    constraints = [games.PcpConstraint(l, l + 1, v, u, proj(small))
                   for l, small in ((0, 3), (1, 1)) for v in range(2) for u in range(2)]
    return dto1.build(games.LayeredPcp(3, (2, 2, 2), (9, 3, 1), tuple(constraints),
                                       params={"d": 3, "T": 1}), 0.25)


def export_gadgets():
    for seed in range(3):
        planted = seed != 1
        yield pytest.param(lambda seed=seed, planted=planted: longcode.build(
            games.gen_toy_mlpcp(2, 2, (3, 2), seed, planted=planted), Fraction(1, 10)),
            id=f"longcode-{seed}")
        yield pytest.param(lambda seed=seed, planted=planted: dto1.build(games.build_smooth_mlpcp(
            games.gen_toy_dto1_game(1 + seed % 2, 3, 1, 2, seed, planted=planted), 2, 1), 0.25),
            id=f"dto1-{seed}")
        yield pytest.param(lambda seed=seed: mixed_dto1(seed), id=f"dto1-mixed-{seed}")


@pytest.mark.parametrize("build", export_gadgets())
def test_export_is_the_y_below_z_half_of_all_hits(build):
    g = build()
    tables = list(g.constraint_edges)
    copies = [None if t is None else t.copy() for t in tables]
    rows = g.hit_rows()[0]
    degenerate = int(np.count_nonzero(rows[:, 1] == rows[:, 2]))
    assert g.dropped_degenerate == degenerate
    if g.mode == "mixed":
        assert any(t is None for t in tables) and any(t is not None for t in tables)
        with pytest.raises(ValueError, match="enumerate mode"):
            g.to_hypergraph()
    else:
        h = g.to_hypergraph()
        assert np.array_equal(h.edges, verify.unique_rows(rows[rows[:, 1] < rows[:, 2]]))
        assert h.meta["dropped_degenerate"] == degenerate
    # the export reads the shared tables and leaves them as they were
    assert all(t is u for t, u in zip(g.constraint_edges, tables))
    for t, copy in zip(tables, copies):
        assert t is None or (not t.flags.writeable and np.array_equal(t, copy))


@pytest.mark.parametrize("build", [
    lambda pcp: longcode.build(pcp, Fraction(1, 10)),
    lambda pcp: dto1.build(dataclasses.replace(pcp, params={"d": 2, "T": 1}), 0.25),
], ids=["longcode", "dto1"])
def test_pcp_with_no_constraints_exports_no_edges(build):
    g = build(games.gen_toy_mlpcp(2, 2, 3, 1, density=0))
    h = g.to_hypergraph()
    assert h.edges.shape == (0, 3) and h.meta["dropped_degenerate"] == 0
    assert h.vertices == tuple(range(g.vertex_count))
