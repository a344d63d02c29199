"""The label-cover gadgets' per-constraint rule tables: one broadcast product
per rule, diff-tested row for row against the tuple builders it replaced,
and shared read-only between the constraints of one rule."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import dto1, games, longcode, ternary


# ---------------------------------------------------------------------------
# The replaced tuple builders, kept as references


def constraint_triples_reference(proj: tuple[int, ...], r_big: int, r_small: int):
    """All (x, y, z) index triples passing the coordinate rule."""
    triples = []
    small_digits = ternary.digits_matrix(r_small)
    for x in range(3**r_small):
        xd = small_digits[x]
        partial: list[tuple[int, int, int]] = [(x, 0, 0)]
        for j in range(r_big):
            step = 3**j
            allowed = longcode._allowed_pairs(int(xd[proj[j]]))
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


def split_reference(triples):
    """split_degenerate as it was, on tuple lists."""
    return ([t for t in triples if t[1] != t[2]],
            [(x, y) for x, y, z in triples if y == z])


def assert_tables_match(g: games.PcpGadget, ci: int, triples) -> None:
    edges, pairs = split_reference(triples)
    got_edges, got_pairs = g.constraint_edges[ci], g.constraint_pairs[ci]
    assert got_edges.dtype == got_pairs.dtype == np.int64
    assert got_edges.shape == (len(edges), 3) and got_pairs.shape == (len(pairs), 2)
    assert list(map(tuple, got_edges.tolist())) == edges
    assert list(map(tuple, got_pairs.tolist())) == pairs


def pcp_of(sizes, constraints, params=None) -> games.LayeredPcp:
    """A two-layer PCP with two variables per layer."""
    return games.LayeredPcp(2, (2, 2), sizes,
                            tuple(games.PcpConstraint(0, 1, v, u, proj)
                                  for v, u, proj in constraints), params=params)


# ---------------------------------------------------------------------------
# Row for row against the references


@settings(max_examples=80)
@given(data=st.data(), big=st.integers(1, 3), small=st.integers(1, 3))
def test_longcode_tables_match_reference(data, big, small):
    proj = tuple(data.draw(st.lists(st.integers(0, small - 1), min_size=big, max_size=big)))
    g = longcode.build(pcp_of((big, small), [(0, 0, proj)]), Fraction(1, 10))
    assert_tables_match(g, 0, constraint_triples_reference(proj, big, small))


def test_longcode_tables_match_reference_at_four_labels():
    proj = (2, 0, 3, 3)
    g = longcode.build(pcp_of((4, 4), [(0, 0, proj)]), Fraction(1, 10))
    assert_tables_match(g, 0, constraint_triples_reference(proj, 4, 4))


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
    assert g.constraint_pairs[0] is g.constraint_pairs[1]
    assert g.constraint_edges[2] is not g.constraint_edges[0]
    for table in (g.constraint_edges[0], g.constraint_pairs[0]):
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
        table = np.vstack([g.constraint_edges[ci], g.constraint_pairs[ci][:, [0, 1, 1]]])
        local = blocks[ci] - [g.offsets[(c.to_layer, c.u)], *2 * [g.offsets[(c.from_layer, c.v)]]]
        assert np.array_equal(local, table)
