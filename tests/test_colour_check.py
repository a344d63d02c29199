"""The hit-row array, the dictated colouring and the one colour check behind
the YES certificates and the independence tests, diff-tested against the
walks they replaced."""
import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import dto1, games, gf2, hadamard, longcode, ternary, verify
from gadgetlab.seeding import derive_rng


# ---------------------------------------------------------------------------
# The replaced walks, kept as references


def yes_coloring_reference(g: hadamard.HadamardGadget, sigma) -> hadamard.YesColoringResult:
    """hadamard.yes_coloring as it was: colours in a dict, then one
    comprehension for the surviving edges and one for the violations."""
    sigma = list(sigma)
    if len(sigma) != g.source.n:
        raise ValueError("assignment must cover all instance variables")
    colors: dict[int, int] = {}
    removed: set[int] = set()
    for gb in g.blocks:
        block_ok = all(
            sigma[gb.block.var_order[3 * t]] ^ sigma[gb.block.var_order[3 * t + 1]]
            ^ sigma[gb.block.var_order[3 * t + 2]] == gb.block.rhs[t]
            for t in range(g.r)
        )
        if block_ok:
            code = 0
            for pos, var in enumerate(gb.block.var_order):
                code |= sigma[var] << pos
            code |= 1 << (3 * g.r)
            for t, rep in enumerate(gb.reps):
                colors[gb.vertex_base + t] = gf2.dot_bits(code, rep)
        else:
            removed.update(range(gb.vertex_base, gb.vertex_base + len(gb.reps)))

    edges = list(map(tuple, g.all_edges().tolist()))
    surviving = [e for e in edges if not any(v in removed for v in e)]
    violations = [e for e in surviving
                  if colors[e[0]] ^ colors[e[1]] ^ colors[e[2]] ^ colors[e[3]] != 1]
    return hadamard.YesColoringResult(colors, frozenset(removed), len(edges), len(surviving),
                                      violations)


def check_independent_reference(g: longcode.LongCodeGadget, families):
    """The enumerate branch of longcode.check_independent as it was, over
    each constraint's one hit table (y == z rows in place)."""
    for ci, c in enumerate(g.pcp.constraints):
        fu = families[(c.to_layer, c.u)]
        fv = families[(c.from_layer, c.v)]
        for x, y, z in g.constraint_edges[ci].tolist():
            if fu.membership[x] and fv.membership[y] and fv.membership[z]:
                return (ci, x, y, z)
    return None


def independent_on_triple_reference(g: hadamard.HadamardGadget, indicator, ti: int) -> bool:
    """The independence loop of hadamard.extract_strategies as it was."""
    indicator = set(indicator)
    for edge in g.edges_per_triple[ti]:
        if all(v in indicator for v in edge):
            return False
    return True


# ---------------------------------------------------------------------------
# The new pieces on their own


def test_check_coloring_nae_and_parity():
    edges = np.array([[0, 1, 2], [1, 2, 3], [0, 2, 4]])
    colors = np.array([1, 1, 1, 2, 0], dtype=np.int8)
    surviving, violating = verify.check_coloring(edges, colors, colors == 9)
    assert surviving.tolist() == [True, True, True]
    assert violating.tolist() == [True, False, False]
    removed = colors == 0
    surviving, violating = verify.check_coloring(edges, colors, removed)
    assert surviving.tolist() == [True, True, False]
    assert violating.tolist() == [True, False, False]
    quads = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [1, 2, 3, 4]])
    bits = np.array([1, 0, 0, 0, 1], dtype=np.int8)
    surviving, violating = verify.check_coloring(quads, bits, bits == 9, parity=True)
    assert surviving.all() and violating.tolist() == [False, True, False]
    empty = np.empty((0, 4), dtype=np.int64)
    assert [m.shape for m in verify.check_coloring(empty, bits, bits == 9, parity=True)] == [
        (0,), (0,)]


@pytest.mark.parametrize("base,make", [
    (3, lambda: games.gen_toy_mlpcp(2, 2, (3, 2), 4)),
    (2, lambda: games.build_smooth_mlpcp(games.gen_toy_dto1_game(1, 3, 1, 2, 4), 2, 1)),
])
def test_dictator_colors_are_the_digit_at_the_label(base, make):
    pcp = make()
    sigma = pcp.planted_labeling
    offsets, total = games.code_layout(pcp, base)
    want = [0] * total
    for (l, v), off in offsets.items():
        for pt in range(base ** pcp.label_sizes[l]):
            want[off + pt] = pt // base ** sigma[l][v] % base
    colors = games.dictator_colors(pcp, base, sigma)
    assert colors.dtype == np.int8 and colors.tolist() == want
    ids = np.array([total - 1, 0, total // 2])
    assert games.dictator_colors(pcp, base, sigma, ids).tolist() == [want[i] for i in ids]
    bad = [list(layer) for layer in sigma]
    c, j = next((c, j) for c in pcp.constraints for j, t in enumerate(c.projection)
                if t != sigma[c.to_layer][c.u])
    bad[c.from_layer][c.v] = j
    with pytest.raises(ValueError, match="does not satisfy"):
        games.dictator_colors(pcp, base, bad)


def test_hit_rows_lay_out_each_constraints_table():
    pcp = games.gen_toy_mlpcp(2, 2, 3, 1)
    g = longcode.build(pcp, Fraction(1, 10))
    want, starts = [], [0]
    for ci, c in enumerate(pcp.constraints):
        ou, ov = g.offsets[(c.to_layer, c.u)], g.offsets[(c.from_layer, c.v)]
        want += [(ou + x, ov + y, ov + z) for x, y, z in g.constraint_edges[ci].tolist()]
        starts.append(len(want))
    rows, got_starts = g.hit_rows()
    assert rows.dtype == np.int64 and list(map(tuple, rows.tolist())) == want
    assert got_starts == starts
    index = np.array([0, starts[1], len(want) - 1])
    local = g.local_hits(rows, got_starts, index)
    for (ci, x, y, z), i in zip(local, index.tolist()):
        assert starts[ci] <= i < starts[ci + 1]
        c = pcp.constraints[ci]
        assert want[i] == (g.vertex_id(c.to_layer, c.u, x), g.vertex_id(c.from_layer, c.v, y),
                           g.vertex_id(c.from_layer, c.v, z))
    assert any(y == z for _, y, z in want)  # the y == z hits are laid out too


def test_hit_rows_draw_rule_constraints_only_when_asked():
    pcp = games.gen_toy_mlpcp(2, 2, 5, 1)  # label size 5: rule mode
    g = longcode.build(pcp, Fraction(1, 10))
    assert g.mode == "rule"
    rows, starts = g.hit_rows()
    assert rows.shape == (0, 3) and starts == [0] * (len(pcp.constraints) + 1)
    rows, starts = g.hit_rows(samples=7, seed=2)
    assert starts == list(range(0, 7 * len(pcp.constraints) + 1, 7))
    for ci, c in enumerate(pcp.constraints):
        draws = g.sample_hits(ci, derive_rng(2, "yes-check", ci), 7)
        offset = (g.offsets[(c.to_layer, c.u)],) + (g.offsets[(c.from_layer, c.v)],) * 2
        assert rows[7 * ci:7 * ci + 7].tolist() == [
            [o + p for o, p in zip(offset, hit)] for hit in draws]


# ---------------------------------------------------------------------------
# The Hadamard YES colouring


HADAMARD_CASES = [(1, 2, seed) for seed in range(5)] + [(1, 6, 7), (2, 1, 3)]


def hadamard_case(r, triples, seed):
    inst, sigma = games.gen_3lin(10, 10, seed)
    return hadamard.build(inst, r=r, triples=triples, seed=seed + 11), list(sigma)


def assignments(g, sigma):
    """The planted assignment, one flipped variable per block's first
    equation, and two random assignments."""
    out = [sigma]
    for gb in g.blocks[:2]:
        bad = list(sigma)
        bad[gb.block.var_order[0]] ^= 1
        out.append(bad)
    rng = random.Random(len(sigma))
    out += [[rng.randrange(2) for _ in sigma] for _ in range(2)]
    return out


@pytest.mark.parametrize("r,triples,seed", HADAMARD_CASES)
def test_yes_coloring_matches_reference(r, triples, seed):
    g, sigma = hadamard_case(r, triples, seed)
    for a in assignments(g, sigma):
        want = yes_coloring_reference(g, a)
        got = hadamard.yes_coloring(g, a)
        assert got == want
        assert all(type(v) is int for e in got.violations for v in e)
    assert yes_coloring_reference(g, sigma).ok


@pytest.mark.parametrize("r,triples,seed", HADAMARD_CASES[:3])
def test_yes_coloring_reports_injected_even_edges(r, triples, seed):
    g, sigma = hadamard_case(r, triples, seed)
    colors = yes_coloring_reference(g, sigma).colors
    by_color = [[v for v, c in colors.items() if c == k] for k in (0, 1)]
    # even parity: four of one colour, then two of each
    injected = [tuple(sorted(by_color[0][:4])), tuple(sorted(by_color[0][:2] + by_color[1][:2]))]
    g.edges_per_triple[0] = verify.unique_rows(np.vstack([g.edges_per_triple[0], injected]))
    want = yes_coloring_reference(g, sigma)
    assert hadamard.yes_coloring(g, sigma) == want
    assert set(want.violations) == set(injected)


# ---------------------------------------------------------------------------
# The long-code and Hadamard independence tests


def families_of(g: longcode.LongCodeGadget, vertices) -> dict:
    return longcode._indicator_families(g, set(vertices))


@pytest.mark.parametrize("layers,vars_per_layer,sizes,seed",
                         [(2, 2, 3, seed) for seed in range(3)] + [(3, 2, (3, 2, 2), 5)])
def test_check_independent_matches_reference(layers, vars_per_layer, sizes, seed):
    pcp = games.gen_toy_mlpcp(layers, vars_per_layer, sizes, seed)
    g = longcode.build(pcp, Fraction(1, 10))
    assert g.mode == "enumerate"
    sigma = pcp.planted_labeling
    colors = games.dictator_colors(pcp, 3, sigma).tolist()
    rng = random.Random(seed)
    indicators = [
        [v for v, c in enumerate(colors) if c == ternary.ONE],  # independent
        [v for v, c in enumerate(colors) if c != ternary.STAR],  # not
        range(g.vertex_count),
        [],
    ] + [[v for v in range(g.vertex_count) if rng.random() < q] for q in (0.1, 0.3, 0.6)]
    found = []
    for ind in indicators:
        families = families_of(g, ind)
        want = check_independent_reference(g, families)
        got = longcode.check_independent(g, families)
        assert got == want
        assert got is None or all(type(v) is int for v in got)
        found.append(got)
    assert found[0] is None and found[1] is not None


def test_check_independent_finds_an_injected_pair_first():
    pcp = games.gen_toy_mlpcp(2, 2, 3, 2)
    g = longcode.build(pcp, Fraction(1, 10))
    c = pcp.constraints[1]
    x, y = 5, 7
    g.constraint_edges[1] = np.insert(g.constraint_edges[1], 0, (x, y, y), axis=0)
    families = families_of(g, {g.vertex_id(c.to_layer, c.u, x), g.vertex_id(c.from_layer, c.v, y)})
    assert longcode.check_independent(g, families) == (1, x, y, y)
    assert check_independent_reference(g, families) == (1, x, y, y)


@functools.lru_cache(maxsize=None)
def small_hadamard(seed: int) -> hadamard.HadamardGadget:
    return hadamard_case(1, 2, seed)[0]


@settings(max_examples=150)
@given(data=st.data(), seed=st.integers(0, 3), ti=st.integers(0, 1))
def test_independent_on_triple_matches_reference(data, seed, ti):
    g = small_hadamard(seed)
    indicator = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
    report = hadamard.extract_strategies(g, indicator, ti)
    assert report.independent_on_triple is independent_on_triple_reference(g, indicator, ti)



def test_rule_mode_colours_only_the_sampled_points(monkeypatch):
    pcp = games.build_smooth_mlpcp(games.gen_toy_dto1_game(2, 5, 1, 2, 7), 2, 2)
    g = dto1.build(pcp, 0.25)
    assert g.mode == "rule" and g.vertex_count > 2**32  # too many points to colour whole
    sigma = pcp.planted_labeling
    want = []

    def hits(ci, rng, samples):
        """A monochromatic hit (all three dictator bits set), then a proper one."""
        c = pcp.constraints[ci]
        jv = sigma[c.from_layer][c.v]
        x, y = 1 << sigma[c.to_layer][c.u], 1 << jv
        z = y | 1 << (jv + 1) % pcp.label_sizes[c.from_layer]
        want.append((ci, x, y, z))
        return [(x, y, z), (0, y, z)][:samples]

    monkeypatch.setattr(g, "sample_hits", hits)
    res = dto1.yes_check(g, sigma, samples=2)
    assert res.violations == want
    assert res.checked == res.surviving == 2 * len(pcp.constraints)
