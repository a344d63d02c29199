"""The one dictator-colouring certificate behind longcode.yes_partition and
dto1.yes_check, diff-tested against the two walks it replaced."""
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from gadgetlab import dto1, games, longcode, ternary
from gadgetlab.seeding import derive_rng


# ---------------------------------------------------------------------------
# The replaced checkers, kept as references


def yes_partition_reference(g: longcode.LongCodeGadget, sigma, samples: int = 2000,
                            seed: int = 0) -> longcode.PartitionResult:
    """The long-code walk as it was: class weights from the formula; in rule
    mode, samples draws per constraint from its own seeded stream, each a
    uniform x and then a uniform allowed digit pair per coordinate."""
    pcp = g.pcp
    sigma = games.check_labeling(pcp, sigma)
    class_of: dict[int, int] = {}
    w1 = w2 = wstar = Fraction(0)
    for l in range(pcp.layers):
        share = Fraction(1, pcp.layers * pcp.var_counts[l])
        for v in range(pcp.var_counts[l]):
            j = sigma[l][v]
            m = pcp.label_sizes[l]
            step = 3**j
            for pt in range(3**m):
                class_of[g.vertex_id(l, v, pt)] = (pt // step) % 3
            wstar += g.epsilon * share
            w1 += (1 - g.epsilon) / 2 * share
            w2 += (1 - g.epsilon) / 2 * share

    violations: list[tuple[int, int, int, int]] = []
    checked = surviving = 0

    def check_edge(ci, c, x, y, z):
        nonlocal checked, surviving
        checked += 1
        cx = class_of[g.vertex_id(c.to_layer, c.u, x)]
        cy = class_of[g.vertex_id(c.from_layer, c.v, y)]
        cz = class_of[g.vertex_id(c.from_layer, c.v, z)]
        if ternary.STAR in (cx, cy, cz):
            return
        surviving += 1
        if cx == cy == cz:
            violations.append((ci, x, y, z))

    if g.mode == "enumerate":
        for ci, c in enumerate(pcp.constraints):
            for x, y, z in g.constraint_edges[ci].tolist():
                check_edge(ci, c, x, y, z)
        coverage = "exhaustive"
    else:
        for ci, c in enumerate(pcp.constraints):
            rng = derive_rng(seed, "yes-check", ci)
            r_big = pcp.label_sizes[c.from_layer]
            r_small = pcp.label_sizes[c.to_layer]
            for _ in range(samples):
                x = rng.randrange(3**r_small)
                xd = ternary.point_digits(x, r_small)
                y = z = 0
                for j in range(r_big):
                    d = xd[c.projection[j]]
                    a, b = rng.choice([(a, b) for a in range(3) for b in range(3)
                                       if (d, a, b) not in ((1, 1, 1), (2, 2, 2))])
                    y += a * 3**j
                    z += b * 3**j
                check_edge(ci, c, x, y, z)
        coverage = f"sampled:{samples} per constraint on {len(pcp.constraints)} constraints"
    return longcode.PartitionResult(class_of, (w1, w2, wstar), violations, checked,
                                    surviving, coverage)


@dataclass
class YesCheckResult:
    violations: list[tuple[int, int, int, int]]
    checked: int
    coverage: str


def yes_check_reference(g: dto1.Dto1Gadget, sigma, samples: int = 2000,
                        seed: int = 0) -> YesCheckResult:
    """The d-to-1 walk as it was."""
    pcp = g.pcp
    sigma = games.check_labeling(pcp, sigma)
    violations = []
    checked = 0

    def check(ci, c, x, y, z):
        nonlocal checked
        checked += 1
        cx = (x >> sigma[c.to_layer][c.u]) & 1
        cy = (y >> sigma[c.from_layer][c.v]) & 1
        cz = (z >> sigma[c.from_layer][c.v]) & 1
        if cx == cy == cz:
            violations.append((ci, x, y, z))

    sampled = 0
    for ci, c in enumerate(pcp.constraints):
        if g.constraint_edges[ci] is not None:
            for x, y, z in g.constraint_edges[ci].tolist():
                check(ci, c, x, y, z)
            continue
        sampled += 1
        rng = derive_rng(seed, "yes-check", ci)
        r = g.constraint_r[ci]
        block_pos = dto1.block_positions(dto1.blocks_of(c.projection, pcp.label_sizes[c.to_layer]),
                                         pcp.label_sizes[c.from_layer])
        for _ in range(samples):
            x = y = z = 0
            for i, positions in enumerate(block_pos):
                xv, yv, zv = dto1.sample(g.delta, r, rng)
                x |= (1 if xv == -1 else 0) << i
                for t, j in enumerate(positions):
                    y |= (1 if yv[t] == -1 else 0) << j
                    z |= (1 if zv[t] == -1 else 0) << j
            check(ci, c, x, y, z)
    coverage = ("exhaustive" if sampled == 0
                else f"sampled:{samples} per constraint on {sampled} constraints")
    return YesCheckResult(violations, checked, coverage)


# ---------------------------------------------------------------------------
# Gadgets, some with monochromatic hits injected under the planted labeling


def inject(g: games.PcpGadget, sigma, digit: int) -> None:
    """Add to every constraint one edge and one pair whose points all carry
    the digit at the planted labels, and one edge through a point whose
    planted digit is 0 (the long code's removed star)."""
    base = g.base
    for ci, c in enumerate(g.pcp.constraints):
        sx = base ** sigma[c.to_layer][c.u]
        jv = sigma[c.from_layer][c.v]
        sy = base ** jv
        other = base ** ((jv + 1) % g.pcp.label_sizes[c.from_layer])
        g.constraint_edges[ci] = np.vstack([g.constraint_edges[ci],
                                            (digit * sx, digit * sy, digit * sy + other),
                                            (0, digit * sy, digit * sy + other),
                                            (digit * sx, digit * sy, digit * sy)])


LONGCODE_CASES = [(2, 2, 3, seed) for seed in range(4)] + [(3, 2, (3, 2, 2), 5),
                                                           (2, 1, (4, 2), 6)]


@pytest.mark.parametrize("injected", [None, ternary.ONE, ternary.TWO])
@pytest.mark.parametrize("layers,vars_per_layer,sizes,seed", LONGCODE_CASES)
def test_yes_partition_matches_reference(layers, vars_per_layer, sizes, seed, injected):
    pcp = games.gen_toy_mlpcp(layers, vars_per_layer, sizes, seed)
    g = longcode.build(pcp, Fraction(1, 10))
    assert g.mode == "enumerate"
    if injected is not None:
        inject(g, pcp.planted_labeling, injected)
    want = yes_partition_reference(g, pcp.planted_labeling)
    got = longcode.yes_partition(g, pcp.planted_labeling)
    assert got == want
    assert bool(got.violations) == (injected is not None)
    if injected is not None:
        assert len(got.violations) == 2 * len(pcp.constraints)


@pytest.mark.parametrize("injected", [None, 0, 1])
@pytest.mark.parametrize("n_u,n_v,seed", [(1, 3, 1), (1, 3, 4), (1, 3, 7)])
def test_yes_check_matches_reference(n_u, n_v, seed, injected):
    pcp = games.build_smooth_mlpcp(games.gen_toy_dto1_game(n_u, n_v, 1, 2, seed), 2, 1)
    g = dto1.build(pcp, 0.25)
    assert g.mode == "enumerate"
    if injected is not None:
        inject(g, pcp.planted_labeling, injected)
    want = yes_check_reference(g, pcp.planted_labeling)
    got = dto1.yes_check(g, pcp.planted_labeling)
    assert (got.violations, got.checked, got.coverage) == (
        want.violations, want.checked, want.coverage)
    assert got.surviving == got.checked
    # d-to-1 removes no digit: with 0 injected, the x = 0 edge is a third
    # monochromatic hit
    assert len(got.violations) == {None: 0, 0: 3, 1: 2}[injected] * len(pcp.constraints)


def test_dto1_sampled_draws_match_reference():
    game = games.gen_toy_dto1_game(2, 5, 1, 2, 7)
    pcp = games.build_smooth_mlpcp(game, 2, 2)  # over the bit cap: rule mode
    g = dto1.build(pcp, 0.25)
    assert g.mode == "rule"
    want = yes_check_reference(g, pcp.planted_labeling, samples=50, seed=3)
    got = dto1.yes_check(g, pcp.planted_labeling, samples=50, seed=3)
    assert (got.violations, got.checked, got.coverage) == (
        want.violations, want.checked, want.coverage)
    assert got.coverage == f"sampled:50 per constraint on {len(pcp.constraints)} constraints"


@pytest.mark.parametrize("sizes,seed", [(5, 1), ((5, 3), 2), ((3, 6, 2), 3)])
def test_longcode_sampled_draws_match_reference(sizes, seed):
    pcp = games.gen_toy_mlpcp(len(sizes) if isinstance(sizes, tuple) else 2, 2, sizes, seed)
    g = longcode.build(pcp, Fraction(1, 10))
    assert g.mode == "rule"
    want = yes_partition_reference(g, pcp.planted_labeling, samples=200, seed=5)
    got = longcode.yes_partition(g, pcp.planted_labeling, samples=200, seed=5)
    assert (got.violations, got.checked_edges, got.surviving_edges, got.coverage) == (
        want.violations, want.checked_edges, want.surviving_edges, want.coverage)
    assert 0 < got.surviving_edges < got.checked_edges == 200 * len(pcp.constraints)


def test_longcode_sampled_checks_every_draw():
    pcp = games.gen_toy_mlpcp(2, 2, 5, 1)  # label size 5: rule mode
    g = longcode.build(pcp, Fraction(1, 10))
    assert g.mode == "rule"
    samples = 2000
    res = longcode.yes_partition(g, pcp.planted_labeling, samples=samples, seed=4)
    n = len(pcp.constraints)
    assert res.ok
    assert res.checked_edges == samples * n
    assert res.coverage == f"sampled:{samples} per constraint on {n} constraints"
    pairs = sum(y == z for ci in range(n)
                for _, y, z in g.sample_hits(ci, derive_rng(4, "yes-check", ci), samples))
    assert pairs > 0  # the y == z draws are among the checked ones


def test_weights_are_measured_not_restated(monkeypatch):
    pcp = games.gen_toy_mlpcp(2, 2, 3, 7)
    g = longcode.build(pcp, Fraction(1, 10))
    eps = g.epsilon
    assert longcode.yes_partition(g, pcp.planted_labeling).weights == (
        (1 - eps) / 2, (1 - eps) / 2, eps)
    unskewed = longcode.LongCodeGadget.point_weights

    def skewed(self):  # thrice the weight of every point whose digit 0 is 1
        points = [pt for l, _ in self.offsets for pt in range(3 ** self.pcp.label_sizes[l])]
        return [3 * w if pt % 3 == ternary.ONE else w for pt, w in zip(points, unskewed(self))]

    monkeypatch.setattr(longcode.LongCodeGadget, "point_weights", skewed)
    res = longcode.yes_partition(g, pcp.planted_labeling)
    assert res.weights != ((1 - eps) / 2, (1 - eps) / 2, eps)
    want = [Fraction(0)] * 3
    for vertex, w in enumerate(skewed(g)):
        want[res.class_of[vertex]] += w
    assert res.weights == (want[ternary.ONE], want[ternary.TWO], want[ternary.STAR])
