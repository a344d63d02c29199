"""Exact hypergraph oracles."""
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gadgetlab import cli, dto1, games, hadamard, verify
from gadgetlab.seeding import derive_rng, derive_seed
from gadgetlab.verify import DEFAULT_NODE_BUDGET, ColoringResult, GenericHypergraph


def random_hypergraph(rng: random.Random, n: int, k: int, m: int,
                      rational_weights: bool = True) -> GenericHypergraph:
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    weights = {}
    if rational_weights:
        weights = {v: Fraction(rng.randrange(1, 6), rng.randrange(1, 4)) for v in range(n)}
    return GenericHypergraph(k, tuple(range(n)), tuple(edges), weights)


def fraction_weights(h: GenericHypergraph) -> dict[int, Fraction]:
    """Each vertex id's exact weight, for the reference searches."""
    return {v: Fraction(w, h.scale) for v, w in zip(h.ids, h.weights)}


def brute_force_max_is(h: GenericHypergraph) -> Fraction:
    verts = list(h.vertices)
    best = Fraction(0)
    for mask in range(1 << len(verts)):
        chosen = {verts[i] for i in range(len(verts)) if (mask >> i) & 1}
        if any(set(e) <= chosen for e in h.edges):
            continue
        best = max(best, h.weight_of(chosen))
    return best


def max_independent_set_recursive(h: GenericHypergraph, budget: int = verify.DEFAULT_NODE_BUDGET
                                  ) -> verify.IndependentSetResult:
    """Reference oracle: the recursive branch and bound this module's
    explicit-stack search replaced, kept as it was but for the budget, now
    tested before a node is counted, so that at most budget nodes expand.

    Branches on the highest-degree undecided vertex, seeds the incumbent
    with a greedy solution, and prunes with a fractional bound obtained
    from a packing of vertex-disjoint live edges. Exceeding the
    node-expansion budget degrades the result to best-found.
    """
    order = sorted(h.vertices,
                   key=lambda v: (-sum(1 for e in h.edges if v in e), v))
    pos = {v: i for i, v in enumerate(order)}
    edges = [tuple(sorted(e, key=lambda v: pos[v])) for e in h.edges]
    weights = fraction_weights(h)

    greedy: set[int] = set()
    for v in order:
        greedy.add(v)
        if any(all(u in greedy for u in e) for e in edges if v in e):
            greedy.remove(v)
    best_set = frozenset(greedy)
    best_weight = h.weight_of(greedy)

    nodes = 0
    exhausted = False

    def bound(idx: int, excluded: set[int], current: Fraction) -> Fraction:
        undecided = [v for v in order[idx:] if v not in excluded]
        optimistic = current + h.weight_of(undecided)
        undecided_set = set(undecided)
        used: set[int] = set()
        penalty = Fraction(0)
        for e in edges:
            if any(v in excluded for v in e):
                continue
            live = [v for v in e if v in undecided_set]
            if not live:
                continue
            if any(v in used for v in e):
                continue
            used.update(e)
            penalty += min(weights[v] for v in live)
        return optimistic - penalty

    def dfs(idx: int, included: set[int], excluded: set[int], current: Fraction) -> None:
        nonlocal best_set, best_weight, nodes, exhausted
        if exhausted:
            return
        if nodes >= budget:
            exhausted = True
            return
        nodes += 1
        while idx < len(order) and order[idx] in excluded:
            idx += 1
        if idx == len(order):
            if current > best_weight:
                best_weight = current
                best_set = frozenset(included)
            return
        if bound(idx, excluded, current) <= best_weight:
            return
        v = order[idx]
        included.add(v)
        conflict = [e for e in edges if v in e and all(u in included for u in e)]
        if not conflict:
            dfs(idx + 1, included, excluded, current + weights[v])
        included.remove(v)
        excluded.add(v)
        dfs(idx + 1, included, excluded, current)
        excluded.remove(v)

    dfs(0, set(), set(), Fraction(0))
    return verify.IndependentSetResult(best_set, best_weight, not exhausted, nodes)


def two_colorable_recursive(h: GenericHypergraph) -> verify.ColoringResult:
    """Reference oracle: the recursive 2-colouring search with unit
    propagation that the decision-trail search replaced, kept as it was."""
    order = sorted(h.vertices,
                   key=lambda v: (-sum(1 for e in h.edges if v in e), v))
    edges = list(h.edges)
    edges_of: dict[int, list[int]] = {v: [] for v in h.vertices}
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    color: dict[int, int] = {}
    nodes = 0
    max_depth = 0

    def propagate(trail: list[int]) -> bool:
        queue = list(trail)
        while queue:
            v = queue.pop()
            for ei in edges_of[v]:
                e = edges[ei]
                assigned = [color[u] for u in e if u in color]
                unassigned = [u for u in e if u not in color]
                if not unassigned:
                    if len(set(assigned)) == 1:
                        return False
                    continue
                if len(unassigned) == 1 and len(set(assigned)) == 1:
                    u = unassigned[0]
                    color[u] = 1 - assigned[0]
                    trail.append(u)
                    queue.append(u)
        return True

    def dfs(idx: int) -> bool:
        nonlocal nodes, max_depth
        while idx < len(order) and order[idx] in color:
            idx += 1
        max_depth = max(max_depth, len(color))
        if idx == len(order):
            return True
        v = order[idx]
        for c in (0, 1):
            nodes += 1
            color[v] = c
            trail = [v]
            if propagate(trail) and dfs(idx + 1):
                return True
            for u in trail:
                del color[u]
        return False

    ok = dfs(0)
    return verify.ColoringResult(ok, dict(color) if ok else None, nodes, max_depth)


@dataclass
class AlmostColoringResult:
    success: bool
    removal: frozenset[int] | None
    coloring: dict[int, int] | None
    attempts: int
    best_residual_depth: int


def _induced(h: GenericHypergraph, survivors: set[int]) -> GenericHypergraph:
    return GenericHypergraph(
        h.k, tuple(sorted(survivors)),
        tuple(e for e in h.edges if all(v in survivors for v in e)),
        {v: w for v, w in fraction_weights(h).items() if v in survivors},
    )


def almost_two_colorable_enumerate(h: GenericHypergraph, epsilon,
                                   candidate_removal=None,
                                   enum_cap: int = 10**6) -> AlmostColoringResult:
    """Reference oracle: the removal-set enumerator the three-state search
    replaced, kept as it was but over the recursive 2-colouring reference.

    Search for a removal set of weight <= epsilon * total whose induced
    sub-hypergraph (edges fully inside the survivors) is 2-colorable.
    With a candidate removal supplied, only that candidate is verified.
    """
    epsilon = Fraction(epsilon)
    allowance = epsilon * h.total_weight
    if candidate_removal is not None:
        removal = set(candidate_removal)
        if h.weight_of(removal) > allowance:
            return AlmostColoringResult(False, None, None, 1, 0)
        res = two_colorable_recursive(_induced(h, set(h.vertices) - removal))
        return AlmostColoringResult(res.colorable, frozenset(removal) if res.colorable else None,
                                    res.coloring, 1, res.max_depth)

    weights = fraction_weights(h)
    removable = sorted((v for v in h.vertices if weights[v] <= allowance),
                       key=lambda v: (-weights[v], v))
    attempts = 0
    best_depth = -1
    for size in range(0, len(removable) + 1):
        for combo in itertools.combinations(removable, size):
            if h.weight_of(combo) > allowance:
                continue
            attempts += 1
            if attempts > enum_cap:
                return AlmostColoringResult(False, None, None, attempts - 1, best_depth)
            res = two_colorable_recursive(_induced(h, set(h.vertices) - set(combo)))
            best_depth = max(best_depth, res.max_depth)
            if res.colorable:
                return AlmostColoringResult(True, frozenset(combo), res.coloring,
                                            attempts, res.max_depth)
    return AlmostColoringResult(False, None, None, attempts, best_depth)


_REMOVED = 2


def _incidence(h: GenericHypergraph) -> tuple[list[list[int]], list[int], dict[int, list[int]]]:
    """The edges as lists, the vertices by falling degree, then id, and the
    edge ids of each vertex; one pass over the edges, O(E·k)."""
    edges = h.edges.tolist()
    edges_of: dict[int, list[int]] = {v: [] for v in h.vertices}
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    order = sorted(h.vertices, key=lambda v: (-len(edges_of[v]), v))
    return edges, order, edges_of


def almost_two_colorable_lists(h: GenericHypergraph, epsilon, candidate_removal=None,
                               budget: int = DEFAULT_NODE_BUDGET) -> ColoringResult:
    """Reference oracle: the three-state search with per-edge list
    propagation that the count-array search replaced, kept as it was but
    for the budget, now tested before a node is counted.

    Search for a removal set of weight <= epsilon * total whose induced
    sub-hypergraph (edges fully inside the survivors) is 2-colorable.

    Each vertex, in falling degree order, tries colour 0, colour 1, then
    removed, the last only while the removed weight stays within the
    allowance; a removed vertex satisfies all its edges. Unit propagation
    forces the last open vertex of a monochromatic edge only once that
    vertex can no longer be removed. With a candidate removal supplied,
    the search starts with it removed and allows no further removals.
    """
    allowance = Fraction(epsilon) * h.total_weight
    removal = set(candidate_removal or ())
    removed_weight = h.weight_of(removal)
    if removed_weight > allowance:
        return ColoringResult(False, None, 0, 0)
    if candidate_removal is not None:
        allowance = removed_weight
    edges, order, edges_of = _incidence(h)
    weights = fraction_weights(h)
    state: dict[int, int] = dict.fromkeys(removal, _REMOVED)

    # Only coloured vertices are propagated, so `assigned` holds the
    # propagated vertex's colour; a removed vertex adds _REMOVED beside it,
    # and an edge holding one is never monochromatic and forces nothing.
    def propagate(trail: list[int]) -> bool:
        queue = list(trail)
        while queue:
            v = queue.pop()
            for ei in edges_of[v]:
                e = edges[ei]
                assigned = [state[u] for u in e if u in state]
                unassigned = [u for u in e if u not in state]
                if not unassigned:
                    if len(set(assigned)) == 1:
                        return False
                    continue
                if len(unassigned) == 1 and len(set(assigned)) == 1:
                    u = unassigned[0]
                    if removed_weight + weights[u] <= allowance:
                        continue
                    state[u] = 1 - assigned[0]
                    trail.append(u)
                    queue.append(u)
        return True

    # Decision trail: (position, state, vertices it decided). A failed
    # state pops decisions until one still has a state left to try.
    decisions: list[tuple[int, int, list[int]]] = []
    nodes = max_depth = idx = s = 0
    while True:
        while idx < len(order) and order[idx] in state:
            idx += 1
        max_depth = max(max_depth, len(state))
        if idx == len(order):
            coloring = {v: c for v, c in state.items() if c != _REMOVED}
            return ColoringResult(True, coloring, nodes, max_depth,
                                  frozenset(state.keys() - coloring.keys()))
        if nodes >= budget:
            return ColoringResult(None, None, nodes, max_depth)
        nodes += 1
        v = order[idx]
        state[v] = s
        trail = [v]
        if s == _REMOVED:
            removed_weight += weights[v]
        if s == _REMOVED or propagate(trail):
            decisions.append((idx, s, trail))
            idx, s = idx + 1, 0
            continue
        for u in trail:
            del state[u]
        while s == _REMOVED or s == 1 and removed_weight + weights[order[idx]] > allowance:
            if not decisions:
                return ColoringResult(False, None, nodes, max_depth)
            idx, s, trail = decisions.pop()
            for u in trail:
                del state[u]
            if s == _REMOVED:
                removed_weight -= weights[order[idx]]
        s += 1


def whole(res: ColoringResult) -> tuple:
    """Every field of a colouring result, removal included."""
    return res.colorable, res.coloring, res.nodes, res.max_depth, res.removal


def almost_colorable_exhaustive(h: GenericHypergraph, epsilon) -> bool:
    """Scan all 3^n assignments of colour 0, colour 1 or removed: each
    removal set of weight at most epsilon * total, then each 2-colouring
    of its survivors, as bit masks."""
    n = len(h.vertices)
    pos = {v: i for i, v in enumerate(h.vertices)}
    edge_masks = [sum(1 << pos[v] for v in e) for e in h.edges]
    allowance = Fraction(epsilon) * h.total_weight
    full = (1 << n) - 1
    for removed in range(1 << n):
        if h.weight_of(v for v in h.vertices if removed >> pos[v] & 1) > allowance:
            continue
        surviving = [em for em in edge_masks if not em & removed]
        rest = full & ~removed
        ones = rest
        while True:  # every subset of the survivors as the colour-1 class
            if all(0 < ones & em < em for em in surviving):
                return True
            if not ones:
                break
            ones = (ones - 1) & rest
    return False


def seven_copies_of_k5() -> GenericHypergraph:
    """Seven disjoint complete 3-uniform hypergraphs on 5 unit-weight
    vertices: each needs one vertex removed, and seven of 35 is 1/5."""
    return GenericHypergraph(3, tuple(range(35)), tuple(
        tuple(5 * c + x for x in t)
        for c in range(7) for t in itertools.combinations(range(5), 3)))


def frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@st.composite
def small_hypergraphs(draw, max_n: int = 12, min_edges: int = 0) -> GenericHypergraph:
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, max_n))
    combos = list(itertools.combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(combos), unique=True,
                          min_size=min(min_edges, len(combos)), max_size=24)) if combos else []
    weights = {v: Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4))) for v in range(n)}
    return GenericHypergraph(k, tuple(range(n)), tuple(edges), weights)


@st.composite
def scattered_hypergraphs(draw, max_n: int = 12) -> GenericHypergraph:
    """Ids scattered over [-40, 40] and listed out of order, some of them
    isolated, with weights over coprime denominators up to 7, so that the
    max-IS search scales its integer weights by more than one denominator."""
    k = draw(st.sampled_from([2, 3, 4]))
    ids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=max_n, unique=True))
    isolated = draw(st.sets(st.sampled_from(ids), max_size=3))
    combos = list(itertools.combinations(sorted(set(ids) - isolated), k))
    edges = draw(st.lists(st.sampled_from(combos), unique=True, max_size=24)) if combos else []
    weights = {v: Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 5, 7])))
               for v in ids}
    return GenericHypergraph(k, tuple(ids), tuple(edges), weights)


SCATTERED = GenericHypergraph(3, (7, -3, 12, 0, -20, 5), ((-3, 0, 7), (0, 7, 12), (-3, 5, 12)),
                              {7: Fraction(1, 2), -3: Fraction(2, 3), 12: Fraction(3, 5),
                               0: Fraction(1, 7), -20: Fraction(5, 7), 5: Fraction(4, 3)})


@pytest.mark.parametrize("triples, seed, budget", [
    (4, 1, 1), (4, 1, 200), (4, 1, verify.DEFAULT_NODE_BUDGET), (4, 2, 200), (6, 2, 200)])
def test_max_is_on_small_hadamard_gadgets_matches_the_recursive_reference(triples, seed, budget):
    """Each node walks only its packing over edge masks: bounds, node
    counts and best sets are the reference search's, cut off or not."""
    inst, _ = games.gen_3lin(10, 10, seed)
    h = hadamard.build(inst, 1, triples=triples, seed=seed).to_hypergraph()
    assert verify.max_independent_set(h, budget) == max_independent_set_recursive(h, budget)


@settings(max_examples=200)
@given(h=st.one_of(small_hypergraphs(), scattered_hypergraphs()),
       budget=st.one_of(st.integers(0, 60), st.sampled_from([200, verify.DEFAULT_NODE_BUDGET])))
@example(h=SCATTERED, budget=0)
@example(h=SCATTERED, budget=verify.DEFAULT_NODE_BUDGET)
# unsatisfiable only below the first decision: a star, then a triangle
@example(h=GenericHypergraph(2, tuple(range(8)), ((0, 1), (0, 2), (0, 3), (0, 4),
                                                 (5, 6), (6, 7), (5, 7))),
         budget=verify.DEFAULT_NODE_BUDGET)
@example(h=GenericHypergraph(3, tuple(range(6)), tuple(itertools.combinations(range(6), 3))),
         budget=5)
def test_explicit_stacks_match_recursive_oracles(h, budget):
    res = verify.max_independent_set(h, budget)
    assert res == max_independent_set_recursive(h, budget)
    if res.optimal:
        assert res.weight == brute_force_max_is(h)
    col = verify.two_colorable(h)
    assert col == two_colorable_recursive(h)
    pos = {v: i for i, v in enumerate(h.vertices)}
    exhaustive = any(all(len({(mask >> pos[v]) & 1 for v in e}) > 1 for e in h.edges)
                     for mask in range(1 << len(h.vertices)))
    assert col.colorable == exhaustive


@st.composite
def wide_hypergraphs(draw) -> GenericHypergraph:
    """65-150 vertices and 65-250 edges, so that both the vertex and the
    edge masks of the max-IS search are wider than a machine word; k = 1
    gives single-vertex edges, and the weights are all 1, tied over two
    values, or rational."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(65, 150))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(sorted).map(tuple),
                          min_size=65, max_size=min(250, n) if k == 1 else 250, unique=True))
    kind = draw(st.sampled_from(["unit", "tied", "rational"]))
    weight = {"unit": st.just(1), "tied": st.sampled_from([1, 2]),
              "rational": st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))}[kind]
    return GenericHypergraph(k, tuple(range(n)), tuple(edges), {v: draw(weight) for v in range(n)})


@settings(max_examples=40)
@given(h=wide_hypergraphs(), budget=st.integers(0, 300))
def test_max_is_with_masks_wider_than_a_word_matches_the_recursive_reference(h, budget):
    assert verify.max_independent_set(h, budget) == max_independent_set_recursive(h, budget)


# at least 12 edges where there are that many, so that about a fifth of
# the examples are a no and a third need a removal
@settings(max_examples=300)
@given(h=small_hypergraphs(max_n=9, min_edges=12),
       epsilon=st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 5),
                                Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       candidate=st.sets(st.integers(0, 8), max_size=3))
def test_three_state_search_matches_enumerator(h, epsilon, candidate):
    candidate = candidate & set(h.vertices)
    checked = verify.almost_two_colorable(h, epsilon, candidate_removal=candidate)
    reference = almost_two_colorable_enumerate(h, epsilon, candidate_removal=candidate)
    assert checked.colorable == reference.success
    res = verify.almost_two_colorable(h, epsilon)
    assert res.colorable == almost_two_colorable_enumerate(h, epsilon).success
    assert res.colorable == almost_colorable_exhaustive(h, epsilon)
    if res.colorable:
        assert h.weight_of(res.removal) <= epsilon * h.total_weight
        assert res.coloring.keys() == set(h.vertices) - res.removal
        assert all(set(e) & res.removal or len({res.coloring[v] for v in e}) == 2
                   for e in h.edges)
    else:
        assert res.coloring is None and res.removal is None
    if epsilon == 0:
        col = verify.two_colorable(h)
        assert res == col and res.removal == col.removal


@st.composite
def scattered_cases(draw) -> tuple[GenericHypergraph, set[int] | None]:
    """A small hypergraph on scattered ids, negative ones and isolated
    vertices among them, listed out of order, with random rational
    weights; and no candidate removal, or a few of its vertices."""
    k = draw(st.sampled_from([2, 3, 4]))
    ids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True))
    combos = list(itertools.combinations(ids, k))
    edges = draw(st.lists(st.sampled_from(combos), unique=True, max_size=24)) if combos else []
    weights = {v: Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4))) for v in ids}
    candidate = draw(st.none() | st.sets(st.sampled_from(ids), max_size=3))
    return GenericHypergraph(k, tuple(ids), tuple(edges), weights), candidate


@settings(max_examples=400)
@given(case=scattered_cases(),
       epsilon=st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)]),
       budget=st.sampled_from([0, 1, DEFAULT_NODE_BUDGET]) | st.integers(2, 40))
# two edges of one vertex force the same vertex, then the search backtracks
@example(case=(GenericHypergraph(3, (18, -6, 28, 34, 30, 10, -2), (
    (30, 10, -2), (-6, 28, 30), (28, 34, -2), (-6, 28, 10), (18, -6, 30), (18, 30, 10),
    (18, 10, -2))), None), epsilon=Fraction(0), budget=DEFAULT_NODE_BUDGET)
def test_count_arrays_match_list_propagation(case, epsilon, budget):
    h, candidate = case
    res = verify.almost_two_colorable(h, epsilon, candidate, budget)
    assert whole(res) == whole(almost_two_colorable_lists(h, epsilon, candidate, budget))


@st.composite
def weighted_cases(draw) -> tuple[GenericHypergraph, dict[int, Fraction]]:
    """A hypergraph on scattered ids listed out of order, some given weights
    over mixed denominators and the rest left to weigh 1; and each id's
    exact weight, worked out from what was given."""
    k = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True))
    combos = list(itertools.combinations(ids, k))
    edges = draw(st.lists(st.sampled_from(combos), unique=True, max_size=12)) if combos else []
    given = {v: Fraction(draw(st.integers(1, 30)), draw(st.sampled_from([1, 2, 4, 6, 9, 35])))
             for v in draw(st.sets(st.sampled_from(ids)))}
    return GenericHypergraph(k, tuple(ids), tuple(edges), given), {
        v: given.get(v, Fraction(1)) for v in ids}


@settings(max_examples=200)
@given(case=weighted_cases(), data=st.data())
def test_integer_weights_are_the_given_rationals(case, data):
    h, exact = case
    assert all(type(w) is int for w in h.weights) and len(h.weights) == len(h.ids)
    assert h.scale == math.lcm(*(w.denominator for w in exact.values()))
    assert h.total_weight == sum(exact.values(), Fraction(0))
    chosen = data.draw(st.lists(st.sampled_from(h.vertices), max_size=12))
    assert h.weight_of(chosen) == sum((exact[v] for v in chosen), Fraction(0))
    d = h.to_json_dict()
    assert [(v["id"], Fraction(*v["weight"])) for v in d["vertices"]] == list(exact.items())
    assert all(math.gcd(*v["weight"]) == 1 for v in d["vertices"])  # reduced pairs
    again = GenericHypergraph.from_json_dict(d)
    assert again == h and (again.weights, again.scale) == (h.weights, h.scale)


def test_equal_rationals_over_other_denominators_are_equal():
    h = GenericHypergraph(2, (3, 1, 2), ((1, 3),), {1: Fraction(1, 2), 3: Fraction(5, 6)})
    d = h.to_json_dict()
    assert [v["weight"] for v in d["vertices"]] == [[5, 6], [1, 2], [1, 1]]
    for v, unreduced in zip(d["vertices"], ([10, 12], [3, 6], [4, 4])):
        v["weight"] = unreduced
    again = GenericHypergraph.from_json_dict(d)
    assert again == h and (again.weights, again.scale) == ((3, 6, 5), 6)
    assert again == GenericHypergraph(2, (3, 1, 2), ((1, 3),), {1: 0.5, 3: "5/6", 2: 1})
    # the same integers over another scale are other weights
    assert h != GenericHypergraph(2, (3, 1, 2), ((1, 3),),
                                  {1: Fraction(3, 12), 2: Fraction(6, 12), 3: Fraction(5, 12)})


# Mersenne primes: weights over all three have an lcm near 2**181
HUGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1)


@settings(max_examples=60)
@given(h=small_hypergraphs(max_n=9, min_edges=6), data=st.data())
def test_weights_past_int64_match_references(h, data):
    numerators = data.draw(st.lists(st.integers(1, 10**30), min_size=len(h.ids),
                                    max_size=len(h.ids)))
    h = GenericHypergraph(h.k, h.vertices, h.edges, {
        v: Fraction(n, HUGE_PRIMES[v % 3]) for v, n in zip(h.ids, numerators)})
    if len(h.ids) >= 3:
        assert h.scale > 2**63
    res = verify.max_independent_set(h)
    assert res == max_independent_set_recursive(h)
    assert res.optimal and res.weight == brute_force_max_is(h)
    candidate = data.draw(st.none() | st.sets(st.sampled_from(h.ids), max_size=2))
    for epsilon in (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)):
        assert whole(verify.almost_two_colorable(h, epsilon, candidate)) == whole(
            almost_two_colorable_lists(h, epsilon, candidate))


@st.composite
def int_row_arrays(draw) -> np.ndarray:
    """An (n, k) int64 array for k in 2..4, n possibly 0, with repeated
    values, repeated rows and rows that repeat up to order."""
    k = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), max_size=30))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


@st.composite
def wide_span_row_arrays(draw) -> np.ndarray:
    """An (n, k) int64 array for k in 2..5 whose values span so much of
    int64 that span**k overflows it: ids near -2**62 and 2**62, at the ends
    of int64 or up to 2**36, with repeated rows and rows that repeat up to
    order."""
    k = draw(st.integers(2, 5))
    near = st.sampled_from([-2**62, 2**62, -2**63, 2**63 - 8]).flatmap(
        lambda base: st.integers(base, base + 7))
    values = draw(st.sampled_from([near | st.integers(-2, 2) | st.integers(-2**63, 2**63 - 1),
                                   st.integers(0, 2**36)]))
    rows = draw(st.lists(st.lists(values, min_size=k, max_size=k), max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    rows = [draw(st.permutations(row)) for row in rows]
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


@settings(max_examples=400)
@given(rows=int_row_arrays() | wide_span_row_arrays())
@example(rows=np.empty((0, 2), dtype=np.int64))
@example(rows=np.empty((0, 4), dtype=np.int64))
@example(rows=np.array([[-2**63, 2**63 - 1], [2**63 - 1, -2**63], [0, 0]], dtype=np.int64))
@example(rows=np.array([[2**62, -2**62, 1, 0, 2**62 + 1]] * 2, dtype=np.int64))
@example(rows=np.array([[65315367868, 9906573152, 65190693613], [21428894211, 29090772061, 56879289140],
                        [28119950532, 37767790634, 1893847841]], dtype=np.int64))
def test_unique_rows_matches_sorted_tuple_set(rows):
    want = sorted({tuple(sorted(r)) for r in rows.tolist()})
    got = verify.unique_rows(rows)
    assert got.dtype == np.int64 and got.shape == (len(want), rows.shape[1])
    assert list(map(tuple, got.tolist())) == want
    assert not got.flags.writeable
    assert (rows[:, 1:] >= rows[:, :-1]).all()  # the input's rows were sorted in place


INT64 = np.iinfo(np.int64)


@st.composite
def short_row_arrays(draw) -> np.ndarray:
    """A 2-D (n, k) or 3-D (m, n, k) int64 array for k in 1..5, with small
    values, the ends of int64 and anything between."""
    shape = draw(st.lists(st.integers(0, 20), min_size=1, max_size=2)) + [draw(st.integers(1, 5))]
    ends = st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max])
    return draw(hnp.arrays(np.int64, tuple(shape),
                           elements=st.integers(-3, 3) | ends | st.integers(INT64.min, INT64.max)))


@settings(max_examples=300)
@given(rows=short_row_arrays())
@example(rows=np.random.default_rng(0).integers(-5, 5, size=(2**15 + 3, 3)))  # several blocks
def test_sort_rows_matches_np_sort(rows):
    want = np.sort(rows, axis=-1)
    verify.sort_rows(rows)
    assert rows.tolist() == want.tolist()


def check_coloring_rows(edges, colors, removed, parity):
    """Reference: check_coloring's two masks, one row at a time."""
    surviving, violating = [], []
    for row in edges.tolist():
        kept = not any(removed[v] for v in row)
        gathered = [int(colors[v]) for v in row]
        bad = sum(gathered) % 2 == 0 if parity else len(set(gathered)) == 1
        surviving.append(kept)
        violating.append(kept and bad)
    return surviving, violating


@settings(max_examples=300)
@given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 9), parity=st.booleans())
def test_check_coloring_matches_a_row_loop(data, k, n, parity):
    edges = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                                        max_size=20)), dtype=np.int64).reshape(-1, k)
    colors = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                      dtype=np.int8)
    removed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    surviving, violating = verify.check_coloring(edges, colors, removed, parity=parity)
    assert surviving.dtype == violating.dtype == bool
    assert (surviving.tolist(), violating.tolist()) == check_coloring_rows(
        edges, colors, removed, parity)


@pytest.mark.parametrize("r, triples, seed", [(1, 1, 0), (1, 2, 1), (1, 3, 2), (1, 3, 5)])
def test_colouring_searches_on_small_hadamard_gadgets_match_the_list_reference(r, triples, seed):
    """The incidence lists come from a radix sort of small ints: node counts
    and colourings are the reference search's."""
    inst, _ = games.gen_3lin(10, 10, seed)
    h = hadamard.build(inst, r, triples=triples, seed=seed).to_hypergraph()
    for epsilon, budget in ((0, 3000), (Fraction(1, 10), 300)):
        assert whole(verify.almost_two_colorable(h, epsilon, budget=budget)) == whole(
            almost_two_colorable_lists(h, epsilon, budget=budget))


def test_int_weights_build_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(verify, "Fraction", Counted)
    h = GenericHypergraph.from_json_dict({"k": 2, "edges": [[0, 1]], "vertices": [
        {"id": 0, "weight": [3, 1]}, {"id": 1, "weight": [1, 2]}, {"id": 2, "weight": [4, 2]}]})
    assert made == [(1, 2), (4, 2)] and (h.weights, h.scale) == ((6, 1, 4), 2)
    made.clear()
    h = GenericHypergraph(2, (0, 1, 2), ((0, 1),), {0: 5, 1: True})
    assert made == [(True,)] and (h.weights, h.scale) == ((5, 1, 1), 1)  # a bool is no int


def dto1_yes_hypergraph() -> GenericHypergraph:
    """The d-to-1 gadget of the dto1-yes benchmark workload at seed 1 (304
    vertices, 98,304 edges), built as its CLI pipeline builds it."""
    game = games.gen_toy_dto1_game(1, 3, 1, 2, derive_rng(1, "gen-game"))
    return dto1.build(games.build_smooth_mlpcp(game, 2, 1), 0.25).to_hypergraph()


def test_dto1_yes_gadget_search_is_pinned():
    h = dto1_yes_hypergraph()
    assert (len(h.vertices), len(h.edges)) == (304, 98304)
    res = verify.two_colorable(h)
    assert (res.colorable, res.nodes, res.max_depth) == (True, 64, 304)
    assert whole(res) == whole(almost_two_colorable_lists(h, 0))


class TestHypergraphType:
    def test_edges_must_have_k_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            GenericHypergraph(3, (0, 1, 2), ((0, 1, 1),))

    def test_weights_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GenericHypergraph(2, (0, 1), ((0, 1),), {0: Fraction(0)})

    def test_json_round_trip(self):
        h = random_hypergraph(random.Random(0), 7, 3, 5)
        again = GenericHypergraph.from_json_dict(h.to_json_dict())
        assert again == h

    def test_edge_list_format(self):
        h = GenericHypergraph(3, (0, 1, 2, 3), ((0, 1, 2), (1, 2, 3)))
        assert h.to_edge_list() == "0 1 2\n1 2 3\n"
        assert GenericHypergraph(3, (0, 1, 2), ()).to_edge_list() == ""

    def test_edges_are_one_read_only_int64_array(self):
        h = GenericHypergraph(3, tuple(range(5)), ((4, 0, 2), (3, 1, 0)))
        assert h.edges.dtype == np.int64 and h.edges.shape == (2, 3)
        assert h.edges.tolist() == [[0, 2, 4], [0, 1, 3]]  # rows sorted, order kept
        with pytest.raises(ValueError):
            h.edges[0, 0] = 1
        assert GenericHypergraph(3, (0, 1), ()).edges.shape == (0, 3)
        assert GenericHypergraph(3, (0, 1, 2), np.array([[2, 1, 0]])).edges.tolist() == [[0, 1, 2]]

    def test_equality_compares_edge_arrays(self):
        h = GenericHypergraph(3, tuple(range(5)), ((0, 1, 2), (1, 2, 3)))
        assert h == GenericHypergraph(3, tuple(range(5)), [[2, 1, 0], [3, 2, 1]])
        assert h != GenericHypergraph(3, tuple(range(5)), ((0, 1, 2), (1, 2, 4)))
        assert h != GenericHypergraph(3, tuple(range(5)), ((0, 1, 2),))
        assert h != GenericHypergraph(3, tuple(range(5)), ((0, 1, 2), (1, 2, 3)), {4: 2})

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 2], [0, 1]], "edge [0, 1] does not have exactly 3 vertices"),
        ([[0, 1]], "edge [0, 1] does not have exactly 3 vertices"),
        ([[0, 1, 2], [1, 2, 3, 0]], "edge [1, 2, 3, 0] does not have exactly 3 vertices"),
        ([[0, 1, 2], [0, 1.5, 2]], "edge [0, 1.5, 2] holds a vertex id that is not an int64"),
        ([[0, 1.0, 2]], "edge [0, 1.0, 2] holds a vertex id that is not an int64"),
        ([[True, False, True]], "edge [True, False, True] holds a vertex id that is not"),
        ([[0, "1", 2]], "edge [0, '1', 2] holds a vertex id that is not an int64"),
        ([[0, 1, 2**63]], f"edge [0, 1, {2**63}] holds a vertex id that is not an int64"),
        ([[0, 1, 2], [3, 1, 1]], "edge [1, 1, 3] does not have exactly 3 distinct vertices"),
        ([[0, 1, 2], [0, 1, 9]], "edge [0, 1, 9] mentions an unknown vertex"),
    ])
    def test_malformed_edges_name_the_first_offender(self, edges, message):
        with pytest.raises(ValueError) as err:
            GenericHypergraph(3, tuple(range(4)), edges)
        assert str(err.value).startswith(message)
        d = GenericHypergraph(3, tuple(range(4)), ()).to_json_dict()
        d["edges"] = edges
        with pytest.raises(ValueError) as err:
            GenericHypergraph.from_json_dict(d)
        assert str(err.value).startswith(message)


class TestMaxIndependentSet:
    def test_edge_mask_cache_empties_itself_when_full(self):
        # the search caches one E-bit mask per packed edge; the cap keeps that below E**2 bits
        made = []
        cache = verify._Cache(lambda j: made.append(j) or ~j, 2)
        assert [cache[j] for j in (3, 5, 3, 7, 5)] == [~3, ~5, ~3, ~7, ~5]
        assert made == [3, 5, 7, 5] and len(cache) <= 2

    def test_single_edge(self):
        h = GenericHypergraph(3, (0, 1, 2), ((0, 1, 2),))
        res = verify.max_independent_set(h)
        assert res.weight == 2 and res.optimal

    def test_edgeless(self):
        h = GenericHypergraph(3, tuple(range(5)), ())
        res = verify.max_independent_set(h)
        assert res.vertices == frozenset(range(5))

    def test_triangle(self):
        h = GenericHypergraph(2, (0, 1, 2), ((0, 1), (1, 2), (0, 2)))
        assert verify.max_independent_set(h).weight == 1

    def test_result_is_independent(self):
        rng = random.Random(5)
        for _ in range(10):
            h = random_hypergraph(rng, 10, 3, 8)
            res = verify.max_independent_set(h)
            assert not any(set(e) <= res.vertices for e in h.edges)

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_brute_force(self, trial):
        rng = random.Random(trial + 100)
        h = random_hypergraph(rng, 9, rng.choice((2, 3)), rng.randrange(4, 10))
        assert verify.max_independent_set(h).weight == brute_force_max_is(h)

    def test_budget_exhaustion_degrades(self):
        rng = random.Random(17)
        h = random_hypergraph(rng, 14, 3, 12, rational_weights=False)
        res = verify.max_independent_set(h, budget=3)
        assert not res.optimal
        assert not any(set(e) <= res.vertices for e in h.edges)

    def test_search_deeper_than_recursion_limit(self):
        h = random_hypergraph(random.Random(0), 300, 3, 300, rational_weights=False)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 150)
        try:
            res = verify.max_independent_set(h, budget=400)
            with pytest.raises(RecursionError):
                max_independent_set_recursive(h, budget=400)
        finally:
            sys.setrecursionlimit(old)
        assert not res.optimal and res.nodes_expanded == 400
        assert not any(set(e) <= res.vertices for e in h.edges)

    def test_hadamard_mis_gadget_is_pinned(self, tmp_path):
        # the benchmark's oracle-search shape: 64 vertices, 136 edges, budget 200
        lin, had = tmp_path / "lin.json", tmp_path / "had.json"
        assert cli.main(["gen-3lin", "--n", "9", "--eqs", "9", "--seed", "1", "--out", str(lin)]) == 0
        assert cli.main(["build-hadamard", "--instance", str(lin), "--r", "1", "--triples", "10",
                         "--seed", "1", "--out", str(had)]) == 0
        h = GenericHypergraph.from_json_dict(json.loads(had.read_text())["hypergraph"])
        assert (len(h.vertices), len(h.edges)) == (64, 136)
        res = verify.max_independent_set(h, budget=200)
        assert res == max_independent_set_recursive(h, budget=200)
        assert res.nodes_expanded == 200 and not res.optimal and res.weight == 42

    def test_hadamard_mis_gadget_matches_the_reference_at_budget_2000(self):
        # the same gadget searched ten times deeper, through the library
        inst, _ = games.gen_3lin(9, 9, derive_rng(1, "gen-3lin"))
        h = hadamard.build(inst, 1, triples=10, seed=derive_seed(1, "build-hadamard")).to_hypergraph()
        assert (len(h.vertices), len(h.edges)) == (64, 136)
        res = verify.max_independent_set(h, budget=2000)
        assert res == max_independent_set_recursive(h, budget=2000)
        assert res.nodes_expanded == 2000 and not res.optimal


class TestTwoColorable:
    def test_single_hyperedge(self):
        h = GenericHypergraph(3, (0, 1, 2), ((0, 1, 2),))
        res = verify.two_colorable(h)
        assert res.colorable
        assert len(set(res.coloring.values())) == 2

    def test_odd_cycle_unsat(self):
        h = GenericHypergraph(2, tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
        assert not verify.two_colorable(h).colorable

    def test_complete_3uniform_on_5_unsat_matches_exhaustive(self):
        h = GenericHypergraph(3, tuple(range(5)), tuple(itertools.combinations(range(5), 3)))
        exhaustive = any(
            all(len({(mask >> v) & 1 for v in e}) > 1 for e in h.edges)
            for mask in range(1 << 5)
        )
        assert not exhaustive
        assert not verify.two_colorable(h).colorable

    def test_coloring_is_proper(self):
        rng = random.Random(23)
        for _ in range(10):
            h = random_hypergraph(rng, 10, 3, 9, rational_weights=False)
            res = verify.two_colorable(h)
            if res.colorable:
                for e in h.edges:
                    assert len({res.coloring[v] for v in e}) > 1

    def test_color_class_gives_large_independent_set(self):
        # a q-coloring yields an independent set of at least 1/q of the weight
        rng = random.Random(29)
        for _ in range(10):
            h = random_hypergraph(rng, 9, 3, 7)
            res = verify.two_colorable(h)
            if not res.colorable:
                continue
            classes = {0: [], 1: []}
            for v, c in res.coloring.items():
                classes[c].append(v)
            best = max(h.weight_of(vs) for vs in classes.values())
            assert best >= h.total_weight / 2
            assert verify.max_independent_set(h).weight >= best

    def test_path_deeper_than_recursion_limit(self):
        h = GenericHypergraph(3, tuple(range(1500)), tuple((i, i + 1, i + 2) for i in range(1498)))
        assert len(h.vertices) > sys.getrecursionlimit()
        res = verify.two_colorable(h)
        assert res.colorable and res.max_depth == 1500
        assert all(len({res.coloring[v] for v in e}) == 2 for e in h.edges)
        with pytest.raises(RecursionError):
            two_colorable_recursive(h)


class TestAlmostTwoColorable:
    def test_colorable_needs_no_removal(self):
        h = GenericHypergraph(3, (0, 1, 2, 3), ((0, 1, 2), (1, 2, 3)))
        res = verify.almost_two_colorable(h, 0)
        assert res.colorable and res.removal == frozenset()

    def test_complete_3uniform_on_5_needs_one_vertex(self):
        h = GenericHypergraph(3, tuple(range(5)), tuple(itertools.combinations(range(5), 3)))
        res = verify.almost_two_colorable(h, Fraction(1, 5))
        assert res.colorable and len(res.removal) == 1

    def test_epsilon_one_vacuous(self):
        h = GenericHypergraph(2, tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
        assert verify.almost_two_colorable(h, 1).colorable

    def test_candidate_verification(self):
        h = GenericHypergraph(3, tuple(range(5)), tuple(itertools.combinations(range(5), 3)))
        ok = verify.almost_two_colorable(h, Fraction(1, 5), candidate_removal={4})
        assert ok.colorable
        too_heavy = verify.almost_two_colorable(h, Fraction(1, 10), candidate_removal={4})
        assert not too_heavy.colorable

    def test_failure_reports_attempts(self):
        h = GenericHypergraph(2, tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
        res = verify.almost_two_colorable(h, Fraction(1, 10))
        assert not res.colorable and res.nodes >= 1

    def test_seven_copies_of_k5_in_few_nodes(self):
        h = seven_copies_of_k5()
        res = verify.almost_two_colorable(h, Fraction(1, 5))
        assert res.colorable and res.nodes <= 100
        assert len(res.removal) == 7 and len({v // 5 for v in res.removal}) == 7
        assert all(set(e) & res.removal or len({res.coloring[v] for v in e}) == 2
                   for e in h.edges)

    def test_budget_runs_out_inconclusive(self):
        # one vertex short of the seven the copies need: a no, but only
        # after a search far larger than the budget
        res = verify.almost_two_colorable(seven_copies_of_k5(), Fraction(6, 35), budget=1000)
        assert res.colorable is None and res.nodes == 1000
        assert res.coloring is None and res.removal is None

    @pytest.mark.parametrize("candidate", [{99}, [0, 99, -5], (4, -1)])
    def test_unknown_candidate_id_is_named(self, candidate):
        h = GenericHypergraph(3, tuple(range(5)), tuple(itertools.combinations(range(5), 3)))
        unknown = next(v for v in candidate if v not in h.vertices)
        with pytest.raises(ValueError, match=rf"candidate removal holds {unknown}, which is not"):
            verify.almost_two_colorable(h, 1, candidate_removal=candidate)

    def test_candidate_allows_no_further_removal(self):
        h = seven_copies_of_k5()
        res = verify.almost_two_colorable(h, Fraction(1, 5), candidate_removal={4, 9, 14})
        assert res.colorable is False


def min_vertex_cover_exhaustive(h: GenericHypergraph) -> tuple[frozenset[int], Fraction]:
    """Independent route for the duality cross-check: scan all vertex
    subsets for the covering property (every edge meets the cover)."""
    verts = list(h.vertices)
    n = len(verts)
    if n > 20:
        raise ValueError("exhaustive cover scan capped at 20 vertices")
    vpos = {v: i for i, v in enumerate(verts)}
    edge_masks = [sum(1 << vpos[v] for v in e) for e in h.edges.tolist()]
    best_mask = (1 << n) - 1
    best_weight = h.total_weight
    weights = fraction_weights(h)
    for mask in range(1 << n):
        if all(mask & em for em in edge_masks):
            w = sum((weights[verts[i]] for i in range(n) if (mask >> i) & 1), Fraction(0))
            if w < best_weight:
                best_weight = w
                best_mask = mask
    cover = frozenset(verts[i] for i in range(n) if (best_mask >> i) & 1)
    return cover, best_weight


class TestDuality:
    @pytest.mark.parametrize("trial", range(10))
    def test_max_is_plus_min_cover_is_total(self, trial):
        rng = random.Random(trial)
        h = random_hypergraph(rng, rng.randrange(6, 12), rng.choice((2, 3)),
                              rng.randrange(3, 9))
        is_res = verify.max_independent_set(h)
        assert is_res.optimal
        _, cover_weight = min_vertex_cover_exhaustive(h)
        assert is_res.weight + cover_weight == h.total_weight
