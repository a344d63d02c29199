"""YES-built gadgets from all three reductions pass the exact oracles."""
from fractions import Fraction

from gadgetlab import dto1, games, hadamard, longcode, verify


def test_hadamard_yes_gadget_is_two_colorable():
    inst, sigma = games.gen_3lin(10, 10, 4)
    gadget = hadamard.build(inst, r=1, triples=2, seed=11)
    assert hadamard.yes_coloring(gadget, sigma).ok
    res = verify.two_colorable(gadget.to_hypergraph())
    assert res.colorable


def test_longcode_yes_gadget_is_almost_two_colorable():
    pcp = games.gen_toy_mlpcp(2, 2, 3, 7)
    eps = Fraction(1, 10)
    gadget = longcode.build(pcp, eps)
    part = longcode.yes_partition(gadget, pcp.planted_labeling)
    assert part.ok
    stars = {v for v, c in part.class_of.items() if c == 0}
    res = verify.almost_two_colorable(gadget.to_hypergraph(), eps,
                                      candidate_removal=stars)
    assert res.colorable is True


def test_dto1_yes_gadget_is_two_colorable():
    game = games.gen_toy_dto1_game(2, 3, 1, 2, 5)
    pcp = games.build_smooth_mlpcp(game, 2, 1)
    gadget = dto1.build(pcp, 0.25)
    assert dto1.yes_check(gadget, pcp.planted_labeling).ok
    res = verify.two_colorable(gadget.to_hypergraph())
    assert res.colorable


def test_hadamard_independent_set_bounded_by_color_class():
    # a proper 2-coloring certifies max IS >= the larger color class
    inst, sigma = games.gen_3lin(10, 10, 4)
    gadget = hadamard.build(inst, r=1, triples=1, seed=3, distinct_blocks=True)
    h = gadget.to_hypergraph()
    coloring = hadamard.yes_coloring(gadget, sigma)
    assert coloring.ok
    classes = {0: set(), 1: set()}
    for v, c in coloring.colors.items():
        classes[c].add(v)
    best_class = max(classes.values(), key=len)
    is_res = verify.max_independent_set(h)
    assert is_res.optimal
    assert is_res.weight >= len(best_class)
    assert is_res.weight >= Fraction(len(h.vertices), 2)
