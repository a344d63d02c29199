"""Exact desk-scale hypergraph oracles: max independent set, 2-coloring,
and almost-2-coloring, over vertex weights kept as exact rationals. Each
search takes a node budget and says when it ran out."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class GenericHypergraph:
    """k-uniform hypergraph with positive rational vertex weights; the
    edges are one read-only (E, k) int64 array, each row sorted."""

    k: int
    vertices: tuple[int, ...]
    edges: np.ndarray
    weights: dict[int, Fraction] = field(default_factory=dict)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        try:
            edges = np.asarray(self.edges)
        except ValueError:  # ragged rows
            edges = np.empty(0)
        if not (edges.dtype.kind == "i" and edges.ndim == 2 and edges.shape[1] == self.k) or (
                not isinstance(self.edges, np.ndarray)  # an int64 cast reads True as 1
                and {bool, np.bool_} & set(map(type, itertools.chain.from_iterable(self.edges)))):
            for e in self.edges:  # name the first ragged, wrong-arity or non-integer edge
                if not isinstance(e, (list, tuple, np.ndarray)) or len(e) != self.k:
                    raise ValueError(f"edge {e} does not have exactly {self.k} vertices")
                if not all(type(v) is int and -2**63 <= v < 2**63 for v in e):
                    raise ValueError(f"edge {e} holds a vertex id that is not an int64 integer")
            edges = np.asarray(self.edges, dtype=np.int64).reshape(0, self.k)  # no edges
        edges = np.sort(edges.astype(np.int64, copy=False), axis=1)
        for bad, what in (((edges[:, 1:] == edges[:, :-1]).any(axis=1),
                           f"does not have exactly {self.k} distinct vertices"),
                          (~np.isin(edges, np.asarray(self.vertices, dtype=np.int64)).all(axis=1),
                           "mentions an unknown vertex")):
            if bad.any():
                raise ValueError(f"edge {edges[bad.argmax()].tolist()} {what}")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        weights = {v: Fraction(w) for v, w in self.weights.items()}
        for v in self.vertices:
            weights.setdefault(v, Fraction(1))
        if any(w <= 0 for w in weights.values()):
            raise ValueError("vertex weights must be positive")
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GenericHypergraph) and np.array_equal(self.edges, other.edges)
                and (self.k, self.vertices, self.weights) == (other.k, other.vertices, other.weights))

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def weight_of(self, vertex_set) -> Fraction:
        return sum((self.weights[v] for v in vertex_set), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": [
                {"id": v, "weight": [self.weights[v].numerator, self.weights[v].denominator]}
                for v in self.vertices
            ],
            "edges": self.edges.tolist(),
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GenericHypergraph":
        vertices = tuple(v["id"] for v in d["vertices"])
        weights = {v["id"]: Fraction(v["weight"][0], v["weight"][1]) for v in d["vertices"]}
        return cls(d["k"], vertices, d["edges"], weights, d.get("meta", {}))

    def to_edge_list(self) -> str:
        return "".join(" ".join(map(str, e)) + "\n" for e in self.edges.tolist())


def check_coloring(edges: np.ndarray, colors: np.ndarray, removed: np.ndarray,
                   parity: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the rows of an (E, k) edge array: the rows with no vertex
    in the removed mask, and those of them the colours violate: monochromatic
    rows, or with parity (the Hadamard rule) rows of even colour sum."""
    gathered = colors[edges]
    surviving = ~removed[edges].any(axis=1)
    violated = gathered.sum(axis=1) % 2 == 0 if parity else (gathered == gathered[:, :1]).all(axis=1)
    return surviving, surviving & violated


@dataclass
class IndependentSetResult:
    vertices: frozenset[int]
    weight: Fraction
    optimal: bool
    nodes_expanded: int


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


def max_independent_set(h: GenericHypergraph, budget: int = DEFAULT_NODE_BUDGET) -> IndependentSetResult:
    """Branch and bound for the maximum-weight independent set.

    Branches on the highest-degree undecided vertex, seeds the incumbent
    with a greedy solution, and prunes with a fractional bound obtained
    from a packing of vertex-disjoint live edges. Exceeding the
    node-expansion budget degrades the result to best-found.
    """
    edges, order, edges_of = _incidence(h)

    def completes_edge(v: int, chosen: set[int]) -> bool:
        return any(all(u == v or u in chosen for u in edges[ei]) for ei in edges_of[v])

    greedy: set[int] = set()
    for v in order:
        if not completes_edge(v, greedy):
            greedy.add(v)
    best_set = frozenset(greedy)
    best_weight = h.weight_of(greedy)

    def bound(idx: int, excluded: set[int], current: Fraction) -> Fraction:
        undecided = order[idx:]
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
            penalty += min(h.weights[v] for v in live)
        return optimistic - penalty

    # Depth-first over (position, weight so far, whether order[position - 1]
    # was taken); the include branch is pushed last so it is searched first.
    # Popping a node first undoes the decisions of the subtree left behind.
    included: set[int] = set()
    excluded: set[int] = set()
    stack: list[tuple[int, Fraction, bool]] = [(0, Fraction(0), False)]
    nodes = 0
    exhausted = False
    while stack:
        idx, current, take = stack.pop()
        for u in order[max(idx - 1, 0):len(included) + len(excluded)]:
            included.discard(u)
            excluded.discard(u)
        if idx:
            (included if take else excluded).add(order[idx - 1])
        nodes += 1
        if nodes > budget:
            exhausted = True
            break
        if idx == len(order):
            if current > best_weight:
                best_weight = current
                best_set = frozenset(included)
            continue
        if bound(idx, excluded, current) <= best_weight:
            continue
        v = order[idx]
        stack.append((idx + 1, current, False))
        if not completes_edge(v, included):
            stack.append((idx + 1, current + h.weights[v], True))
    return IndependentSetResult(best_set, best_weight, not exhausted, nodes)


@dataclass
class ColoringResult:
    """A colouring search's verdict: True, False, or None when the node
    budget ran out first. A yes carries the removed vertices and a
    colouring of the others that leaves no surviving edge monochromatic."""

    colorable: bool | None
    coloring: dict[int, int] | None
    nodes: int
    max_depth: int
    # On a yes it is exactly the vertices the colouring leaves out, so
    # comparing colourings compares it.
    removal: frozenset[int] | None = field(default=None, compare=False)

    @property
    def success(self) -> bool:
        """True only for a conclusive yes."""
        return self.colorable is True


_REMOVED = 2  # the state after colours 0 and 1; states are tried in that order


def two_colorable(h: GenericHypergraph, budget: int = DEFAULT_NODE_BUDGET) -> ColoringResult:
    """Backtracking 2-coloring with unit propagation on nearly
    monochromatic edges: the almost-2-colouring search with nothing
    removable. A no means the whole tree was exhausted."""
    return almost_two_colorable(h, 0, budget=budget)


def almost_two_colorable(h: GenericHypergraph, epsilon, candidate_removal=None,
                         budget: int = DEFAULT_NODE_BUDGET) -> ColoringResult:
    """Search for a removal set of weight <= epsilon * total whose induced
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
    weights = h.weights
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
        nodes += 1
        if nodes > budget:
            return ColoringResult(None, None, nodes, max_depth)
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
    for mask in range(1 << n):
        if all(mask & em for em in edge_masks):
            w = sum((h.weights[verts[i]] for i in range(n) if (mask >> i) & 1), Fraction(0))
            if w < best_weight:
                best_weight = w
                best_mask = mask
    cover = frozenset(verts[i] for i in range(n) if (best_mask >> i) & 1)
    return cover, best_weight
