"""Exact desk-scale hypergraph oracles: max independent set, 2-coloring,
and almost-2-coloring, over vertex weights kept as exact rationals. Each
search takes a node budget and says when it ran out."""
from __future__ import annotations

import itertools
import math
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
            "edges": self.edges,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GenericHypergraph":
        entries = d["vertices"]
        if not isinstance(entries, list):
            raise ValueError(f"vertices {entries!r} is not a list of vertex objects")
        weights = {}
        for v in entries:  # name the first malformed entry; a bool is not an int here
            if not isinstance(v, dict):
                raise ValueError(f"vertex entry {v!r} is not an object")
            w = v["weight"]
            if type(v["id"]) is not int or type(w) is not list or len(w) != 2 or not (
                    type(w[0]) is type(w[1]) is int and w[1] > 0):
                raise ValueError(f"vertex entry {v!r} needs an int id and a weight "
                                 "[numerator, denominator] of ints with a positive denominator")
            weights[v["id"]] = Fraction(w[0], w[1])
        return cls(d["k"], tuple(v["id"] for v in entries), d["edges"], weights, d.get("meta", {}))

    def to_edge_list(self) -> str:
        return "".join(" ".join(map(str, e)) + "\n" for e in self.edges.tolist())


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """sorted({tuple(sorted(e)) for e in rows}) for an (n, k) int64 array,
    as a read-only array. Each row of rows is sorted in place."""
    rows.sort(axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[keep]
    rows.flags.writeable = False
    return rows


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


def max_independent_set(h: GenericHypergraph, budget: int = DEFAULT_NODE_BUDGET) -> IndependentSetResult:
    """Branch and bound for the maximum-weight independent set.

    Branches on the highest-degree undecided vertex, seeds the incumbent
    with a greedy solution, and prunes with a fractional bound obtained
    from a packing of vertex-disjoint live edges. Exceeding the
    node-expansion budget degrades the result to best-found.

    Vertex order[i], by falling degree, then id, is bit i of every mask,
    and the weights are ints over the lcm of their denominators, so the
    search makes the same comparisons as over the Fractions.
    """
    degree = dict(zip(*np.unique(h.edges, return_counts=True)))
    order = sorted(h.vertices, key=lambda v: (-degree.get(v, 0), v))
    pos = {v: i for i, v in enumerate(order)}
    scale = math.lcm(*(w.denominator for w in h.weights.values()))
    weight = [h.weights[v].numerator * (scale // h.weights[v].denominator) for v in order]
    suffix = list(itertools.accumulate(reversed(weight), initial=0))[::-1]
    edges = [[pos[v] for v in e] for e in h.edges.tolist()]
    masks = [sum(1 << i for i in e) for e in edges]
    # per edge, its members' (weight, bit) by weight: the first live one is the lightest
    by_weight = [sorted((weight[i], 1 << i) for i in e) for e in edges]
    others: list[list[int]] = [[] for _ in order]  # per position, its edges' other members
    for e, m in zip(edges, masks):
        for i in e:
            others[i].append(m ^ 1 << i)

    def completes_edge(i: int, chosen: int) -> bool:
        return any(o & chosen == o for o in others[i])

    greedy = 0
    for i in range(len(order)):
        if not completes_edge(i, greedy):
            greedy |= 1 << i
    best_mask, best_weight = greedy, sum(w for i, w in enumerate(weight) if greedy >> i & 1)

    def bound(idx: int, included: int, current: int) -> int:
        excluded = included ^ ((1 << idx) - 1)
        undecided = -1 << idx
        used = penalty = 0
        for m, members in zip(masks, by_weight):
            if m & excluded or not m & undecided or m & used:
                continue
            used |= m
            for w, b in members:  # the lightest live member
                if b & undecided:
                    penalty += w
                    break
        return current + suffix[idx] - penalty

    # Depth-first over (position, weight so far, mask of the vertices taken);
    # every earlier vertex not taken is excluded. The include branch is
    # pushed last so it is searched first.
    stack = [(0, 0, 0)]
    nodes = 0
    while stack:
        idx, current, included = stack.pop()
        nodes += 1
        if nodes > budget:
            break
        if idx == len(order):
            if current > best_weight:
                best_mask, best_weight = included, current
            continue
        if bound(idx, included, current) <= best_weight:
            continue
        stack.append((idx + 1, current, included))
        if not completes_edge(idx, included):
            stack.append((idx + 1, current + weight[idx], included | 1 << idx))
    return IndependentSetResult(frozenset(v for i, v in enumerate(order) if best_mask >> i & 1),
                                Fraction(best_weight, scale), nodes <= budget, nodes)


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
    if unknown := [v for v in candidate_removal or () if v not in h.weights]:
        raise ValueError(f"candidate removal holds {unknown[0]!r}, which is not a vertex id")
    removed_weight = h.weight_of(removal)
    if removed_weight > allowance:
        return ColoringResult(False, None, 0, 0)
    if candidate_removal is not None:
        allowance = removed_weight
    # Vertices are positions 0..V-1 in id order, incident[p] the ids of p's
    # edges. Per edge, counts[s] counts the members in state s and open_sum
    # sums the open members' positions, so it names an edge's last one.
    ids = sorted(h.vertices)
    members = np.searchsorted(ids, h.edges)
    degree = np.bincount(members.ravel(), minlength=len(ids))
    incident = np.split(np.argsort(members.ravel(), kind="stable") // h.k, np.cumsum(degree)[:-1])
    order = np.argsort(-degree, kind="stable").tolist()
    weights = [h.weights[v] for v in ids]
    counts = [np.zeros(len(members), dtype=np.min_scalar_type(h.k)) for _ in range(3)]
    open_sum = members.sum(axis=1)
    state: dict[int, int] = {}

    def assign(p: int, s: int, trail: list[int]) -> None:
        state[p] = s
        trail.append(p)
        counts[s][incident[p]] += 1
        open_sum[incident[p]] -= p

    def undo(trail: list[int]) -> None:
        for p in trail:
            counts[state.pop(p)][incident[p]] -= 1
            open_sum[incident[p]] += p

    # Only coloured vertices are propagated, each over all its edges at
    # once: unit propagation reaches the same fixpoint, or a conflict, in
    # any order. Edges with a removed member or one of the other colour
    # are satisfied; the rest conflict when full and force when one short,
    # unless the open vertex still fits in the removal slack. Two edges
    # may force the same vertex; the second finds it assigned.
    def propagate(trail: list[int]) -> bool:
        slack = allowance - removed_weight
        for p in trail:  # the trail grows as vertices are forced
            c = state[p]
            es = incident[p]
            es = es[(counts[_REMOVED][es] == 0) & (counts[1 - c][es] == 0)]
            filled = counts[c][es]
            if (filled == h.k).any():
                return False
            for u in open_sum[es[filled == h.k - 1]].tolist():
                if u not in state and weights[u] > slack:
                    assign(u, 1 - c, trail)
        return True

    for p in np.searchsorted(ids, list(removal)).tolist():
        assign(p, _REMOVED, [])
    # Decision trail: (position, state, vertices it decided). A failed
    # state pops decisions until one still has a state left to try.
    decisions: list[tuple[int, int, list[int]]] = []
    nodes = max_depth = idx = s = 0
    while True:
        while idx < len(order) and order[idx] in state:
            idx += 1
        max_depth = max(max_depth, len(state))
        if idx == len(order):
            coloring = {ids[p]: c for p, c in state.items() if c != _REMOVED}
            return ColoringResult(True, coloring, nodes, max_depth,
                                  frozenset(ids[p] for p, c in state.items() if c == _REMOVED))
        nodes += 1
        if nodes > budget:
            return ColoringResult(None, None, nodes, max_depth)
        trail: list[int] = []
        assign(order[idx], s, trail)
        if s == _REMOVED:
            removed_weight += weights[order[idx]]
        if s == _REMOVED or propagate(trail):
            decisions.append((idx, s, trail))
            idx, s = idx + 1, 0
            continue
        undo(trail)
        while s == _REMOVED or s == 1 and removed_weight + weights[order[idx]] > allowance:
            if not decisions:
                return ColoringResult(False, None, nodes, max_depth)
            idx, s, trail = decisions.pop()
            undo(trail)
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
