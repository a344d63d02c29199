"""Exact desk-scale hypergraph oracles: max independent set, 2-coloring,
and almost-2-coloring, over vertex weights kept as integers over one
denominator. Each search takes a node budget and says when it ran out."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class GenericHypergraph:
    """k-uniform hypergraph with positive rational vertex weights; the
    edges are one read-only (E, k) int64 array, each row sorted.

    Construction maps ids to positions once: ids holds the vertex ids in
    increasing order, and positions the edges with each id replaced by its
    index in ids (the edges themselves when the ids are 0..V-1). weights,
    given as {id: rational} (1 for an id left out), is kept as Python ints
    in ids order over scale, the lcm of the reduced denominators."""

    k: int
    vertices: tuple[int, ...]
    edges: np.ndarray
    weights: tuple[int, ...] = field(default_factory=dict)
    meta: dict = field(default_factory=dict, compare=False)
    scale: int = field(init=False)
    ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        if type(k) is not int or k < 1:
            raise ValueError(f"k {k!r} is not a positive integer")
        if not isinstance(self.edges, (list, tuple, np.ndarray)):
            raise ValueError(f"edges {self.edges!r} is not a list of edges")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        edges = self.edges
        if not (isinstance(edges, np.ndarray) and edges.dtype.kind == "i"
                and edges.ndim == 2 and edges.shape[1] == k):
            rows = [e.tolist() if isinstance(e, np.ndarray) else e for e in edges]
            for e in rows:  # name the first ragged, wrong-arity or non-integer edge
                if not isinstance(e, (list, tuple)) or len(e) != k:
                    raise ValueError(f"edge {e} does not have exactly {k} vertices")
                if not all(type(v) is int and -2**63 <= v < 2**63 for v in e):  # bools too
                    raise ValueError(f"edge {e} holds a vertex id that is not an int64 integer")
            edges = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        elif edges.dtype != np.int64 or edges.flags.writeable:  # a caller's array stays theirs
            edges = edges.astype(np.int64)
        if not all((a < b).all() for a, b in zip(edges.T, edges.T[1:])):  # not sorted and distinct
            edges = np.sort(edges, axis=1)
            bad = functools.reduce(np.logical_or, [a == b for a, b in zip(edges.T, edges.T[1:])])
            if bad.any():
                raise ValueError(f"edge {edges[bad.argmax()].tolist()} "
                                 f"does not have exactly {k} distinct vertices")
        edges.flags.writeable = False
        ids = tuple(sorted(self.vertices))
        if ids == tuple(range(len(ids))):  # every gadget: positions are the ids
            positions = edges
            bad = (edges[:, 0] < 0) | (edges[:, -1] >= len(ids))  # rows are sorted
        else:
            known = np.array(ids, dtype=np.int64)
            positions = np.searchsorted(known, edges)
            bad = functools.reduce(np.logical_or, (known[np.minimum(positions, len(ids) - 1)] != edges).T)
            positions.flags.writeable = False
        if bad.any():
            raise ValueError(f"edge {edges[bad.argmax()].tolist()} mentions an unknown vertex")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", positions)
        given = (self.weights.get(v, 1) for v in ids)  # converted only if not an int or a Fraction
        rationals = [w if type(w) in (int, Fraction) else Fraction(w) for w in given]
        if min(rationals, default=1) <= 0:
            raise ValueError("vertex weights must be positive")
        scale = math.lcm(*[w.denominator for w in rationals])
        object.__setattr__(self, "weights", tuple(w.numerator * (scale // w.denominator) for w in rationals))
        object.__setattr__(self, "scale", scale)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GenericHypergraph) and np.array_equal(self.edges, other.edges)
                and (self.k, self.vertices, self.weights, self.scale)
                == (other.k, other.vertices, other.weights, other.scale))

    def position_of(self, vertex_ids, what: str = "vertex set") -> list[int]:
        """The index in ids of each of vertex_ids; a ValueError names the first unknown one."""
        index = dict(zip(self.ids, itertools.count()))
        try:
            return [index[v] for v in vertex_ids]
        except KeyError as exc:
            raise ValueError(f"{what} holds {exc.args[0]!r}, which is not a vertex id") from None

    @property
    def total_weight(self) -> Fraction:
        return Fraction(sum(self.weights), self.scale)

    def weight_of(self, vertex_set) -> Fraction:
        return Fraction(sum(self.weights[p] for p in self.position_of(vertex_set)), self.scale)

    def to_json_dict(self) -> dict:
        rationals = (Fraction(self.weights[p], self.scale) for p in self.position_of(self.vertices))
        return {
            "k": self.k,
            "vertices": [{"id": v, "weight": [w.numerator, w.denominator]}
                         for v, w in zip(self.vertices, rationals)],
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
            if not -2**63 <= v["id"] < 2**63:
                raise ValueError(f"vertex entry {v!r} has an id that is not an int64 integer")
            weights[v["id"]] = w[0] if w[1] == 1 else Fraction(w[0], w[1])
        return cls(d["k"], tuple(v["id"] for v in entries), d["edges"], weights, d.get("meta", {}))

    def to_edge_list(self) -> str:
        return "".join(" ".join(map(str, e)) + "\n" for e in self.edges.tolist())


def sort_rows(rows: np.ndarray) -> None:
    """rows.sort(axis=-1) in place, faster: an insertion network on its columns, 2**14 rows at a time."""
    for block in (rows[s:s + 2**14] for s in range(0, len(rows), 2**14)):  # temporaries stay in cache
        for i in range(1, rows.shape[-1]):
            for j in range(i, 0, -1):
                low = np.minimum(block[..., j - 1], block[..., j])
                np.maximum(block[..., j - 1], block[..., j], out=block[..., j])
                block[..., j - 1] = low


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """sorted({tuple(sorted(e)) for e in rows}) for an (n, k) int64 array,
    as a read-only array. Each row of rows is sorted in place, then ranked by
    a uint64 key: its values less the least one as digits in the radix of the
    span of values (as few keys as fit, lexsorted, when span**k does not)."""
    sort_rows(rows)
    lo, hi = (int(rows[:, 0].min()), int(rows[:, -1].max())) if len(rows) else (0, 0)
    per_key = max(d for d in range(1, rows.shape[1] + 1) if (hi - lo + 1) ** d <= 2**64)
    keys: list[np.ndarray] = []
    for j, column in enumerate(rows.T):  # built in place, modulo 2**64: exact, as each key is below it
        if j % per_key:
            keys[-1] *= hi - lo + 1
            keys[-1] += column.view(np.uint64)
            keys[-1] -= lo % 2**64
        else:
            keys.append(column.view(np.uint64) - lo % 2**64)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keep = np.ones(len(rows), dtype=bool)  # a row is kept when it differs from the one before
    keep[1:] = functools.reduce(np.logical_or, [key[1:] != key[:-1] for key in (k[order] for k in keys)])
    order, keys = order[keep], None  # what the gather below does not need is freed first
    rows = rows.take(order, axis=0)
    rows.flags.writeable = False
    return rows


def rows_inside(members: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """members[edges].all(axis=1), reduced column by column: numpy reduces rows k wide slowly."""
    return functools.reduce(np.logical_and, (members[column] for column in edges.T))


def check_coloring(edges: np.ndarray, colors: np.ndarray, removed: np.ndarray,
                   parity: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the rows of an (E, k) edge array: the rows with no vertex
    in the removed mask, and those of them the colours violate: monochromatic
    rows, or with parity (the Hadamard rule) rows of even colour sum."""
    surviving = rows_inside(~removed, edges)
    first, *rest = (colors[column] for column in edges.T)
    violated = (functools.reduce(np.bitwise_xor, rest, first) & 1 == 0 if parity  # a sum's low bit
                else functools.reduce(np.logical_and, [c == first for c in rest], np.ones_like(first, bool)))
    return surviving, surviving & violated


def _row_masks(rows: np.ndarray, count: int) -> list[int]:
    """Per index r below count, the mask of the rows of rows (an (E, c)
    index array; row j is bit j) that hold r, packed as bytes first."""
    j = np.arange(len(rows))
    packed = np.zeros((count, (len(rows) + 7) // 8), np.uint8)
    np.bitwise_or.at(packed, (rows, (j >> 3)[:, None]), (1 << (j & 7)).astype(np.uint8)[:, None])
    return [int.from_bytes(row, "little") for row in map(bytes, packed)]


class _Cache(dict):
    """A dict that builds a missing key's value as make(key), and empties
    itself before it would hold more than size values."""

    def __init__(self, make, size: int) -> None:
        super().__init__()
        self.make, self.size = make, size

    def __missing__(self, key):
        if len(self) >= self.size:
            self.clear()
        value = self[key] = self.make(key)
        return value


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

    Vertex order[i], by falling degree, then id, is bit i of every vertex
    mask, and h's edge j is bit j of every edge mask; the search adds and
    compares h's integer weights.
    """
    by_degree = np.argsort(-np.bincount(h.positions.ravel(), minlength=len(h.ids)), kind="stable").tolist()
    order = [h.ids[p] for p in by_degree]
    weight = [h.weights[p] for p in by_degree]
    suffix = list(itertools.accumulate(reversed(weight), initial=0))[::-1]
    members = np.argsort(by_degree)[h.positions]  # each edge's vertices as indices in order
    incident = _row_masks(members, len(order))  # per index, the mask of its edges
    ending = _row_masks(members.max(axis=1, keepdims=True), len(order))  # ... of the edges it ends
    # per edge, its members by weight, the later first among equals (a live edge's last member
    # is at idx or later), and the mask of the edges sharing no member with it, built when first
    # packed: a table of them all takes E**2 bits, and at most 2**29 bits are kept
    rank = np.empty(len(order), np.int64)
    rank[sorted(range(len(order))[::-1], key=weight.__getitem__)] = np.arange(len(order))
    by_weight = np.take_along_axis(members, np.argsort(rank[members], axis=1), axis=1).tolist()
    apart = _Cache(lambda j: ~functools.reduce(int.__or__, [incident[i] for i in by_weight[j]]),
                   2**29 // max(len(members), 1))

    # The first descent of the search: each vertex is taken unless that completes an edge.
    every = (1 << len(members)) - 1
    live, greedy = every, 0
    for i in range(len(order)):
        if live & ending[i]:
            live &= ~incident[i]
        else:
            greedy |= 1 << i
    best_mask, best_weight = greedy, sum(w for i, w in enumerate(weight) if greedy >> i & 1)

    # Depth-first over (position, weight so far, mask of the vertices taken, mask of the live
    # edges: those with no excluded member); every earlier vertex not taken is excluded. So a
    # live edge that idx ends has its other members taken, and taking idx would complete it;
    # any other live edge has a member after idx. The include branch is pushed last so it is
    # searched first.
    stack = [(0, 0, 0, every)]
    nodes = 0
    while stack and nodes < budget:
        idx, current, included, live = stack.pop()
        nodes += 1
        if idx == len(order):
            if current > best_weight:
                best_mask, best_weight = included, current
            continue
        # The bound packs live edges greedily in edge order, each taking its lightest member
        # at idx or later off the weight still undecided; it prunes once it reaches best_weight.
        slack, packing = current + suffix[idx] - best_weight, live
        while packing and slack > 0:
            j = (packing & -packing).bit_length() - 1
            packing &= apart[j]
            for i in by_weight[j]:
                if i >= idx:
                    slack -= weight[i]
                    break
        if slack <= 0:
            continue
        stack.append((idx + 1, current, included, live & ~incident[idx]))
        if not live & ending[idx]:
            stack.append((idx + 1, current + weight[idx], included | 1 << idx, live))
    ran_out = bool(stack)  # nodes were left unexpanded
    return IndependentSetResult(frozenset(v for i, v in enumerate(order) if best_mask >> i & 1),
                                Fraction(best_weight, h.scale), not ran_out, nodes)


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
    # Vertices are positions 0..V-1 in id order, incident[p] the ids of p's
    # edges (a stable sort of positions as the smallest uint, so a radix sort).
    # Per edge, counts[s] counts the members in state s and open_sum sums the
    # open members' positions, so it names an edge's last one.
    # Weights are h's ints: a removal fits epsilon * total iff it fits the floor.
    ids, members, weights = h.ids, h.positions, h.weights
    allowance = math.floor(Fraction(epsilon) * sum(weights))
    removal = set(h.position_of(candidate_removal or (), "candidate removal"))
    removed_weight = sum(weights[p] for p in removal)
    if removed_weight > allowance:
        return ColoringResult(False, None, 0, 0)
    if candidate_removal is not None:
        allowance = removed_weight
    degree = np.bincount(members.ravel(), minlength=len(ids))
    incident = np.argsort(members.ravel().astype(np.min_scalar_type(len(ids) - 1)), kind="stable")
    incident = np.split(incident // h.k, np.cumsum(degree)[:-1])
    order = np.argsort(-degree, kind="stable").tolist()
    counts = [np.zeros(len(members), dtype=np.min_scalar_type(h.k)) for _ in range(3)]
    open_sum = sum(members.T[1:], members[:, 0].copy())
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

    for p in removal:
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
        if nodes >= budget:
            return ColoringResult(None, None, nodes, max_depth)
        nodes += 1
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
