"""Interval representations and the graph primitives built on them.

Vertices are dense integer ids 0..n-1 throughout. Intervals are closed with
integer endpoints, so two intervals that merely touch in a point intersect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class RepresentationError(ValueError):
    """An interval representation violates its structural invariants.
    Carries the position of the offending entry."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(message)


class ProperContainmentError(ValueError):
    """An operation required a proper representation but one interval
    properly contains another. Carries the offending pair."""

    def __init__(self, outer: int, inner: int):
        self.outer = outer
        self.inner = inner
        super().__init__(
            f"interval of vertex {outer} properly contains interval of vertex {inner}"
        )


@dataclass(frozen=True)
class IntervalRep:
    """A family of named closed integer intervals, one per vertex id 0..n-1."""

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        # n entries with distinct ids in 0..n-1 use every id exactly once.
        n = len(self.entries)
        seen = bytearray(n)
        entries = []
        for position, (v, lo, hi) in enumerate(self.entries):
            v, lo, hi = int(v), int(lo), int(hi)
            if not 0 <= v < n:
                raise RepresentationError(
                    position, f"vertex id {v} outside 0..{n - 1}, so an id is missing"
                )
            if seen[v]:
                raise RepresentationError(position, f"duplicate vertex id {v}")
            if lo > hi:
                raise RepresentationError(position, f"vertex {v}: left {lo} > right {hi}")
            seen[v] = 1
            entries.append((v, lo, hi))
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """(left, right) endpoints indexed by vertex id."""
        spans: list[tuple[int, int]] = [(0, 0)] * self.n
        for v, lo, hi in self.entries:
            spans[v] = (lo, hi)
        return tuple(spans)

    def left(self, v: int) -> int:
        return self.spans[v][0]

    def right(self, v: int) -> int:
        return self.spans[v][1]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists."""

    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return cls(tuple(tuple(sorted(s)) for s in neighbors))

    @property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def derive_graph(rep: IntervalRep) -> Graph:
    """Intersection graph of the intervals: u ~ v iff the closed intervals
    share at least one point, i.e. max(lefts) <= min(rights)."""
    ordered = sorted(rep.entries, key=lambda e: (e[1], e[2], e[0]))
    lefts = [lo for _, lo, _ in ordered]
    neighbors: list[list[int]] = [[] for _ in range(rep.n)]
    for p, (v, _lo, hi) in enumerate(ordered):
        # Everything after p whose left endpoint is still <= hi intersects v.
        stop = bisect_right(lefts, hi)
        for q in range(p + 1, stop):
            w = ordered[q][0]
            neighbors[v].append(w)
            neighbors[w].append(v)
    return Graph(tuple(tuple(sorted(nbrs)) for nbrs in neighbors))


def interval_edge_stats(rep: IntervalRep) -> tuple[int, int]:
    """(edge count, max degree) of the intersection graph without listing
    an edge: v meets every interval whose left is <= right(v), except those
    whose right is < left(v), and except itself."""
    lefts = sorted(lo for _v, lo, _hi in rep.entries)
    rights = sorted(hi for _v, _lo, hi in rep.entries)
    degrees = [
        bisect_right(lefts, hi) - bisect_left(rights, lo) - 1
        for _v, lo, hi in rep.entries
    ]
    return sum(degrees) // 2, max(degrees, default=0)


def interval_order(rep: IntervalRep) -> tuple[int, ...]:
    """Vertices sorted by (left, right, id).

    For any representation the result has the property that whenever
    u < v < w and uw is an edge, uv is an edge too.
    """
    spans = rep.spans
    return tuple(sorted(range(rep.n), key=lambda v: (spans[v][0], spans[v][1], v)))


def find_proper_containment(rep: IntervalRep) -> tuple[int, int] | None:
    """Return (outer, inner) where outer's interval properly contains inner's,
    or None. Identical intervals do not count as containment."""
    ordered = sorted(rep.entries, key=lambda e: (e[1], e[2], e[0]))
    best_right = None  # widest reach among entries with strictly smaller left
    best_vertex = -1
    idx = 0
    while idx < len(ordered):
        stop = idx
        while stop < len(ordered) and ordered[stop][1] == ordered[idx][1]:
            stop += 1
        group = ordered[idx:stop]
        if best_right is not None:
            for v, _lo, hi in group:
                if hi <= best_right:
                    return (best_vertex, v)
        if group[-1][2] > group[0][2]:  # same left, different rights
            return (group[-1][0], group[0][0])
        for v, _lo, hi in group:
            if best_right is None or hi > best_right:
                best_right = hi
                best_vertex = v
        idx = stop
    return None


def is_proper_representation(rep: IntervalRep) -> bool:
    """True iff no interval properly contains another (equal intervals allowed)."""
    return find_proper_containment(rep) is None


def max_clique_sweep(rep: IntervalRep) -> int:
    """Clique number: the largest number of intervals covering one point,
    found by sweeping the sorted endpoints. Left endpoints are processed
    before right endpoints at equal coordinates because closed intervals
    touching in a point intersect."""
    events = []
    for _v, lo, hi in rep.entries:
        events.append((lo, 0))
        events.append((hi, 1))
    events.sort()
    best = depth = 0
    for _coord, kind in events:
        if kind == 0:
            depth += 1
            if depth > best:
                best = depth
        else:
            depth -= 1
    return best


def _check_colors(n: int, colors: Sequence[int]) -> None:
    if len(colors) != n:
        raise ValueError(f"coloring covers {len(colors)} vertices, graph has {n}")
    for v, c in enumerate(colors):
        if c is None:
            raise ValueError(f"vertex {v} is uncolored")


def first_monochromatic_cycle_edge(
    g: Graph, colors: Sequence[int]
) -> tuple[int, int] | None:
    """First edge, in ascending (u, v) order, that closes a cycle inside a
    color class; None when every class induces a forest."""
    _check_colors(g.n, colors)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        cu = colors[u]
        for v in g.adj[u]:
            if v < u or colors[v] != cu:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return (u, v)
            parent[ru] = rv
    return None


def first_monochromatic_triangle_edge(
    rep: IntervalRep, colors: Sequence[int]
) -> tuple[int, int] | None:
    """An edge (u, v), u < v, of the first three intervals of one color that
    share a point, in endpoint-sweep order; None when there are none.

    Interval graphs are chordal, so a color class induces a forest iff it
    has no triangle, and three pairwise intersecting intervals share a point
    (Helly). One sweep that keeps the open intervals of each color therefore
    decides what `first_monochromatic_cycle_edge` decides on the derived
    graph, in O(n log n) time and without listing an edge. Lefts are swept
    before rights at equal coordinates, since touching intervals intersect.
    The returned edge joins the two smallest ids of the triangle.
    """
    _check_colors(rep.n, colors)
    spans = rep.spans
    starts = sorted(range(rep.n), key=lambda v: spans[v][0])
    ends = sorted(range(rep.n), key=lambda v: spans[v][1])
    open_by_color: dict[int, list[int]] = {}
    e = 0
    for v in starts:
        lo = spans[v][0]
        # Close every interval ending strictly before lo; v itself stops this.
        while spans[ends[e]][1] < lo:
            u = ends[e]
            open_by_color[colors[u]].remove(u)
            e += 1
        members = open_by_color.setdefault(colors[v], [])
        if len(members) == 2:
            a, b, _ = sorted((*members, v))
            return (a, b)
        members.append(v)
    return None
