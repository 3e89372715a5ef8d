"""Interval representations and the graph primitives built on them.

Vertices are dense integer ids 0..n-1 throughout. Intervals are closed with
integer endpoints, so two intervals that merely touch in a point intersect.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import compress, count, islice
from typing import Collection, Iterable, Iterator, Sequence


class RepresentationError(ValueError):
    """An interval representation violates its structural invariants."""


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
    """Closed integer intervals, one per vertex id 0..n-1, read once from a
    sized iterable of (id, left, right) entries in any order and kept by id
    in the columns `lefts` and `rights`; reps of the same intervals are equal.
    What the sweeps read is computed on first use and kept beside them. The
    entries form serves rows read from outside; made intervals use columns."""

    entries: InitVar[Collection[tuple[int, int, int]]]
    lefts: tuple[int, ...] = field(init=False)
    rights: tuple[int, ...] = field(init=False)

    def __post_init__(self, entries):
        # n entries with distinct ids in 0..n-1 use every id exactly once;
        # a filled slot of lefts is a duplicate id.
        n = len(entries)
        lefts: list[int | None] = [None] * n
        rights = [0] * n
        for v, lo, hi in entries:
            v, lo, hi = operator.index(v), operator.index(lo), operator.index(hi)
            if not 0 <= v < n:
                raise RepresentationError(
                    f"vertex id {v} outside 0..{n - 1}, so an id is missing"
                )
            if lefts[v] is not None:
                raise RepresentationError(f"duplicate vertex id {v}")
            if lo > hi:
                raise RepresentationError(f"vertex {v}: left {lo} > right {hi}")
            lefts[v] = lo
            rights[v] = hi
        object.__setattr__(self, "lefts", tuple(lefts))
        object.__setattr__(self, "rights", tuple(rights))

    @classmethod
    def from_columns(cls, lefts: Sequence[int], rights: Sequence[int]) -> "IntervalRep":
        """The rep whose vertex v is [lefts[v], rights[v]], for two int
        columns of one length, which already use each id once: only
        left <= right is checked, with no loop over entries."""
        v = next(compress(count(), map(operator.gt, lefts, rights)), None)
        if v is not None:
            raise RepresentationError(f"vertex {v}: left {lefts[v]} > right {rights[v]}")
        rep = object.__new__(cls)
        object.__setattr__(rep, "lefts", tuple(lefts))
        object.__setattr__(rep, "rights", tuple(rights))
        return rep

    @property
    def n(self) -> int:
        return len(self.lefts)

    @cached_property
    def by_right(self) -> tuple[int, ...]:
        """Vertices sorted by (right, id), the order in which intervals end:
        the sweeps retire ended intervals with one pointer into it."""
        return tuple(sorted(range(self.n), key=self.rights.__getitem__))

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Vertices sorted by (left, right, id), the order every sweep reads."""
        # Sorts are stable, so sorting by_right by left leaves ties in
        # (right, id) order.
        return tuple(sorted(self.by_right, key=self.lefts.__getitem__))

    @cached_property
    def ordered_lefts(self) -> tuple[int, ...]:
        """The lefts in interval order, the sequence the sweeps bisect."""
        return tuple(map(self.lefts.__getitem__, self.order))

    @cached_property
    def stats(self) -> tuple[int, int, int]:
        """(omega, m, max_degree): the rep's one `max_clique_sweep`."""
        return max_clique_sweep(self)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1, held only as sorted
    adjacency tuples: `from_edges` builds them and `has_edge` bisects them."""

    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # Lists only for vertices on an edge; isolated ones share the empty
        # tuple. Deduplicating one list at a time keeps a repeated edge once.
        neighbors: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            neighbors[u].append(v)
            neighbors[v].append(u)
        adj: list[tuple[int, ...]] = [()] * n
        for v, nbrs in neighbors.items():
            adj[v] = tuple(sorted(set(nbrs)))
        return cls(tuple(adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

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
    order, lefts, rights = rep.order, rep.ordered_lefts, rep.rights
    # Everything after p whose left endpoint is still <= right(v) meets v.
    pairs = (
        (v, w)
        for p, v in enumerate(order)
        for w in order[p + 1 : bisect_right(lefts, rights[v])]
    )
    return Graph.from_edges(rep.n, pairs)


def _lbfs(adj: Sequence[Sequence[int]], prev: Sequence[int]) -> list[int]:
    """A LexBFS order of the graph whose ties go to the vertex latest in
    `prev`, an order of all vertices: the LBFS+ sweep of prev.

    Partition refinement in O(n + m), on flat int lists only. The unvisited
    vertices form one circular list through `nxt`/`prv` (n is its head),
    cut into runs of equal label, largest first; `cls` names each vertex's
    run (-1 once visited) and `first` each run's first vertex. Runs are in decreasing rank in
    prev, so the head of the list is the next pivot. A pivot's unvisited
    neighbours, read in decreasing rank too, move to the end of a run split
    off just before their own, which keeps both runs in rank order.
    """
    n = len(adj)
    ranked = [[] if a else () for a in adj]
    for u in reversed(prev):
        for w in adj[u]:
            ranked[w].append(u)
    nxt, prv = [n] * (n + 1), [n] * (n + 1)
    last = n
    for v in reversed(prev):
        nxt[last], prv[v], last = v, last, v
    nxt[last], prv[n] = n, last
    cls = [0] * n
    first, pivot, split = [nxt[n]], [-1], [0]
    order = []
    while (v := nxt[n]) != n:
        nxt[n] = first[cls[v]] = after = nxt[v]
        prv[after] = n
        cls[v] = -1
        order.append(v)
        for w in ranked[v]:
            run = cls[w]
            if run < 0:
                continue
            if pivot[run] != v:
                pivot[run], split[run] = v, len(first)
                first.append(w)
                pivot.append(-1)
                split.append(0)
            f = first[run]
            if f == w:
                first[run] = nxt[w]
            else:
                before, after = prv[w], nxt[w]
                nxt[before], prv[after] = after, before
                before = prv[f]
                nxt[before], prv[w], nxt[w], prv[f] = w, before, f, w
            cls[w] = split[run]
    return order


def interval_model(g: Graph) -> tuple[tuple[int, ...], IntervalRep] | None:
    """(order, rep) with rep's graph exactly g, or None when no order found
    here certifies one; then g may still be an interval graph.

    One LexBFS from vertex 0, then LBFS+ sweeps, 4 in all, stopping at the
    first whose order or its reverse passes a check on g.adj itself: each
    vertex's later neighbours must be exactly the positions right after it
    (Olariu 1991), i.e. the largest of their positions is its own plus
    their count. The vertex at position p then gets [p, p + that count],
    and two such intervals meet iff the later one is among the earlier
    one's later neighbours. The check trusts nothing from the sweeps; each
    sweep and each check is O(n + m). The rep's cached `order` is the
    certified one.
    """
    adj, n = g.adj, g.n
    # One set of position ints, which every column below shares.
    ids = list(range(n))
    # The first LexBFS breaks ties to the smallest id, so it starts at 0.
    order = ids[::-1]
    for _ in range(4):
        order = _lbfs(adj, order)
        pos, later = [0] * n, [0] * n
        for p, v in zip(ids, order):
            pos[v] = p
        forward = backward = True
        for v, a in enumerate(adj):
            if a:
                spots = list(map(pos.__getitem__, a))
                p = pos[v]
                later[v] = count = sum(map(p.__lt__, spots))
                forward = forward and (count == 0 or max(spots) == p + count)
                backward = backward and (count == len(a) or min(spots) == p - len(a) + count)
                if not (forward or backward):
                    break
        if forward or backward:
            break
        del pos, later
    else:
        return None
    if not forward:
        order.reverse()
        for v, a in enumerate(adj):
            pos[v], later[v] = ids[n - 1 - pos[v]], len(a) - later[v]
    rights = tuple(p + c if c else p for p, c in zip(pos, later))
    rep = IntervalRep.from_columns(tuple(pos), rights)
    # The sorts the rep would make, on the shared ints: positions are
    # distinct lefts, so the certified order is already (left, right, id).
    rep.__dict__["order"] = order = tuple(order)
    rep.__dict__["by_right"] = tuple(sorted(ids, key=rights.__getitem__))
    return order, rep


def interval_order(rep: IntervalRep) -> tuple[int, ...]:
    """Vertices sorted by (left, right, id); the representation's cached order.

    For any representation the result has the property that whenever
    u < v < w and uw is an edge, uv is an edge too.
    """
    return rep.order


def find_proper_containment(rep: IntervalRep) -> tuple[int, int] | None:
    """(outer, inner) for the first neighbours a, b in interval order of which
    one properly contains the other, or None; identical intervals do not
    count. They do exactly when (left(a) == left(b)) == (right(a) < right(b)),
    and a rep with no such neighbours has no containment anywhere."""
    order, lefts, rights = rep.order, rep.ordered_lefts, rep.rights
    ordered_rights = tuple(map(rights.__getitem__, order))
    shared = map(operator.eq, lefts, islice(lefts, 1, None))
    wider = map(operator.lt, ordered_rights, islice(ordered_rights, 1, None))
    p = next(compress(count(), map(operator.eq, shared, wider)), None)
    if p is None:
        return None
    a, b = order[p], order[p + 1]
    return (b, a) if lefts[p] == lefts[p + 1] else (a, b)


def is_proper_representation(rep: IntervalRep) -> bool:
    """True iff no interval properly contains another (equal intervals allowed)."""
    return find_proper_containment(rep) is None


def max_clique_sweep(rep: IntervalRep) -> tuple[int, int, int]:
    """(clique number, edge count, max degree) of the intersection graph,
    from one merge of the lefts in interval order with the rights in
    `by_right` order, without listing an edge; `IntervalRep.stats` keeps it.

    At the i-th left, `ended` rights lie strictly before it, so i - ended
    intervals cover that point, since closed intervals touching in a point
    intersect. Depth peaks at a left endpoint. The interval of that left
    meets the depth - 1 earlier ones still open, so the sum of depth - 1
    counts every edge once, at its later interval. Its degree is the number
    of lefts <= its right, less the ended intervals and itself.
    """
    lefts, rights, by_right = rep.ordered_lefts, rep.rights, rep.by_right
    omega = m = max_degree = ended = 0
    ordered_rights = map(rights.__getitem__, rep.order)
    for seen, (lo, hi) in enumerate(zip(lefts, ordered_rights), start=1):
        while rights[by_right[ended]] < lo:
            ended += 1
        depth = seen - ended
        m += depth - 1
        if depth > omega:
            omega = depth
        degree = bisect_right(lefts, hi) - ended - 1
        if degree > max_degree:
            max_degree = degree
    return omega, m, max_degree


def first_monochromatic_cycle_edge(
    g: Graph, colors: Sequence[int]
) -> tuple[int, int] | None:
    """First edge, in ascending (u, v) order, that closes a cycle inside a
    color class; None when every class induces a forest. `colors` must give
    every vertex a color."""
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
    """An edge (u, v), u < v, of the first triangle of one color in interval
    order (left, right, id); None when there are none.

    Interval graphs are chordal, so a color class induces a forest iff it
    has no triangle, and three pairwise intersecting intervals share a point
    (Helly), namely the left of the last of them in interval order. One walk
    of that order that counts the open intervals of each color therefore
    decides what `first_monochromatic_cycle_edge` decides on the derived
    graph, without listing an edge. An interval is open at left(v) while its
    right is >= left(v), since touching intervals intersect; ended ones are
    retired through `by_right`, as in `max_clique_sweep`. The returned edge
    joins the two smallest ids of the triangle. `colors` must give every
    vertex a color, any ints.
    """
    order, lefts, rights, by_right = rep.order, rep.lefts, rep.rights, rep.by_right
    open_counts: dict[int, int] = {}
    ended = 0
    for p, v in enumerate(order):
        lo = lefts[v]
        # An interval whose right is below lo precedes v in the order, so it
        # is counted; v's own right stops the walk.
        while rights[by_right[ended]] < lo:
            open_counts[colors[by_right[ended]]] -= 1
            ended += 1
        c = colors[v]
        opened = open_counts.get(c, 0)
        if opened == 2:  # one scan names the two open intervals of color c
            a, b = (u for u in islice(order, p) if colors[u] == c and rights[u] >= lo)
            a, b, _ = sorted((a, b, v))
            return (a, b)
        open_counts[c] = opened + 1
    return None
