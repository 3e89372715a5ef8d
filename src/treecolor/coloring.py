"""Equitable tree-colorings.

A coloring with k classes is an equitable tree-coloring when every class
induces a forest and any two class sizes differ by at most one. This module
holds the verifier, the round-robin construction along the interval order,
the decision procedure for proper representations, a polynomial greedy and
a complete search along the interval order for interval representations,
an exhaustive solver on graphs used as the ground-truth oracle, and the
bound-first solver for interval representations that tries the greedy when
both bounds leave the answer open and searches only when the greedy gives
up. No route on an interval representation builds its graph. A graph with
a checked interval model is solved as its intervals, and any other graph
by the exhaustive solver.
"""

from __future__ import annotations

import math
import operator
import random
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import cycle

from .graph import (
    Graph,
    IntervalRep,
    ProperContainmentError,
    find_proper_containment,
    first_monochromatic_cycle_edge,
    first_monochromatic_triangle_edge,
    interval_model,
    interval_order,
)


class ConsistencyError(RuntimeError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""


class SolveTimeout(TimeoutError):
    """A search exceeded its time limit."""


class ColoringError(ValueError):
    """A coloring violates its invariants. Carries the vertex whose color is
    out of range, or None when k itself is invalid."""

    def __init__(self, vertex: int | None, message: str):
        self.vertex = vertex
        super().__init__(message)


@dataclass(frozen=True)
class Coloring:
    """One color in 0..k-1 per vertex, indexed by vertex id, kept as a tuple."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        # tuple() of a sized sequence allocates the exact size once; map has
        # no length hint, so only colors that are not all ints go through it.
        colors = tuple(self.colors)
        if not set(map(type, colors)) <= {int}:
            colors = tuple(map(operator.index, colors))
        object.__setattr__(self, "colors", colors)
        if self.k < 1:
            raise ColoringError(None, "k must be >= 1")
        if colors and 0 <= min(colors) and max(colors) < self.k:
            return
        for v, c in enumerate(colors):
            if not 0 <= c < self.k:
                raise ColoringError(v, f"vertex {v} has color {c} outside 0..{self.k - 1}")

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __iter__(self):
        return iter(self.colors)

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for c in self.colors:
            sizes[c] += 1
        return sizes


IMBALANCE = "imbalance"
MONOCHROMATIC_CYCLE = "monochromatic_cycle"
UNCOLORED = "uncolored"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the verifier, with a concrete witness on failure: the two
    class indices whose sizes differ by more than one, or an edge of a
    monochromatic cycle."""

    ok: bool
    failure_kind: str = "none"
    witness: tuple[int, int] | None = None


def _verdict(n: int, c: Coloring, cycle_edge) -> Verdict:
    """The clauses in their fixed order: every vertex colored, class sizes
    pairwise within one, then cycle_edge(colors) finds no cycle edge."""
    if len(c) != n:
        return Verdict(False, UNCOLORED)
    sizes = c.class_sizes()
    big = sizes.index(max(sizes))
    small = sizes.index(min(sizes))
    if sizes[big] - sizes[small] > 1:
        return Verdict(False, IMBALANCE, (big, small))
    edge = cycle_edge(c.colors)
    if edge is not None:
        return Verdict(False, MONOCHROMATIC_CYCLE, edge)
    return Verdict(True)


def verify_equitable_tree_coloring(g: Graph, c: Coloring) -> Verdict:
    """Check both clauses: class sizes pairwise differ by at most one, and
    every class induces a forest. Imbalance is reported first; a cycle is
    witnessed by the first edge, in (u, v) order, that closes one."""
    return _verdict(g.n, c, lambda colors: first_monochromatic_cycle_edge(g, colors))


def verify_interval_coloring(rep: IntervalRep, c: Coloring) -> Verdict:
    """The same verdict as `verify_equitable_tree_coloring` on the derived
    graph, by an endpoint sweep that never builds it. A cycle is witnessed
    by an edge of a monochromatic triangle."""
    return _verdict(
        rep.n, c, lambda colors: first_monochromatic_triangle_edge(rep, colors)
    )


def guaranteed_k(max_degree: int) -> int:
    """Smallest k for which the round-robin coloring is guaranteed to
    verify: ceil((max_degree + 1) / 2)."""
    return (max_degree + 2) // 2


def proper_min_k(omega: int) -> int:
    """Smallest k >= 1 with omega <= 2k: on a proper representation with
    clique number omega, the fewest colors of an equitable tree-coloring."""
    return max(1, (omega + 1) // 2)


def round_robin_color(rep: IntervalRep, k: int) -> Coloring:
    """Color position p of the interval order with p mod k.

    The result is always equitable, and it is guaranteed to pass the full
    verifier whenever k >= guaranteed_k(max_degree). Below that bound the
    coloring is still returned so callers can inspect where it fails.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    colors = [0] * rep.n
    # cycle repeats the ints of its first pass, so the colors share at most
    # min(k, n) int objects instead of one per vertex.
    for v, color in zip(interval_order(rep), cycle(range(k))):
        colors[v] = color
    return Coloring(colors, k)


def greedy_color(rep: IntervalRep, k: int) -> Coloring | None:
    """An equitable tree-k-coloring chosen greedily along the interval
    order, or None when the greedy gets stuck; None is not a NO.

    Each interval takes the least-used color, ties to the lowest, that has
    fewer than two open intervals at its left (the rule of
    `first_monochromatic_triangle_edge`, so no class closes a triangle) and
    room under the equitable caps of `exact_solve`: with f, e = divmod(n, k),
    a class of `count` vertices takes one more iff count < f, or count == f
    while fewer than e classes hold f + 1. The caps alone suffice, by the
    argument in `exact_solve`'s docstring: the vertices left can always fill
    the classes below f, so a finished walk is equitable.

    A heap holds (count, color) for exactly the colors with fewer than two
    open intervals. When the least of them has no room, none has, since
    every other has a count at least as large. So each interval costs
    O(log k), past the rep's cached sorts, and no interval scans the k
    colors. Ended intervals are retired with one pointer into `by_right`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = rep.n
    lefts, rights, by_right = rep.lefts, rep.rights, rep.by_right
    floor_size, enlarged = divmod(n, k)
    # From k = n on the classes hold at most one vertex each, so position p
    # of the order takes color p: colors from n on are never reached.
    used = min(k, n)
    counts = [0] * used
    open_counts = [0] * used
    free = [(0, c) for c in range(used)]  # sorted, so already a heap
    colors = [0] * n
    ended = full = 0
    for v in rep.order:
        lo = lefts[v]
        # An interval whose right is below lo precedes v in the order, so it
        # is colored; v's own right stops the walk.
        while rights[by_right[ended]] < lo:
            c = colors[by_right[ended]]
            open_counts[c] -= 1
            if open_counts[c] == 1:
                heappush(free, (counts[c], c))
            ended += 1
        if not free:
            return None
        count, c = heappop(free)
        if count > floor_size or (count == floor_size and full == enlarged):
            return None
        colors[v] = c
        counts[c] = count + 1
        full += count == floor_size
        open_counts[c] += 1
        if open_counts[c] < 2:
            heappush(free, (count + 1, c))
    return Coloring(colors, k)


def decide_proper_interval(rep: IntervalRep, k: int) -> tuple[bool, Coloring | None]:
    """Decide whether a proper representation admits an equitable
    tree-k-coloring. Returns the answer and the round-robin coloring as the
    certificate on YES (else None).

    Two independent routes, neither of which builds the graph: the clique
    test on `rep.stats` (feasible iff omega is at most 2k), and round-robin
    coloring followed by a sweep for a monochromatic triangle. For proper
    representations they agree; a disagreement raises ConsistencyError.
    """
    pair = find_proper_containment(rep)
    if pair is not None:
        raise ProperContainmentError(*pair)
    coloring = round_robin_color(rep, k)
    cycle_free = first_monochromatic_triangle_edge(rep, coloring.colors) is None
    clique_small = k >= proper_min_k(rep.stats[0])
    if cycle_free != clique_small:
        raise ConsistencyError(
            f"cycle scan says {cycle_free} but clique bound says {clique_small}"
        )
    return (cycle_free, coloring if cycle_free else None)


class _RollbackUnionFind:
    """Union by size without path compression, so unions can be undone."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[tuple[int, int]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the trees of a and b; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append((ra, rb))
        return True

    def rewind(self, mark: int) -> None:
        while len(self.trail) > mark:
            ra, rb = self.trail.pop()
            self.size[ra] -= self.size[rb]
            self.parent[rb] = rb


def _profile_points(g: Graph) -> bytearray:
    """Flag each position v where the earlier vertices with a neighbour at
    or after v are exactly v's earlier neighbours, and all of them have the
    same neighbours at or after v; see `exact_solve`.

    One sweep in O(n + m). At position v, hits[w] for w >= v counts w's
    neighbours below v; all of them are on the frontier, so w sees the
    whole frontier iff hits[w] == frontier. `spread[h]` counts the w >= v
    with hits[w] == h > 0, and `touched` all w >= v with hits[w] > 0. All
    three are read before v leaves the range: the earlier vertices whose
    last neighbour is v are still on the frontier at v.
    """
    n = g.n
    hits = [0] * n
    spread = [0] * n
    point = bytearray(n)
    frontier = touched = 0
    for v, a in enumerate(g.adj):
        prior = bisect_left(a, v)
        point[v] = frontier == prior and spread[frontier] == touched
        if prior:
            spread[prior] -= 1
            touched -= 1
            frontier -= sum(g.adj[u][-1] == v for u in a[:prior])
        if prior < len(a):
            frontier += 1
            for w in a[prior:]:
                h = hits[w]
                if h:
                    spread[h] -= 1
                else:
                    touched += 1
                hits[w] = h + 1
                spread[h + 1] += 1
    return point


def exact_solve(
    g: Graph,
    k: int,
    *,
    time_limit: float | None = None,
    stats: SearchStats | None = None,
) -> Coloring | None:
    """Exhaustive search for an equitable tree-k-coloring, or None.

    The search enumerates only assignments with the forced class-size
    multiset (n mod k classes hold one vertex more than the rest), breaks
    color symmetry canonically (vertex 0 in class 0, every further class
    first used in vertex order), and abandons a branch the moment a class
    closes a cycle. The first solution in this canonical order is returned,
    which makes the oracle deterministic. Intended for small graphs (n up to
    ~14 in general; structured instances such as the gadgets reach
    further).

    One rule fixes the sizes. With f = n // k and e = n % k, a class of
    `count` vertices takes one more iff count < f, or count == f while fewer
    than e classes hold f + 1. After j vertices every class then holds at
    most f + 1, and at most e classes do, so the classes below f lack
    k*f - j + #(classes at f + 1) <= n - j vertices in all: the vertices
    left can always fill them, and at j = n every class holds f or f + 1.

    Failed states are cached at profile points: positions v where the
    earlier vertices with a neighbour at or after v are exactly v's earlier
    neighbours P, and every vertex of P has the same neighbours S at or
    after v (`_profile_points` finds them in O(n + m)). A cut point, where
    no edge crosses, is the case P = {}. The rest of the search meets the
    prefix only through P, and every vertex of S meets all of P. A vertex
    of S therefore fits class c iff no two vertices of P in c share a tree,
    and then it joins them all into one tree, whichever they are. A class
    where two already share a tree takes no vertex of S, so its trees on P
    matter no more. So each class counts only through its size and how
    many vertices of P it holds, or -1 once two of them share a tree; the
    sorted (size, held) pairs, or just the sorted sizes where P is empty,
    are the key. The classes' labels do not count either: each later vertex
    tries every used class, and the unused ones are interchangeable. The
    sizes sum to v, so one set of keys serves every position. A key is
    cached only when its subtree failed in full, so the first solution is
    the one found without the cache.

    The key sorts the k classes and reads P, which the union scan at v
    reads anyway, and nothing is stored per position but the flag. A node
    that fails is back in the state of its first visit, so its key is read
    again there rather than kept.

    `stats`, when given, gets the nodes (first visits), the cached keys and
    the cache hits, also when the search times out. Raises SolveTimeout
    when time_limit (seconds) elapses first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return Coloring((), k)
    deadline = None if time_limit is None else time.monotonic() + time_limit

    floor_size, enlarged = divmod(n, k)

    prior_neighbors = [a[: bisect_left(a, v)] for v, a in enumerate(g.adj)]
    profile_point = _profile_points(g)
    failed_profiles: set[tuple] = set()

    colors = [0] * n
    counts = [0] * k
    marks = [0] * n
    full = opened = ticks = hits = 0
    dsu = _RollbackUnionFind(n)
    union, rewind, trail, find = dsu.union, dsu.rewind, dsu.trail, dsu.find

    def profile(v: int) -> tuple:
        if not prior_neighbors[v]:
            return tuple(sorted(counts))
        held = [0] * k
        roots = set()
        for u in prior_neighbors[v]:
            root, c = find(u), colors[u]
            if root in roots:
                held[c] = -1
            elif held[c] >= 0:
                held[c] += 1
            roots.add(root)
        return tuple(sorted(zip(counts, held)))

    # One loop, no recursion: the arrays hold the whole search state. Below
    # the position v, colors[v] is the class of v; the search resumes at v
    # with the first class c not yet tried, and c == 0 marks a first visit.
    v = c = 0
    try:
        while True:
            if c == 0:
                ticks += 1
                if deadline is not None and ticks & 255 == 1 and time.monotonic() > deadline:
                    raise SolveTimeout("no verdict within the time limit")
                if profile_point[v] and profile(v) in failed_profiles:
                    # Past every class, and past k, which no resumed class
                    # reaches: the failure below then knows the key is in.
                    hits += 1
                    c = k + 1
            top = opened + 1 if opened < k else k
            for c in range(c, top):
                count = counts[c]
                if count > floor_size or (count == floor_size and full == enlarged):
                    continue
                mark = len(trail)
                for u in prior_neighbors[v]:
                    if colors[u] == c and not union(u, v):
                        rewind(mark)
                        break
                else:
                    break
            else:
                # No class fits v: undo v - 1 and resume it at its next class.
                if profile_point[v] and c <= k:
                    failed_profiles.add(profile(v))
                if v == 0:
                    return None
                v -= 1
                c = colors[v]
                count = counts[c] - 1
                counts[c] = count
                full -= count == floor_size
                opened -= count == 0
                rewind(marks[v])
                c += 1
                continue
            colors[v] = c
            counts[c] = count + 1
            marks[v] = mark
            full += count == floor_size
            opened += count == 0
            v += 1
            if v == n:
                return Coloring(colors, k)
            c = 0
    finally:
        if stats is not None:
            stats.nodes += ticks
            stats.memo_size = len(failed_profiles)
            stats.memo_hits += hits


@dataclass
class SearchStats:
    """What a solve did: the route that answered `solve_intervals` ("bound",
    "round_robin", "greedy" or "search") and the counters of
    `interval_search`, or `exact_solve`'s nodes, memo size and memo hits,
    how far it got on a timeout. Callers pass one in."""

    route: str = ""
    nodes: int = 0
    restarts: int = 0
    memo_size: int = 0
    memo_hits: int = 0
    floor_prunes: int = 0


def interval_search(
    rep: IntervalRep,
    k: int,
    *,
    time_limit: float | None = None,
    stats: SearchStats | None = None,
) -> Coloring | None:
    """Complete search for an equitable tree-k-coloring along the interval
    order, or None when there is none; it never builds the graph.

    Position p of `rep.order` takes a color with fewer than two open
    intervals at p, so no class closes a triangle, under `exact_solve`'s
    class-size rule. An interval at position q is open at p iff p is below
    its expiry, bisect_right(ordered_lefts, its right). The state at p is
    then, per color, the count and the expiries of its open intervals, the
    two largest it holds; nothing else of the prefix matters to the rest.
    - Colors with equal (count, open expiries) are interchangeable, so one
      color per distinct key is tried.
    - Failed states are memoized as the sorted keys (their counts sum to p),
      only for subtrees explored in full, so a memo hit is a sound NO.
    - Floor prune: a color below f = n // k holding two open intervals
      takes nothing before its earlier expiry e, so it needs
      count + n - e >= f.
    - Restarts: Luby node budgets of 64 nodes each, with the value order
      shuffled by a fixed-seed `random.Random`. The memo survives restarts
      and the budgets grow without bound, so the search stays complete, and
      the same call gives the same coloring.

    Raises SolveTimeout when time_limit (seconds from the call) elapses,
    before the first node when it is already spent.
    """
    deadline = time.monotonic() + (math.inf if time_limit is None else time_limit)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = rep.n
    order, lefts, rights = rep.order, rep.ordered_lefts, rep.rights
    expiry = [bisect_right(lefts, rights[v]) for v in order]
    floor_size, enlarged = divmod(n, k)
    # Colors from n on are never needed: at most n classes are used, and
    # unused ones are interchangeable.
    used = min(k, n)
    # A key packs (count, larger open expiry, smaller one) into one int; a
    # closed expiry reads 0. A state is its sorted keys, as 8-byte words
    # while a key fits in one.
    base = n + 1
    freeze = tuple if base**3 >= 2**63 else (lambda keys: array("q", keys).tobytes())
    shuffle = random.Random(0).shuffle
    memo: set = set()
    # Per depth p: the state, the colors left to try, and the color taken
    # with the two expiries it replaced.
    states: list = [()] * n
    tries: list[list[int]] = [[]] * n
    taken = [(0, 0, 0)] * n
    nodes = restarts = hits = prunes = 0
    limit, luby_u, luby_v = 64, 1, 1
    try:
        while True:
            counts, high, low = [0] * used, [0] * used, [0] * used
            full = p = 0
            entering = True
            while True:
                if entering:
                    if p == n:
                        colors = [0] * n
                        for v, (c, _, _) in zip(order, taken):
                            colors[v] = c
                        return Coloring(colors, k)
                    if nodes == limit:
                        break
                    if nodes & 255 == 0 and time.monotonic() >= deadline:
                        raise SolveTimeout("no verdict within the time limit")
                    nodes += 1
                    keys = [(count * base + (h if h > p else 0)) * base + (lo if lo > p else 0)
                            for count, h, lo in zip(counts, high, low)]
                    states[p] = state = freeze(sorted(keys))
                    options = []
                    if state in memo:
                        hits += 1
                    else:
                        x = expiry[p]
                        # One color per distinct key: the last that has it.
                        for c in dict(zip(keys, range(used))).values():
                            count, h = counts[c], high[c]
                            if low[c] > p or count > floor_size or (
                                count == floor_size and full == enlarged
                            ):
                                continue
                            if h > p and count + 1 + n - min(h, x) < floor_size:
                                prunes += 1
                                continue
                            options.append(c)
                        shuffle(options)
                    tries[p] = options
                else:
                    # Undo the color taken at p before trying the next one.
                    c, high[c], low[c] = taken[p]
                    counts[c] -= 1
                    full -= counts[c] == floor_size
                    options = tries[p]
                if options:
                    c = options.pop()
                    count, h, x = counts[c], high[c], expiry[p]
                    taken[p] = (c, h, low[c])
                    counts[c] = count + 1
                    full += count == floor_size
                    high[c], low[c] = (x, h) if x > h else (h, x)
                    p += 1
                    entering = True
                    continue
                memo.add(states[p])
                if p == 0:
                    return None
                p -= 1
                entering = False
            # The budget is spent: restart with the next Luby budget.
            restarts += 1
            luby_u, luby_v = (luby_u + 1, 1) if luby_u & -luby_u == luby_v else (luby_u, 2 * luby_v)
            limit = nodes + 64 * luby_v
    finally:
        if stats is not None:
            stats.nodes += nodes
            stats.restarts += restarts
            stats.memo_size = len(memo)
            stats.memo_hits += hits
            stats.floor_prunes += prunes


def solve_intervals(
    rep: IntervalRep,
    k: int,
    *,
    time_limit: float | None = None,
    stats: SearchStats | None = None,
) -> Coloring | None:
    """An equitable tree-k-coloring of the intervals' graph, or None, by the
    paper's two bounds first, then the greedy, and `interval_search` only
    when all three leave the answer open; no route builds the graph.

    A clique of more than 2k intervals puts three of them in one class, a
    triangle, so the answer is NO. Otherwise the round-robin coloring is
    returned when the sweep verifies it; from k >= guaranteed_k(max_degree)
    on it always does, and a failure there raises ConsistencyError. Below
    that threshold `greedy_color` runs, and when it gives up
    `interval_search` does. A coloring from either is returned once the
    sweep verifies it, and one that fails the sweep raises ConsistencyError.

    Round robin is a measured fast path, not a second answer: whenever it
    verifies, `greedy_color` returns the same coloring. At n = 100k proper,
    k = 400 the greedy took 0.151 s and round robin 0.012 s; on window k
    mixes at n = 2k-100k greedy alone was 5-11% slower.

    time_limit counts from the call. The bounds and the greedy are
    polynomial and run whatever it says; a limit they have used up raises
    SolveTimeout before the search expands a node. `stats`, when given,
    gets the route that answered and the search's counters.
    """
    start = time.monotonic()
    if k < 1:
        raise ValueError("k must be >= 1")
    if stats is None:
        stats = SearchStats()
    stats.route = "bound"
    omega, _, max_degree = rep.stats
    if k < proper_min_k(omega):
        return None
    stats.route = "round_robin"
    coloring = round_robin_color(rep, k)
    if verify_interval_coloring(rep, coloring).ok:
        return coloring
    if k >= guaranteed_k(max_degree):
        raise ConsistencyError(
            f"round robin fails at k={k}, at or above the guaranteed threshold"
        )
    stats.route = "greedy"
    coloring = greedy_color(rep, k)
    if coloring is None:
        stats.route = "search"
        if time_limit is not None:
            time_limit = max(0.0, time_limit - (time.monotonic() - start))
        coloring = interval_search(rep, k, time_limit=time_limit, stats=stats)
        if coloring is None:
            return None
    if not verify_interval_coloring(rep, coloring).ok:
        raise ConsistencyError(f"the {stats.route} coloring at k={k} fails the sweep verifier")
    return coloring


def solve_graph(
    g: Graph,
    k: int,
    *,
    time_limit: float | None = None,
    stats: SearchStats | None = None,
) -> Coloring | None:
    """An equitable tree-k-coloring of g, or None: by `solve_intervals` on
    `interval_model(g)` when g has one, else by `exact_solve`.

    The model's rep has exactly g's edges, and `solve_intervals` answers
    NO only from the clique bound or its complete search, so a NO stands;
    a YES must pass `verify_equitable_tree_coloring` on g, or
    ConsistencyError is raised. The sweeps and their check run whatever
    time_limit says, as the bounds do; the time left goes to the solver.
    `stats.route` is the interval route's name, or "exact".
    """
    start = time.monotonic()
    stats = SearchStats() if stats is None else stats
    model = interval_model(g)
    if time_limit is not None:
        time_limit = max(0.0, time_limit - (time.monotonic() - start))
    if model is None:
        stats.route = "exact"
        return exact_solve(g, k, time_limit=time_limit, stats=stats)
    coloring = solve_intervals(model[1], k, time_limit=time_limit, stats=stats)
    # The rep and its cached sorts go before the verifier's own arrays.
    del model
    if coloring is not None and not verify_equitable_tree_coloring(g, coloring).ok:
        raise ConsistencyError(
            f"the {stats.route} coloring of the interval model fails on the graph at k={k}"
        )
    return coloring
