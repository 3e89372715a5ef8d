"""Brute-force oracles, test-only checks and small builders used across the
tests.

The independent oracles deliberately avoid the library's fast paths: max
cliques by scanning all 2^n subsets, forests by DFS, packings by enumerating
all bin assignments, stars by scanning all neighbor r-subsets, maximal
cliques via networkx's enumeration or by intersecting neighbor sets. The
checks with superlinear cost that the tests hold the library to
(`verify_order`, `is_star_free`) live here too, with
`color_classes_are_forests`, `detect_kind`, `parse_labels` and
`chain_clique_sequence`, which no library code calls.
`first_broken_neighbours` is the plain loop that `find_proper_containment`
must match pair for pair. The recursive forms of the two exhaustive solvers
(`exact_solve_recursive`, `solve_bin_packing_recursive`) are the references
that the library's loops must match solution for solution.
`greedy_color_scan` is the greedy's definition run literally, scanning every
earlier interval and every color for each interval, which `greedy_color`'s
heap must match color for color. `gen_random_interval_entries` builds the
seeded random reps the old way, from (id, left, right) entries, which the
column-built `gen_random_interval` must equal.
`first_monochromatic_triangle_edge_by_lists` is the triangle sweep that
rebuilds a list of the open intervals of v's color at every left, which the
library's counting sweep must match witness for witness.
"""

import random
from itertools import combinations, product
from pathlib import Path
from typing import Sequence

from treecolor import (
    BinPackingInstance,
    ChainPart,
    Coloring,
    Graph,
    IntervalRep,
    first_monochromatic_cycle_edge,
)
from treecolor.coloring import _RollbackUnionFind
from treecolor.formats import ParseError, _data_lines, _ints


def max_clique_bruteforce(g: Graph) -> int:
    """Largest clique size by checking every vertex subset (bitmask form)."""
    masks = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            masks[u] |= 1 << v
    best = 0
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= best:
            continue
        rest = subset
        is_clique = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if subset & ~(masks[v] | (1 << v)):
                is_clique = False
                break
        if is_clique:
            best = size
    return best


def forests_by_dfs(g: Graph, colors) -> bool:
    """Cycle detection inside each color class by parent-tracking DFS."""
    visited = [False] * g.n
    for start in range(g.n):
        if visited[start]:
            continue
        visited[start] = True
        stack = [(start, -1)]
        while stack:
            v, parent = stack.pop()
            for w in g.adj[v]:
                if colors[w] != colors[v] or w == parent:
                    continue
                if visited[w]:
                    return False
                visited[w] = True
                stack.append((w, v))
    return True


def packing_feasible_bruteforce(items, bins, capacity) -> bool:
    """Exact-fill feasibility by enumerating every item-to-bin assignment."""
    for assignment in product(range(bins), repeat=len(items)):
        loads = [0] * bins
        for j, b in enumerate(assignment):
            loads[b] += items[j]
        if all(load == capacity for load in loads):
            return True
    return False


def star_bruteforce(g: Graph, r: int) -> bool:
    """True iff no vertex has r pairwise non-adjacent neighbors; literal scan
    over all r-subsets of every neighborhood."""
    for v in range(g.n):
        for combo in combinations(g.adj[v], r):
            if all(not g.has_edge(a, b) for a, b in combinations(combo, 2)):
                return False
    return True


def maximal_cliques_networkx(g: Graph) -> set[frozenset[int]]:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return {frozenset(clique) for clique in nx.find_cliques(h)}


def neighbor_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """Each vertex's neighbors as a set, for set-based membership tests."""
    return tuple(frozenset(nbrs) for nbrs in g.adj)


def is_maximal_clique_by_neighbors(g: Graph, vertices: frozenset[int]) -> bool:
    """A clique when every member sees all the others; maximal when no
    vertex sees them all, i.e. the members' neighbor sets share nothing.
    Expects at least one member."""
    common: frozenset[int] | None = None
    for u in vertices:
        nbrs = frozenset(g.adj[u])
        if len(vertices & nbrs) != len(vertices) - 1:
            return False
        common = nbrs if common is None else common & nbrs
    return not common


def chain_clique_sequence(part: ChainPart) -> list[frozenset[int]]:
    """The component's maximal cliques as sets, listed so that every vertex
    occupies a consecutive run: hub t extends cliques 2t, 2t+1 and 2t+2."""
    return [frozenset(clique) | {hub} for hub, cliques in part.windows() for clique in cliques]


def equal_intervals_rep(n: int) -> IntervalRep:
    """n copies of [0, 1]; derives the complete graph K_n."""
    return IntervalRep(tuple((v, 0, 1) for v in range(n)))


def path_rep(n: int) -> IntervalRep:
    """Chain of touching unit intervals; derives the path P_n."""
    return IntervalRep(tuple((v, v, v + 1) for v in range(n)))


def _spans_rep(spans) -> IntervalRep:
    return IntervalRep(tuple((v, lo, hi) for v, (lo, hi) in enumerate(spans)))


# (rep, k) pairs between the paper's two bounds with no equitable
# tree-k-coloring. At omega = 2k: the three long intervals lie in all three
# 4-cliques, each of which holds each color twice, so the three short ones
# share a color with one long one, 4 against 2. At omega = 2k - 1: found by
# a census of random reps; the exhaustive search, its recursive form and a
# brute force over balanced colorings all say NO.
WINDOW_NOS = (
    (_spans_rep([(3, 16), (5, 7), (6, 17), (6, 17), (11, 12), (15, 16)]), 2),
    (_spans_rep([(0, 7), (1, 21), (2, 4), (2, 17), (3, 16), (4, 17), (4, 20),
                 (6, 7), (8, 13), (9, 12), (14, 22), (15, 15)]), 4),
)


def properly_contains(rep: IntervalRep, outer: int, inner: int) -> bool:
    """outer's interval contains inner's and the two are not identical."""
    lo_o, hi_o = rep.lefts[outer], rep.rights[outer]
    lo_i, hi_i = rep.lefts[inner], rep.rights[inner]
    return lo_o <= lo_i and hi_i <= hi_o and (lo_o, hi_o) != (lo_i, hi_i)


def first_broken_neighbours(rep: IntervalRep) -> tuple[int, int] | None:
    """(outer, inner) for the first neighbours in interval order (left,
    right, id) of which one properly contains the other, or None."""
    order = rep.order
    for a, b in zip(order, order[1:]):
        if properly_contains(rep, b, a):
            return (b, a)
        if properly_contains(rep, a, b):
            return (a, b)
    return None


def verify_order(g: Graph, order: Sequence[int]) -> bool:
    """Check on all triples that u < v < w and uw in E imply uv in E.

    Cubic scan by design; this is a test oracle, not a hot path.
    """
    if len(order) != g.n:
        raise ValueError(f"order has {len(order)} vertices, graph has {g.n}")
    nbr = neighbor_sets(g)
    for p in range(g.n):
        u = order[p]
        for r in range(p + 2, g.n):
            if order[r] in nbr[u]:
                for q in range(p + 1, r):
                    if order[q] not in nbr[u]:
                        return False
    return True


def color_classes_are_forests(g: Graph, colors: Sequence[int]) -> bool:
    """True iff every color class induces an acyclic subgraph; raises
    ValueError unless `colors` gives every vertex a color."""
    if len(colors) != g.n:
        raise ValueError(f"coloring covers {len(colors)} vertices, graph has {g.n}")
    for v, c in enumerate(colors):
        if c is None:
            raise ValueError(f"vertex {v} is uncolored")
    return first_monochromatic_cycle_edge(g, colors) is None


def is_star_free(g: Graph, r: int) -> bool:
    """True iff no vertex has r pairwise non-adjacent neighbors, i.e. the
    graph has no induced star with r leaves.

    Exhaustive search inside each neighborhood; intended for validation at
    test scale, not for large graphs.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    nbr = neighbor_sets(g)
    for v in range(g.n):
        if g.degree(v) >= r and _independent_subset_exists(nbr, list(g.adj[v]), r):
            return False
    return True


def _independent_subset_exists(
    nbr: Sequence[frozenset[int]], candidates: list[int], size: int
) -> bool:
    if size == 0:
        return True
    if len(candidates) < size:
        return False
    head, rest = candidates[0], candidates[1:]
    compatible = [w for w in rest if w not in nbr[head]]
    if _independent_subset_exists(nbr, compatible, size - 1):
        return True
    return _independent_subset_exists(nbr, rest, size)


def detect_kind(path) -> str:
    """The header word of a line-format file."""
    for raw in Path(path).read_text().splitlines():
        tokens = raw.partition("#")[0].split()
        if tokens:
            return tokens[0]
    raise ParseError(1, "empty file")


def parse_labels(path) -> tuple[str, dict[str, tuple[int, ...]]]:
    """The kind and the named parts of a labels file, which the package
    writes but never reads."""
    lines = _data_lines(Path(path).read_text().splitlines())
    line_no, tokens = next(lines, (1, None))
    if tokens is None:
        raise ParseError(1, "empty file, expected a 'labels' header")
    if tokens[0] != "labels" or len(tokens) != 2:
        raise ParseError(line_no, "expected a 'labels <kind>' header")
    kind = tokens[1]
    parts: dict[str, tuple[int, ...]] = {}
    for line_no, tokens in lines:
        name = tokens[0]
        if name in parts:
            raise ParseError(line_no, f"duplicate part name {name!r}")
        parts[name] = _ints(line_no, tokens[1:])
    return kind, parts


def exact_solve_recursive(g: Graph, k: int) -> Coloring | None:
    """`exact_solve` as one recursive call per vertex, with each level's
    state in the closure's locals; same canonical order, same first
    solution. Recurses n deep, so only for small graphs."""
    n = g.n
    if n == 0:
        return Coloring((), k)
    floor_size, enlarged = divmod(n, k)
    cap = floor_size + 1 if enlarged else floor_size

    prior_neighbors = [[u for u in g.adj[v] if u < v] for v in range(n)]
    cut_point = [False] * n
    reach = -1
    for v in range(n):
        if v > 0 and reach < v:
            cut_point[v] = True
        reach = max(reach, max(g.adj[v], default=-1))
    failed_profiles: dict[int, set[tuple[int, ...]]] = {
        v: set() for v in range(n) if cut_point[v]
    }

    colors = [-1] * n
    counts = [0] * k
    deficit = floor_size * k
    full = 0
    opened = 0
    dsu = _RollbackUnionFind(n)

    def search(v: int) -> bool:
        nonlocal deficit, full, opened
        if v == n:
            return True
        profile = None
        if cut_point[v]:
            profile = tuple(sorted(counts))
            if profile in failed_profiles[v]:
                return False
        remaining = n - v - 1
        for c in range(min(opened + 1, k)):
            count = counts[c]
            if count + 1 > cap:
                continue
            if enlarged and count + 1 == cap and full == enlarged:
                continue
            fills_floor = count < floor_size
            if deficit - fills_floor > remaining:
                continue
            mark = len(dsu.trail)
            acyclic = True
            for u in prior_neighbors[v]:
                if colors[u] == c and not dsu.union(u, v):
                    acyclic = False
                    break
            if acyclic:
                colors[v] = c
                counts[c] = count + 1
                deficit -= fills_floor
                became_full = enlarged and counts[c] == cap
                became_open = c == opened
                full += became_full
                opened += became_open
                if search(v + 1):
                    return True
                opened -= became_open
                full -= became_full
                deficit += fills_floor
                counts[c] = count
                colors[v] = -1
            dsu.rewind(mark)
        if profile is not None:
            failed_profiles[v].add(profile)
        return False

    if search(0):
        return Coloring(tuple(colors), k)
    return None


def greedy_color_scan(rep: IntervalRep, k: int) -> Coloring | None:
    """`greedy_color` by its definition: each interval in interval order
    takes the least-used color, ties to the lowest, with fewer than two
    earlier intervals of that color still open at its left and room under
    the equitable caps; None when no color fits. O(n * (n + k))."""
    n = rep.n
    floor_size, enlarged = divmod(n, k)
    colors: list[int | None] = [None] * n
    counts = [0] * k
    for v in rep.order:
        open_counts = [0] * k
        for u in range(n):
            if colors[u] is not None and rep.rights[u] >= rep.lefts[v]:
                open_counts[colors[u]] += 1
        full = sum(count > floor_size for count in counts)
        fits = [
            c for c in range(k)
            if open_counts[c] < 2
            and (counts[c] < floor_size or (counts[c] == floor_size and full < enlarged))
        ]
        if not fits:
            return None
        c = min(fits, key=lambda c: (counts[c], c))
        colors[v] = c
        counts[c] += 1
    return Coloring(tuple(colors), k)


def solve_bin_packing_recursive(inst: BinPackingInstance) -> list[list[int]] | None:
    """`solve_bin_packing` as one recursive call per item, skipping for each
    item the bins whose load was already tried; same first packing."""
    order = sorted(range(inst.n), key=lambda j: (-inst.items[j], j))
    loads = [0] * inst.bins
    bins: list[list[int]] = [[] for _ in range(inst.bins)]

    def place(t: int) -> bool:
        if t == inst.n:
            return True
        j = order[t]
        size = inst.items[j]
        tried = set()
        for i in range(inst.bins):
            load = loads[i]
            if load in tried or load + size > inst.capacity:
                continue
            tried.add(load)
            loads[i] = load + size
            bins[i].append(j)
            if place(t + 1):
                return True
            loads[i] = load
            bins[i].pop()
        return False

    if place(0):
        return [sorted(b) for b in bins]
    return None


def gen_random_interval_entries(
    n: int, max_coord: int, seed: int, proper: bool = False
) -> IntervalRep:
    """`gen_random_interval` as it was built from entries: the same draws
    from the same generator, each interval passed to `IntervalRep` as an
    (id, left, right) entry."""
    rng = random.Random(seed)
    if not proper:
        entries = []
        for v in range(n):
            a = rng.randint(0, max_coord)
            b = rng.randint(0, max_coord)
            entries.append((v, min(a, b), max(a, b)))
        return IntervalRep(tuple(entries))
    coords = sorted(rng.sample(range(max_coord + 1), 2 * n))
    lefts: list[int] = []
    rights: list[int] = []
    for x in coords:
        if len(lefts) == n:
            rights.append(x)
        elif len(rights) == len(lefts):
            lefts.append(x)
        elif rng.random() < 0.5:
            lefts.append(x)
        else:
            rights.append(x)
    return IntervalRep(tuple((v, lefts[v], rights[v]) for v in range(n)))


def first_monochromatic_triangle_edge_by_lists(
    rep: IntervalRep, colors: Sequence[int]
) -> tuple[int, int] | None:
    """`first_monochromatic_triangle_edge` with a list of the open intervals
    per color, filtered afresh at every left: the first triangle of one color
    in interval order, as its two smallest ids, or None."""
    lefts, rights = rep.lefts, rep.rights
    open_by_color: dict[int, list[int]] = {}
    for v in rep.order:
        lo = lefts[v]
        members = [u for u in open_by_color.get(colors[v], ()) if rights[u] >= lo]
        if len(members) == 2:
            a, b, _ = sorted((*members, v))
            return (a, b)
        members.append(v)
        open_by_color[colors[v]] = members
    return None
