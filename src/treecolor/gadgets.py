"""Exact bin packing, reduction gadgets, and instance generators.

The packing variant solved here is the exact one: split the items into k
bins so that every bin sums to precisely the capacity B (so the item total
must be k*B). Two gadget families turn such an instance into an equitable
tree-coloring question on a graph whose answer matches the packing's, with
witness mappings in both directions:

* split gadget - per item j, a clique on 2k-1 vertices fully joined to an
  independent set of a_j + 1 vertices.
* interval gadget - per item j, a chain of 2*a_j cliques on 2k-1 vertices
  linked by a_j hub vertices, realized by concrete closed intervals.

Both part types share one surface, read without asking the kind: `cliques`,
the `attached` vertices (independent set or hubs), `windows()` (each attached
vertex with the cliques joined to it) and `labels(j)` (the labels file lines).
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import ceil, log
from typing import Collection, Iterator, Sequence

from .coloring import Coloring, ConsistencyError, verify_equitable_tree_coloring
from .graph import Graph, IntervalRep


@dataclass(frozen=True)
class BinPackingInstance:
    """Items to pack into exactly filled bins; sum(items) must be bins*capacity."""

    items: tuple[int, ...]
    bins: int
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(map(operator.index, self.items)))
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        for j, a in enumerate(self.items):
            if a < 1:
                raise ValueError(f"item {j} has non-positive size {a}")
        total = sum(self.items)
        if total != self.bins * self.capacity:
            raise ValueError(
                f"items sum to {total}, expected bins*capacity = "
                f"{self.bins * self.capacity}"
            )

    @property
    def n(self) -> int:
        return len(self.items)


def solve_bin_packing(inst: BinPackingInstance) -> list[list[int]] | None:
    """Exact packing as a list of bins_count item-index lists, each summing to
    the capacity, or None.

    Backtracking over items in descending size order, as one loop over the
    array `bin_at` of each placed item's bin. A bin whose current load equals
    that of an earlier bin is skipped (they are interchangeable), so the
    first solution found is deterministic.
    """
    order = sorted(range(inst.n), key=lambda j: (-inst.items[j], j))
    loads = [0] * inst.bins
    bin_at = [0] * inst.n
    t = i = 0
    while t < inst.n:
        size = inst.items[order[t]]
        for i in range(i, inst.bins):
            load = loads[i]
            if load + size <= inst.capacity and load not in loads[:i]:
                break
        else:
            if t == 0:
                return None
            t -= 1
            i = bin_at[t]
            loads[i] -= inst.items[order[t]]
            i += 1
            continue
        loads[i] = load + size
        bin_at[t] = i
        t += 1
        i = 0
    return [sorted(j for j, b in zip(order, bin_at) if b == i) for i in range(inst.bins)]


@dataclass(frozen=True)
class SplitPart:
    """Component built for one item: a clique fully joined to an independent
    set, its attached vertices. The clique's first vertex is the center (the
    star center in witness colorings)."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]

    @property
    def center(self) -> int:
        return self.clique[0]

    @property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        return (self.clique,)

    @property
    def attached(self) -> tuple[int, ...]:
        return self.independent

    def windows(self) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
        return ((w, self.cliques) for w in self.independent)

    def labels(self, j: int) -> Iterator[tuple[str, tuple[int, ...]]]:
        yield f"clique{j}", self.clique
        yield f"center{j}", (self.center,)
        yield f"indep{j}", self.independent


@dataclass(frozen=True)
class ChainPart:
    """Chain component built for one item of size a: cliques[0..2a-1] plus
    hubs[0..a-1], its attached vertices, where hub t is adjacent to every
    vertex of cliques 2t, 2t+1 and 2t+2 (the last one when it exists) and to
    nothing else."""

    cliques: tuple[tuple[int, ...], ...]
    hubs: tuple[int, ...]

    @property
    def attached(self) -> tuple[int, ...]:
        return self.hubs

    def windows(self) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
        return ((hub, self.cliques[2 * t : 2 * t + 3]) for t, hub in enumerate(self.hubs))

    def labels(self, j: int) -> Iterator[tuple[str, tuple[int, ...]]]:
        yield from ((f"clique{j}.{t}", clique) for t, clique in enumerate(self.cliques))
        yield f"hubs{j}", self.hubs


@dataclass(frozen=True)
class GadgetLayout:
    """A gadget's labeled parts, one part per item, and for an interval
    gadget the intervals that realize it. `graph` is the parts' edge rule on
    0..(largest labeled id), built on first use, so it agrees with the parts."""

    instance: BinPackingInstance
    parts: tuple
    rep: IntervalRep | None = None

    @property
    def kind(self) -> str:
        return "split" if self.rep is None else "interval"

    @cached_property
    def graph(self) -> Graph:
        n = max(chain.from_iterable(map(_part_vertices, self.parts)), default=-1) + 1
        return Graph.from_edges(n, chain.from_iterable(map(_part_edges, self.parts)))


def build_split_gadget(inst: BinPackingInstance) -> GadgetLayout:
    """Disjoint union of one split component per item.

    Item j contributes a clique on 2k-1 vertices joined completely to an
    independent set of a_j + 1 vertices; the component's lowest vertex id is
    the designated center. Total vertex count is k(2n + B).
    """
    k = inst.bins
    width = 2 * k - 1
    parts = []
    next_id = 0
    for a in inst.items:
        clique = tuple(range(next_id, next_id + width))
        next_id += width + a + 1
        parts.append(SplitPart(clique, tuple(range(clique[-1] + 1, next_id))))
    return GadgetLayout(inst, tuple(parts))


def build_interval_gadget(inst: BinPackingInstance) -> GadgetLayout:
    """Disjoint union of one chain component per item, with an interval
    realization.

    Per component, step i (1-based) places its first clique on
    [60i-50, 60i-40], its second on [60i-30, 60i-20], and hub i on
    [60i-45, 60i+12] so it reaches into the next step's first clique; the
    last hub is truncated to [60i-45, 60i-25] since there is no next step.
    Components are offset by 60*a_j + 60 so they cannot interact.
    `validate_layout` checks the intervals against the intended edge set.
    Total vertex count is k(4k - 1)B.
    """
    k = inst.bins
    width = 2 * k - 1
    parts = []
    lefts: list[int] = []
    rights: list[int] = []
    next_id = 0
    base = 0
    for a in inst.items:
        cliques: list[tuple[int, ...]] = []
        hubs: list[int] = []
        for i in range(1, a + 1):
            # Ids run first clique, second clique, hub, as the columns do.
            cliques += (tuple(range(next_id, next_id + width)),
                        tuple(range(next_id + width, next_id + 2 * width)))
            hubs.append(next_id + 2 * width)
            next_id += 2 * width + 1
            step = base + 60 * i
            lefts += [step - 50] * width + [step - 30] * width + [step - 45]
            rights += [step - 40] * width + [step - 20] * width
            rights.append(step + 12 if i < a else step - 25)
        parts.append(ChainPart(tuple(cliques), tuple(hubs)))
        base += 60 * a + 60
    return GadgetLayout(inst, tuple(parts), IntervalRep.from_columns(lefts, rights))


def _part_vertices(part: SplitPart | ChainPart) -> Iterator[int]:
    """Every labeled vertex of the part, as often as it is listed."""
    return chain(chain.from_iterable(part.cliques), part.attached)


def _part_edges(part: SplitPart | ChainPart) -> Iterator[tuple[int, int]]:
    """Every edge of the part as (u, v) with u < v."""
    for clique in part.cliques:
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                yield (u, v)
    for w, cliques in part.windows():
        for clique in cliques:
            for u in clique:
                yield (u, w) if u < w else (w, u)


def verify_maximal_clique_order(layout: GadgetLayout) -> bool:
    """Check, per chain component with a hubs, that its windows list 3a - 1
    cliques (each window clique with its hub), that each is a maximal clique
    of the intervals' graph, and that every vertex appears in a consecutive
    run of the list."""
    rep = layout.rep
    if rep is None:
        raise ValueError("maximal-clique ordering applies to interval layouts only")
    for part in layout.parts:
        last: dict[int, int] = {}  # each vertex's latest clique in the list
        listed = 0
        for hub, cliques in part.windows():
            for clique in cliques:
                members = (*clique, hub)
                if not _is_maximal_clique(rep, members):
                    return False
                for v in members:
                    if last.get(v, listed) < listed - 1:
                        return False  # v's run broke off and v came back
                    last[v] = listed
                listed += 1
        if listed != 3 * len(part.hubs) - 1:
            return False
    return True


def _is_maximal_clique(rep: IntervalRep, vertices: Collection[int]) -> bool:
    """Intervals pairwise meet iff they share a segment [lo, hi] (Helly), and
    then a vertex meets them all iff it meets that segment, so the members
    are a maximal clique iff the segment is non-empty and they alone meet it.
    The intervals meeting it are those with left <= hi, less those with
    right < lo. Expects at least one member."""
    lo = max(map(rep.lefts.__getitem__, vertices))
    hi = min(map(rep.rights.__getitem__, vertices))
    ended = bisect_left(rep.by_right, lo, key=rep.rights.__getitem__)
    meeting = bisect_right(rep.ordered_lefts, hi) - ended
    return lo <= hi and meeting == len(vertices)


def validate_layout(layout: GadgetLayout) -> None:
    """Structural checks for a gadget; raises ConsistencyError.

    Covers, on the labels and before reading the graph, the vertex-count
    identity (k(2n+B) split, k(4k-1)B interval) and the parts partitioning
    the vertex set; the graph is their edge rule. For interval layouts it
    covers the maximal clique ordering, the hub degrees 3(2k-1) (2(2k-1) for
    the last hub) and the intervals' adjacency: every graph edge joins two
    meeting intervals, and the graph has as many edges as the intervals'
    graph, so the two edge sets are equal.
    """
    inst, rep = layout.instance, layout.rep
    k = inst.bins
    expected_n = k * (2 * inst.n + inst.capacity)
    if rep is not None:
        expected_n = k * (4 * k - 1) * inst.capacity
    labeled = sorted(chain.from_iterable(map(_part_vertices, layout.parts)))
    n = labeled[-1] + 1 if labeled else 0
    if n != expected_n:
        raise ConsistencyError(
            f"{layout.kind} gadget has {n} vertices, identity gives {expected_n}"
        )
    if labeled != list(range(n)):
        raise ConsistencyError("part labels do not partition the vertex set")
    if rep is None:
        return

    g = layout.graph
    lefts, rights = rep.lefts, rep.rights
    if rep.n != g.n or g.m != rep.stats[1] or not all(
        lefts[u] <= rights[v] and lefts[v] <= rights[u] for u, v in g.edges()
    ):
        raise ConsistencyError("rep-derived adjacency differs from the graph")
    if not verify_maximal_clique_order(layout):
        raise ConsistencyError("maximal-clique ordering check failed")
    for part in layout.parts:
        for t, hub in enumerate(part.hubs):
            expected = (3 if t < len(part.hubs) - 1 else 2) * (2 * k - 1)
            if g.degree(hub) != expected:
                raise ConsistencyError(
                    f"hub {hub} has degree {g.degree(hub)}, expected {expected}"
                )


def coloring_from_packing(
    layout: GadgetLayout, partition: Sequence[Sequence[int]]
) -> Coloring:
    """Translate an exact packing into an equitable tree-coloring of the
    gadget, bin index i becoming color i.

    For an item placed in bin i, the part's attached vertices and the first
    vertex of each of its cliques (a split part's center) take color i, and
    the rest of each clique takes the other k-1 colors, each exactly twice.
    Class sizes come out as B + 2n (split) or (4k - 1)B (interval).
    """
    inst = layout.instance
    _check_partition(inst, partition)
    k = inst.bins
    colors = [-1] * layout.graph.n
    for bin_index, bin_items in enumerate(partition):
        others = [c for c in range(k) if c != bin_index]
        for j in bin_items:
            part = layout.parts[j]
            for w in part.attached:
                colors[w] = bin_index
            for clique in part.cliques:
                colors[clique[0]] = bin_index
                for t, u in enumerate(clique[1:]):
                    colors[u] = others[t // 2]
    return Coloring(colors, k)


def _check_partition(
    inst: BinPackingInstance, partition: Sequence[Sequence[int]]
) -> None:
    if len(partition) != inst.bins:
        raise ValueError(f"partition has {len(partition)} bins, expected {inst.bins}")
    placed = sorted(j for bin_items in partition for j in bin_items)
    if placed != list(range(inst.n)):
        raise ValueError("partition must place every item index exactly once")
    for i, bin_items in enumerate(partition):
        load = sum(inst.items[j] for j in bin_items)
        if load != inst.capacity:
            raise ValueError(f"bin {i} sums to {load}, expected {inst.capacity}")


def packing_from_coloring(layout: GadgetLayout, c: Coloring) -> list[list[int]]:
    """Read an exact packing back out of a verified coloring: every item goes
    to the bin named by the common color of its part's attached vertices.

    A valid equitable tree-coloring of the gadget cannot color those sets
    with more than one color or produce bin loads other than the capacity,
    so either condition failing raises ConsistencyError.
    """
    inst = layout.instance
    if c.k != inst.bins or len(c) != layout.graph.n:
        raise ValueError("coloring does not match the gadget's size or color count")
    verdict = verify_equitable_tree_coloring(layout.graph, c)
    if not verdict.ok:
        raise ValueError(
            f"coloring is not a valid equitable tree-coloring ({verdict.failure_kind})"
        )
    partition: list[list[int]] = [[] for _ in range(inst.bins)]
    for j, part in enumerate(layout.parts):
        bin_colors = {c[w] for w in part.attached}
        if len(bin_colors) != 1:
            raise ConsistencyError(f"forced vertex set of item {j} is not monochromatic")
        partition[bin_colors.pop()].append(j)
    try:
        _check_partition(inst, partition)
    except ValueError as exc:
        raise ConsistencyError(f"extracted {exc}") from None
    return partition


def _sorted_sample(rng: random.Random, size: int, k: int) -> list[int]:
    """sorted(rng.sample(range(size), k)) by the same calls on rng. Where
    `sample` would copy the range into a pool list (its own size test,
    below), its swaps are kept in a dict of the moved slots instead, so
    memory follows k and not size."""
    pool_size = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    if size > pool_size:
        return sorted(rng.sample(range(size), k))
    moved: dict[int, int] = {}
    drawn = []
    for last in range(size - 1, size - 1 - k, -1):
        j = rng.randrange(last + 1)
        drawn.append(moved.get(j, j))
        moved[j] = moved.pop(last, last)
    return sorted(drawn)


def gen_random_interval(
    n: int, max_coord: int, seed: int, proper: bool = False
) -> IntervalRep:
    """Deterministic pseudo-random representation on coordinates 0..max_coord.

    With proper=True, 2n distinct coordinates are drawn and paired so that
    both endpoint sequences increase together, which rules out containment;
    that needs 2n <= max_coord + 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_coord < 1:
        raise ValueError("max_coord must be >= 1")
    rng = random.Random(seed)
    lefts: list[int] = []
    rights: list[int] = []
    if not proper:
        for _ in range(n):
            a, b = sorted((rng.randint(0, max_coord), rng.randint(0, max_coord)))
            lefts.append(a)
            rights.append(b)
        return IntervalRep.from_columns(lefts, rights)
    if 2 * n > max_coord + 1:
        raise ValueError(
            f"cannot place {n} intervals with distinct endpoints in 0..{max_coord}"
        )
    coords = _sorted_sample(rng, max_coord + 1, 2 * n)
    for x in coords:
        if len(lefts) == n:
            rights.append(x)
        elif len(rights) == len(lefts):
            lefts.append(x)
        elif rng.random() < 0.5:
            lefts.append(x)
        else:
            rights.append(x)
    return IntervalRep.from_columns(lefts, rights)
