"""The sweep core for interval inputs, checked against the graph route.

Every function here answers a question about the intersection graph without
building it; each property compares it with the same question asked of
`derive_graph(rep)`. The representation's endpoint columns and the sorted
sequences it caches for the sweeps are checked here too.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import treecolor.coloring
import treecolor.graph
from treecolor import (
    Coloring,
    IntervalRep,
    derive_graph,
    first_monochromatic_cycle_edge,
    first_monochromatic_triangle_edge,
    greedy_color,
    interval_order,
    max_clique_sweep,
    verify_equitable_tree_coloring,
    verify_interval_coloring,
)
from treecolor.formats import parse_intervals, write_intervals

from oracles import (
    equal_intervals_rep,
    first_monochromatic_triangle_edge_by_lists,
    maximal_cliques_networkx,
    path_rep,
)


@st.composite
def touching_entries(draw, max_n=40):
    """(id, left, right) entries on a small coordinate range, so that
    intervals often touch in one point, with some intervals repeated exactly
    and the ids and the row order both shuffled."""
    n = draw(st.integers(0, max_n))
    max_coord = draw(st.integers(0, 2 * n + 1))
    spans = []
    for _ in range(n):
        if spans and draw(st.integers(0, 3)) == 0:
            spans.append(draw(st.sampled_from(spans)))
        else:
            a = draw(st.integers(0, max_coord))
            b = draw(st.integers(0, max_coord))
            spans.append((min(a, b), max(a, b)))
    ids = draw(st.permutations(range(n)))
    entries = [(v, lo, hi) for v, (lo, hi) in zip(ids, spans)]
    return tuple(draw(st.permutations(entries)))


def touching_reps(max_n=40):
    return touching_entries(max_n).map(IntervalRep)


@st.composite
def reps_with_colorings(draw):
    """A representation and a coloring with k in 1..n+1: either an equitable
    one, which reaches the cycle clause, or an arbitrary one."""
    rep = draw(touching_reps())
    k = draw(st.integers(1, rep.n + 1))
    if draw(st.booleans()):
        colors = draw(st.permutations([p % k for p in range(rep.n)]))
    else:
        colors = draw(st.lists(st.integers(0, k - 1), min_size=rep.n, max_size=rep.n))
    return rep, Coloring(tuple(colors), k)


class TestIntervalOrder:
    @settings(max_examples=100, deadline=None)
    @given(touching_reps())
    def test_is_the_cached_left_right_id_sort(self, rep):
        order = interval_order(rep)
        assert order == tuple(
            sorted(range(rep.n), key=lambda v: (rep.lefts[v], rep.rights[v], v))
        )
        assert interval_order(rep) is order
        by_right = rep.by_right
        assert by_right == tuple(sorted(range(rep.n), key=lambda v: (rep.rights[v], v)))
        lefts = rep.ordered_lefts
        assert list(lefts) == [rep.lefts[v] for v in order] == sorted(lefts)
        assert rep.ordered_lefts is lefts and rep.by_right is by_right

    def test_greedy_and_a_clean_triangle_sweep_sort_nothing_once_cached(
        self, monkeypatch
    ):
        # Only the rep sorts by an endpoint; its cached orders serve the walks.
        # `order` is sorted from `by_right`, so caching it caches both.
        rep = IntervalRep(tuple((v, v, v + 3) for v in range(12)))
        rep.order

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted called past the rep's cached orders")

        for module in (treecolor.coloring, treecolor.graph):
            monkeypatch.setattr(module, "sorted", no_sort, raising=False)
        coloring = greedy_color(rep, 3)
        assert coloring is not None
        assert first_monochromatic_triangle_edge(rep, coloring.colors) is None


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hold_the_entries_in_any_order(self, data):
        entries = data.draw(touching_entries())
        rep = IntervalRep(entries)
        for v, lo, hi in entries:
            assert (rep.lefts[v], rep.rights[v]) == (lo, hi)
        shuffled = IntervalRep(tuple(data.draw(st.permutations(entries))))
        assert shuffled == rep and hash(shuffled) == hash(rep)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rep.intervals"
            write_intervals(path, rep)
            assert parse_intervals(path) == rep


class TestIntervalStatsSweep:
    @settings(max_examples=100, deadline=None)
    @given(touching_reps())
    def test_matches_derived_graph(self, rep):
        # Up to 40 vertices: too many for the 2^n subset scan, so the clique
        # number comes from networkx's enumeration of the maximal cliques.
        g = derive_graph(rep)
        omega = max(map(len, maximal_cliques_networkx(g)), default=0)
        assert max_clique_sweep(rep) == (omega, g.m, g.max_degree())

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_stats_are_kept_on_a_rep_that_still_equals_a_fresh_one(self, data):
        entries = data.draw(touching_entries())
        rep = IntervalRep(entries)
        stats = rep.stats
        assert stats == max_clique_sweep(rep) and rep.stats is stats
        fresh = IntervalRep(tuple(data.draw(st.permutations(entries))))
        assert "stats" not in vars(fresh)
        assert rep == fresh and fresh == rep and hash(rep) == hash(fresh)
        assert {rep, fresh} == {rep} and rep.stats == fresh.stats

    def test_empty(self):
        assert max_clique_sweep(IntervalRep(())) == (0, 0, 0)

    def test_touching_counts_as_edge(self):
        assert max_clique_sweep(path_rep(4)) == (2, 3, 2)


class TestTriangleSweep:
    def test_triangle_touching_in_one_point(self):
        rep = IntervalRep(((0, 0, 1), (1, 1, 2), (2, 1, 1)))
        assert first_monochromatic_triangle_edge(rep, [0, 0, 0]) == (0, 1)

    def test_path_has_no_triangle(self):
        assert first_monochromatic_triangle_edge(path_rep(5), [0] * 5) is None

    def test_witness_is_two_smallest_ids_of_first_triangle(self):
        rep = IntervalRep(
            ((0, 10, 11), (1, 10, 11), (2, 10, 11), (3, 0, 1), (4, 0, 1), (5, 0, 1))
        )
        assert first_monochromatic_triangle_edge(rep, [0] * 6) == (3, 4)

    def test_shared_left_is_swept_in_right_then_id_order(self):
        # [0, 1] twice precedes [0, 9] twice, so the first triangle is
        # {2, 3, 0}, not {0, 1, 2}.
        rep = IntervalRep(((0, 0, 9), (1, 0, 9), (2, 0, 1), (3, 0, 1)))
        assert first_monochromatic_triangle_edge(rep, [0] * 4) == (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(reps_with_colorings())
    def test_agrees_with_cycle_scan_and_witness_is_monochromatic_edge(self, case):
        rep, coloring = case
        g = derive_graph(rep)
        colors = coloring.colors
        edge = first_monochromatic_triangle_edge(rep, colors)
        assert (edge is None) == (first_monochromatic_cycle_edge(g, colors) is None)
        if edge is not None:
            u, v = edge
            assert u < v and g.has_edge(u, v) and colors[u] == colors[v]
            assert any(
                colors[w] == colors[u] and g.has_edge(u, w) and g.has_edge(v, w)
                for w in range(g.n)
                if w not in edge
            )


    @settings(max_examples=150, deadline=None)
    @given(reps_with_colorings())
    def test_witness_equals_the_list_per_color_sweep(self, case):
        rep, coloring = case
        assert first_monochromatic_triangle_edge(
            rep, coloring.colors
        ) == first_monochromatic_triangle_edge_by_lists(rep, coloring.colors)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_witness_equals_the_list_per_color_sweep_on_any_ints(self, data):
        # Colors are dict keys, so negative ones and ones past any k count too.
        rep = data.draw(touching_reps())
        colors = data.draw(
            st.lists(st.integers(-3, 2**70), min_size=rep.n, max_size=rep.n)
            | st.lists(st.integers(-2, 2), min_size=rep.n, max_size=rep.n)
        )
        assert first_monochromatic_triangle_edge(
            rep, colors
        ) == first_monochromatic_triangle_edge_by_lists(rep, colors)


class TestVerifyIntervalColoring:
    @settings(max_examples=150, deadline=None)
    @given(reps_with_colorings())
    def test_matches_graph_verifier(self, case):
        rep, coloring = case
        sweep = verify_interval_coloring(rep, coloring)
        graph = verify_equitable_tree_coloring(derive_graph(rep), coloring)
        assert (sweep.ok, sweep.failure_kind) == (graph.ok, graph.failure_kind)
        if sweep.failure_kind == "imbalance":
            assert sweep.witness == graph.witness
        if sweep.failure_kind == "monochromatic_cycle":
            u, v = sweep.witness
            assert derive_graph(rep).has_edge(u, v)
            assert coloring[u] == coloring[v]

    def test_uncolored_first(self):
        rep = equal_intervals_rep(3)
        short = Coloring((0, 0), 1)
        assert verify_interval_coloring(rep, short).failure_kind == "uncolored"

    def test_imbalance_before_cycle(self):
        rep = equal_intervals_rep(4)
        verdict = verify_interval_coloring(rep, Coloring((0, 0, 0, 1), 2))
        assert (verdict.failure_kind, verdict.witness) == ("imbalance", (0, 1))
