from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecolor import (
    Graph,
    IntervalRep,
    RepresentationError,
    derive_graph,
    find_proper_containment,
    first_monochromatic_cycle_edge,
    interval_order,
    is_proper_representation,
    max_clique_sweep,
)

from oracles import (
    color_classes_are_forests,
    equal_intervals_rep,
    first_broken_neighbours,
    forests_by_dfs,
    is_star_free,
    max_clique_bruteforce,
    neighbor_sets,
    path_rep,
    properly_contains,
    star_bruteforce,
    verify_order,
)


@st.composite
def interval_reps(draw, max_n=10, max_coord=30):
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = []
    for v in range(n):
        a = draw(st.integers(0, max_coord))
        b = draw(st.integers(0, max_coord))
        entries.append((v, min(a, b), max(a, b)))
    return IntervalRep(tuple(entries))


@st.composite
def graphs(draw, max_n=8):
    """Each vertex pair is an edge on its own draw, so dense graphs, where the
    exhaustive search backtracks most, are as likely as sparse ones."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@st.composite
def edge_lists(draw, max_n=7):
    """(n, edges) where an edge may repeat, in either orientation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return n, edges


class TestIntervalRep:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(RepresentationError, match="vertex 0"):
            IntervalRep(((0, 5, 2),))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(RepresentationError, match="duplicate"):
            IntervalRep(((0, 0, 1), (0, 2, 3)))

    def test_rejects_non_dense_ids(self):
        with pytest.raises(RepresentationError, match="missing"):
            IntervalRep(((0, 0, 1), (2, 2, 3)))

    def test_rejects_non_integer_values(self):
        with pytest.raises(TypeError):
            IntervalRep(((0, 0.5, 1.7),))

    def test_spans_indexed_by_id(self):
        rep = IntervalRep(((1, 4, 5), (0, 0, 2)))
        assert rep.lefts == (0, 4) and rep.rights == (2, 5)
        assert rep.lefts[1] == 4 and rep.rights[1] == 5


class TestFromEdges:
    @pytest.mark.parametrize(
        "edge, message",
        [((1, 1), "self-loop"), ((0, 3), "out of range"), ((-1, 2), "out of range")],
    )
    def test_rejects_bad_edges(self, edge, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, [(0, 1), edge])

    def test_repeated_edge_kept_once(self):
        g = Graph.from_edges(4, [(2, 0), (0, 2), (2, 0), (1, 2)])
        assert g.adj == ((2,), (2,), (0, 1), ())
        assert g.m == 2 and list(g.edges()) == [(0, 2), (1, 2)]

    def test_isolated_vertices_get_empty_tuples(self):
        assert Graph.from_edges(3, []).adj == ((), (), ())
        assert Graph.from_edges(3, [(0, 2)]).adj[1] == ()

    @given(edge_lists())
    def test_has_edge_matches_adjacency(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        pairs = {frozenset(e) for e in edges}
        for u in range(n):
            assert g.adj[u] == tuple(v for v in range(n) if frozenset((u, v)) in pairs)
            for v in range(n):
                assert g.has_edge(u, v) == (v in set(g.adj[u]))


class TestDeriveGraph:
    def test_touching_closed_intervals_intersect(self):
        g = derive_graph(IntervalRep(((0, 0, 1), (1, 1, 2))))
        assert list(g.edges()) == [(0, 1)]

    def test_disjoint_intervals(self):
        g = derive_graph(IntervalRep(((0, 0, 1), (1, 2, 3))))
        assert g.m == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_equal_intervals_give_complete_graph(self, n):
        g = derive_graph(equal_intervals_rep(n))
        assert g.m == n * (n - 1) // 2

    @given(interval_reps())
    def test_matches_pairwise_definition(self, rep):
        g = derive_graph(rep)
        for u in range(rep.n):
            for v in range(u + 1, rep.n):
                lu, ru = rep.lefts[u], rep.rights[u]
                lv, rv = rep.lefts[v], rep.rights[v]
                assert g.has_edge(u, v) == (max(lu, lv) <= min(ru, rv))

    @given(interval_reps())
    def test_adjacency_symmetric_and_loop_free(self, rep):
        g = derive_graph(rep)
        nbr = neighbor_sets(g)
        for u in range(g.n):
            assert u not in nbr[u]
            for v in g.adj[u]:
                assert u in nbr[v]
        assert g.m == sum(len(a) for a in g.adj) // 2


class TestIntervalOrder:
    def test_sorts_by_left_then_right(self):
        rep = IntervalRep(((0, 5, 6), (1, 0, 9), (2, 0, 2)))
        assert interval_order(rep) == (2, 1, 0)

    def test_equal_intervals_tie_break_by_id(self):
        assert interval_order(equal_intervals_rep(4)) == (0, 1, 2, 3)

    @given(interval_reps())
    def test_output_always_passes_verify_order(self, rep):
        assert verify_order(derive_graph(rep), interval_order(rep))


class TestVerifyOrder:
    def test_path_in_natural_order(self):
        g = derive_graph(path_rep(3))
        assert verify_order(g, (0, 1, 2))

    def test_path_in_bad_order(self):
        g = derive_graph(path_rep(3))
        assert not verify_order(g, (0, 2, 1))

    def test_four_cycle_fails_every_order(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for perm in permutations(range(4)):
            assert not verify_order(g, perm)

    def test_triangle_passes_every_order(self):
        g = derive_graph(equal_intervals_rep(3))
        for perm in permutations(range(3)):
            assert verify_order(g, perm)

    def test_length_mismatch_raises(self):
        g = derive_graph(path_rep(3))
        with pytest.raises(ValueError):
            verify_order(g, (0, 1))


class TestProperRepresentation:
    def test_overlapping_pair_is_proper(self):
        assert is_proper_representation(IntervalRep(((0, 0, 2), (1, 1, 3))))

    def test_strict_containment_is_not_proper(self):
        rep = IntervalRep(((0, 0, 5), (1, 1, 2)))
        assert not is_proper_representation(rep)
        assert find_proper_containment(rep) == (0, 1)

    def test_equal_intervals_are_proper(self):
        assert is_proper_representation(IntervalRep(((0, 0, 1), (1, 0, 1))))

    def test_shared_left_endpoint_containment(self):
        rep = IntervalRep(((0, 0, 1), (1, 0, 4)))
        assert find_proper_containment(rep) == (1, 0)

    def test_shared_right_endpoint_containment(self):
        rep = IntervalRep(((0, 0, 4), (1, 2, 4)))
        assert find_proper_containment(rep) == (0, 1)

    def test_three_on_one_left_name_the_first_broken_neighbours(self):
        rep = IntervalRep(((0, 0, 1), (1, 0, 1), (2, 0, 3)))
        assert find_proper_containment(rep) == (2, 1)

    @given(interval_reps())
    def test_agrees_with_quadratic_scan(self, rep):
        expected = any(
            properly_contains(rep, u, v)
            for u in range(rep.n)
            for v in range(rep.n)
            if u != v
        )
        assert is_proper_representation(rep) == (not expected)

    @given(interval_reps(max_coord=6))
    def test_names_the_first_broken_neighbours(self, rep):
        pair = find_proper_containment(rep)
        assert pair == first_broken_neighbours(rep)
        assert pair is None or properly_contains(rep, *pair)


class TestMaxCliqueSweep:
    def test_equal_intervals(self):
        assert max_clique_sweep(equal_intervals_rep(6))[0] == 6

    def test_disjoint_intervals(self):
        rep = IntervalRep(tuple((v, 3 * v, 3 * v + 1) for v in range(5)))
        assert max_clique_sweep(rep)[0] == 1

    def test_empty_rep(self):
        assert max_clique_sweep(IntervalRep(()))[0] == 0

    def test_touching_endpoints_count(self):
        assert max_clique_sweep(path_rep(3))[0] == 2

    @settings(max_examples=60)
    @given(interval_reps(max_n=9, max_coord=12))
    def test_matches_subset_bruteforce(self, rep):
        assert max_clique_sweep(rep)[0] == max_clique_bruteforce(derive_graph(rep))


class TestForestCheck:
    def test_monochromatic_triangle(self):
        g = derive_graph(equal_intervals_rep(3))
        assert not color_classes_are_forests(g, [0, 0, 0])
        assert first_monochromatic_cycle_edge(g, [0, 0, 0]) is not None

    def test_triangle_split_two_colors(self):
        g = derive_graph(equal_intervals_rep(3))
        assert color_classes_are_forests(g, [0, 0, 1])

    def test_path_single_color(self):
        g = derive_graph(path_rep(5))
        assert color_classes_are_forests(g, [0] * 5)

    def test_uncovered_vertex_raises(self):
        g = derive_graph(path_rep(3))
        with pytest.raises(ValueError):
            color_classes_are_forests(g, [0, 0])
        with pytest.raises(ValueError):
            color_classes_are_forests(g, [0, None, 0])

    def test_witness_edge_is_monochromatic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        edge = first_monochromatic_cycle_edge(g, [0, 0, 0, 1])
        assert edge is not None
        u, v = edge
        assert g.has_edge(u, v)

    @settings(max_examples=120)
    @given(graphs(), st.data())
    def test_agrees_with_dfs_oracle(self, g, data):
        colors = data.draw(
            st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)
        )
        assert color_classes_are_forests(g, colors) == forests_by_dfs(g, colors)


class TestStarFree:
    def test_star_graph_detected(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert not is_star_free(g, 4)
        assert is_star_free(g, 5)

    def test_complete_graph_has_no_induced_stars(self):
        g = derive_graph(equal_intervals_rep(5))
        assert is_star_free(g, 2)

    def test_invalid_r(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            is_star_free(g, 0)

    @settings(max_examples=60)
    @given(graphs(max_n=7), st.integers(1, 4))
    def test_agrees_with_subset_scan(self, g, r):
        assert is_star_free(g, r) == star_bruteforce(g, r)
