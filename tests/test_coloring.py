import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecolor.coloring
from treecolor import (
    Coloring,
    Graph,
    IntervalRep,
    ProperContainmentError,
    SolveTimeout,
    decide_proper_interval,
    derive_graph,
    exact_solve,
    first_monochromatic_cycle_edge,
    gen_random_interval,
    greedy_color,
    guaranteed_k,
    max_clique_sweep,
    proper_min_k,
    round_robin_color,
    solve_intervals,
    verify_equitable_tree_coloring,
    verify_interval_coloring,
)
from treecolor.coloring import _RollbackUnionFind

from census import census
from oracles import (
    WINDOW_NOS,
    equal_intervals_rep,
    exact_solve_recursive,
    greedy_color_scan,
    path_rep,
)
from test_graph import graphs, interval_reps


class TestColoring:
    def test_rejects_out_of_range_color(self):
        with pytest.raises(ValueError, match="vertex 1"):
            Coloring((0, 2), 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Coloring((), 0)

    def test_rejects_non_integer_colors(self):
        with pytest.raises(TypeError):
            Coloring((0, 1.0), 2)

    def test_class_bookkeeping(self):
        c = Coloring((0, 1, 0, 2), 3)
        assert c.class_sizes() == [2, 1, 1]
        assert len(c) == 4 and c[3] == 2 and list(c) == [0, 1, 0, 2]


class TestVerifier:
    def test_complete_graph_split_into_pairs(self):
        g = derive_graph(equal_intervals_rep(4))
        verdict = verify_equitable_tree_coloring(g, Coloring((0, 1, 0, 1), 2))
        assert verdict.ok and verdict.failure_kind == "none"

    def test_imbalance_reported_with_class_pair(self):
        g = derive_graph(equal_intervals_rep(4))
        verdict = verify_equitable_tree_coloring(g, Coloring((0, 0, 0, 1), 2))
        assert not verdict.ok
        assert verdict.failure_kind == "imbalance"
        assert verdict.witness == (0, 1)

    def test_monochromatic_cycle_reported_with_edge(self):
        g = derive_graph(equal_intervals_rep(3))
        verdict = verify_equitable_tree_coloring(g, Coloring((0, 0, 0), 1))
        assert not verdict.ok
        assert verdict.failure_kind == "monochromatic_cycle"
        u, v = verdict.witness
        assert g.has_edge(u, v)

    def test_uncovered_coloring(self):
        g = derive_graph(equal_intervals_rep(3))
        verdict = verify_equitable_tree_coloring(g, Coloring((0, 1), 2))
        assert not verdict.ok and verdict.failure_kind == "uncolored"

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert verify_equitable_tree_coloring(g, Coloring((), 3)).ok


class TestKFormulas:
    """Each formula against its definition written out as a search."""

    def test_guaranteed_k_is_least_k_with_2k_at_least_degree_plus_one(self):
        for delta in range(61):
            assert guaranteed_k(delta) == next(k for k in range(61) if 2 * k >= delta + 1)

    def test_proper_min_k_is_least_positive_k_with_2k_at_least_omega(self):
        for omega in range(61):
            assert proper_min_k(omega) == next(k for k in range(1, 62) if 2 * k >= omega)


class TestRoundRobin:
    def test_complete_graph_four_vertices(self):
        rep = equal_intervals_rep(4)
        c = round_robin_color(rep, 2)
        assert c.colors == (0, 1, 0, 1)
        assert verify_equitable_tree_coloring(derive_graph(rep), c).ok

    def test_path_single_color(self):
        c = round_robin_color(path_rep(3), 1)
        assert c.class_sizes() == [3]
        assert verify_equitable_tree_coloring(derive_graph(path_rep(3)), c).ok

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            round_robin_color(path_rep(3), 0)

    def test_more_colors_than_vertices(self):
        rep = path_rep(2)
        c = round_robin_color(rep, 5)
        assert sorted(c.class_sizes()) == [0, 0, 0, 1, 1]
        assert verify_equitable_tree_coloring(derive_graph(rep), c).ok

    @given(interval_reps(), st.integers(1, 6))
    def test_always_equitable(self, rep, k):
        sizes = round_robin_color(rep, k).class_sizes()
        assert max(sizes) - min(sizes) <= 1

    @given(interval_reps(max_n=14, max_coord=20))
    def test_threshold_guarantee(self, rep):
        g = derive_graph(rep)
        k = (g.max_degree() + 2) // 2
        assert verify_equitable_tree_coloring(g, round_robin_color(rep, k)).ok

    def test_fifty_vertex_threshold_run(self):
        rep = gen_random_interval(50, 120, seed=7)
        g = derive_graph(rep)
        k = (g.max_degree() + 2) // 2
        assert verify_equitable_tree_coloring(g, round_robin_color(rep, k)).ok


class TestDecide:
    def test_complete_graph_needs_half_its_size(self):
        rep = equal_intervals_rep(4)
        assert decide_proper_interval(rep, 1) == (False, None)
        answer, cert = decide_proper_interval(rep, 2)
        assert answer and sorted(cert.class_sizes()) == [2, 2]
        assert verify_equitable_tree_coloring(derive_graph(rep), cert).ok

    def test_non_proper_input_names_the_pair(self):
        rep = IntervalRep(((0, 0, 9), (1, 2, 3)))
        with pytest.raises(ProperContainmentError) as excinfo:
            decide_proper_interval(rep, 2)
        assert excinfo.value.outer == 0 and excinfo.value.inner == 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            decide_proper_interval(path_rep(3), 0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_solver(self, seed):
        n = 1 + seed % 9
        rep = gen_random_interval(n, 40, seed=seed, proper=True)
        g = derive_graph(rep)
        for k in range(1, 5):
            answer, cert = decide_proper_interval(rep, k)
            assert rep.stats == max_clique_sweep(rep)
            assert answer == (exact_solve(g, k) is not None)
            if answer:
                assert verify_equitable_tree_coloring(g, cert).ok


class TestExactSolve:
    def test_complete_graph_single_class(self):
        g = derive_graph(equal_intervals_rep(4))
        assert exact_solve(g, 1) is None

    def test_empty_graph_five_vertices(self):
        g = Graph.from_edges(5, [])
        c = exact_solve(g, 2)
        assert sorted(c.class_sizes()) == [2, 3]

    def test_complete_six_needs_three_classes(self):
        g = derive_graph(equal_intervals_rep(6))
        assert exact_solve(g, 2) is None
        c = exact_solve(g, 3)
        assert c is not None
        assert verify_equitable_tree_coloring(g, c).ok

    def test_zero_vertices(self):
        assert exact_solve(Graph.from_edges(0, []), 2) is not None

    def test_more_colors_than_vertices(self):
        g = derive_graph(path_rep(3))
        c = exact_solve(g, 5)
        assert sorted(c.class_sizes()) == [0, 0, 1, 1, 1]
        assert verify_equitable_tree_coloring(g, c).ok

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            exact_solve(Graph.from_edges(1, []), 0)

    def test_deterministic(self):
        g = derive_graph(gen_random_interval(9, 30, seed=3))
        assert exact_solve(g, 3) == exact_solve(g, 3)

    def test_time_limit_zero_raises(self):
        g = derive_graph(equal_intervals_rep(6))
        with pytest.raises(SolveTimeout):
            exact_solve(g, 3, time_limit=0.0)

    def test_failed_profiles_are_not_searched_again(self, monkeypatch):
        # Disjoint cliques of sizes 3, 3, 3, 3 and 5 at k = 2: the 5-clique
        # makes the answer NO, and every clique ends at a cut point, where a
        # class-size profile that failed once is skipped. With the skip the
        # search makes 150 unions; without it, 25,190.
        edges, start = [], 0
        for size in (3, 3, 3, 3, 5):
            edges += combinations(range(start, start + size), 2)
            start += size
        g = Graph.from_edges(start, edges)
        calls = 0
        union = _RollbackUnionFind.union

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return union(self, a, b)

        monkeypatch.setattr(_RollbackUnionFind, "union", counted)
        assert exact_solve(g, 2) is None
        assert calls <= 1000

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7), st.integers(1, 3))
    def test_solutions_always_verify(self, g, k):
        c = exact_solve(g, k)
        if c is not None:
            assert verify_equitable_tree_coloring(g, c).ok

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7), st.integers(1, 3))
    def test_feasibility_monotone_in_k(self, g, k):
        if exact_solve(g, k) is not None:
            assert exact_solve(g, k + 1) is not None

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10))
    def test_same_first_solution_as_recursive_search(self, g):
        for k in range(1, g.n + 2):
            assert exact_solve(g, k) == exact_solve_recursive(g, k), k


class TestSolveIntervals:
    @settings(max_examples=120, deadline=None)
    @given(interval_reps(max_n=10))
    def test_same_answer_as_exhaustive_solver(self, rep):
        g = derive_graph(rep)
        for k in range(1, rep.n + 2):
            c = solve_intervals(rep, k)
            assert (c is None) == (exact_solve(g, k) is None), k
            if c is not None:
                assert verify_interval_coloring(rep, c).ok
                assert verify_equitable_tree_coloring(g, c).ok

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            solve_intervals(path_rep(3), 0)

    def test_time_limit_counts_the_graph_derivation(self, monkeypatch):
        # Between the two bounds (omega = 8 <= 2k, round robin and the
        # greedy fail), so the graph is derived and searched; the search
        # alone takes well under the limit, but the derivation has spent
        # all of it.
        rep = gen_random_interval(16, 64, 11)
        assert rep.stats[0] <= 2 * 4 and 4 < guaranteed_k(rep.stats[2])
        assert not verify_interval_coloring(rep, round_robin_color(rep, 4)).ok
        assert greedy_color(rep, 4) is None
        derive = treecolor.coloring.derive_graph

        def slow_derive(rep):
            time.sleep(0.2)
            return derive(rep)

        monkeypatch.setattr(treecolor.coloring, "derive_graph", slow_derive)
        with pytest.raises(SolveTimeout):
            solve_intervals(rep, 4, time_limit=0.05)


class TestGreedyColor:
    @settings(max_examples=200, deadline=None)
    @given(interval_reps(max_n=12))
    def test_same_colors_as_the_scan_and_never_a_false_yes(self, rep):
        g = derive_graph(rep)
        for k in range(1, rep.n + 2):
            c = greedy_color(rep, k)
            assert c == greedy_color_scan(rep, k), k
            if c is not None:
                assert verify_interval_coloring(rep, c).ok
                assert verify_equitable_tree_coloring(g, c).ok
                assert exact_solve(g, k) is not None

    @settings(max_examples=200, deadline=None)
    @given(interval_reps(max_n=12))
    def test_returns_round_robin_whenever_it_verifies(self, rep):
        # With p = r*k + c, the least free (count, color) at position p is
        # (r, c) exactly when round robin's color for p closes no triangle,
        # so a round robin that verifies is the greedy's coloring too. This
        # is why solve_intervals may try round robin first.
        for k in range(1, rep.n + 2):
            round_robin = round_robin_color(rep, k)
            if verify_interval_coloring(rep, round_robin).ok:
                assert greedy_color(rep, k) == round_robin, k

    @pytest.mark.parametrize("rep, k", WINDOW_NOS)
    def test_gives_up_on_the_window_no_instances(self, rep, k):
        assert greedy_color(rep, k) is None
        assert exact_solve(derive_graph(rep), k) is None
        assert exact_solve_recursive(derive_graph(rep), k) is None

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            greedy_color(path_rep(3), 0)


class TestCensus:
    def test_counts_sum_with_no_false_yes(self):
        rows = census(range(40), 4, 10, time_limit=10.0)
        assert rows and all(gap <= 0 for gap in rows)
        for row in rows.values():
            assert row["timeouts"] == 0
            assert row["search_yes"] + row["search_no"] == row["pairs"]
            assert row["false_yes"] == 0
            assert row["round_robin_not_greedy"] == 0


class TestAlgorithmInternalConsistency:
    @pytest.mark.parametrize("seed", range(20))
    def test_cycle_scan_equals_clique_bound(self, seed):
        n = 1 + seed % 11
        rep = gen_random_interval(n, 50, seed=100 + seed, proper=True)
        g = derive_graph(rep)
        for k in range(1, 5):
            scan_clean = (
                first_monochromatic_cycle_edge(g, round_robin_color(rep, k).colors)
                is None
            )
            assert scan_clean == (max_clique_sweep(rep)[0] <= 2 * k)
