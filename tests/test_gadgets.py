import random
import tracemalloc
from dataclasses import fields, replace
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecolor.gadgets
from treecolor import (
    BinPackingInstance,
    ChainPart,
    Coloring,
    ConsistencyError,
    GadgetLayout,
    Graph,
    IntervalRep,
    SplitPart,
    Verdict,
    build_interval_gadget,
    build_split_gadget,
    coloring_from_packing,
    derive_graph,
    exact_solve,
    gen_random_interval,
    is_proper_representation,
    max_clique_sweep,
    packing_from_coloring,
    solve_bin_packing,
    validate_layout,
    verify_equitable_tree_coloring,
    verify_maximal_clique_order,
)
from treecolor.gadgets import _is_maximal_clique, _sorted_sample

from oracles import (
    chain_clique_sequence,
    gen_random_interval_entries,
    is_maximal_clique_by_neighbors,
    is_star_free,
    maximal_cliques_networkx,
    packing_feasible_bruteforce,
    solve_bin_packing_recursive,
    star_bruteforce,
)


def instance_grid(max_items=4, max_value=4, max_bins=3):
    """Every exact-fill instance with bounded item count, item values, and
    bin count; deterministic order."""
    out = []
    for count in range(1, max_items + 1):
        for items in combinations_with_replacement(range(1, max_value + 1), count):
            total = sum(items)
            for k in range(1, max_bins + 1):
                if total % k == 0:
                    out.append(BinPackingInstance(items, k, total // k))
    return out


def bins_as_value_multisets(inst, partition):
    return sorted(sorted(inst.items[j] for j in bin_items) for bin_items in partition)


class TestBinPackingInstance:
    def test_rejects_sum_mismatch(self):
        with pytest.raises(ValueError, match="sum to"):
            BinPackingInstance((3, 1), 2, 3)

    def test_rejects_non_positive_item(self):
        with pytest.raises(ValueError):
            BinPackingInstance((0, 2), 1, 2)

    def test_rejects_non_integer_items(self):
        with pytest.raises(TypeError):
            BinPackingInstance((1.5, 2.7), 1, 3)

    def test_rejects_bad_bins_or_capacity(self):
        with pytest.raises(ValueError):
            BinPackingInstance((1,), 0, 1)
        with pytest.raises(ValueError):
            BinPackingInstance((), 1, 0)


class TestSolveBinPacking:
    def test_small_feasible(self):
        inst = BinPackingInstance((2, 1, 1), 2, 2)
        partition = solve_bin_packing(inst)
        assert bins_as_value_multisets(inst, partition) == [[1, 1], [2]]

    def test_oversized_item(self):
        assert solve_bin_packing(BinPackingInstance((3, 1), 2, 2)) is None

    def test_six_items(self):
        inst = BinPackingInstance((2, 2, 1, 1, 1, 1), 2, 4)
        partition = solve_bin_packing(inst)
        assert partition is not None
        for bin_items in partition:
            assert sum(inst.items[j] for j in bin_items) == 4

    def test_matches_bruteforce_on_grid(self):
        for inst in instance_grid():
            found = solve_bin_packing(inst) is not None
            expected = packing_feasible_bruteforce(inst.items, inst.bins, inst.capacity)
            assert found == expected, inst

    def test_deterministic(self):
        inst = BinPackingInstance((4, 3, 3, 2, 2, 2), 4, 4)
        assert solve_bin_packing(inst) == solve_bin_packing(inst)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(1, 5))
    def test_same_first_packing_as_recursive_search(self, items, bins):
        # Pad the total to a multiple of bins, as an instance must have.
        pad = -sum(items) % bins
        if pad and len(items) < 8:
            items.append(pad)
        else:
            items[-1] += pad
        inst = BinPackingInstance(tuple(items), bins, sum(items) // bins)
        assert solve_bin_packing(inst) == solve_bin_packing_recursive(inst)

    def test_depth_is_not_bounded_by_recursion_limit(self):
        inst = BinPackingInstance((1,) * 5000, 1, 5000)
        assert solve_bin_packing(inst) == [list(range(5000))]

    def test_bins_of_equal_load_are_tried_once(self):
        # Five items of size 4 in 4 bins of 5: no bin holds two, so the
        # answer is NO. Empty bins are interchangeable, so with the skip the
        # search reads an item size 18 times; without it, 198.
        class CountedItems(tuple):
            reads = 0

            def __getitem__(self, j):
                CountedItems.reads += 1
                return super().__getitem__(j)

        inst = BinPackingInstance((4,) * 5, 4, 5)
        object.__setattr__(inst, "items", CountedItems(inst.items))
        assert solve_bin_packing(inst) is None
        assert CountedItems.reads <= 50


class TestSplitGadget:
    def test_vertex_count_identity(self):
        inst = BinPackingInstance((2, 1, 1), 2, 2)
        layout = build_split_gadget(inst)
        assert layout.graph.n == 16 == inst.bins * (2 * inst.n + inst.capacity)
        validate_layout(layout)

    def test_single_item_single_bin_is_a_star(self):
        layout = build_split_gadget(BinPackingInstance((1,), 1, 1))
        g = layout.graph
        assert g.n == 3
        center = layout.parts[0].center
        assert g.degree(center) == 2
        assert sorted(g.degree(w) for w in layout.parts[0].independent) == [1, 1]

    def test_component_structure(self):
        layout = build_split_gadget(BinPackingInstance((1, 1), 2, 1))
        for part in layout.parts:
            assert len(part.clique) == 3
            assert len(part.independent) == 2
            for u in part.clique:
                for w in part.independent:
                    assert layout.graph.has_edge(u, w)
            for w, x in zip(part.independent, part.independent[1:]):
                assert not layout.graph.has_edge(w, x)
        validate_layout(layout)

    def test_components_disconnected(self):
        layout = build_split_gadget(BinPackingInstance((2, 1, 1), 2, 2))
        verts = [set(p.clique) | set(p.independent) for p in layout.parts]
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                for u in a:
                    assert not (set(layout.graph.adj[u]) & b)


class TestIntervalGadget:
    def test_vertex_count_identity(self):
        inst = BinPackingInstance((1, 1), 2, 1)
        layout = build_interval_gadget(inst)
        assert layout.graph.n == 14 == inst.bins * (4 * inst.bins - 1) * inst.capacity
        validate_layout(layout)

    def test_rep_derives_the_same_graph(self):
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        assert derive_graph(layout.rep).adj == layout.graph.adj

    def test_hub_degrees(self):
        layout = build_interval_gadget(BinPackingInstance((3,), 3, 1))
        part = layout.parts[0]
        k = 3
        degrees = [layout.graph.degree(y) for y in part.hubs]
        assert degrees == [3 * (2 * k - 1), 3 * (2 * k - 1), 2 * (2 * k - 1)]

    def test_clique_number_and_derived_treewidth(self):
        # One chain with two steps and k=2: clique number 2k, treewidth 2k-1.
        layout = build_interval_gadget(BinPackingInstance((2,), 2, 1))
        omega = max_clique_sweep(layout.rep)[0]
        assert omega == 4
        assert omega - 1 == 3

    def test_star_free_with_four_leaves(self):
        layout = build_interval_gadget(BinPackingInstance((2,), 2, 1))
        assert is_star_free(layout.graph, 4)
        assert star_bruteforce(layout.graph, 4)


class TestMaximalCliqueOrder:
    def test_one_step_chain_has_two_cliques(self):
        layout = build_interval_gadget(BinPackingInstance((1, 1), 2, 1))
        part = layout.parts[0]
        sequence = chain_clique_sequence(part)
        assert len(sequence) == 2
        hub = part.hubs[0]
        assert sequence[0] & sequence[1] == {hub}
        assert verify_maximal_clique_order(layout)

    def test_two_step_chain_intersections(self):
        layout = build_interval_gadget(BinPackingInstance((2,), 2, 1))
        part = layout.parts[0]
        sequence = chain_clique_sequence(part)
        assert len(sequence) == 5
        first_hub = part.hubs[0]
        assert sequence[0] & sequence[1] == {first_hub}
        assert sequence[0] & sequence[2] == {first_hub}
        assert sequence[1] & sequence[2] == {first_hub}
        assert verify_maximal_clique_order(layout)

    @pytest.mark.parametrize(
        "items,k", [((2,), 2), ((3,), 3), ((1, 1), 2), ((2, 1), 3)]
    )
    def test_sequence_is_exactly_the_maximal_cliques(self, items, k):
        inst = BinPackingInstance(items, k, sum(items) // k)
        layout = build_interval_gadget(inst)
        listed = set()
        for part in layout.parts:
            cliques = chain_clique_sequence(part)
            assert len(cliques) == 3 * len(part.hubs) - 1
            listed.update(cliques)
        assert listed == maximal_cliques_networkx(layout.graph)
        assert verify_maximal_clique_order(layout)

    def test_split_layout_rejected(self):
        layout = build_split_gadget(BinPackingInstance((1,), 1, 1))
        with pytest.raises(ValueError):
            verify_maximal_clique_order(layout)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_interval_count_rule_matches_neighbor_sets(self, data):
        n = data.draw(st.integers(1, 12))
        rep = gen_random_interval(
            n, data.draw(st.integers(1, 3 * n)), data.draw(st.integers(0, 2**16))
        )
        g = derive_graph(rep)
        if data.draw(st.booleans()):
            members = set(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        else:
            # A maximal clique, as is or with one vertex toggled, so that both
            # answers come up often.
            cliques = sorted(map(sorted, maximal_cliques_networkx(g)))
            members = set(data.draw(st.sampled_from(cliques)))
            if data.draw(st.booleans()):
                members ^= {data.draw(st.integers(0, n - 1))}
        members = frozenset(members or {0})
        assert _is_maximal_clique(rep, members) == is_maximal_clique_by_neighbors(g, members)

    def test_disjoint_members_are_no_clique_whatever_the_count(self):
        # [0, 1] and [5, 6] are disjoint, yet exactly two intervals, the two
        # copies of [0, 10], have left <= 1 and right >= 5.
        rep = IntervalRep(((0, 0, 1), (1, 5, 6), (2, 0, 10), (3, 0, 10)))
        members = frozenset({0, 1})
        assert not _is_maximal_clique(rep, members)
        assert not is_maximal_clique_by_neighbors(derive_graph(rep), members)


class TestLayoutKind:
    def test_kind_follows_the_representation(self):
        inst = BinPackingInstance((1, 1), 2, 1)
        assert build_split_gadget(inst).kind == "split"
        layout = build_interval_gadget(inst)
        assert layout.kind == "interval"
        assert replace(layout, rep=None).kind == "split"


def part_edges_by_definition(part):
    """The part's edges read off its surface: the pairs of each clique, and
    each attached vertex joined to every vertex of its window's cliques."""
    for clique in part.cliques:
        yield from combinations(clique, 2)
    for w, cliques in part.windows():
        for clique in cliques:
            yield from ((u, w) for u in clique)


class TestLayoutGraph:
    @pytest.mark.parametrize("build", [build_split_gadget, build_interval_gadget])
    @pytest.mark.parametrize(
        "items,k", [((1,), 1), ((1, 1), 2), ((2, 1), 3), ((3, 2, 2, 1), 2), ((2, 2), 2)]
    )
    def test_graph_is_the_parts_edge_rule(self, build, items, k):
        inst = BinPackingInstance(items, k, sum(items) // k)
        layout = build(inst)
        if layout.rep is None:
            n = k * (2 * inst.n + inst.capacity)
        else:
            n = k * (4 * k - 1) * inst.capacity
        edges = chain.from_iterable(map(part_edges_by_definition, layout.parts))
        assert layout.graph.adj == Graph.from_edges(n, edges).adj
        if layout.rep is not None:
            assert layout.graph.adj == derive_graph(layout.rep).adj

    def test_graph_is_built_once_and_is_no_field(self):
        inst = BinPackingInstance((2, 1), 3, 1)
        layout = build_interval_gadget(inst)
        assert layout.graph is layout.graph
        assert [f.name for f in fields(GadgetLayout)] == ["instance", "parts", "rep"]
        fresh = build_interval_gadget(inst)
        assert fresh == layout and hash(fresh) == hash(layout)
        assert replace(layout, rep=None) != layout


class TestValidateLayoutMemory:
    def test_interval_validation_peaks_below_4_mb(self):
        # n = 9,900 and m = 31,485: one set of the graph's edge tuples takes
        # about 3.8 MB, so the bound leaves no room for two of them.
        layout = build_interval_gadget(BinPackingInstance((300, 300, 300), 3, 300))
        layout.graph  # built here, so that only the validation is traced
        tracemalloc.start()
        try:
            validate_layout(layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def with_interval(rep, v, lo, hi):
    """rep with vertex v's interval replaced by [lo, hi]."""
    spans = [(u, rep.lefts[u], rep.rights[u]) for u in range(rep.n) if u != v]
    return IntervalRep(spans + [(v, lo, hi)])


class TestValidateLayoutRejects:
    """Built layouts corrupted in one place, each caught by validate_layout."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rejects_exactly_the_reps_of_another_graph(self, data):
        inst = data.draw(
            st.sampled_from(
                [BinPackingInstance(items, k, sum(items) // k)
                 for items, k in (((1, 1), 2), ((2,), 2), ((2, 1), 3), ((3,), 1))]
            )
        )
        layout = build_interval_gadget(inst)
        rep = layout.rep
        v = data.draw(st.integers(0, rep.n - 1))
        lo, hi = rep.lefts[v], rep.rights[v]
        if data.draw(st.booleans()):
            shift = data.draw(st.integers(-70, 70))
            lo, hi = lo + shift, hi + shift
        else:
            lo, hi = lo - data.draw(st.integers(0, 40)), hi + data.draw(st.integers(0, 40))
        moved = with_interval(rep, v, lo, hi)
        corrupted = replace(layout, rep=moved)
        if derive_graph(moved).adj != layout.graph.adj:
            with pytest.raises(ConsistencyError, match="rep-derived adjacency"):
                validate_layout(corrupted)
        else:
            validate_layout(corrupted)

    def test_rep_that_adds_an_edge(self):
        # Vertex 0 of the first clique, on [10, 20], widened to reach the
        # second clique on [30, 40]: every graph edge still joins meeting
        # intervals, and only the edge count tells the reps apart.
        layout = build_interval_gadget(BinPackingInstance((1, 1), 2, 1))
        rep = layout.rep
        assert (rep.lefts[0], rep.rights[0], rep.lefts[3]) == (10, 20, 30)
        widened = with_interval(rep, 0, 10, 30)
        assert set(layout.graph.edges()) < set(derive_graph(widened).edges())
        with pytest.raises(ConsistencyError, match="rep-derived adjacency"):
            validate_layout(replace(layout, rep=widened))

    def test_rep_with_a_vertex_fewer(self):
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        rep = layout.rep
        short = IntervalRep([(u, rep.lefts[u], rep.rights[u]) for u in range(rep.n - 1)])
        with pytest.raises(ConsistencyError, match="rep-derived adjacency"):
            validate_layout(replace(layout, rep=short))

    def test_rep_with_an_isolated_vertex_more(self):
        # Same edges, so only the vertex count tells the reps apart.
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        rep = layout.rep
        spans = [(u, rep.lefts[u], rep.rights[u]) for u in range(rep.n)]
        longer = IntervalRep(spans + [(rep.n, -20, -10)])
        with pytest.raises(ConsistencyError, match="rep-derived adjacency"):
            validate_layout(replace(layout, rep=longer))

    def test_wrong_rep_span(self):
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        rep = layout.rep
        entries = [(0, -100, -90)]
        entries += [(v, rep.lefts[v], rep.rights[v]) for v in range(1, rep.n)]
        corrupted = replace(layout, rep=IntervalRep(tuple(entries)))
        with pytest.raises(ConsistencyError, match="rep-derived adjacency"):
            validate_layout(corrupted)

    def test_non_maximal_listed_clique(self):
        # Graph, rep and labels agree on a triangle, but the second listed
        # clique, {hub} with an empty clique label, lies inside the first.
        layout = build_interval_gadget(BinPackingInstance((1,), 1, 1))
        rep = IntervalRep(((0, 0, 1), (1, 0, 1), (2, 0, 1)))
        corrupted = replace(
            layout,
            rep=rep,
            parts=(ChainPart(((0, 1), ()), (2,)),),
        )
        with pytest.raises(ConsistencyError, match="maximal-clique ordering"):
            validate_layout(corrupted)

    def test_graph_with_an_isolated_vertex_more(self):
        # The last part labels one hub more, with no clique left in its
        # window, so the graph gains an isolated vertex and nothing else.
        layout = build_interval_gadget(BinPackingInstance((2, 1), 3, 1))
        *rest, last = layout.parts
        n = layout.graph.n
        longer = replace(layout, parts=(*rest, ChainPart(last.cliques, (*last.hubs, n))))
        assert longer.graph.adj == (*layout.graph.adj, ())
        with pytest.raises(ConsistencyError, match="identity gives"):
            validate_layout(longer)

    def test_clique_vertex_also_listed_as_independent(self):
        layout = build_split_gadget(BinPackingInstance((2, 1), 3, 1))
        first, *rest = layout.parts
        twice = SplitPart(first.clique, (*first.independent, first.clique[-1]))
        with pytest.raises(ConsistencyError, match="partition"):
            validate_layout(replace(layout, parts=(twice, *rest)))

    def test_clique_vertex_moved_off_its_first_hub(self):
        # The last vertex of the first clique of step 2 takes the interval
        # and the label of the second clique of step 2, so it leaves hub 0's
        # reach. Graph, rep and labels still agree, every listed clique is
        # maximal, and only the hub degree tells the layout apart.
        layout = build_interval_gadget(BinPackingInstance((2, 2), 2, 2))
        rep, part = layout.rep, layout.parts[0]
        *kept, v = part.cliques[2]
        u = part.cliques[3][0]
        moved = with_interval(rep, v, rep.lefts[u], rep.rights[u])
        cliques = (*part.cliques[:2], tuple(kept), (*part.cliques[3], v))
        corrupted = replace(
            layout,
            rep=moved,
            parts=(ChainPart(cliques, part.hubs), *layout.parts[1:]),
        )
        with pytest.raises(ConsistencyError, match="hub 6 has degree 8, expected 9"):
            validate_layout(corrupted)

    def test_one_hub_over_three_cliques_lists_one_too_many(self):
        # Each one-vertex clique with hub 3 is a maximal clique, and the hub's
        # run is unbroken, but one hub must list 3 * 1 - 1 = 2 cliques.
        layout = build_interval_gadget(BinPackingInstance((1,), 1, 1))
        rep = IntervalRep(((0, 0, 1), (1, 4, 5), (2, 8, 9), (3, 0, 10)))
        corrupted = replace(
            layout,
            rep=rep,
            parts=(ChainPart(((0,), (1,), (2,)), (3,)),),
        )
        assert not verify_maximal_clique_order(corrupted)

    def test_vertex_whose_run_breaks_off(self):
        # Vertex 0 lies in the first and third listed cliques, not in the
        # second. Every listed clique is maximal and two hubs list 3 * 2 - 1
        # cliques, so only the broken run tells the order apart.
        layout = build_interval_gadget(BinPackingInstance((2,), 1, 2))
        rep = IntervalRep(
            ((0, 10, 45), (1, 10, 11), (2, 0, 1), (3, 25, 45),
             (4, 55, 56), (5, 0, 30), (6, 40, 60))
        )
        corrupted = replace(
            layout,
            rep=rep,
            parts=(ChainPart(((0, 1), (2,), (0, 3), (4,)), (5, 6)),),
        )
        assert not verify_maximal_clique_order(corrupted)


class TestWitnessMaps:
    def test_split_class_sizes(self):
        inst = BinPackingInstance((2, 1, 1), 2, 2)
        layout = build_split_gadget(inst)
        coloring = coloring_from_packing(layout, [[0], [1, 2]])
        assert coloring.class_sizes() == [8, 8]  # B + 2n each
        assert verify_equitable_tree_coloring(layout.graph, coloring).ok

    def test_interval_class_sizes(self):
        inst = BinPackingInstance((1, 1), 2, 1)
        layout = build_interval_gadget(inst)
        coloring = coloring_from_packing(layout, [[0], [1]])
        assert coloring.class_sizes() == [7, 7]  # (4k - 1)B each
        assert verify_equitable_tree_coloring(layout.graph, coloring).ok

    def test_round_trip_preserves_bins(self):
        inst = BinPackingInstance((3, 2, 2, 1), 2, 4)
        for layout in (build_split_gadget(inst), build_interval_gadget(inst)):
            partition = solve_bin_packing(inst)
            coloring = coloring_from_packing(layout, partition)
            recovered = packing_from_coloring(layout, coloring)
            assert bins_as_value_multisets(inst, recovered) == bins_as_value_multisets(
                inst, partition
            )

    def test_rejects_partition_that_is_not_a_solution(self):
        inst = BinPackingInstance((2, 1, 1), 2, 2)
        layout = build_split_gadget(inst)
        with pytest.raises(ValueError):
            coloring_from_packing(layout, [[0, 1], [2]])
        with pytest.raises(ValueError):
            coloring_from_packing(layout, [[0], [1]])

    def test_rejects_invalid_coloring(self):
        inst = BinPackingInstance((1, 1), 2, 1)
        layout = build_split_gadget(inst)
        bad = coloring_from_packing(layout, [[0], [1]])
        flipped = list(bad.colors)
        flipped[0], flipped[-1] = flipped[-1], flipped[0]
        with pytest.raises((ValueError, ConsistencyError)):
            packing_from_coloring(layout, Coloring(tuple(flipped), 2))

    def test_extracted_bin_load_is_a_consistency_error(self, monkeypatch):
        # No valid coloring can load a bin wrongly, so accept any coloring.
        monkeypatch.setattr(
            treecolor.gadgets, "verify_equitable_tree_coloring",
            lambda g, c: Verdict(True),
        )
        layout = build_split_gadget(BinPackingInstance((2, 1, 1), 2, 2))
        one_color = Coloring((0,) * layout.graph.n, 2)
        with pytest.raises(ConsistencyError) as caught:
            packing_from_coloring(layout, one_color)
        assert str(caught.value) == "extracted bin 0 sums to 4, expected 2"

    def test_infeasible_split_instance_has_infeasible_gadget(self):
        inst = BinPackingInstance((3, 1), 2, 2)
        layout = build_split_gadget(inst)
        assert layout.graph.n == 12
        assert solve_bin_packing(inst) is None
        assert exact_solve(layout.graph, 2) is None

    def test_solver_coloring_extracts_to_a_packing(self):
        inst = BinPackingInstance((1, 1), 2, 1)
        layout = build_interval_gadget(inst)
        coloring = exact_solve(layout.graph, 2)
        assert coloring is not None
        partition = packing_from_coloring(layout, coloring)
        assert bins_as_value_multisets(inst, partition) == [[1], [1]]


class TestRandomIntervalGenerator:
    def test_empty(self):
        assert gen_random_interval(0, 10, seed=1).n == 0

    def test_same_seed_same_rep(self):
        assert gen_random_interval(12, 40, seed=9) == gen_random_interval(12, 40, seed=9)

    def test_different_seeds_differ(self):
        assert gen_random_interval(12, 40, seed=1) != gen_random_interval(12, 40, seed=2)

    def test_proper_mode_is_proper_over_many_seeds(self):
        for seed in range(1000):
            rep = gen_random_interval(4 + seed % 12, 60, seed=seed, proper=True)
            assert is_proper_representation(rep), seed

    def test_proper_mode_needs_room(self):
        with pytest.raises(ValueError):
            gen_random_interval(6, 10, seed=0, proper=True)

    @pytest.mark.parametrize("proper", [False, True], ids=["random", "proper"])
    @pytest.mark.parametrize("n,max_coord", [(0, 1), (1, 1), (7, 20), (60, 200), (400, 5000)])
    def test_columns_equal_the_entries_build(self, proper, n, max_coord):
        for seed in range(5):
            rep = gen_random_interval(n, max_coord, seed, proper=proper)
            assert rep == gen_random_interval_entries(n, max_coord, seed, proper=proper)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            gen_random_interval(-1, 10, seed=0)

    # `random.sample` copies the range into a pool list when
    # size <= 21 + 4**ceil(log(3k, 4)) (21 alone for k <= 5). Up to that size
    # the draw must not call `sample`, and on both sides of it it must leave
    # the same values and the generator in the same state.
    @pytest.mark.parametrize(
        "k,pool_size", [(0, 21), (1, 21), (5, 21), (6, 85), (21, 85), (22, 277), (300, 1045)]
    )
    def test_sorted_sample_equals_random_sample_by_its_pool_size(self, k, pool_size):
        class NoSample(random.Random):
            def sample(self, *args, **kwargs):
                raise AssertionError("sample copies the range at this size")

        for size in (max(k, pool_size - 1), pool_size, pool_size + 1):
            for seed in range(20):
                ours = (NoSample if size <= pool_size else random.Random)(seed)
                theirs = random.Random(seed)
                drawn = _sorted_sample(ours, size, k)
                assert drawn == sorted(theirs.sample(range(size), k)), (size, seed)
                assert ours.random() == theirs.random(), (size, seed)
