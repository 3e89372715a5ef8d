"""Equitable tree-colorings of interval graphs.

A library and CLI for colorings where every color class induces a forest
and any two class sizes differ by at most one: a guaranteed round-robin
construction along the interval order, a linear-time decision procedure for
proper interval representations, exhaustive small-instance solvers, and
bin-packing reduction gadgets with witness mappings in both directions.
"""

from .coloring import (
    Coloring,
    ConsistencyError,
    SearchStats,
    SolveTimeout,
    Verdict,
    decide_proper_interval,
    exact_solve,
    greedy_color,
    guaranteed_k,
    interval_search,
    proper_min_k,
    round_robin_color,
    solve_graph,
    solve_intervals,
    verify_equitable_tree_coloring,
    verify_interval_coloring,
)
from .gadgets import (
    BinPackingInstance,
    ChainPart,
    GadgetLayout,
    SplitPart,
    build_interval_gadget,
    build_split_gadget,
    coloring_from_packing,
    gen_random_interval,
    packing_from_coloring,
    solve_bin_packing,
    validate_layout,
    verify_maximal_clique_order,
)
from .graph import (
    Graph,
    IntervalRep,
    ProperContainmentError,
    RepresentationError,
    derive_graph,
    find_proper_containment,
    first_monochromatic_cycle_edge,
    first_monochromatic_triangle_edge,
    interval_model,
    interval_order,
    is_proper_representation,
    max_clique_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BinPackingInstance",
    "ChainPart",
    "Coloring",
    "ConsistencyError",
    "GadgetLayout",
    "Graph",
    "IntervalRep",
    "ProperContainmentError",
    "RepresentationError",
    "SearchStats",
    "SolveTimeout",
    "SplitPart",
    "Verdict",
    "build_interval_gadget",
    "build_split_gadget",
    "coloring_from_packing",
    "decide_proper_interval",
    "derive_graph",
    "exact_solve",
    "find_proper_containment",
    "first_monochromatic_cycle_edge",
    "first_monochromatic_triangle_edge",
    "gen_random_interval",
    "greedy_color",
    "guaranteed_k",
    "interval_model",
    "interval_order",
    "interval_search",
    "is_proper_representation",
    "max_clique_sweep",
    "packing_from_coloring",
    "proper_min_k",
    "round_robin_color",
    "solve_bin_packing",
    "solve_graph",
    "solve_intervals",
    "validate_layout",
    "verify_equitable_tree_coloring",
    "verify_interval_coloring",
    "verify_maximal_clique_order",
]
