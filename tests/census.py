"""A census of the window: which route of `solve` answers it, with the
interval search held against the exhaustive search on every pair.

The window of an interval representation is proper_min_k(omega) <= k <
guaranteed_k(max_degree), where neither of the paper's two bounds answers.
For seeded random representations (`gen_random_interval`) the census visits
every k in the window. `solve_intervals` runs once per pair and its
`SearchStats` name the route that answered: round robin, the greedy or the
search. Then `interval_search` alone (no greedy in front) and `exact_solve`
on the derived graph each answer YES, NO or time out, with their own time
limit, so a pair that `exact_solve` cannot finish still counts for the
search. Rows are keyed by omega - 2k.

Three columns must stay 0:
- `false_yes`: a YES of `solve_intervals` or of the search alone that the
  verifier refutes, or where `exact_solve` answers NO;
- `search_disagrees`: a pair where `exact_solve` answers and the search
  alone or `solve_intervals` answers otherwise;
- `round_robin_not_greedy`: a round robin answer whose coloring the greedy
  does not return, since the greedy returns round robin's coloring whenever
  that verifies.

Run from the repository root; it needs only the package and the standard
library, and pytest does not collect it:

    PYTHONPATH=src python tests/census.py --seeds 500 --n-min 8 --n-max 15
"""

from __future__ import annotations

import argparse
import random

from treecolor import (
    SearchStats,
    SolveTimeout,
    derive_graph,
    exact_solve,
    gen_random_interval,
    greedy_color,
    guaranteed_k,
    interval_search,
    proper_min_k,
    solve_intervals,
    verify_interval_coloring,
)

COLUMNS = ("pairs", "round_robin", "greedy", "search", "solve_timeouts",
           "search_yes", "search_no", "search_timeouts",
           "exact_yes", "exact_no", "exact_timeouts",
           "search_disagrees", "false_yes", "round_robin_not_greedy")


def _answer(solve, *args, **kwargs):
    """(True for YES, the coloring) or (None, None) on a timeout."""
    try:
        coloring = solve(*args, **kwargs)
    except SolveTimeout:
        return None, None
    return coloring is not None, coloring


def census(seeds, n_min: int, n_max: int, time_limit: float) -> dict[int, dict[str, int]]:
    """Counts per omega - 2k over the window pairs of one rep per seed, with
    n drawn from n_min..n_max and max_coord from n/2..3n; time_limit bounds
    each route on each pair."""
    rows: dict[int, dict[str, int]] = {}
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(n_min, n_max)
        rep = gen_random_interval(n, rng.randint(max(1, n // 2), 3 * n), seed)
        omega, _, max_degree = rep.stats
        graph = None
        for k in range(proper_min_k(omega), guaranteed_k(max_degree)):
            row = rows.setdefault(omega - 2 * k, dict.fromkeys(COLUMNS, 0))
            row["pairs"] += 1
            stats = SearchStats()
            solved, coloring = _answer(solve_intervals, rep, k, time_limit=time_limit,
                                     stats=stats)
            row[stats.route] += solved is not None
            row["solve_timeouts"] += solved is None
            if stats.route == "round_robin":
                row["round_robin_not_greedy"] += greedy_color(rep, k) != coloring
            searched, search_coloring = _answer(interval_search, rep, k, time_limit=time_limit)
            if graph is None:
                graph = derive_graph(rep)
            exact, _ = _answer(exact_solve, graph, k, time_limit=time_limit)
            for name, answer in (("search", searched), ("exact", exact)):
                row[f"{name}_timeouts" if answer is None else
                    f"{name}_{'yes' if answer else 'no'}"] += 1
            row["search_disagrees"] += exact is not None and any(
                answer not in (None, exact) for answer in (solved, searched))
            row["false_yes"] += sum(
                not verify_interval_coloring(rep, c).ok or exact is False
                for c in (coloring, search_coloring) if c is not None
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="reps, seeds 0..N-1")
    parser.add_argument("--n-min", type=int, default=8)
    parser.add_argument("--n-max", type=int, default=15)
    parser.add_argument("--time-limit", type=float, default=2.0,
                        help="seconds per route on each pair")
    args = parser.parse_args()
    rows = census(range(args.seeds), args.n_min, args.n_max, args.time_limit)
    print("omega-2k", *COLUMNS, sep="\t")
    for gap in sorted(rows, reverse=True):
        print(gap, *rows[gap].values(), sep="\t")
    print("all", *(sum(row[c] for row in rows.values()) for c in COLUMNS), sep="\t")


if __name__ == "__main__":
    main()
