"""A census of the window: how much of it each route of `solve` answers.

The window of an interval representation is proper_min_k(omega) <= k <
guaranteed_k(max_degree), where neither of the paper's two bounds answers.
For seeded random representations (`gen_random_interval`) the census visits
every k in the window and tries each route on its own: round robin (YES when
the sweep verifies it), the greedy (YES when it finishes; the sweep must
verify it), and the exhaustive search on the derived graph (YES, NO, or a
timeout). Rows are keyed by omega - 2k. A `false_yes` is a round robin or
greedy YES that the verifier or the search refutes; it must stay 0. A
`round_robin_not_greedy` is a round robin YES whose coloring the greedy does
not return; it must stay 0 too, since the greedy returns round robin's
coloring whenever that verifies.

Run from the repository root; it needs only the package and the standard
library, and pytest does not collect it:

    PYTHONPATH=src python tests/census.py --seeds 500 --n-min 8 --n-max 15
"""

from __future__ import annotations

import argparse
import random

from treecolor import (
    SolveTimeout,
    derive_graph,
    exact_solve,
    gen_random_interval,
    greedy_color,
    guaranteed_k,
    proper_min_k,
    round_robin_color,
    verify_interval_coloring,
)

COLUMNS = ("pairs", "round_robin", "greedy", "search_yes", "search_no", "timeouts",
           "false_yes", "round_robin_not_greedy")


def census(seeds, n_min: int, n_max: int, time_limit: float) -> dict[int, dict[str, int]]:
    """Counts per omega - 2k over the window pairs of one rep per seed, with
    n drawn from n_min..n_max and max_coord from n/2..3n."""
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
            yes = []
            round_robin = round_robin_color(rep, k)
            coloring = greedy_color(rep, k)
            if verify_interval_coloring(rep, round_robin).ok:
                row["round_robin"] += 1
                row["round_robin_not_greedy"] += coloring != round_robin
                yes.append(True)
            if coloring is not None:
                row["greedy"] += 1
                yes.append(verify_interval_coloring(rep, coloring).ok)
            if graph is None:
                graph = derive_graph(rep)
            try:
                searched = exact_solve(graph, k, time_limit=time_limit) is not None
            except SolveTimeout:
                row["timeouts"] += 1
                searched = True  # unknown: only the verifier can refute here
            else:
                row["search_yes" if searched else "search_no"] += 1
            row["false_yes"] += sum(not (ok and searched) for ok in yes)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="reps, seeds 0..N-1")
    parser.add_argument("--n-min", type=int, default=8)
    parser.add_argument("--n-max", type=int, default=15)
    parser.add_argument("--time-limit", type=float, default=2.0,
                        help="seconds per exhaustive search")
    args = parser.parse_args()
    rows = census(range(args.seeds), args.n_min, args.n_max, args.time_limit)
    print("omega-2k", *COLUMNS, sep="\t")
    for gap in sorted(rows, reverse=True):
        print(gap, *rows[gap].values(), sep="\t")
    print("all", *(sum(row[c] for row in rows.values()) for c in COLUMNS), sep="\t")


if __name__ == "__main__":
    main()
