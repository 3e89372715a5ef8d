"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s``) and then asserts. The criteria:

1. threshold coloring verifies on 1000 seeded representations in <10s
2. complete graphs K_{2s} are sharp at k = s
3. the proper-interval decision matches the exhaustive solver
4. split-gadget reduction equivalence over the full small-instance grid
5. interval-gadget reduction equivalence and structural identities
6. clique sweep and order verifier against subset brute force
7. CLI exit-code matrix, format round-trips, emitted colorings re-verify
"""

import time
from itertools import combinations_with_replacement

from treecolor import (
    BinPackingInstance,
    build_interval_gadget,
    build_split_gadget,
    coloring_from_packing,
    decide_proper_interval,
    derive_graph,
    exact_solve,
    first_monochromatic_cycle_edge,
    gen_random_interval,
    interval_order,
    max_clique_sweep,
    packing_from_coloring,
    round_robin_color,
    solve_bin_packing,
    validate_layout,
    verify_equitable_tree_coloring,
    verify_maximal_clique_order,
)
from treecolor.cli import main
from treecolor.formats import (
    parse_coloring,
    parse_graph,
    parse_intervals,
    write_coloring,
    write_graph,
    write_intervals,
)

from oracles import (
    equal_intervals_rep,
    is_star_free,
    max_clique_bruteforce,
    verify_order,
)


def report(name, problems, extra=""):
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] {name}{extra}")
    assert not problems, problems[:5]


def instance_grid(max_items=4, max_value=4, max_bins=3):
    out = []
    for count in range(1, max_items + 1):
        for items in combinations_with_replacement(range(1, max_value + 1), count):
            total = sum(items)
            for k in range(1, max_bins + 1):
                if total % k == 0:
                    out.append(BinPackingInstance(items, k, total // k))
    return out


def test_criterion_1_threshold_coloring_on_random_reps():
    problems = []
    start = time.monotonic()
    for seed in range(1000):
        n = 1 + seed % 60
        # Alternate dense (uniform endpoints) and sparse (proper, distinct
        # endpoints) representations so small-k large-class cases appear too.
        if seed % 2:
            rep = gen_random_interval(n, max_coord=3 * n + 10, seed=seed)
        else:
            rep = gen_random_interval(n, max_coord=4 * n + 8, seed=seed, proper=True)
        g = derive_graph(rep)
        k = (g.max_degree() + 2) // 2
        verdict = verify_equitable_tree_coloring(g, round_robin_color(rep, k))
        if not verdict.ok:
            problems.append(f"seed {seed}: {verdict.failure_kind}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget 10s")
    report(
        "criterion 1: threshold round-robin verifies on 1000 seeded reps",
        problems,
        f" ({elapsed:.2f}s)",
    )


def test_criterion_2_complete_graph_sharpness():
    problems = []
    for s in (2, 3, 4):
        g = derive_graph(equal_intervals_rep(2 * s))
        for k in range(1, s):
            if exact_solve(g, k) is not None:
                problems.append(f"K_{2 * s} solvable at k={k}")
        coloring = exact_solve(g, s)
        if coloring is None:
            problems.append(f"K_{2 * s} unsolvable at k={s}")
        elif not verify_equitable_tree_coloring(g, coloring).ok:
            problems.append(f"K_{2 * s} certificate at k={s} fails verification")
    report("criterion 2: K_2s infeasible below k=s and feasible at k=s", problems)


def test_criterion_3_decision_matches_exhaustive_solver():
    problems = []
    instances = 0
    for seed in range(300):
        n = 1 + seed % 12
        rep = gen_random_interval(n, max_coord=60, seed=10_000 + seed, proper=True)
        g = derive_graph(rep)
        omega = max_clique_sweep(rep)[0]
        instances += 1
        for k in range(1, 7):
            answer, certificate = decide_proper_interval(rep, k)
            oracle = exact_solve(g, k) is not None
            if answer != oracle:
                problems.append(f"seed {seed} k={k}: decide={answer} oracle={oracle}")
            if answer and not verify_equitable_tree_coloring(g, certificate).ok:
                problems.append(f"seed {seed} k={k}: certificate fails verification")
            scan_clean = (
                first_monochromatic_cycle_edge(g, round_robin_color(rep, k).colors)
                is None
            )
            if scan_clean != (omega <= 2 * k):
                problems.append(f"seed {seed} k={k}: scan and clique bound disagree")
    assert instances >= 300
    report("criterion 3: proper-interval decision matches the solver", problems)


def test_criterion_4_split_gadget_reduction():
    problems = []
    for inst in instance_grid():
        layout = build_split_gadget(inst)
        expected_n = inst.bins * (2 * inst.n + inst.capacity)
        if layout.graph.n != expected_n:
            problems.append(f"{inst}: |V|={layout.graph.n} != {expected_n}")
        validate_layout(layout)

        partition = solve_bin_packing(inst)
        solver_coloring = exact_solve(layout.graph, inst.bins)
        if (partition is not None) != (solver_coloring is not None):
            problems.append(
                f"{inst}: packing {partition is not None} "
                f"vs gadget {solver_coloring is not None}"
            )
        if partition is None:
            continue

        witness = coloring_from_packing(layout, partition)
        if not verify_equitable_tree_coloring(layout.graph, witness).ok:
            problems.append(f"{inst}: witness coloring fails verification")
        expected_class = inst.capacity + 2 * inst.n
        if set(witness.class_sizes()) != {expected_class}:
            problems.append(f"{inst}: class sizes {witness.class_sizes()}")
        recovered = packing_from_coloring(layout, witness)
        original = sorted(sorted(inst.items[j] for j in b) for b in partition)
        back = sorted(sorted(inst.items[j] for j in b) for b in recovered)
        if original != back:
            problems.append(f"{inst}: round trip changed the bins")
        # The solver's own coloring must also decode into an exact packing.
        packing_from_coloring(layout, solver_coloring)
    report("criterion 4: split-gadget reduction equivalence on the grid", problems)


def test_criterion_5_interval_gadget_reduction():
    problems = []
    brute_checked = 0
    for inst in instance_grid():
        k = inst.bins
        layout = build_interval_gadget(inst)
        expected_n = k * (4 * k - 1) * inst.capacity
        if layout.graph.n != expected_n:
            problems.append(f"{inst}: |V|={layout.graph.n} != {expected_n}")
        validate_layout(layout)
        if not verify_maximal_clique_order(layout):
            problems.append(f"{inst}: clique ordering fails")
        for part in layout.parts:
            for t, hub in enumerate(part.hubs[:-1]):
                if layout.graph.degree(hub) != 3 * (2 * k - 1):
                    problems.append(f"{inst}: hub {t} degree")
            if layout.graph.degree(part.hubs[-1]) != 2 * (2 * k - 1):
                problems.append(f"{inst}: last hub degree")
        if not is_star_free(layout.graph, 4):
            problems.append(f"{inst}: induced 4-star found")
        if max_clique_sweep(layout.rep)[0] - 1 != 2 * k - 1:
            problems.append(f"{inst}: derived treewidth != 2k-1")

        partition = solve_bin_packing(inst)
        if layout.graph.n <= 16:
            brute_checked += 1
            solver_coloring = exact_solve(layout.graph, k)
            if (partition is not None) != (solver_coloring is not None):
                problems.append(f"{inst}: packing vs gadget feasibility differ")
            if solver_coloring is not None:
                packing_from_coloring(layout, solver_coloring)
        if partition is None:
            continue
        witness = coloring_from_packing(layout, partition)
        if not verify_equitable_tree_coloring(layout.graph, witness).ok:
            problems.append(f"{inst}: witness coloring fails verification")
        if set(witness.class_sizes()) != {(4 * k - 1) * inst.capacity}:
            problems.append(f"{inst}: class sizes {witness.class_sizes()}")
        recovered = packing_from_coloring(layout, witness)
        original = sorted(sorted(inst.items[j] for j in b) for b in partition)
        back = sorted(sorted(inst.items[j] for j in b) for b in recovered)
        if original != back:
            problems.append(f"{inst}: round trip changed the bins")
    # The <=16-vertex cut must cover both a feasible and an infeasible case.
    assert brute_checked >= 2
    report("criterion 5: interval-gadget reduction and structure on the grid", problems)


def test_criterion_6_oracle_cross_validation():
    problems = []
    for seed in range(200):
        n = 1 + seed % 10
        proper = seed % 2 == 0
        max_coord = 40 if not proper else max(2 * n + 2, 40)
        rep = gen_random_interval(n, max_coord, seed=20_000 + seed, proper=proper)
        g = derive_graph(rep)
        if max_clique_sweep(rep)[0] != max_clique_bruteforce(g):
            problems.append(f"seed {seed}: sweep != brute force")
        if not verify_order(g, interval_order(rep)):
            problems.append(f"seed {seed}: interval order rejected")
    report("criterion 6: sweep equals subset brute force on 200 seeds", problems)


def test_criterion_7_cli_contract(tmp_path, capsys):
    problems = []

    k4 = tmp_path / "k4.intervals"
    write_intervals(k4, equal_intervals_rep(4))
    k6 = tmp_path / "k6.intervals"
    write_intervals(k6, equal_intervals_rep(6))
    k6_graph = tmp_path / "k6.graph"
    write_graph(k6_graph, derive_graph(equal_intervals_rep(6)))
    nested = tmp_path / "nested.intervals"
    nested.write_text("intervals 2\n0 0 9\n1 3 4\n")
    malformed = tmp_path / "malformed.intervals"
    malformed.write_text("intervals 1\n0 9 2\n")
    bad_pack = tmp_path / "bad.binpacking"
    bad_pack.write_text("binpacking 2 2 2\n3\n2\n")
    good_pack = tmp_path / "good.binpacking"
    good_pack.write_text("binpacking 3 2 2\n2\n1\n1\n")
    mono = tmp_path / "mono.coloring"
    mono.write_text("coloring 4 1\n0 0\n1 0\n2 0\n3 0\n")
    lopsided = tmp_path / "lopsided.coloring"
    lopsided.write_text("coloring 4 2\n0 0\n1 0\n2 0\n3 1\n")
    short = tmp_path / "short.coloring"
    short.write_text("coloring 3 2\n0 0\n1 1\n2 0\n")

    out = lambda name: str(tmp_path / name)
    scenarios = [
        ("color ok", ["color", str(k4), "--k", "2", "--out", out("c1")], 0),
        ("color below threshold", ["color", str(k4), "--k", "1", "--out", out("c2")], 2),
        ("color missing file", ["color", out("absent"), "--k", "2", "--out", out("c3")], 1),
        ("color malformed file", ["color", str(malformed), "--k", "2", "--out", out("c4")], 1),
        ("color k=0 usage", ["color", str(k4), "--k", "0", "--out", out("c5")], 1),
        ("decide yes", ["decide", str(k4), "--k", "2", "--out", out("c6")], 0),
        ("decide no", ["decide", str(k4), "--k", "1"], 2),
        ("decide non-proper", ["decide", str(nested), "--k", "2"], 1),
        ("decide missing k", ["decide", str(k4)], 1),
        ("verify valid", ["verify", str(k4), out("c1")], 0),
        ("verify cycle witness", ["verify", str(k4), str(mono)], 2),
        ("verify imbalance witness", ["verify", str(k4), str(lopsided)], 2),
        ("verify vertex mismatch", ["verify", str(k4), str(short)], 1),
        ("solve no", ["solve", str(k6), "--k", "2"], 2),
        ("solve yes", ["solve", str(k6), "--k", "3", "--out", out("c7")], 0),
        ("solve timeout", ["solve", str(k6_graph), "--k", "3", "--timeout", "0"], 3),
        ("solve parse error", ["solve", str(malformed), "--k", "1"], 1),
        (
            "gen split gadget",
            ["gen", "split-gadget", str(good_pack), "--out", out("g1.graph"),
             "--labels-out", out("g1.labels")],
            0,
        ),
        (
            "gen interval gadget",
            ["gen", "interval-gadget", str(good_pack), "--out", out("g2.graph"),
             "--intervals-out", out("g2.intervals"), "--labels-out", out("g2.labels")],
            0,
        ),
        ("gen bad instance", ["gen", "split-gadget", str(bad_pack), "--out", out("g3"),
                              "--labels-out", out("g3.labels")], 1),
        (
            "gen random",
            ["gen", "random", "--n", "15", "--max-coord", "50", "--seed", "3",
             "--out", out("r1.intervals")],
            0,
        ),
        (
            "gen random-proper",
            ["gen", "random-proper", "--n", "15", "--max-coord", "80", "--seed", "3",
             "--out", out("r2.intervals")],
            0,
        ),
        ("analyze", ["analyze", str(k4)], 0),
        ("analyze missing file", ["analyze", out("absent")], 1),
        ("unknown command", ["frobnicate"], 1),
    ]
    assert len(scenarios) >= 20
    for name, argv, expected in scenarios:
        code = main(argv)
        if code != expected:
            problems.append(f"{name}: exit {code}, expected {expected}")
    capsys.readouterr()

    # Every coloring the tool wrote must pass its own verifier.
    emitted = [("c1", k4), ("c2", k4), ("c6", k4), ("c7", k6)]
    for name, graph_file in emitted:
        coloring = parse_coloring(out(name))
        g = derive_graph(parse_intervals(graph_file))
        expect = 0 if name != "c2" else 2
        if main(["verify", str(graph_file), out(name)]) != expect:
            problems.append(f"emitted coloring {name} did not re-verify as expected")
        if name != "c2" and not verify_equitable_tree_coloring(g, coloring).ok:
            problems.append(f"emitted coloring {name} invalid")
    capsys.readouterr()

    # Round trips: parse -> serialize -> parse is the identity.
    rep = parse_intervals(out("r1.intervals"))
    write_intervals(out("rt.intervals"), rep)
    again = parse_intervals(out("rt.intervals"))
    if (again.lefts, again.rights) != (rep.lefts, rep.rights):
        problems.append("intervals round trip not identity")
    g = parse_graph(out("g1.graph"))
    write_graph(out("rt.graph"), g)
    if parse_graph(out("rt.graph")).adj != g.adj:
        problems.append("graph round trip not identity")
    c = parse_coloring(out("c1"))
    write_coloring(out("rt.coloring"), c)
    if parse_coloring(out("rt.coloring")) != c:
        problems.append("coloring round trip not identity")

    report(
        f"criterion 7: CLI contract over {len(scenarios)} scenarios",
        problems,
    )
