"""The benchmark's workloads: seeded inputs, one cycle of ops, and a check
for every op.

Each workload draws its inputs from the seed with its own generator, writes
them through the program's writers, and hands the program only those files.
Input sizes are fixed per workload, so every seed runs a comparable load;
only positions, ids and item sizes change with the seed, and the solve grid
does not change at all.

An op is one call of the CLI's ``main`` (or, for ``roundtrip``, of the
library's packing/coloring witness maps). Its check compares what the op
printed and wrote against values the benchmark computed itself (see
checks.py) and raises ``CheckFailed`` on any difference.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    balanced,
    classes_are_forests_by_sweep,
    classes_are_forests_by_union_find,
    contains_properly,
    expect,
    expect_exact_packing,
    expect_report,
    interval_edges,
    interval_stats,
    max_depth,
    packable,
    parse_report,
    proper_containment,
    read_coloring,
    read_graph,
    read_intervals,
    read_labels,
)

KINDS = ("analyze", "color", "decide", "verify", "solve", "gen", "roundtrip")


@dataclass
class Outcome:
    """What one op did: exit code (None for library ops), captured output,
    the text of each file it is expected to touch (None when absent), the
    returned value of a library op, and the traceback of an exception that
    escaped."""

    rc: int | None
    stdout: str
    stderr: str
    files: dict[str, str | None]
    value: object = None
    error: str | None = None


@dataclass
class Op:
    kind: str
    label: str
    check: Callable[[Outcome], None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    files: tuple[str, ...] = ()


def expect_rc(o: Outcome, code: int) -> None:
    expect(o.error is None, f"exception escaped: {o.error}")
    expect(o.rc == code, f"exit code {o.rc}, expected {code}; stderr: {o.stderr.strip()!r}")


def file_text(o: Outcome, path: str) -> str:
    text = o.files.get(path)
    expect(text is not None, f"{path} was not written")
    return text


def class_sizes(colors, k: int) -> str:
    sizes = [0] * k
    for c in colors:
        sizes[c] += 1
    return ",".join(map(str, sizes))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class Workload:
    name = ""
    # A measured loop runs whole cycles until its time is up and at least
    # this many cycles ran; the guaranteed op count fixes op_tail_s's
    # percentile. Cycles have an odd op count, so the median op is never
    # an average across two different ops.
    min_cycles = 8

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write_inputs(self, tc) -> None:
        """Write the seeded inputs through the program's writers."""
        raise NotImplementedError

    def ops(self, tc) -> list[Op]:
        """One cycle; the first op doubles as the set-up's warm-up op."""
        raise NotImplementedError

    def inputs(self) -> list[dict]:
        """n, m, omega (where they apply) and a digest of every input file."""
        raise NotImplementedError


def coloring_check(o: Outcome, path: str, spans, k: int, report) -> list[int]:
    """The written coloring covers every interval with k colors, is
    balanced, every class is a forest, and the report's sizes agree."""
    kk, colors = read_coloring(file_text(o, path), path)
    expect(kk == k and len(colors) == len(spans), f"{path}: n or k differs")
    expect(balanced(colors, k), f"{path}: class sizes differ by more than one")
    expect(classes_are_forests_by_sweep(spans, colors),
           f"{path}: a point is covered by three intervals of one color")
    expect_report(report, class_sizes=class_sizes(colors, k))
    return colors


class IntervalWorkload(Workload):
    """A single intervals file, generated as (id, left, right) entries."""

    input_name = "input.intervals"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.entries = self.generate(random.Random(seed))
        self.spans = [None] * len(self.entries)
        for v, lo, hi in self.entries:
            self.spans[v] = (lo, hi)
        self.stats = interval_stats(self.spans)
        self.input = self.path(self.input_name)

    def generate(self, rng: random.Random) -> tuple[tuple[int, int, int], ...]:
        raise NotImplementedError

    def write_inputs(self, tc) -> None:
        tc.formats.write_intervals(self.input, tc.graph.IntervalRep(self.entries))

    def inputs(self) -> list[dict]:
        return [{"file": self.input_name, **self.stats, "sha256": digest(Path(self.input))}]

    def threshold(self) -> int:
        return (self.stats["max_degree"] + 2) // 2

    def analyze_op(self, proper: bool) -> Op:
        expected = dict(self.stats, command="analyze", proper=proper,
                        threshold=self.threshold())
        if proper:
            expected["min_k"] = max(1, (self.stats["omega"] + 1) // 2)

        def check(o: Outcome) -> None:
            expect_rc(o, 0)
            report = parse_report(o.stdout)
            expect_report(report, **expected)
            expect(proper or "min_k" not in report, "min_k reported for a non-proper input")

        return Op("analyze", "analyze", check, ["analyze", self.input])

    def color_op(self, label: str, k: int) -> Op:
        out = self.path(f"{label}.coloring")
        # At the threshold round robin is guaranteed to verify; any k-coloring
        # of a clique of more than 2k intervals has a one-color triangle.
        yes = k >= self.threshold()
        expect(yes or self.stats["omega"] > 2 * k, f"{label}: no certain answer at k={k}")

        def check(o: Outcome) -> None:
            expect_rc(o, 0 if yes else 2)
            report = parse_report(o.stdout)
            expect_report(report, command="color", n=self.stats["n"], m=self.stats["m"],
                          max_degree=self.stats["max_degree"],
                          threshold=self.threshold(), k=k, verified=yes)
            if yes:
                coloring_check(o, out, self.spans, k, report)
                return
            kk, colors = read_coloring(file_text(o, out), out)
            expect(kk == k and balanced(colors, k), f"{out}: not a balanced {k}-coloring")
            expect_report(report, failure="monochromatic_cycle")
            u, v = (int(x) for x in report.get("witness", "").split(","))
            (a, b), (c, d) = self.spans[u], self.spans[v]
            expect(colors[u] == colors[v] and max(a, c) <= min(b, d),
                   f"witness ({u}, {v}) is not a monochromatic edge")
            expect(not classes_are_forests_by_sweep(self.spans, colors),
                   f"{out}: reported NO but every class is a forest")

        return Op("color", label, check,
                  ["color", self.input, "--k", str(k), "--out", out], files=(out,))

    def verify_op(self, label: str, coloring: str, k: int) -> Op:
        def check(o: Outcome) -> None:
            expect_rc(o, 0)
            report = parse_report(o.stdout)
            expect_report(report, command="verify", answer="YES", n=self.stats["n"],
                          m=self.stats["m"], k=k, valid=True)
            coloring_check(o, coloring, self.spans, k, report)

        return Op("verify", label, check, ["verify", self.input, coloring],
                  files=(coloring,))


class ProperLarge(IntervalWorkload):
    name = "proper-large"
    # Two of the five ops (the decides) are the slowest; 100 ops put
    # op_tail_s at p90, inside that pair rather than at its lower edge.
    min_cycles = 20
    N = 15_000
    STEP = 64  # one left endpoint in every STEP-wide cell
    LENGTH = 16 * STEP  # equal lengths keep the set proper; depth is 16 or 17

    def generate(self, rng):
        ids = list(range(self.N))
        rng.shuffle(ids)
        return tuple(
            (ids[i], lo, lo + self.LENGTH)
            for i, lo in enumerate(i * self.STEP + rng.randrange(self.STEP)
                                   for i in range(self.N))
        )

    def ops(self, tc) -> list[Op]:
        omega = self.stats["omega"]
        k_yes = (omega + 1) // 2
        cert = self.path("certificate.coloring")
        return [
            self.analyze_op(proper=True),
            self.color_op("color", self.threshold()),
            self.decide_op("decide-yes", k_yes, cert),
            self.decide_op("decide-no", k_yes - 1, None),
            self.verify_op("verify", cert, k_yes),
        ]

    def decide_op(self, label: str, k: int, out: str | None) -> Op:
        yes = self.stats["omega"] <= 2 * k
        argv = ["decide", self.input, "--k", str(k)] + (["--out", out] if out else [])

        def check(o: Outcome) -> None:
            expect_rc(o, 0 if yes else 2)
            report = parse_report(o.stdout)
            expect_report(report, command="decide", answer="YES" if yes else "NO",
                          n=self.stats["n"], m=self.stats["m"],
                          omega=self.stats["omega"], k=k)
            if yes and out:
                coloring_check(o, out, self.spans, k, report)

        return Op("decide", label, check, argv, files=(out,) if out else ())


class UniformDense(IntervalWorkload):
    name = "uniform-dense"
    min_cycles = 20
    N = 1200
    MAX_COORD = 10**6

    def generate(self, rng):
        # Latin-hypercube endpoints: each of the n strata of the coordinate
        # range holds one left draw and one right draw, which keeps m within
        # about a percent of n*n/3 whatever the seed.
        firsts, seconds = list(range(self.N)), list(range(self.N))
        rng.shuffle(firsts)
        rng.shuffle(seconds)
        scale = self.MAX_COORD / self.N
        entries = []
        for v in range(self.N):
            a = int((firsts[v] + rng.random()) * scale)
            b = int((seconds[v] + rng.random()) * scale)
            entries.append((v, min(a, b), max(a, b)))
        return tuple(entries)

    def ops(self, tc) -> list[Op]:
        k_yes = self.threshold()
        # About half the threshold, and below omega/2 so that NO is certain.
        k_no = min(k_yes // 2, (self.stats["omega"] - 1) // 2)
        return [
            self.analyze_op(proper=False),
            self.color_op("color-yes", k_yes),
            self.color_op("color-no", k_no),
            self.verify_op("verify", self.path("color-yes.coloring"), k_yes),
            self.decide_not_proper_op(k_yes),
        ]

    def decide_not_proper_op(self, k: int) -> Op:
        expect(proper_containment(self.spans) is not None, "uniform input came out proper")

        def check(o: Outcome) -> None:
            expect_rc(o, 1)
            expect(o.stdout == "", "decide printed a report for a non-proper input")
            found = re.search(r"vertex (\d+) properly contains interval of vertex (\d+)",
                              o.stderr)
            expect(found is not None, f"unexpected decide error: {o.stderr.strip()!r}")
            outer, inner = int(found.group(1)), int(found.group(2))
            expect(contains_properly(self.spans, outer, inner),
                   f"named pair ({outer}, {inner}) is not a proper containment")

        return Op("decide", "decide", check, ["decide", self.input, "--k", str(k)])


class GenWrite(Workload):
    name = "gen-write"
    # Capacity per bin count. validate_layout's clique check costs about
    # k*k*(4k-1)*B*B, so these sizes give the interval gadget ops and the
    # round trips of every k about the same time, clearly above the split
    # gadget ops and below the random files. The median op then falls in
    # the middle of those six validating ops.
    CAPACITY = {3: 18, 4: 12, 5: 8}
    PARTS_PER_BIN = 4
    RANDOM_N = 50_000
    RANDOM_MAX_COORD = 10**6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.instances = {}
        for k, capacity in self.CAPACITY.items():
            sizes, bins = [], []
            for _ in range(k):
                cuts = sorted(rng.sample(range(1, capacity), self.PARTS_PER_BIN - 1))
                bins.append([b - a for a, b in zip([0] + cuts, cuts + [capacity])])
            for part in bins:
                sizes.extend(part)
            order = list(range(len(sizes)))
            rng.shuffle(order)
            items = [sizes[j] for j in order]
            position = {j: t for t, j in enumerate(order)}
            partition, start = [], 0
            for part in bins:
                partition.append([position[j] for j in range(start, start + len(part))])
                start += len(part)
            self.instances[k] = (items, capacity, partition)
        self.random_seeds = {kind: rng.randrange(2**31) for kind in ("random", "random-proper")}

    def write_inputs(self, tc) -> None:
        for k, (items, capacity, _) in self.instances.items():
            inst = tc.gadgets.BinPackingInstance(tuple(items), k, capacity)
            tc.formats.write_binpacking(self.path(f"k{k}.binpacking"), inst)

    def inputs(self) -> list[dict]:
        return [
            {"file": f"k{k}.binpacking", "items": len(items), "bins": k,
             "capacity": capacity, "sha256": digest(Path(self.path(f"k{k}.binpacking")))}
            for k, (items, capacity, _) in self.instances.items()
        ]

    def ops(self, tc) -> list[Op]:
        ops = []
        for k in self.CAPACITY:
            ops.append(self.gadget_op("interval", k))
            ops.append(self.gadget_op("split", k))
            ops.append(self.roundtrip_op(tc, k))
        ops.extend(self.random_op(kind) for kind in ("random", "random-proper"))
        return ops

    def gadget_op(self, shape: str, k: int) -> Op:
        items, capacity, partition = self.instances[k]
        stem = self.path(f"{shape}{k}")
        graph, labels, intervals = stem + ".graph", stem + ".labels", stem + ".intervals"
        argv = ["gen", f"{shape}-gadget", self.path(f"k{k}.binpacking"),
                "--out", graph, "--labels-out", labels]
        files = (graph, labels)
        if shape == "interval":
            argv += ["--intervals-out", intervals]
            files += (intervals,)

        def check(o: Outcome) -> None:
            expect_rc(o, 0)
            n, edges = read_graph(file_text(o, graph), graph)
            expect_report(parse_report(o.stdout), command="gen", kind=f"{shape}-gadget",
                          items=len(items), k=k, capacity=capacity, n=n, m=len(edges))
            kind, parts = read_labels(file_text(o, labels), labels)
            expect(kind == shape, f"{labels}: kind {kind}")
            if shape == "split":
                colors, implied = self.split_witness(n, k, items, partition, parts)
                expect(n == k * (2 * len(items) + capacity), f"split gadget n={n}")
            else:
                colors, implied = self.interval_witness(n, k, items, partition, parts)
                expect(n == k * (4 * k - 1) * capacity, f"interval gadget n={n}")
                spans = read_intervals(file_text(o, intervals), intervals)
                expect(interval_edges(spans) == set(edges),
                       "intervals file and graph file disagree")
            expect(implied == set(edges), "label-implied edges differ from the graph file")
            # The known packing must map to a valid coloring of the gadget.
            expect(balanced(colors, k), "witness coloring is not balanced")
            expect(classes_are_forests_by_union_find(n, edges, colors),
                   "witness coloring has a monochromatic cycle")

        return Op("gen", f"{shape}-gadget-k{k}", check, argv, files=files)

    @staticmethod
    def split_witness(n, k, items, partition, parts):
        colors, implied, seen = [-1] * n, set(), []
        bin_of = {j: i for i, b in enumerate(partition) for j in b}
        for j, a in enumerate(items):
            clique, center, indep = parts[f"clique{j}"], parts[f"center{j}"], parts[f"indep{j}"]
            expect(len(clique) == 2 * k - 1 and len(indep) == a + 1
                   and center[0] in clique, f"split part {j} has the wrong shape")
            seen += clique + indep
            implied |= {(min(u, v), max(u, v)) for u in clique for v in clique if u != v}
            implied |= {(min(u, w), max(u, w)) for u in clique for w in indep}
            others = [c for c in range(k) if c != bin_of[j]]
            for w in center + indep:
                colors[w] = bin_of[j]
            for t, u in enumerate(u for u in clique if u != center[0]):
                colors[u] = others[t // 2]
        expect(sorted(seen) == list(range(n)), "labels do not partition the vertices")
        return colors, implied

    @staticmethod
    def interval_witness(n, k, items, partition, parts):
        colors, implied, seen = [-1] * n, set(), []
        bin_of = {j: i for i, b in enumerate(partition) for j in b}
        for j, a in enumerate(items):
            cliques = [parts[f"clique{j}.{t}"] for t in range(2 * a)]
            hubs = parts[f"hubs{j}"]
            expect(len(hubs) == a and all(len(c) == 2 * k - 1 for c in cliques),
                   f"chain part {j} has the wrong shape")
            seen += hubs + [u for c in cliques for u in c]
            for clique in cliques:
                implied |= {(min(u, v), max(u, v)) for u in clique for v in clique if u != v}
            for t, hub in enumerate(hubs):
                for clique in cliques[2 * t: 2 * t + 3]:
                    implied |= {(min(hub, u), max(hub, u)) for u in clique}
            others = [c for c in range(k) if c != bin_of[j]]
            for hub in hubs:
                colors[hub] = bin_of[j]
            for clique in cliques:
                colors[clique[0]] = bin_of[j]
                for t, u in enumerate(clique[1:]):
                    colors[u] = others[t // 2]
        expect(sorted(seen) == list(range(n)), "labels do not partition the vertices")
        return colors, implied

    def roundtrip_op(self, tc, k: int) -> Op:
        """Through the library, for the split and the interval layout of one
        instance: build, validate_layout, then packing -> coloring ->
        packing."""
        items, capacity, _ = self.instances[k]
        shapes = ("split", "interval")
        builders = (tc.gadgets.build_split_gadget, tc.gadgets.build_interval_gadget)
        inst = tc.gadgets.BinPackingInstance(tuple(items), k, capacity)

        def call():
            trips = []
            for build in builders:
                layout = build(inst)
                tc.gadgets.validate_layout(layout)
                packing = tc.gadgets.solve_bin_packing(layout.instance)
                coloring = tc.gadgets.coloring_from_packing(layout, packing)
                back = tc.gadgets.packing_from_coloring(layout, coloring)
                trips.append((packing, coloring.colors, back))
            return trips

        def check(o: Outcome) -> None:
            expect(o.error is None, f"exception escaped: {o.error}")
            for shape, build, (packing, colors, back) in zip(shapes, builders, o.value):
                expect_exact_packing(packing, items, k, capacity)
                expect_exact_packing(back, items, k, capacity)
                expect([sorted(b) for b in back] == [sorted(b) for b in packing],
                       f"{shape}: coloring maps back to a different packing")
                adj = build(inst).graph.adj
                edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
                expect(balanced(colors, k), f"{shape}: witness coloring is not balanced")
                expect(classes_are_forests_by_union_find(len(adj), edges, colors),
                       f"{shape}: witness coloring has a monochromatic cycle")

        return Op("roundtrip", f"roundtrip-k{k}", check, call=call)

    def random_op(self, kind: str) -> Op:
        out = self.path(f"{kind}.intervals")
        seed = self.random_seeds[kind]
        argv = ["gen", kind, "--n", str(self.RANDOM_N), "--max-coord",
                str(self.RANDOM_MAX_COORD), "--seed", str(seed), "--out", out]

        def check(o: Outcome) -> None:
            expect_rc(o, 0)
            expect_report(parse_report(o.stdout), command="gen", kind=kind,
                          n=self.RANDOM_N, max_coord=self.RANDOM_MAX_COORD, seed=seed)
            spans = read_intervals(file_text(o, out), out)
            expect(len(spans) == self.RANDOM_N, f"{out}: {len(spans)} intervals")
            expect(all(0 <= lo and hi <= self.RANDOM_MAX_COORD for lo, hi in spans),
                   f"{out}: coordinate out of range")
            if kind == "random-proper":
                expect(proper_containment(spans) is None, f"{out}: not proper")

        return Op("gen", kind, check, argv, files=(out,))


class SolveGrid(Workload):
    name = "solve-grid"
    min_cycles = 7
    TIMEOUT = "60"
    WARMUP = "solve-n16-dense.intervals-k4"
    KS = (3, 4, 5)
    # (n, dense, generator seed, pinned answers for k = 3, 4, 5). Pinned by
    # exhaustive search when the grid was chosen. Every NO here has a clique
    # of more than 2k intervals, which the check re-derives on its own.
    GRID = (
        (16, False, 4, "NYY"),
        (18, False, 2, "NYY"),
        (16, True, 6, "NNY"),
        (18, True, 5, "NNN"),
    )
    # (shape, items, bins, capacity, pinned answer): the first two pack
    # exactly and the third does not, so the gadgets answer YES, YES and NO.
    # Their solves take 30-70 ms, like the grid's middle ops, so the median
    # op (op_p50_s) falls inside a group of five similar ops rather than on
    # one op with a gap on either side.
    GADGETS = (
        ("split", (1, 2, 3, 1, 2, 3, 1, 2, 3), 3, 6, "Y"),
        ("interval", (2, 2, 3, 3), 2, 5, "Y"),
        ("interval", (2, 2, 2, 2, 2), 2, 5, "N"),
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.grid = []
        for n, dense, gen_seed, answers in self.GRID:
            rng = random.Random(gen_seed)
            entries = []
            for v in range(n):
                if dense:
                    a, b = rng.randint(0, 100), rng.randint(0, 100)
                    entries.append((v, min(a, b), max(a, b)))
                else:
                    lo = rng.randint(0, 100)
                    entries.append((v, lo, lo + rng.randint(0, 45)))
            name = f"n{n}-{'dense' if dense else 'sparse'}.intervals"
            spans = [(lo, hi) for _, lo, hi in entries]
            for k, answer in zip(self.KS, answers):
                expect(answer == "Y" or max_depth(spans) > 2 * k,
                       f"{name}: pinned NO at k={k} lacks a clique certificate")
            self.grid.append((name, tuple(entries), spans, answers))
        for _, items, bins, capacity, answer in self.GADGETS:
            expect(packable(items, bins, capacity) == (answer == "Y"),
                   f"gadget pin for {items} disagrees with bin packing")

    def write_inputs(self, tc) -> None:
        for name, entries, _, _ in self.grid:
            tc.formats.write_intervals(self.path(name), tc.graph.IntervalRep(entries))
        for shape, items, bins, capacity, _ in self.GADGETS:
            inst = tc.gadgets.BinPackingInstance(items, bins, capacity)
            build = tc.gadgets.build_split_gadget if shape == "split" else tc.gadgets.build_interval_gadget
            tc.formats.write_graph(self.path(self.gadget_name(shape, items)), build(inst).graph)

    @staticmethod
    def gadget_name(shape: str, items) -> str:
        return f"{shape}-{''.join(map(str, items))}.graph"

    def inputs(self) -> list[dict]:
        out = [{"file": name, **interval_stats(spans), "sha256": digest(Path(self.path(name)))}
               for name, _, spans, _ in self.grid]
        for shape, items, *_ in self.GADGETS:
            path = Path(self.path(self.gadget_name(shape, items)))
            n, edges = read_graph(path.read_text(), str(path))
            out.append({"file": path.name, "n": n, "m": len(edges), "sha256": digest(path)})
        return out

    def ops(self, tc) -> list[Op]:
        # Inputs and answers are pinned, so the seed changes nothing here.
        ops = []
        for name, _, spans, answers in self.grid:
            for k, answer in zip(self.KS, answers):
                ops.append(self.solve_op(name, k, answer == "Y", spans=spans))
        for shape, items, bins, _, answer in self.GADGETS:
            ops.append(self.solve_op(self.gadget_name(shape, items), bins, answer == "Y"))
        # Start the cycle, and so the set-up's warm-up, with a mid-weight solve.
        start = next(i for i, op in enumerate(ops) if op.label == self.WARMUP)
        return ops[start:] + ops[:start]

    def solve_op(self, name: str, k: int, yes: bool, spans=None) -> Op:
        source = self.path(name)
        out = self.path(f"{name}.k{k}.coloring")

        def check(o: Outcome) -> None:
            expect_rc(o, 0 if yes else 2)
            if spans is None:
                n, edges = read_graph(Path(source).read_text(), source)
            else:
                n, edges = len(spans), interval_edges(spans)
            report = parse_report(o.stdout)
            expect_report(report, command="solve", answer="YES" if yes else "NO",
                          n=n, m=len(edges), k=k)
            if not yes:
                expect(o.files[out] is None, f"{out} written on NO")
                return
            kk, colors = read_coloring(file_text(o, out), out)
            expect(kk == k and len(colors) == n, f"{out}: n or k differs")
            expect(balanced(colors, k), f"{out}: class sizes differ by more than one")
            expect(classes_are_forests_by_union_find(n, edges, colors),
                   f"{out}: monochromatic cycle")
            expect_report(report, class_sizes=class_sizes(colors, k))

        argv = ["solve", source, "--k", str(k), "--timeout", self.TIMEOUT, "--out", out]
        return Op("solve", f"solve-{name}-k{k}", check, argv, files=(out,))


WORKLOADS = {w.name: w for w in (ProperLarge, UniformDense, GenWrite, SolveGrid)}
