"""A differential run of the CLI: the same seeded ops on two source trees.

Each op runs `python -m treecolor` in a child process once per tree, with
the tree's `src` on PYTHONPATH, each in a fresh copy of one input directory.
The two runs must agree on the exit code, stdout, stderr and the bytes of
every file left in the directory. The ops cycle through every command and
all four `gen` kinds, so any op count from 13 on reaches each of them:

* `gen` of both random kinds, and of both gadget kinds from bin-packing
  files, one of which has no packing;
* `analyze`, `color`, `decide`, `verify` and `solve` on random and proper
  intervals files, at a k below the clique bound, inside the window or at
  or above `guaranteed_k`, and `solve` and `verify` on graph files;
* `row.intervals`, a copy that ends in a comment line, so the row route
  reads it; `--format json`; and `--out` to a new file or an existing one.

It uses only the standard library, and pytest does not collect it. A tree
of another commit needs no network, e.g. for the last commit:

    mkdir ../parent && git archive HEAD src | tar -x -C ../parent
    python tests/differential.py --a ../parent --b . --ops 200 --seed 1

It prints the ops per command, and the argv of each op that differs,
grouped by what differs; it exits 1 if any op differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

PARTS = ("exit", "stdout", "stderr", "files")


def _intervals_text(spans) -> str:
    """An intervals file in the writers' shape, which the column route reads."""
    rows = "".join(f"{v} {lo} {hi}\n" for v, (lo, hi) in enumerate(spans))
    return f"intervals {len(spans)}\n{rows}"


def _coloring_text(colors, k: int) -> str:
    rows = "".join(f"{v} {c}\n" for v, c in enumerate(colors))
    return f"coloring {len(colors)} {k}\n{rows}"


def _random_spans(rng: random.Random, n: int, max_coord: int) -> list[tuple[int, int]]:
    spans = []
    for _ in range(n):
        a, b = rng.randint(0, max_coord), rng.randint(0, max_coord)
        spans.append((min(a, b), max(a, b)))
    return spans


def _proper_spans(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Intervals of one length, so no interval properly contains another."""
    length = rng.randint(1, 12)
    return [(lo, lo + length) for lo in sorted(rng.randint(0, 4 * n) for _ in range(n))]


def _bands(spans) -> tuple[int, int]:
    """(the least k the clique bound allows, guaranteed_k), by brute force."""
    omega = max((sum(lo <= x <= hi for lo, hi in spans) for x, _ in spans), default=0)
    degree = max(
        (sum(max(a, c) <= min(b, d) for c, d in spans) - 1 for a, b in spans), default=0
    )
    return max(1, (omega + 1) // 2), (degree + 2) // 2


def _round_robin(spans, k: int) -> list[int]:
    colors = [0] * len(spans)
    order = sorted(range(len(spans)), key=lambda v: (*spans[v], v))
    for p, v in enumerate(order):
        colors[v] = p % k
    return colors


class Inputs:
    """The input directory every op starts from, and what the ops choose
    their arguments from."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.intervals: dict[str, tuple[int, int, int]] = {}  # name -> (n, min_k, guaranteed)
        self.colorings: dict[str, int] = {}  # name -> n
        self.graphs: dict[str, int] = {}  # name -> n
        self.binpacking = []
        for name, spans in (
            ("small.intervals", _random_spans(rng, rng.randint(6, 12), rng.randint(4, 30))),
            ("big.intervals", _random_spans(rng, rng.randint(40, 160), rng.randint(20, 400))),
            ("proper.intervals", _proper_spans(rng, rng.randint(8, 80))),
        ):
            self.write(name, _intervals_text(spans))
            self.intervals[name] = (len(spans), *_bands(spans))
            for k in sorted({1, 2, rng.randint(1, len(spans))}):
                stem = name.partition(".")[0]
                self.write(f"{stem}{k}.coloring", _coloring_text(_round_robin(spans, k), k))
                self.colorings[f"{stem}{k}.coloring"] = len(spans)
        # The same intervals as big.intervals, read by the row route.
        self.write("row.intervals", self.read("big.intervals") + "# a comment line\n")
        self.intervals["row.intervals"] = self.intervals["big.intervals"]
        for name in ("a.graph", "b.graph"):
            n = rng.randint(3, 9)
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            rows = "".join(f"{u} {v}\n" for u, v in edges)
            self.write(name, f"graph {n} {len(edges)}\n{rows}")
            self.graphs[name] = n
            k = rng.randint(1, 3)
            colors = [rng.randrange(k) if rng.random() < 0.3 else v % k for v in range(n)]
            self.write(f"{name[0]}g.coloring", _coloring_text(colors, k))
            self.colorings[f"{name[0]}g.coloring"] = n
        for name in ("fit.binpacking", "fit2.binpacking"):
            bins, capacity = rng.randint(1, 3), rng.randint(1, 4)
            items = []
            for _ in range(bins):
                left = capacity
                while left:
                    items.append(rng.randint(1, left))
                    left -= items[-1]
            self.write_binpacking(name, rng.sample(items, len(items)), bins, capacity)
        # Item 3 fits no bin of capacity 2: no packing.
        self.write_binpacking("no.binpacking", [3, 1], 2, 2)
        self.write("old.out", "old bytes\n")

    def write(self, name: str, text: str) -> None:
        (self.root / name).write_text(text)

    def read(self, name: str) -> str:
        return (self.root / name).read_text()

    def write_binpacking(self, name: str, items, bins: int, capacity: int) -> None:
        self.write(name, f"binpacking {len(items)} {bins} {capacity}\n"
                   + "".join(f"{a}\n" for a in items))
        self.binpacking.append(name)


def _pick_k(rng: random.Random, bands: tuple[int, int, int]) -> int:
    """A k below the clique bound, inside the window, or at or above
    guaranteed_k, where the intervals have such a k."""
    _, min_k, guaranteed = bands
    choices = [(guaranteed, guaranteed + 3)]
    if min_k > 1:
        choices.append((1, min_k - 1))
    if min_k < guaranteed:
        choices.append((min_k, guaranteed - 1))
    return rng.randint(*rng.choice(choices))


def _out(rng: random.Random, new: str) -> str:
    return "old.out" if rng.random() < 0.3 else new


def _gen_random(rng, inputs, kind="random"):
    n = rng.randint(0, 400)
    max_coord = rng.randint(max(1, 2 * n), 4 * n + 10)
    return ["gen", kind, "--n", str(n), "--max-coord", str(max_coord),
            "--seed", str(rng.randint(0, 99)), "--out", _out(rng, "new.intervals")]


def _gen_split(rng, inputs):
    return ["gen", "split-gadget", rng.choice(inputs.binpacking),
            "--out", _out(rng, "new.graph"), "--labels-out", "new.labels"]


def _gen_interval(rng, inputs):
    return ["gen", "interval-gadget", rng.choice(inputs.binpacking),
            "--out", "new.graph", "--intervals-out", _out(rng, "new.intervals"),
            "--labels-out", "new.labels"]


def _analyze(rng, inputs):
    return ["analyze", rng.choice(sorted(inputs.intervals))]


def _color(rng, inputs):
    name = rng.choice(sorted(inputs.intervals))
    return ["color", name, "--k", str(_pick_k(rng, inputs.intervals[name])),
            "--out", _out(rng, "new.coloring")]


def _decide(rng, inputs):
    # Mostly the proper file; in a random file one interval may properly
    # contain another, which decide rejects (exit 1).
    name = "proper.intervals" if rng.random() < 0.7 else rng.choice(sorted(inputs.intervals))
    argv = ["decide", name, "--k", str(_pick_k(rng, inputs.intervals[name]))]
    return argv + (["--out", _out(rng, "new.coloring")] if rng.random() < 0.5 else [])


def _verify_intervals(rng, inputs):
    name = rng.choice(sorted(inputs.intervals))
    n = inputs.intervals[name][0]
    # A coloring of another size is an input error (exit 1), worth comparing too.
    fits = [c for c, size in inputs.colorings.items() if size == n]
    coloring = rng.choice(fits if rng.random() < 0.8 else sorted(inputs.colorings))
    return ["verify", name, coloring] + (["--k", "2"] if rng.random() < 0.2 else [])


def _solve_intervals(rng, inputs):
    # The exhaustive search is fast only on the small file; on the others a
    # spent --timeout 0 answers TIMEOUT before the graph is derived.
    name = rng.choice(sorted(inputs.intervals))
    argv = ["solve", name, "--k", str(_pick_k(rng, inputs.intervals[name]))]
    if name != "small.intervals":
        argv += ["--timeout", "0"]
    elif rng.random() < 0.3:
        argv += ["--timeout", "60"]
    return argv + (["--out", _out(rng, "new.coloring")] if rng.random() < 0.5 else [])


def _solve_graph(rng, inputs):
    name = rng.choice(sorted(inputs.graphs))
    argv = ["solve", name, "--k", str(rng.randint(1, 4))]
    return argv + (["--out", _out(rng, "new.coloring")] if rng.random() < 0.5 else [])


def _verify_graph(rng, inputs):
    name = rng.choice(sorted(inputs.graphs))
    return ["verify", name, f"{name[0]}g.coloring"]


MAKERS = (
    _gen_random,
    lambda rng, inputs: _gen_random(rng, inputs, "random-proper"),
    _gen_split,
    _gen_interval,
    _analyze,
    _color,
    _decide,
    _verify_intervals,
    _solve_intervals,
    _solve_graph,
    _verify_graph,
    _analyze,
    _solve_intervals,
)


def make_ops(rng: random.Random, inputs: Inputs, count: int) -> list[list[str]]:
    ops = []
    for i in range(count):
        argv = MAKERS[i % len(MAKERS)](rng, inputs)
        if rng.random() < 0.3:
            argv += ["--format", "json"]
        ops.append(argv)
    return ops


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def run_op(trees: tuple[Path, Path], inputs: Path, argv: list[str], work: Path) -> list[str]:
    """Run argv once per tree, both at once, each in its own copy of the
    inputs; the parts of PARTS in which the two runs differ."""
    runs = []
    for i, tree in enumerate(trees):
        cwd = work / f"tree{i}"
        shutil.rmtree(cwd, ignore_errors=True)
        shutil.copytree(inputs, cwd)
        env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONHASHSEED="0")
        child = subprocess.Popen([sys.executable, "-m", "treecolor", *argv], cwd=cwd,
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        runs.append((cwd, child))
    seen = []
    for cwd, child in runs:
        stdout, stderr = child.communicate(timeout=300)
        seen.append((child.returncode, stdout, stderr, _snapshot(cwd)))
    return [part for part, a, b in zip(PARTS, *seen) if a != b]


def differential(a: Path, b: Path, ops: int, seed: int, work: Path):
    """(ops per command, [(argv, parts that differ), ...]) of `ops` seeded
    ops on the trees a and b, with `work` as the working directory."""
    rng = random.Random(seed)
    inputs = work / "inputs"
    inputs.mkdir()
    counts: Counter[str] = Counter()
    differing = []
    for argv in make_ops(rng, Inputs(inputs, rng), ops):
        counts[" ".join(argv[:2]) if argv[0] == "gen" else argv[0]] += 1
        parts = run_op((a, b), inputs, argv, work)
        if parts:
            differing.append((argv, parts))
    return counts, differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="a tree holding src/treecolor")
    parser.add_argument("--b", type=Path, required=True, help="the tree to compare with it")
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        counts, differing = differential(args.a, args.b, args.ops, args.seed, Path(work))
    for command, count in sorted(counts.items()):
        print(f"{command}\t{count}")
    groups = defaultdict(list)
    for argv, parts in differing:
        groups["+".join(parts)].append(argv)
    for group, argvs in groups.items():
        print(f"differ in {group}: {len(argvs)}")
        for argv in argvs:
            print("  " + " ".join(argv))
    print(f"ops {sum(counts.values())}, differing {len(differing)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
