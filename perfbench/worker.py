"""One measured run of one workload, in a fresh process started by run.py.

Sets the workload up cold and times it: importing the package from the
checkout's ``src``, writing the inputs, and one warm-up op. With
``--setup-only`` it stops there. Otherwise it runs the op cycle in a closed
loop with one client: each op starts when the previous one returns. With
``--trace 0`` the loop is untraced and gives the end-to-end metrics. With
``--trace 1`` a fixed number of untraced and traced cycles alternate, so both
see the same machine; the traced ones give the per-layer metrics and the pair
gives the tracing overhead. Every distinct output is checked once after the
loops. The result goes to the file named by ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import TRACED, Tracer, traced_names
from workloads import KINDS, WORKLOADS, Outcome

# Untraced/traced cycle pairs per traced run: about the run length at the
# commit that added the benchmark, and fixed so that per-layer totals of two
# commits count the same ops.
TRACE_PAIRS = {"proper-large": 6, "uniform-dense": 8, "gen-write": 12, "solve-grid": 3}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def import_package(root: Path) -> SimpleNamespace:
    src = root / "src"
    if not (src / "treecolor" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'treecolor'}")
    sys.path.insert(0, str(src))
    import treecolor.cli
    import treecolor.coloring
    import treecolor.formats
    import treecolor.gadgets
    import treecolor.graph

    if Path(treecolor.__file__).resolve().parent != (src / "treecolor").resolve():
        raise SystemExit(f"error: imported treecolor from {treecolor.__file__}")
    return SimpleNamespace(cli=treecolor.cli, coloring=treecolor.coloring,
                           formats=treecolor.formats, gadgets=treecolor.gadgets,
                           graph=treecolor.graph)


class Loop:
    """Runs ops, times each, and keeps the first outcome of every distinct
    output (with how often it occurred) for checking after the loop."""

    def __init__(self, tc):
        self.tc = tc
        self.distinct: dict[tuple, list] = {}  # key -> [op, outcome, count]
        self.cycle_times: list[float] = []

    def run_op(self, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        rc = value = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op.argv is not None:
                    rc = self.tc.cli.main(op.argv)
                else:
                    value = op.call()
        except Exception:
            error = traceback.format_exc(limit=-4)
        latency = time.perf_counter() - start
        files, digests = {}, []
        for path in op.files:
            try:
                text = Path(path).read_text()
            except FileNotFoundError:
                text = None
            files[path] = text
            digests.append(None if text is None else hashlib.sha1(text.encode()).digest())
        key = (op.label, rc, out.getvalue(), err.getvalue(), error, tuple(digests),
               hashlib.sha1(repr(value).encode()).digest())
        seen = self.distinct.get(key)
        if seen is None:
            self.distinct[key] = [op, Outcome(rc, out.getvalue(), err.getvalue(),
                                              files, value, error), 1]
        else:
            seen[2] += 1
        return latency

    def cycles(self, cycle, seconds: float, min_cycles: int, tracer=None):
        """Whole cycles until `seconds` have passed and `min_cycles` ran.
        Returns (elapsed, [(kind, latency)])."""
        samples = []
        start = time.perf_counter()
        done = 0
        while True:
            cycle_start = time.perf_counter()
            for op in cycle:
                if tracer is not None:
                    tracer.op_id += 1
                samples.append((op.kind, self.run_op(op)))
            done += 1
            self.cycle_times.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and done >= min_cycles:
                return elapsed, samples

    def check(self) -> tuple[int, list[str]]:
        """Failed op count (every occurrence of a bad output) and messages."""
        failed, messages = 0, []
        for op, outcome, count in self.distinct.values():
            try:
                op.check(outcome)
            except Exception as exc:
                failed += count
                messages.append(f"{op.label}: {type(exc).__name__}: {exc}"[:2000])
        return failed, messages


def nearest_rank(count: int, percentile: float) -> int:
    return int(-(-count * percentile // 100))


def tail_percentile(min_ops: int) -> float:
    """The highest percentile of TAIL_LADDER that leaves at least ten samples
    beyond it in every run, given that a run has at least `min_ops` ops.
    Fixing it per workload keeps runs of different lengths comparable."""
    fitting = [p for p in TAIL_LADDER if min_ops - nearest_rank(min_ops, p) >= 10]
    return max(fitting, default=50.0)


def kind_medians(samples) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for kind, latency in samples:
        by_kind.setdefault(kind, []).append(latency)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(elapsed, samples, min_ops: int) -> tuple[dict, dict]:
    latencies = sorted(latency for _, latency in samples)
    percentile = tail_percentile(min_ops)
    rank = nearest_rank(len(latencies), percentile)
    metrics = {
        "ops_per_s": metric(len(samples) / elapsed, "op/s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_tail_s": metric(latencies[rank - 1], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "ops": len(samples),
        "loop_s": elapsed,
        "tail_percentile": percentile,
        "tail_samples_beyond": len(latencies) - rank,
        "p50_s_by_kind": kind_medians(samples),
    }
    return metrics, details


def per_layer(tracer, untraced, traced) -> tuple[dict, dict]:
    u_elapsed = sum(elapsed for elapsed, _ in untraced)
    t_elapsed = sum(elapsed for elapsed, _ in traced)
    u_samples = [s for _, samples in untraced for s in samples]
    t_samples = [s for _, samples in traced for s in samples]
    ops = len(t_samples)
    metrics = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = metric(tracer.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_s.get(name, 0.0), "s")
    for layer, names in TRACED.items():
        total = sum(tracer.self_s.get(f"{layer}.{name}", 0.0) for name in names)
        metrics[f"layer.{layer}.self_s"] = metric(total, "s")
    for key, unit in (("formats.bytes_read", "B"), ("formats.bytes_written", "B"),
                      ("graph.derive_graph.edges", "count"),
                      ("coloring.exact_solve.yes", "count"),
                      ("coloring.exact_solve.no", "count"),
                      ("coloring.exact_solve.timeouts", "count")):
        metrics[key] = metric(tracer.counts.get(key, 0), unit)
    metrics["graph.derive_graph.calls_per_op"] = metric(
        tracer.calls.get("graph.derive_graph", 0) / ops, "count/op")
    metrics["trace_overhead_ratio"] = metric(
        (t_elapsed / ops) / (u_elapsed / len(u_samples)), "ratio")
    medians = kind_medians(u_samples)
    for kind in KINDS:
        metrics[f"{kind}_p50_s"] = metric(medians.get(kind, 0.0), "s")

    # Calls per op of each op kind, from the spans' op ids.
    kinds_of_op = [kind for kind, _ in t_samples]
    per_kind: dict[str, dict[str, int]] = {}
    for _, name, _, _, _, op_id in tracer.spans:
        counts = per_kind.setdefault(kinds_of_op[op_id], {})
        counts[name] = counts.get(name, 0) + 1
    ops_of_kind = {kind: kinds_of_op.count(kind) for kind in per_kind}
    inclusive: dict[str, float] = {}
    for _, name, start, end, _, _ in tracer.spans:
        inclusive[name] = inclusive.get(name, 0.0) + end - start
    details = {
        "traced_ops": ops,
        "traced_loop_s": t_elapsed,
        "untraced_ops": len(u_samples),
        "untraced_loop_s": u_elapsed,
        "inclusive_s": dict(sorted(inclusive.items())),
        "calls_per_op_by_kind": {
            kind: {name: n / ops_of_kind[kind] for name, n in sorted(counts.items())}
            for kind, counts in per_kind.items()
        },
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    runs = args.root / ".perfbench"
    workdir = runs / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # Set-up, cold: the import, writing the inputs and one warm-up op.
        # Building the op list is the benchmark's own work and is not timed.
        start = time.perf_counter()
        tc = import_package(args.root)
        import_s = time.perf_counter() - start
        cycle = workload.ops(tc)
        setup, loop = Loop(tc), Loop(tc)
        start = time.perf_counter()
        workload.write_inputs(tc)
        setup.run_op(cycle[0])
        setup_s = import_s + time.perf_counter() - start
        # The warm-up op is checked too, but only loop ops count as attempted.
        setup_failed, setup_messages = setup.check()
        if args.setup_only:
            args.result.write_text(json.dumps({"setup_s": setup_s,
                                               "failures": setup_messages}))
            return 0

        stem = f"{args.workload}-seed{args.seed}"
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "inputs": workload.inputs(), "import_s": import_s, "setup_s": setup_s}
        if args.trace == 0:
            elapsed, samples = loop.cycles(cycle, args.seconds, workload.min_cycles)
            metrics, details = end_to_end(elapsed, samples, workload.min_cycles * len(cycle))
            details["cycle_times_s"] = loop.cycle_times
            attempted = len(samples)
        else:
            tracer = Tracer()
            untraced, traced = [], []
            for _ in range(TRACE_PAIRS[args.workload]):
                untraced.append(loop.cycles(cycle, 0, 1))
                tracer.install()
                try:
                    traced.append(loop.cycles(cycle, 0, 1, tracer))
                finally:
                    tracer.uninstall()
            metrics, details = per_layer(tracer, untraced, traced)
            attempted = sum(len(samples) for _, samples in untraced + traced)
            (runs / f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()))
        failed, messages = loop.check()
        if args.trace == 1:
            metrics["fail_ratio"] = metric(failed / attempted, "ratio")
        record.update(details, failures=setup_messages + messages)
        result = {"correct": failed == 0 and setup_failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        record["result"] = result
        (runs / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        args.result.write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
