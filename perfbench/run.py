"""Seeded benchmark for treecolor.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each workload run starts one fresh worker
process (worker.py) that imports the package from ``src/``, so nothing needs
to be installed. The worker's inputs depend only on ``--seed``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines before
it name every metric with its unit, the run's failure ratio and the inputs'
sizes and digests. Run records and spans go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Time allowed for all the worker processes of one workload run together.
RUN_TIMEOUT_S = 170
# Cold set-ups per untraced run: the measuring worker's own and one in each
# of SETUP_RUNS - 1 fresh processes, half of them started before it and half
# after, so that their median, setup_s, samples the machine over the whole
# run rather than only its first seconds.
SETUP_RUNS = 5


def start_worker(name: str, seed: int, seconds: float, trace: int, result_path: Path,
                 deadline: float, *extra: str) -> dict | None:
    """Runs one worker process to its end; returns its result, or None."""
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--root", str(ROOT), "--result", str(result_path), *extra]
    try:
        done = subprocess.run(command, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    if done.returncode != 0 or not result_path.is_file():
        print(f"error: {name} worker exited with {done.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    runs = ROOT / ".perfbench"
    runs.mkdir(exist_ok=True)
    result_path = runs / f"{name}-seed{seed}-trace{trace}.result.json"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_times, setup_failures = [], []

    def set_up(times: int) -> bool:
        for _ in range(times):
            setup = start_worker(name, seed, seconds, trace, result_path, deadline,
                                 "--setup-only")
            if setup is None:
                return False
            setup_times.append(setup["setup_s"])
            setup_failures.extend(setup["failures"])
        return True

    extra = SETUP_RUNS - 1 if trace == 0 else 0
    if not set_up(extra // 2):
        return None
    result = start_worker(name, seed, seconds, trace, result_path, deadline)
    if result is None or not set_up(extra - extra // 2):
        return None
    record = json.loads((runs / f"{name}-seed{seed}-trace{trace}.json").read_text())
    if trace == 0:
        setup_times.append(record["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        result["correct"] = result["correct"] and not setup_failures
    for info in record["inputs"]:
        print(f"{name} input " + " ".join(f"{k}={v}" for k, v in info.items()))
    for message in setup_failures + record["failures"]:
        print(f"{name} FAILED {message}")
    print(f"{name} fail_ratio={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} ops)")
    if trace == 0:
        print(f"{name} set-up times " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        print(f"{name} op_tail_s is p{record['tail_percentile']:g} of {record['ops']} ops "
              f"({record['tail_samples_beyond']} beyond)")
        for kind, value in sorted(record["p50_s_by_kind"].items()):
            print(f"{name} {kind}_p50_s {value:.6f} s")
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "treecolor" / "__init__.py").is_file():
        print(f"error: no treecolor package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
