"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--out FILE]

Runs run.py once per workload of BENCHMARK.json and seed 1 to 10, one run at
a time and each for BENCHMARK.json's ``run_seconds``, and prints for every
end-to-end metric its median over the ten runs and its spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound. With --out, also writes every
run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, worst = {}, {}, 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed the checks")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        runs[workload] = values
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            worst = max(worst, spread / bounds[name])
    print(f"{'workload':<14} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload:<14} {name:<12} {s['median']:>10.4g} "
                  f"{s['spread']:>7.3f} {bounds[name]:>6.2f}")
    print(f"largest spread/bound: {worst:.2f}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "seeds": list(SEEDS),
                                        "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
