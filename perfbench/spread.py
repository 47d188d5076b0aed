"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median) against the metric's bound.

    python3 perfbench/spread.py --seeds 0-9 [--workloads parity-sweep,...] [--baseline]

With --baseline it also makes one traced run per workload at seed 0 and
writes the workloads' figures into `baseline.json` (keeping those of other
workloads), the numbers later changes diff against.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import numpy

from run import HERE, ROOT
from workloads import WORKLOADS


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = []
        for seed in range(lo, hi + 1):
            result = run(workload, seed, bench["run_seconds"], 0)
            attempted.append(result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {"units_per_run": attempted}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:16s} {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}", flush=True)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
    if args.baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.is_file() else {"end_to_end": {}, "per_layer_seed0": {}}
        baseline.update(
            machine=f"{platform.machine()}, Python {platform.python_version()}, numpy {numpy.__version__}",
            seeds=args.seeds,
            run_seconds=bench["run_seconds"],
        )
        baseline["end_to_end"].update(summary)
        for workload in summary:
            metrics = run(workload, 0, bench["run_seconds"], 1)["metrics"]
            baseline["per_layer_seed0"][workload] = {k: v["value"] for k, v in metrics.items()}
        path.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
