"""Self-check of the benchmark on inputs shrunk to seconds.

    python3 perfbench/selfcheck.py

For every workload it makes one untraced and one traced run of `run.py
--smoke` and checks that every metric BENCHMARK.json names prints with its
unit and that no unit failed. `run.py` itself rejects a traced unit whose
self times add up to more than its traced wall time. There is no timing
threshold. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT
from workloads import WORKLOADS


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics {sorted(set(got) ^ set(want))} or their units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{result['failed']} of {result['attempted']} units failed")
            if problems:
                print(f"{name} trace {trace}: " + "; ".join(problems))
                return 1
            print(f"{name} trace {trace}: ok, {result['attempted']} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
