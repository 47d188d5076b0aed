"""Record this commit's output digest and oracle disagreement per workload and
seed into `reference.json`, which `run.py` checks every unit against.

    python3 perfbench/record.py --seeds 32

It records the input seeds that `run.py --seed 0` to `--seed SEEDS-1` build
(for `circuit-teach`, the one fixed input seed).

For a seed not recorded, `run.py` checks only that a run's units agree with
one another and that the disagreement stays within the ceiling: the error
budget a session takes by default (epsilon_total = 0.05). The largest recorded
value is 0.038 (`circuit-teach`); the other teaching workloads are learned
exactly or nearly (at most 0.018).
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

from run import HERE, child
from workloads import WORKLOADS

# run_teaching_session's default ErrorBudget.epsilon_total.
DISAGREEMENT_CEILING = 0.05


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=32, help="record seeds 0 .. SEEDS-1")
    args = ap.parse_args()
    reference = {}
    for name in WORKLOADS:
        seeds = {}
        for seed in sorted({WORKLOADS[name].input_seed(s) for s in range(args.seeds)}):
            unit = child(name, seed, [], perf_counter())
            seeds[str(seed)] = {"digest": unit["digest"], "disagreement": unit["disagreement"]}
            print(name, seed, unit["digest"][:16], unit["disagreement"], flush=True)
        reference[name] = {
            "disagreement_ceiling": DISAGREEMENT_CEILING if WORKLOADS[name].teaching else None,
            "seeds": seeds,
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
