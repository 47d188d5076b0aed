"""Time the parity rungs on two checkouts, in alternating pairs.

    python3 tools/rungs.py BEFORE AFTER --n 128 256 --reps 5

BEFORE and AFTER are checkouts of this repository (any directories holding
`src/impact`). A rung is the session `build_parity(n, random_parity_subset(n,
n // 2, 0))` over the uniform distribution at seed 0, at m = 5,000, 10,000 and
20,000 for n = 64, 128 and 256. Every repetition of a rung runs each checkout
once, in a fresh interpreter and one at a time; the side that runs first
alternates from one repetition to the next.

Each run reports, in seconds and MB:
- `masks_s`: every `relevance_mask` of the session's plan, with the node
  values given, as the Teacher calls them;
- `session_s`: `run_teaching_session(..., diagnostics=False)`;
- `masks_max_rss_mb` and `max_rss_mb`: the process's max RSS after the masks,
  which run first, and after the session.

The JSON on stdout holds every run and, per rung, each side's medians. This
script records timings for a benchmark file; it gates nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

RUNGS = {64: 5_000, 128: 10_000, 256: 20_000}
METRICS = ("masks_s", "session_s", "masks_max_rss_mb", "max_rss_mb")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rung(checkout: Path, n: int) -> dict:
    """One rung in this interpreter, on the impact package of `checkout`."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import impact
    from impact.concepts import node_values, push_negations_to_leaves, relevance_mask
    from impact.plan import postfix_order
    from impact.sampling import draw_sample
    from impact.session import TRAIN_STREAM

    if not Path(impact.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported impact from {impact.__file__}, not from {src}")
    m = RUNGS[n]
    g = impact.build_parity(n, impact.generate.random_parity_subset(n, n // 2, 0))
    d = impact.Distribution.uniform(n, 0)

    taught = push_negations_to_leaves(g)
    plan = postfix_order(taught)
    X = draw_sample(d, g, m, stream=TRAIN_STREAM).bits
    values = node_values(taught, X)
    start = perf_counter()
    for node in plan:
        relevance_mask(taught, node, X, values=values)
    masks_s = perf_counter() - start
    masks_max_rss_mb = _max_rss_mb()
    del values

    start = perf_counter()
    impact.run_teaching_session(g, d, m, diagnostics=False)
    session_s = perf_counter() - start
    return {
        "masks_s": masks_s,
        "session_s": session_s,
        "masks_max_rss_mb": masks_max_rss_mb,
        "max_rss_mb": _max_rss_mb(),
        "rounds": len(plan),
    }


def run_child(checkout: Path, n: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(checkout), str(n)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--n", type=int, nargs="+", choices=sorted(RUNGS), default=[128, 256])
    p.add_argument("--reps", type=int, default=5)
    args = p.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}

    rungs = []
    for n in args.n:
        runs = []
        for rep in range(args.reps):
            order = ("before", "after") if rep % 2 == 0 else ("after", "before")
            runs.append(
                {"first": order[0], **{side: run_child(sides[side], n) for side in order}}
            )
            print(f"n={n} rep {rep}: {json.dumps(runs[-1])}", file=sys.stderr)
        medians = {
            side: {k: statistics.median(r[side][k] for r in runs) for k in METRICS}
            for side in sides
        }
        rungs.append({"n": n, "m": RUNGS[n], "runs": runs, "medians": medians})
    host = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    print(json.dumps({"host": host, "rungs": rungs}, indent=1))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_rung(Path(sys.argv[2]).resolve(), int(sys.argv[3]))))
    else:
        main()
