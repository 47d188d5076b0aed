"""Run one benchmark unit in this fresh interpreter and print its result as
one JSON object on stdout.

    python3 perfbench/unit.py --workload parity-teach --seed 0 [--trace] [--setup-only] [--smoke]

The unit imports `impact` from the checkout's `src/`, builds its inputs
(timed as set-up), times the probe, runs one session or sweep (timed as wall),
times the probe again, and then, untimed, fingerprints the output and runs the
oracle check. With --trace the calls into
each layer are wrapped and the spans are returned with the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "impact" / "__init__.py").is_file():
        print(f"no impact package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORKLOADS[args.workload]

    t0 = perf_counter()
    import impact
    import impact.generate

    inputs = work.build(impact, args.seed, args.smoke)
    setup_s = perf_counter() - t0
    if Path(impact.__file__).resolve().parent != SRC / "impact":
        print(f"imported impact from {impact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = {"seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from probe import probe_s

    before = probe_s()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(impact)
    t1 = perf_counter()
    out = work.run(impact, inputs)
    t2 = perf_counter()
    after = probe_s()
    if tracer:
        # The oracle check below calls traced methods too; keep only what the
        # timed call recorded.
        result["spans"] = [[n, s - t1, e - t1, p] for n, s, e, p in tracer.spans]
        result["counts"] = dict(tracer.counts)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import impact.oracle

    result.update(
        wall_s=t2 - t1,
        probe_s=(before + after) / 2,
        wall_rel=2 * (t2 - t1) / (before + after),
        peak_rss_mb=rss_kib / 1024,
        test_accuracy=work.accuracy(out),
        digest=work.digest(impact, out),
        disagreement=work.disagreement(impact, inputs, out),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
