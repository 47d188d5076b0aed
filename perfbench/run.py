"""The benchmark's one command: run a workload's units for a fixed time, check
every output, and print each metric by name with its unit.

    python3 perfbench/run.py --workload parity-teach --seed 0 --seconds 30 --trace 0

Every unit runs in a fresh interpreter (`unit.py`), one at a time, as each
`impact teach` or `impact sweep` call does, so in-process caches start cold.
Each unit also times a fixed probe computation around its timed call
(`probe.py`), and the gated wall metric is in probe durations. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced units, and the
untraced units run alongside give the tracing overhead. Spans are written to
`.perfbench_out/` at the end of a traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNTS, LAYERS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up-only interpreters started per run, on top of the units' own set-ups.
SETUP_REPEATS = 8
# The whole run, children included, ends well inside 180 s.
RUN_LIMIT_S = 170.0


class Failed(Exception):
    """A unit whose process failed or whose output a check rejected."""


def child(workload: str, seed: int, flags: list[str], started: float) -> dict:
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload, "--seed", str(seed), *flags]
    left = RUN_LIMIT_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise Failed(f"unit {flags} timed out") from exc
    if proc.returncode != 0:
        raise Failed(f"unit {flags} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(workload: str, smoke: bool) -> dict:
    """This commit's digest and oracle disagreement per recorded input seed,
    and the disagreement ceiling for any other seed."""
    if smoke:
        return {"disagreement_ceiling": None, "seeds": {}}
    return json.loads((HERE / "reference.json").read_text())[workload]


def check(unit: dict, ref: dict, done: list[tuple[dict, bool]]) -> None:
    """Raise Failed unless the unit's output matches this commit's digest for
    its input seed (or, for an unrecorded seed, the run's first unit with that
    seed), its oracle disagreement is within bound, and its trace adds up."""
    recorded = ref["seeds"].get(str(unit["seed"]), {})
    first = next((u for u, _ in done if u["seed"] == unit["seed"]), unit)
    want = recorded.get("digest", first["digest"])
    if unit["digest"] != want:
        raise Failed(f"output digest {unit['digest'][:16]} != {want[:16]}")
    ceiling = recorded.get("disagreement", ref["disagreement_ceiling"])
    if unit["disagreement"] is not None and ceiling is not None and unit["disagreement"] > ceiling:
        raise Failed(f"oracle disagreement {unit['disagreement']} > {ceiling}")
    if "spans" in unit:
        own = sum(self_times(unit["spans"]))
        if own > unit["wall_s"] + 1e-9:
            raise Failed(f"traced self times {own} exceed traced wall {unit['wall_s']}")
        first_traced = next((u for u, traced in done if traced), unit)
        if unit["counts"] != first_traced["counts"]:
            raise Failed("boundary counts differ between traced units")


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-unit layer metrics: call counts and boundary counts (identical
    across units), and the median over units of each layer's self time as a
    share of the unit's traced wall time. A share, not seconds, because a
    layer a workload never calls reads 0 on every run."""
    per_unit = []
    for unit in traced:
        own = defaultdict(float)
        calls = defaultdict(int)
        for span, t in zip(unit["spans"], self_times(unit["spans"])):
            own[span[0]] += t
            calls[span[0]] += 1
        per_unit.append((own, calls, unit["wall_s"]))
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_unit[0][1][layer]
        out[f"{layer}.self_frac"] = statistics.median(own[layer] / wall for own, _, wall in per_unit)
    counts = traced[0]["counts"]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    rows_in = out["teacher.moderate.rows_in"]
    out["teacher.kept_frac"] = out["teacher.moderate.rows_kept"] / rows_in if rows_in else 0.0
    pair_s = statistics.median(own["learner.learn_pair_node"] for own, _, _ in per_unit)
    out["learner.pair_candidates_per_s"] = (
        out["learner.learn_pair_node.candidates"] / pair_s if pair_s else 0.0
    )
    traced_wall = statistics.median(u["wall_s"] for u in traced)
    untraced_wall = statistics.median(u["wall_s"] for u in untraced)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunk inputs, for the self-check")
    args = ap.parse_args()
    if not (ROOT / "src" / "impact" / "__init__.py").is_file():
        print(f"no impact package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    started = perf_counter()
    base = ["--smoke"] if args.smoke else []
    ref = load_reference(args.workload, args.smoke)
    seed = WORKLOADS[args.workload].input_seed(args.seed)
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        try:
            setups.append(child(args.workload, seed, base + ["--setup-only"], started)["setup_s"])
        except Failed as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1

    # A traced run alternates untraced and traced units; both kinds are needed.
    plan = [[], ["--trace"]] if args.trace else [[]]
    done: list[tuple[dict, bool]] = []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = perf_counter() - started
        if attempted >= len(plan) and elapsed + longest > args.seconds:
            break
        flags = plan[attempted % len(plan)]
        attempted += 1
        t = perf_counter()
        try:
            unit = child(args.workload, seed, base + flags, started)
            check(unit, ref, done)
            done.append((unit, bool(flags)))
        except Failed as exc:
            failed += 1
            print(f"unit {attempted} failed: {exc}", file=sys.stderr)
        longest = max(longest, perf_counter() - t)
        if perf_counter() - started > RUN_LIMIT_S - longest:
            break

    untraced = [u for u, traced in done if not traced]
    traced = [u for u, traced in done if traced]
    if not untraced or (args.trace and not traced):
        print("no unit passed; nothing to report", file=sys.stderr)
        return 1
    setups += [u["setup_s"] for u, _ in done]
    print(f"{args.workload} seed {args.seed}: {attempted} units, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for uid, unit in enumerate(traced):
                for name, start, end, parent in unit["spans"]:
                    fh.write(json.dumps({"unit": uid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_rel.p50": statistics.median(u["wall_rel"] for u in untraced),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in untraced),
            "test_accuracy": statistics.fmean(u["test_accuracy"] for u in untraced),
        }
        # Raw wall time drifts with the host's speed, so it is reported here
        # and gated in probe durations (wall_rel) instead.
        wall = statistics.median(u["wall_s"] for u in untraced)
        probe = statistics.median(u["probe_s"] for u in untraced)
        print(f"  wall_s.p50 {wall:.6g} s and probe_s.p50 {probe:.6g} s over {len(untraced)} units; "
              f"setup_s over {len(setups)} interpreters")
    # BENCHMARK.json names the metrics each kind of run reports, with units.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
