"""Digest the report corpus on two checkouts and name the first item that differs.

    python3 tools/digests.py BEFORE AFTER [--drop KEY ...]

BEFORE and AFTER are checkouts of this repository (any directories holding
`src/impact`). Each runs the corpus in a fresh interpreter that imports
`impact` from its `src`. The corpus has six families of fixed-seed items:
- `restructured`: `push_negations_to_leaves` of `random_dag(10, 40, seed)`
  for seeds 0-119, and of `build_parity(n, range(n))` at n = 16 and 32, as
  concept files;
- `formula`: reports of `random_dag(10, 40, seed)` sessions for seeds 0-59,
  uniform at the same seed and m = 60 + seed, and of parity at n = 16 and 32,
  each in best-fit and reliable mode;
- `automaton`: reports of `random_automaton(12, 10, seed)` sessions for
  seeds 0-19 at m = 300;
- `circuit`: reports of `random_circuit(10, 8, seed)` sessions for seeds 0-5
  at m = 400;
- `sweep`: the CSV rows of one m-sweep and one k-sweep;
- `exports`: the concept files of 60 random pair stacks and 60 random step
  stacks, whose learned attributes read any attribute below them, plain,
  negated or complemented, which no session's pairs do (`_random_stacks`).

An item's digest is the sha256 of its JSON with sorted keys, or of its CSV
text. A family's digest is the sha256 of its items' labels and digests, one
line each. The timing column `runtime_ms` is left out of every item, and so
is each KEY given with --drop: every object key of that name, at any depth,
and the CSV column of that name. So a change that only adds keys can show
that everything else is unchanged.

The script prints each family's digest on both checkouts and, where they
differ, the first item that differs. It exits 1 when any family differs.
`tests/test_corpus.py` pins the family digests in this interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

FAMILIES = ("restructured", "formula", "automaton", "circuit", "sweep", "exports")
TIMING = ("runtime_ms",)


def family_items(family: str):
    """The items of one family, in order: (label, JSON object or CSV text)."""
    from impact import Distribution, SweepConfig, build_parity, run_sweep, run_teaching_session
    from impact.concepts import concept_to_dict, push_negations_to_leaves
    from impact.experiments import rows_to_csv
    from impact.generate import random_automaton, random_circuit, random_dag

    def session(concept, d, m, mode="best-fit"):
        return run_teaching_session(concept, d, m, mode, test_size=200).to_json_dict()

    if family == "restructured":
        for seed in range(120):
            g = push_negations_to_leaves(random_dag(10, 40, seed))
            yield f"random_dag(10,40,{seed})", concept_to_dict(g)
        for n in (16, 32):
            yield f"parity({n})", concept_to_dict(push_negations_to_leaves(build_parity(n, range(n))))
    elif family == "formula":
        for mode in ("best-fit", "reliable"):
            for seed in range(60):
                g = random_dag(10, 40, seed)
                yield f"random_dag(10,40,{seed}) {mode}", session(
                    g, Distribution.uniform(10, seed), 60 + seed, mode
                )
            for n in (16, 32):
                g = build_parity(n, range(0, n, 2))
                yield f"parity({n}) {mode}", session(g, Distribution.uniform(n, 0), 40 * n, mode)
    elif family == "automaton":
        for seed in range(20):
            a = random_automaton(12, 10, seed)
            yield f"random_automaton(12,10,{seed})", session(a, Distribution.strings_for(a, seed), 300)
    elif family == "circuit":
        for seed in range(6):
            c = random_circuit(10, 8, seed)
            yield f"random_circuit(10,8,{seed})", session(c, Distribution.uniform(10, seed), 400)
    elif family == "sweep":
        every = {
            "learners": ("impact", "impact-reliable", "tree", "stumps", "majority"),
            "test_size": 200,
        }
        for cfg in (
            SweepConfig("corpus-m", "m", 8, 2, 3, (20, 40, 80), subset=(1, 4, 6), **every),
            SweepConfig("corpus-k", "k", 8, 2, 4, (1, 2, 3, 4), fixed_m=60, **every),
        ):
            yield cfg.name, rows_to_csv(run_sweep(cfg))
    elif family == "exports":
        for seed in range(60):
            for clf in _random_stacks(seed):
                yield f"{type(clf).__name__} {seed}", clf.model_dict()
    else:
        raise KeyError(family)


def _random_stacks(seed: int):
    """A DagClassifier and an AutomatonClassifier of up to 11 rounds each,
    drawn by a numpy generator at `seed`."""
    import numpy as np
    from impact import AdfsaNodeHypothesis, AttributeSpace, PairHypothesis, augment
    from impact.session import AutomatonClassifier, DagClassifier

    rng = np.random.default_rng(seed)

    def pair(below):
        op = ("and", "or")[rng.integers(2)]
        left, right = (int(j) for j in rng.integers(below, size=2))
        return PairHypothesis(op, left, bool(rng.integers(2)), right, bool(rng.integers(2)))

    def step(below):
        return AdfsaNodeHypothesis(int(rng.integers(3)), *(int(j) for j in rng.integers(below, size=2)))

    rounds = int(rng.integers(12))
    space = AttributeSpace.pure(1 + seed % 4)
    for _ in range(rounds):
        space = augment(space, pair(len(space)))
    dag = DagClassifier(space=space, final=pair(len(space)))
    space = AttributeSpace.terminals()
    for _ in range(rounds):
        space = augment(space, step(len(space)))
    final = step(len(space))
    return dag, AutomatonClassifier(space=space, final=final, n=rounds + 1 + final.offset)


def _without(value, drop: set[str]):
    """A JSON value with every object key in `drop` removed, at any depth."""
    if isinstance(value, dict):
        return {k: _without(v, drop) for k, v in value.items() if k not in drop}
    if isinstance(value, list):
        return [_without(v, drop) for v in value]
    return value


def item_digest(item, drop=()) -> str:
    drop = set(drop) | set(TIMING)
    if isinstance(item, str):
        rows = [line.split(",") for line in item.splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name not in drop]
        text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    else:
        text = json.dumps(_without(item, drop), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def item_digests(family: str, drop=()) -> list[tuple[str, str]]:
    return [(label, item_digest(item, drop)) for label, item in family_items(family)]


def family_digest(items: list[tuple[str, str]]) -> str:
    lines = "".join(f"{label} {digest}\n" for label, digest in items)
    return hashlib.sha256(lines.encode()).hexdigest()


def run_child(checkout: Path, drop: list[str]) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(checkout), *drop],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--drop", nargs="+", default=[], metavar="KEY")
    args = p.parse_args(argv)
    sides = {side: run_child(getattr(args, side).resolve(), args.drop) for side in ("before", "after")}
    differs = False
    for family in FAMILIES:
        before, after = (sides[side][family] for side in ("before", "after"))
        print(f"{family}: before {family_digest(before)} after {family_digest(after)}")
        if before != after:
            differs = True
            changed = [b[0] for b, a in zip(before, after) if b != a]
            first = changed[0] if changed else f"item {min(len(before), len(after))}"
            print(f"  first difference: {first}")
    return 1 if differs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        src = Path(sys.argv[2]).resolve() / "src"
        sys.path.insert(0, str(src))
        import impact

        if not Path(impact.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"imported impact from {impact.__file__}, not from {src}")
        drop = sys.argv[3:]
        print(json.dumps({family: item_digests(family, drop) for family in FAMILIES}))
    else:
        sys.exit(main())
