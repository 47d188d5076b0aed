"""The benchmark's workloads: how each one builds its inputs from a seed, runs
one unit through the public API, and fingerprints the unit's output.

A unit is one teaching session, or one whole sweep for `parity-sweep`. The
shapes of the parity width, the circuit and the automaton are fixed, so the
amount of work stays comparable across seeds; the seed feeds the sample draws
and the parity bits. The circuit's work is the exception: it follows the
sample too closely for any seed to stand for another, so `circuit-teach`
draws the same sample in every run (see `Workload.input_seed`).
`smoke=True` shrinks every input to a few seconds of work
for the benchmark's self-check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

# Fresh inputs drawn by the untimed oracle check of a teaching unit.
ORACLE_SAMPLES = 1000


@dataclass(frozen=True)
class Teach:
    concept: Any
    d: Any
    m: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Any, int, bool], Any]  # (impact, seed, smoke) -> inputs
    teaching: bool  # one session per unit; otherwise one sweep
    # The input seed every unit builds its inputs from, whatever the run's
    # seed; None builds them from the run's seed.
    fixed_seed: int | None = None

    def input_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def run(self, impact, inputs):
        if self.teaching:
            return impact.run_teaching_session(inputs.concept, inputs.d, inputs.m)
        return impact.run_sweep(inputs)

    def digest(self, impact, out) -> str:
        """sha256 of the unit's output: the session report, or the sweep's
        CSV rows without the `runtime_ms` column."""
        if self.teaching:
            text = json.dumps(out.to_json_dict(), sort_keys=True)
        else:
            csv = impact.experiments.rows_to_csv(out)
            text = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
        return hashlib.sha256(text.encode()).hexdigest()

    def accuracy(self, out) -> float:
        """Mean test accuracy; a sweep averages its trial rows."""
        if self.teaching:
            return out.test_accuracy
        accs = [r.accuracy for r in out if r.trial >= 0]
        return sum(accs) / len(accs)

    def disagreement(self, impact, inputs, out) -> float | None:
        """Share of fresh inputs on which the taught classifier and the target
        differ, by the library's independent oracle. None for a sweep."""
        if not self.teaching:
            return None
        return impact.oracle.sampled_disagreement(
            inputs.concept, out.classifier, inputs.d, ORACLE_SAMPLES
        )


def _parity_teach(impact, seed: int, smoke: bool) -> Teach:
    n, k, m = (12, 6, 300) if smoke else (32, 16, 2000)
    subset = impact.generate.random_parity_subset(n, k, seed)
    return Teach(impact.build_parity(n, subset), impact.Distribution.uniform(n, seed), m)


def _parity_sweep(impact, seed: int, smoke: bool):
    # One trial per point: a 5-trial sweep takes about 7 s, longer than the
    # host's speed swings, which the probe bracketing a unit then misses.
    n = 6 if smoke else 10
    return impact.SweepConfig(
        name="bench-k",
        kind="k",
        n=n,
        trials=1,
        seed=seed,
        values=tuple(range(1, n + 1)),
        fixed_m=75,
        learners=("impact", "impact-reliable", "tree", "stumps", "majority"),
    )


def _circuit_teach(impact, seed: int, smoke: bool) -> Teach:
    n, hidden, m = (10, 6, 400) if smoke else (24, 24, 4000)
    c = impact.generate.random_circuit(n, hidden, seed=5)
    return Teach(c, impact.Distribution.uniform(n, seed), m)


def _automaton_teach(impact, seed: int, smoke: bool) -> Teach:
    # m=4000, not 8000: a run holds twice as many 2.5-s units, so one slow
    # unit moves the median less (spread over six seeds 0.06, against 0.09).
    n, m = (20, 1000) if smoke else (80, 4000)
    a = impact.generate.random_automaton(n, n, seed=3)
    return Teach(a, impact.Distribution.strings_for(a, seed), m)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parity-teach",
            "large attribute space (A grows 32 to 206) where the pair-candidate cache never hits and diagnostics cost O(R^2 m)",
            _parity_teach,
            True,
        ),
        Workload(
            "parity-sweep",
            "many small pair-learner calls with cache hits, reliable mode and the baselines",
            _parity_sweep,
            False,
        ),
        Workload(
            "circuit-teach",
            "the only perceptron workload; it bypasses the pair learner, and it runs one fixed sample because its work follows the sample",
            _circuit_teach,
            True,
            # With the root perceptron's 1000 epochs, a session takes 1.9 to
            # 5.3 s over input seeds 0-39 (quartile distance 0.24 of the
            # median), more than a 30-s run of 3-s units can average out;
            # input seed 0 takes close to the median time.
            fixed_seed=0,
        ),
        Workload(
            "automaton-teach",
            "the adfsa path: eval_table, bucket moderation and learn_adfsa_node, shared with no other workload",
            _automaton_teach,
            True,
        ),
    )
}
