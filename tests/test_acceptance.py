"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints a single pass/fail line with its headline numbers; the
assertions hold the stated thresholds and nothing looser.
"""

import math
import time

import numpy as np
import pytest

from helpers import all_inputs, make_sample
from impact import (
    Distribution,
    InsufficientDataError,
    InvalidConceptError,
    InvalidParameterError,
    SweepConfig,
    build_parity,
    derive_seed,
    draw_sample,
    evaluate_batch,
    node_values,
    push_negations_to_leaves,
    relevance_mask,
    run_sweep,
    run_teaching_session,
    sample_budget,
)
from impact.experiments import MEAN_TRIAL
from impact.generate import random_automaton, random_circuit, random_dag
from impact.oracle import exhaustive_equivalence, exhaustive_string_equivalence
from impact.plan import postfix_order

BASE_SEED = 2024
PARITY_SUBSET = (1, 6, 8, 9)


_capture = None


@pytest.fixture(autouse=True)
def _live_lines(capsys):
    # lets announce() write past pytest's capture so the pass/fail lines
    # show up in a plain `pytest -v` run
    global _capture
    _capture = capsys
    yield
    _capture = None


def announce(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def parity_sweep(values, learners, kind="m", **overrides):
    base = dict(
        name=f"acceptance-{kind}",
        kind=kind,
        n=10,
        trials=10,
        seed=BASE_SEED,
        values=tuple(values),
        learners=tuple(learners),
        test_size=1000,
    )
    if kind == "m":
        base["subset"] = PARITY_SUBSET
    else:
        base["fixed_m"] = 75
    base.update(overrides)
    return SweepConfig(**base)


def mean_accuracy(rows, learner, value_field, value):
    return next(
        r.accuracy
        for r in rows
        if r.trial == MEAN_TRIAL and r.learner == learner and getattr(r, value_field) == value
    )


def test_01_parity_sessions_reach_high_accuracy_quickly():
    cfg = parity_sweep([100], ["impact"])
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    mean = mean_accuracy(rows, "impact", "m", 100)
    ok = mean >= 0.99 and elapsed <= 60.0
    announce(1, ok, f"impact mean accuracy {mean:.4f} over 10 trials, {elapsed:.1f}s")
    assert mean >= 0.99
    assert elapsed <= 60.0


def test_02_starved_samples_leave_every_learner_at_chance():
    cfg = parity_sweep([10], ["impact", "tree", "stumps", "majority"])
    rows = run_sweep(cfg)
    means = {l: mean_accuracy(rows, l, "m", 10) for l in cfg.learners}
    ok = all(0.40 <= acc <= 0.60 for acc in means.values())
    detail = ", ".join(f"{l} {acc:.3f}" for l, acc in means.items())
    announce(2, ok, detail)
    for learner, acc in means.items():
        assert 0.40 <= acc <= 0.60, learner


def test_03_parity_width_sweep_separates_the_learners():
    cfg = parity_sweep(range(1, 11), ["impact", "tree", "stumps"], kind="k")
    rows = run_sweep(cfg)
    impact_means = {k: mean_accuracy(rows, "impact", "k", k) for k in cfg.values}
    tree_high = {k: mean_accuracy(rows, "tree", "k", k) for k in cfg.values if k >= 7}
    stump_high = {k: mean_accuracy(rows, "stumps", "k", k) for k in cfg.values if k >= 7}
    ok = (
        all(v >= 0.95 for v in impact_means.values())
        and all(v <= 0.65 for v in tree_high.values())
        and all(v <= 0.65 for v in stump_high.values())
    )
    announce(
        3,
        ok,
        f"impact min {min(impact_means.values()):.3f}, "
        f"tree max(k>=7) {max(tree_high.values()):.3f}, "
        f"stumps max(k>=7) {max(stump_high.values()):.3f}",
    )
    for k, v in impact_means.items():
        assert v >= 0.95, f"impact at k={k}"
    for k, v in tree_high.items():
        assert v <= 0.65, f"tree at k={k}"
    for k, v in stump_high.items():
        assert v <= 0.65, f"stumps at k={k}"


def test_04_negation_pushdown_is_exact_and_small():
    mismatched = 0
    oversized = 0
    for i in range(200):
        n = 4 + (i % 9)
        size = n + 2 + (i % 7)
        g = random_dag(n, size, seed=1000 + i)
        r = push_negations_to_leaves(g)
        if exhaustive_equivalence(g, r, n) is not None:
            mismatched += 1
        if r.size > 2 * g.size:
            oversized += 1
    ok = mismatched == 0 and oversized == 0
    announce(4, ok, f"200 DAGs, {mismatched} semantic mismatches, {oversized} over the 2x bound")
    assert mismatched == 0
    assert oversized == 0


def test_05_taught_nodes_relevant_implies_correlated():
    violations = 0
    nodes_checked = 0
    for i in range(100):
        n = 4 + (i % 7)
        size = n + 2 + (i % 6)
        g = push_negations_to_leaves(random_dag(n, size, seed=2000 + i))
        X = all_inputs(n)
        vals = node_values(g, X)
        root = vals[:, g.root]
        for node in postfix_order(g):
            rel = relevance_mask(g, node, X)
            violations += int(np.sum(rel & (vals[:, node] != root)))
            nodes_checked += 1
    ok = violations == 0
    announce(5, ok, f"100 restructured DAGs, {nodes_checked} taught nodes, {violations} violations")
    assert violations == 0


def test_06_full_sample_error_never_exceeds_relevant_error():
    completed = 0
    starved = 0
    violations = 0
    attempt = 0
    while completed < 50 and attempt < 300:
        n = 7
        g = random_dag(n, 12 + (attempt % 5), seed=3000 + attempt)
        d = Distribution.uniform(n, 4000 + attempt)
        attempt += 1
        try:
            report = run_teaching_session(g, d, 250)
        except InsufficientDataError:
            starved += 1
            continue
        completed += 1
        for r in report.rounds:
            if r.error_full is not None and r.error_full > r.error_relevant + 1e-12:
                violations += 1
    ok = completed == 50 and violations == 0
    announce(6, ok, f"{completed} sessions ({starved} starved seeds skipped), {violations} violations")
    assert completed == 50
    assert violations == 0


def test_07_small_circuits_learned_to_low_disagreement():
    m = sample_budget(0.05, 0.05)
    successes = 0
    aborted = 0
    for i in range(50):
        n = 6 + (i % 5)
        hidden = 2 + (i % 4)
        c = random_circuit(n, hidden, seed=5000 + i)
        d = Distribution.uniform(n, 6000 + i)
        try:
            report = run_teaching_session(c, d, m, diagnostics=False)
        except InsufficientDataError:
            aborted += 1
            continue
        X = all_inputs(n)
        probe = make_sample(X, np.zeros(len(X), dtype=np.uint8))
        preds = report.classifier.predict_sample(probe)
        truth = evaluate_batch(c, X).astype(np.int8)
        if float(np.mean(preds != truth)) <= 0.05:
            successes += 1
    ok = successes >= 45
    announce(7, ok, f"{successes}/50 circuits within 0.05 disagreement ({aborted} aborted)")
    assert successes >= 45


def test_08_automata_recovered_with_guaranteed_buckets():
    successes = 0
    bucket_violations = 0
    aborted = 0
    for i in range(50):
        n = 4 + (i % 5)
        branches = 2 + (i % (n - 1))
        a = random_automaton(n, branches, seed=7000 + i)
        d = Distribution.strings_for(a, 8000 + i)
        m = 2 * n * sample_budget(0.05, 0.05)
        try:
            report = run_teaching_session(a, d, m, diagnostics=False)
        except InsufficientDataError:
            aborted += 1
            continue
        floor = m / (2 * n)
        if any(r.subset_size < floor for r in report.rounds):
            bucket_violations += 1
        try:
            expanded = report.classifier.to_concept()
        except (InvalidConceptError, InvalidParameterError):
            continue
        if exhaustive_string_equivalence(a, expanded, ignore_undefined=True) is None:
            successes += 1
    ok = successes >= 45 and bucket_violations == 0
    announce(
        8,
        ok,
        f"{successes}/50 string-equivalent ({aborted} aborted), "
        f"{bucket_violations} bucket floor violations",
    )
    assert successes >= 45
    assert bucket_violations == 0


def test_09_reliable_sessions_abstain_instead_of_erring():
    g = build_parity(10, PARITY_SUBSET)
    incorrect = 0
    dk_rates = []
    for trial in range(10):
        seed = derive_seed(BASE_SEED, "impact-reliable", 100, trial)
        d = Distribution.uniform(10, seed)
        report = run_teaching_session(g, d, 100, mode="reliable")
        test = draw_sample(d, g, 1000, stream="test")
        preds = report.classifier.predict_sample(test)
        wrong = (preds != -1) & (preds != test.labels.astype(np.int8))
        incorrect += int(wrong.sum())
        dk_rates.append(report.test_dont_know_rate)
    mean_dk = float(np.mean(dk_rates))
    ok = incorrect == 0 and mean_dk <= 0.05
    announce(9, ok, f"{incorrect} incorrect predictions, mean abstention {mean_dk:.4f}")
    assert incorrect == 0
    assert mean_dk <= 0.05


def test_10_sample_budget_value_and_scaling():
    base = sample_budget(0.1, 0.05)
    raw = math.log(2.0 / 0.05) / (2.0 * 0.1 * 0.1)
    scaling_ok = all(
        sample_budget(0.1 / N, 0.05) == math.ceil(raw * N * N) for N in range(1, 7)
    )
    ok = base == 185 and scaling_ok
    announce(10, ok, f"budget(0.1, 0.05) = {base}, quadratic scaling {scaling_ok}")
    assert base == 185
    assert scaling_ok
