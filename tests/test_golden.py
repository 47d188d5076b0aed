"""Golden reports: fixed-seed sessions and one sweep must keep producing
byte-identical output. Each digest is the sha256 of the report's JSON with
sorted keys (for the sweep, its CSV without the runtime_ms column)."""

import hashlib
import json

import pytest

from impact import (
    And,
    ConceptDag,
    Distribution,
    Literal,
    ModerationRule,
    SweepConfig,
    build_parity,
    run_sweep,
    run_teaching_session,
)
from impact.experiments import rows_to_csv
from impact.generate import random_automaton, random_circuit, random_dag


def _starving_dag():
    g = ConceptDag(
        nodes=(Literal(0), Literal(1), And(0, 1), Literal(2), And(2, 3)),
        root=4,
        n=3,
    )
    return g, Distribution.product([0.5, 0.5, 1e-12], seed=21)


def _session(name):
    if name == "parity-best-fit":
        g = build_parity(10, (0, 3, 4, 7, 9))
        return run_teaching_session(g, Distribution.uniform(10, 2), 32)
    if name == "random-dag-best-fit":
        g = random_dag(10, 40, seed=18)
        d = Distribution.product([0.2, 0.8, 0.5, 0.5, 0.3, 0.7, 0.5, 0.5, 0.9, 0.1], 5)
        return run_teaching_session(g, d, 30)
    if name == "random-dag-reliable":
        g = random_dag(10, 40, seed=18)
        return run_teaching_session(g, Distribution.uniform(10, 5), 30, mode="reliable")
    if name == "larger-partition":
        g = random_dag(10, 60, seed=18)
        return run_teaching_session(
            g,
            Distribution.uniform(10, 5),
            150,
            moderation=ModerationRule.LARGER_PARTITION,
        )
    if name == "starved":
        g, d = _starving_dag()
        return run_teaching_session(g, d, 40)
    if name == "threshold":
        c = random_circuit(10, 6, seed=5)
        return run_teaching_session(c, Distribution.uniform(10, 1), 400)
    if name == "adfsa":
        a = random_automaton(20, 20, seed=3)
        return run_teaching_session(a, Distribution.strings_for(a, 2), 1000)
    raise KeyError(name)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_SESSIONS = {
    "parity-best-fit": (
        "216f2439b03488a42683b7a2085d9dd04b5212a93fb3313f4639c927f1daf79f"
    ),
    "random-dag-best-fit": (
        "3434ebdc8d92069c3d4ca1365e83b30bbfd25df25cd9fb892b1e6e3fd6c6ab62"
    ),
    "random-dag-reliable": (
        "464529d440507469ef69409070543287abca28b2fe28bc4e54dae6bd25a7b8d0"
    ),
    "larger-partition": (
        "58e6e7b0dc2e1a6b1907037e74b091266c1cdc7e59c7bbc4ccd164872de2fe85"
    ),
    "starved": (
        "14892bb8afec7db5a81a8b26f91958296f62821d55415ad377c239c4561e1efe"
    ),
    "threshold": (
        "2869bc7a03ae92c3de6c6d8ee69395b55d26ec50c0c8a947658dcefaf522a871"
    ),
    "adfsa": (
        "0a189bec647a1dc72691320c987e72676d98a3793a9b97899d12152210f6f45b"
    ),
}

GOLDEN_SWEEP = "a6c83187daa308262456c578f47e91c1d03483902b21ca7ec018ebe8ecac10ef"


@pytest.mark.parametrize("name", sorted(GOLDEN_SESSIONS))
def test_session_report_is_unchanged(name):
    report = _session(name)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert _digest(text) == GOLDEN_SESSIONS[name]


def test_k_sweep_rows_are_unchanged():
    cfg = SweepConfig(
        name="golden-k",
        kind="k",
        n=6,
        trials=2,
        seed=9,
        values=(1, 2, 3, 4, 5, 6),
        fixed_m=60,
        learners=("impact", "impact-reliable", "tree", "stumps", "majority"),
    )
    csv = rows_to_csv(run_sweep(cfg))
    text = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
    assert _digest(text) == GOLDEN_SWEEP
