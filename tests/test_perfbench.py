"""Smoke test of one traced benchmark unit: the benchmark's tracer wraps
library functions with fixed signatures, so a signature change there breaks
the benchmark without failing any library test."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

UNIT = Path(__file__).resolve().parent.parent / "perfbench" / "unit.py"


@pytest.mark.parametrize(
    "workload,layers",
    [
        (
            "automaton-teach",
            {"teacher.moderate", "learner.learn_adfsa_node", "learner.AttributeSpace.eval_table"},
        ),
        (
            "parity-teach",
            {"teacher.moderate", "learner.learn_pair_node", "learner.AttributeSpace.values"},
        ),
        (
            "circuit-teach",
            {"teacher.moderate", "learner.learn_threshold_node", "learner.AttributeSpace.values"},
        ),
        (
            "parity-sweep",
            {
                "learner.learn_pair_node",
                "baselines.fit_tree",
                "baselines.fit_stumps",
                "experiments.run_sweep",
            },
        ),
    ],
)
def test_traced_smoke_unit_runs(workload, layers):
    # -B: the unit imports the benchmark's modules, and must leave no
    # bytecode beside them
    cmd = [sys.executable, "-B", str(UNIT), "--workload", workload, "--seed", "0"]
    proc = subprocess.run(
        [*cmd, "--smoke", "--trace"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert layers <= {span[0] for span in result["spans"]}
