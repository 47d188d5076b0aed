"""Seeded concept builders used by the sweeps and the bulk property checks."""

import numpy as np
import pytest

from helpers import all_inputs
from impact import (
    And,
    InvalidParameterError,
    Literal,
    Not,
    Or,
    adfsa_labels,
    concept_to_dict,
    evaluate_batch,
    max_path_depth,
)
from impact.generate import (
    random_automaton,
    random_circuit,
    random_dag,
    random_parity_subset,
)


def test_random_dag_shape():
    g = random_dag(5, 12, seed=4)
    assert len(g.nodes) == 12
    assert g.root == 11
    assert all(isinstance(node, Literal) for node in g.nodes[:5])
    assert all(isinstance(node, (And, Or, Not)) for node in g.nodes[5:])


def test_random_dag_is_deterministic():
    a = random_dag(6, 14, seed=9)
    b = random_dag(6, 14, seed=9)
    assert concept_to_dict(a) == concept_to_dict(b)
    c = random_dag(6, 14, seed=10)
    assert concept_to_dict(a) != concept_to_dict(c)


def test_random_dag_evaluates():
    g = random_dag(4, 10, seed=2)
    out = evaluate_batch(g, all_inputs(4))
    assert set(np.unique(out)) <= {0, 1}


def test_random_dag_size_floor():
    with pytest.raises(InvalidParameterError):
        random_dag(5, 5, seed=1)


def test_random_circuit_shape():
    c = random_circuit(6, 3, seed=8)
    assert len(c.gates) == 4
    assert c.root == 3
    for gate in c.gates[:3]:
        bits = [w.index for w in gate.inputs]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)
        assert 1 <= gate.threshold <= len(gate.inputs)
    root = c.gates[3]
    assert [w.source for w in root.inputs] == ["gate"] * 3


def test_random_circuit_deterministic_and_bounded():
    a = random_circuit(5, 2, seed=3)
    b = random_circuit(5, 2, seed=3)
    assert concept_to_dict(a) == concept_to_dict(b)
    with pytest.raises(InvalidParameterError):
        random_circuit(5, 0, seed=3)
    with pytest.raises(InvalidParameterError):
        random_circuit(2, 2, seed=3, fan_in=3)


def test_random_automaton_shape():
    a = random_automaton(6, 4, seed=5)
    assert len(a.states) == 6
    assert a.start == 5
    out = adfsa_labels(a, np.ones((1, 6), dtype=np.uint8), [6])
    assert out.tolist() in ([0], [1])


def test_random_automaton_walks_stay_short():
    # backward wiring caps every walk at the branch count
    for seed in range(10):
        a = random_automaton(8, 5, seed=seed)
        assert max_path_depth(a) <= 5


def test_random_automaton_branch_bounds():
    with pytest.raises(InvalidParameterError):
        random_automaton(4, 0, seed=1)
    with pytest.raises(InvalidParameterError):
        random_automaton(4, 5, seed=1)


def test_parity_subsets_sorted_distinct():
    for seed in range(5):
        subset = random_parity_subset(10, 4, seed=seed)
        assert list(subset) == sorted(set(subset))
        assert all(0 <= b < 10 for b in subset)
        assert len(subset) == 4


def test_parity_subset_is_fixed_by_its_seed():
    for seed in range(5):
        assert random_parity_subset(10, 3, seed=seed) == random_parity_subset(10, 3, seed=seed)
    with pytest.raises(InvalidParameterError):
        random_parity_subset(10, 0, seed=6)
