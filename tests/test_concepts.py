"""Concept representations, evaluation, restructuring, relevance."""

import functools
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_inputs,
    and_dag,
    chain_automaton,
    layered_circuit,
    mixed_relevance_dag,
    nand_dag,
    one_bit_acceptor,
    random_strings,
    vote_circuit,
)
from impact import (
    Adfsa,
    And,
    BranchState,
    ConceptDag,
    Gate,
    InputShapeError,
    InvalidConceptError,
    Literal,
    MalformedAutomatonError,
    Not,
    Or,
    RejectState,
    AcceptState,
    ThresholdCircuit,
    Wire,
    adfsa_labels,
    build_parity,
    concept_from_dict,
    concept_to_dict,
    evaluate_batch,
    load_concept,
    max_path_depth,
    node_values,
    push_negations_to_leaves,
    relevance_mask,
    save_concept,
)
import impact.concepts
from impact.concepts import _walk, reachable_indices, state_outputs
from impact.generate import random_automaton, random_circuit, random_dag
from impact.learner import decode_planes
from impact.oracle import (
    reference_evaluate,
    reference_node_value,
    relevance_by_substitution,
    run_automaton,
)
from impact.plan import postfix_order


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_dag_rejects_forward_edge():
    with pytest.raises(InvalidConceptError):
        ConceptDag(nodes=(And(left=1, right=1), Literal(bit=0)), root=0, n=1)


def test_dag_rejects_out_of_range_literal():
    with pytest.raises(InvalidConceptError):
        ConceptDag(nodes=(Literal(bit=3),), root=0, n=2)


def test_dag_has_no_size_cap():
    """A DAG holds any number of nodes: a 10-node Not chain at n=2, past
    n**3 = 8 nodes, builds, evaluates as the reference does, and round-trips
    through its concept file form unchanged."""
    nodes = (Literal(bit=0),) + tuple(Not(child=i) for i in range(9))
    g = ConceptDag(nodes=nodes, root=9, n=2)
    assert g.size > g.n**3
    X = all_inputs(2)
    vals = node_values(g, X)
    for i, bits in enumerate(X):
        assert vals[i, g.root] == reference_evaluate(g, bits)
        assert vals[i].tolist() == [reference_node_value(g, k, bits) for k in range(g.size)]
    assert concept_from_dict(concept_to_dict(g)) == g


def test_circuit_rejects_forward_gate_wire():
    g = Gate(threshold=1, inputs=(Wire("gate", 1),))
    g2 = Gate(threshold=1, inputs=(Wire("bit", 0),))
    with pytest.raises(InvalidConceptError):
        ThresholdCircuit(gates=(g, g2), root=0, n=1)


def test_automaton_needs_both_terminals():
    with pytest.raises(InvalidConceptError):
        Adfsa(states=(RejectState(), BranchState(on0=0, on1=0)), start=1, n=1)


def test_automaton_depth_cannot_exceed_n():
    states = [RejectState(), AcceptState()]
    for i in range(3):
        states.append(BranchState(on0=len(states) - 1, on1=len(states) - 1))
    with pytest.raises(InvalidConceptError):
        Adfsa(states=tuple(states), start=4, n=2)


def gate_chain(depth: int) -> ThresholdCircuit:
    """A circuit of `depth` one-input gates, each reading the one before."""
    gates = [Gate(1, (Wire("bit", 0),))] + [Gate(1, (Wire("gate", i),)) for i in range(depth - 1)]
    return ThresholdCircuit(gates=tuple(gates), root=depth - 1, n=1)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ThresholdCircuit((Gate(1, (Wire("node", 0),)),), 0, 1), "wire source"),
        (lambda: gate_chain(9), "depth 9 exceeds cap 8"),
        (lambda: build_parity(4, ()), "at least one bit"),
        (lambda: build_parity(4, (1, 1)), "repeated"),
        (lambda: build_parity(4, (4,)), "out of range"),
    ],
    ids=["unknown-wire-source", "too-deep", "parity-empty", "parity-repeated", "parity-out-of-range"],
)
def test_invalid_concepts_raise(build, message):
    """Faults no concept file can carry; test_cli checks those one can."""
    with pytest.raises(InvalidConceptError, match=message):
        build()


def test_a_gate_with_no_inputs_is_rejected():
    """Before its threshold is read, whose range 1..0 would be empty; a
    concept file can carry such a gate."""
    raw = {"type": "threshold", "n": 2, "gates": [{"threshold": 0, "inputs": []}], "root": 0}
    with pytest.raises(InvalidConceptError, match="gate 0 has no inputs"):
        concept_from_dict(raw)


def test_circuit_at_the_depth_cap_is_valid():
    assert gate_chain(8).depth == 8


# Each builder gives a concept whose node, gate or state 1 reads the index it is passed.
EDGE_FROM_ONE = {
    "dag": lambda to: ConceptDag(
        nodes=(Literal(bit=0), And(left=0, right=to), Literal(bit=1)), root=1, n=2
    ),
    "threshold": lambda to: ThresholdCircuit(
        gates=(
            Gate(threshold=1, inputs=(Wire("bit", 0),)),
            Gate(threshold=1, inputs=(Wire("bit", 1), Wire("gate", to))),
            Gate(threshold=1, inputs=(Wire("bit", 1),)),
        ),
        root=1,
        n=2,
    ),
    "adfsa": lambda to: Adfsa(
        states=(RejectState(), BranchState(on0=to, on1=to), AcceptState()), start=1, n=2
    ),
}


@pytest.mark.parametrize("kind", sorted(EDGE_FROM_ONE))
def test_edges_must_point_to_lower_indices(kind):
    build = EDGE_FROM_ONE[kind]
    assert build(0).children[1] in ((0, 0), (0,))
    for to in (1, 2):
        with pytest.raises(InvalidConceptError):
            build(to)


# ---------------------------------------------------------------------------
# Evaluation against the oracle
# ---------------------------------------------------------------------------


def test_and_identity():
    assert evaluate_batch(and_dag(), [(1, 1)]).tolist() == [1]


def test_parity_all_zeros():
    g = build_parity(10, (1, 6, 8, 9))
    assert evaluate_batch(g, [(0,) * 10]).tolist() == [0]


def test_random_dag_matches_recursive_oracle_exhaustively():
    g = random_dag(10, 15, seed=41)
    X = all_inputs(10)
    fast = node_values(g, X)[:, g.root]
    for i, bits in enumerate(X):
        assert fast[i] == reference_evaluate(g, bits)


def test_node_values_all_nodes_match_oracle():
    g = random_dag(6, 12, seed=13)
    X = all_inputs(6)
    vals = node_values(g, X)
    for node in range(g.size):
        for i in (0, 17, 43, 63):
            assert vals[i, node] == reference_node_value(g, node, X[i])


def test_circuit_node_values_all_gates_match_oracle():
    for c in (random_circuit(7, 4, seed=2), layered_circuit(), vote_circuit()):
        X = all_inputs(c.n)
        vals = node_values(c, X)
        for gate in range(c.size):
            for i in range(0, len(X), 5):
                assert vals[i, gate] == reference_node_value(c, gate, X[i])


def test_circuit_values_match_oracle():
    for seed in range(5):
        c = random_circuit(7, 4, seed)
        X = all_inputs(7)
        fast = node_values(c, X)[:, c.root]
        for i in (0, 1, 64, 127):
            assert fast[i] == reference_evaluate(c, X[i])
    c = layered_circuit()
    X = all_inputs(4)
    fast = evaluate_batch(c, X)
    for i, bits in enumerate(X):
        assert fast[i] == reference_evaluate(c, bits)


def test_parity_matches_fold_oracle():
    for n, subset in ((4, (0, 2)), (6, (1, 3, 5)), (12, (0, 5, 7, 11))):
        g = build_parity(n, subset)
        X = all_inputs(n)
        out = evaluate_batch(g, X)
        folded = np.bitwise_xor.reduce(X[:, list(subset)], axis=1)
        assert np.array_equal(out, folded)


def test_parity_single_bit_is_the_bit():
    g = build_parity(5, (3,))
    X = all_inputs(5)
    assert np.array_equal(evaluate_batch(g, X), X[:, 3])


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------


def test_single_branch_acceptance():
    a = one_bit_acceptor()
    assert adfsa_labels(a, [(1,), (0,)], [1, 1]).tolist() == [1, 0]


def test_adfsa_labels_exhaustion_raises():
    with pytest.raises(MalformedAutomatonError):
        adfsa_labels(chain_automaton(), [(1, 0)], [1])


def test_random_automaton_matches_walk_oracle():
    a = random_automaton(6, 5, seed=3)
    depth = max_path_depth(a)
    for length in range(depth, 7):
        X = np.zeros((1 << length, 6), dtype=np.uint8)
        X[:, :length] = all_inputs(length)
        lengths = np.full(1 << length, length)
        labels = adfsa_labels(a, X, lengths)
        for i in range(len(labels)):
            assert labels[i] == run_automaton(a, X[i, :length])


def test_walk_undefined_when_short():
    a = chain_automaton()
    X = np.array([[1, 0]], dtype=np.uint8)
    assert _walk(a, X, np.array([1]))[0][0] == -1
    assert _walk(a, X, np.array([2]))[0][0] == 0
    # the inner branch state read at offset 1 sees bit 0 there
    planes = {o: (ok, val) for o, ok, val in state_outputs(a, X, np.array([2]), [2])}
    assert decode_planes(*planes[1], 1).tolist() == [[0]]


@given(
    automaton=st.one_of(
        st.just(chain_automaton()),
        st.builds(
            lambda n, frac, seed: random_automaton(n, max(1, round(frac * n)), seed),
            st.integers(1, 7),
            st.floats(0, 1),
            st.integers(0, 1000),
        ),
    ),
    m=st.one_of(st.just(1), st.integers(1, 40)),
    narrower=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
# strings over three packed words, the last one partly padding
@example(automaton=random_automaton(5, 4, 7), m=129, narrower=1, seed=7)
def test_state_outputs_match_walks(automaton, m, narrower, seed):
    """The descending-offset planes of every state, terminals included,
    decode to one walk per offset, on strings of lengths 1 to their width,
    which may be less than n, checked against the oracle's walk string by
    string; every bit past the m strings is zero, and val lies inside ok."""
    width = max(1, automaton.n - narrower)
    X, lengths = random_strings(np.random.default_rng(seed), m, width)
    states = list(range(automaton.size))
    from_state = [replace(automaton, start=state) for state in states]
    offsets = []
    for o, ok, val in state_outputs(automaton, X, lengths, states):
        offsets.append(o)
        for words in (ok, val):
            assert words.shape == (automaton.size, -(-m // 64))
            unpacked = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
            assert not unpacked[:, m:].any()
        assert not (val & ~ok).any()
        out = decode_planes(ok, val, m)
        assert out.shape == (automaton.size, m)
        for state in states:
            for i in range(m):
                assert out[state, i] == run_automaton(from_state[state], X[i, o : lengths[i]])
    assert offsets == list(range(automaton.n - 1, -1, -1))


def test_arrival_offsets_chain():
    a = chain_automaton()
    X = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=np.uint8)
    lengths = np.full(4, 2)
    # inner branch state 2 is reached only after a leading 1
    offsets = _walk(a, X, lengths, (2,))[1][0]
    assert offsets.tolist() == [1, 1, -1, -1]
    # the start state is everyone's offset 0
    assert _walk(a, X, lengths, (a.start,))[1][0].tolist() == [0, 0, 0, 0]


def test_max_path_depth():
    assert max_path_depth(one_bit_acceptor()) == 1
    assert max_path_depth(chain_automaton()) == 2


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_depths_match_their_recursive_definitions(n, size, seed):
    circuit = random_circuit(n, size, seed, fan_in=min(3, n))
    automaton = random_automaton(n, min(size, n), seed)

    @functools.cache
    def gates_on_longest_chain(i):
        above = [w.index for w in circuit.gates[i].inputs if w.source == "gate"]
        return 1 + max((gates_on_longest_chain(j) for j in above), default=0)

    @functools.cache
    def bits_on_longest_walk(i):
        state = automaton.states[i]
        if not isinstance(state, BranchState):
            return 0
        return 1 + max(bits_on_longest_walk(state.on0), bits_on_longest_walk(state.on1))

    for i in range(circuit.size):
        assert ThresholdCircuit(circuit.gates, i, n).depth == gates_on_longest_chain(i)
    for i in range(automaton.size):
        assert max_path_depth(Adfsa(automaton.states, i, n)) == bits_on_longest_walk(i)


# ---------------------------------------------------------------------------
# Restructuring
# ---------------------------------------------------------------------------


def test_push_negations_demorgan():
    g = nand_dag()
    out = push_negations_to_leaves(g)
    # NOT(AND(x0,x1)) becomes OR over negated literals
    assert isinstance(out.nodes[out.root], Or)
    for idx, node in enumerate(out.nodes):
        if isinstance(node, Not):
            assert isinstance(out.nodes[node.child], Literal)
    assert exhaustive_agree(g, out, 2)


def test_push_negations_fixed_point_without_nots():
    g = and_dag()
    out = push_negations_to_leaves(g)
    assert all(not isinstance(node, Not) for node in out.nodes)
    assert exhaustive_agree(g, out, 2)


def exhaustive_agree(g, out, n):
    X = all_inputs(n)
    return np.array_equal(
        node_values(g, X)[:, g.root], node_values(out, X)[:, out.root]
    )


def test_restructure_hundred_random_dags():
    for seed in range(100):
        g = random_dag(10, 12 + (seed % 10), seed=seed)
        out = push_negations_to_leaves(g)
        assert out.size <= 2 * g.size
        X = all_inputs(10)
        assert exhaustive_agree(g, out, 10)
        for idx, node in enumerate(out.nodes):
            if isinstance(node, Not):
                assert isinstance(out.nodes[node.child], Literal)


# ---------------------------------------------------------------------------
# Relevance and correlation
# ---------------------------------------------------------------------------


def test_root_always_relevant_and_correlated():
    g = mixed_relevance_dag()
    X = all_inputs(3)
    assert relevance_mask(g, g.root, X).all()


def test_blocked_and_leaf_irrelevant():
    g = and_dag()
    assert relevance_mask(g, 0, [(1, 0), (0, 1)]).tolist() == [False, True]


def assert_relevance_matches_oracle(concept, X):
    """Every node on every row, with and without precomputed node values."""
    vals = node_values(concept, X)
    for node in range(concept.size):
        mask = relevance_mask(concept, node, X)
        assert np.array_equal(relevance_mask(concept, node, X, values=vals), mask)
        for i in range(len(X)):
            assert mask[i] == relevance_by_substitution(concept, node, X[i])


def test_relevance_matches_substitution_oracle():
    X = all_inputs(6)
    for seed in range(10):
        g = random_dag(6, 11, seed=100 + seed)
        assert_relevance_matches_oracle(g, X)
        assert_relevance_matches_oracle(push_negations_to_leaves(g), X)


def mixed_wire_circuit(seed: int, n: int = 5, size: int = 7) -> ThresholdCircuit:
    """Every gate reads raw bits, and every gate above the first also reads
    earlier gates, so a clamp's re-evaluated gates read raw bits too."""
    rng = np.random.default_rng(seed)
    gates = []
    for i in range(size):
        bits = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        wires = [Wire("bit", int(b)) for b in bits]
        if i:
            below = rng.choice(i, size=min(i, int(rng.integers(1, 3))), replace=False)
            wires += [Wire("gate", int(g)) for g in below]
        gates.append(Gate(int(rng.integers(1, len(wires) + 1)), tuple(wires)))
    return ThresholdCircuit(gates=tuple(gates), root=size - 1, n=n)


def test_circuit_relevance_matches_oracle():
    assert_relevance_matches_oracle(layered_circuit(), all_inputs(4))
    X = all_inputs(5)
    for seed in range(10):
        assert_relevance_matches_oracle(mixed_wire_circuit(seed), X)


# Clamps no path leads up to from the root, each as (concept, node)
UNREACHED_CLAMPS = [
    # node 2 sits below the root but no path leads from the root to it
    (ConceptDag(nodes=(Literal(0), Literal(1), Not(0), And(0, 1)), root=3, n=2), 2),
    # node 3 sits above the root
    (ConceptDag(nodes=(Literal(0), Literal(1), And(0, 1), Or(0, 1)), root=2, n=2), 3),
    (
        ThresholdCircuit(
            gates=(
                Gate(2, (Wire("bit", 0), Wire("bit", 1))),
                Gate(1, (Wire("bit", 2),)),
                Gate(1, (Wire("gate", 0), Wire("bit", 2))),
            ),
            root=2,
            n=3,
        ),
        1,
    ),
    (
        ThresholdCircuit(
            gates=(Gate(1, (Wire("bit", 0),)), Gate(1, (Wire("gate", 0), Wire("bit", 1)))),
            root=0,
            n=2,
        ),
        1,
    ),
]


def test_relevance_clamps_both_ways_in_one_pass(monkeypatch):
    """A clamp the root reaches takes one _fill_rows pass over exactly the
    nodes above it, both clamps as planes, and reads every unchanged row as a
    view of the node values, which may be read-only; a clamp the root never
    reaches takes no pass. Without node values, one (size, m) pass evaluates
    the concept first."""
    fill_rows, calls = impact.concepts._fill_rows, []

    def spy(concept, X, rows, indices):
        calls.append((dict(rows) if isinstance(rows, dict) else rows.shape, list(indices)))
        fill_rows(concept, X, rows, indices)

    monkeypatch.setattr(impact.concepts, "_fill_rows", spy)
    concepts = (mixed_relevance_dag(), layered_circuit(), mixed_wire_circuit(0))
    cases = [(c, node) for c in concepts for node in range(c.size)] + UNREACHED_CLAMPS
    for concept, node in cases:
        X = all_inputs(concept.n)
        vals = node_values(concept, X)
        vals.flags.writeable = False
        reached = node in reachable_indices(concept)
        calls.clear()
        mask = relevance_mask(concept, node, X, values=vals)
        assert len(calls) == reached
        if reached:
            [(rows, indices)] = calls
            assert indices == [
                i for i in range(node + 1, concept.root + 1) if node in reachable_indices(concept, i)
            ]
            assert rows[node].tolist() == [[0] * len(X), [1] * len(X)]
            read = {k for i in indices for k in concept.children[i]} - set(indices) - {node}
            assert rows.keys() - {node} == read
            for k in read:
                assert np.shares_memory(rows[k], vals)
                assert np.array_equal(rows[k], vals[:, k])
        calls.clear()
        assert np.array_equal(relevance_mask(concept, node, X), mask)
        assert calls[0] == ((concept.size, len(X)), list(range(concept.size)))
        assert len(calls) == 1 + reached


def test_a_mask_near_the_root_allocates_for_its_cone_not_the_concept():
    """One mask next to the root of a large DAG peaks below one node-values
    array, size * m bytes: its memory follows the clamp's cone."""
    g = push_negations_to_leaves(build_parity(128, range(128)))
    X = np.random.default_rng(0).integers(0, 2, size=(2000, 128), dtype=np.uint8)
    vals = node_values(g, X)
    node = g.children[g.root][0]
    tracemalloc.start()
    try:
        mask = relevance_mask(g, node, X, values=vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.shape == (len(X),)
    assert peak < g.size * len(X)


@pytest.mark.parametrize(
    "concept, node",
    UNREACHED_CLAMPS,
    ids=["dag-off-path", "dag-above-root", "circuit-off-path", "circuit-above-root"],
)
def test_a_clamp_that_never_reaches_the_root_is_never_relevant(concept, node):
    """The mask is then all False, with no node evaluated."""
    X = all_inputs(concept.n)
    assert not relevance_mask(concept, node, X).any()
    assert not relevance_mask(concept, node, X, values=node_values(concept, X)).any()
    assert not any(relevance_by_substitution(concept, node, bits) for bits in X)


def test_relevance_rejects_mismatched_node_values():
    g = mixed_relevance_dag()
    X = all_inputs(3)
    with pytest.raises(InputShapeError):
        relevance_mask(g, 0, X, values=node_values(g, X[:4]))


def test_relevance_with_node_values_scans_no_bits(monkeypatch):
    """Given node values, relevance_mask checks the inputs' shape only: the
    values were computed from checked bits, so no bit is scanned again."""
    cases = [(mixed_relevance_dag(), all_inputs(3)), (layered_circuit(), all_inputs(4))]
    expected = [
        [relevance_mask(c, node, X) for node in range(c.size)] for c, X in cases
    ]
    values = [node_values(c, X) for c, X in cases]
    scans = []
    monkeypatch.setattr(impact.concepts, "_bit_array", lambda bits: scans.append(bits))
    for (c, X), vals, masks in zip(cases, values, expected):
        for node in range(c.size):
            assert np.array_equal(relevance_mask(c, node, X, values=vals), masks[node])
    assert scans == []


@pytest.mark.parametrize("node", [-1, 7])
def test_relevance_rejects_a_node_out_of_range(node):
    g = mixed_relevance_dag()
    assert g.size == 7
    with pytest.raises(InvalidConceptError, match="out of range"):
        relevance_mask(g, node, all_inputs(3))


@pytest.mark.parametrize(
    "bits", [[0.5, 1, 1], [1.9, 0, 0], [-1, 0, 1], np.array([0, 2, 1], dtype=np.uint8)]
)
def test_values_other_than_bits_are_rejected(bits):
    """Inputs are checked, not cast: 0.5 would read as 0, 1.9 as 1, and -1
    would overflow the cast."""
    g = mixed_relevance_dag()
    for given_bits in (bits, np.asarray(bits)):
        with pytest.raises(InputShapeError):
            evaluate_batch(g, given_bits)
        with pytest.raises(InputShapeError):
            node_values(g, [given_bits])
        with pytest.raises(InputShapeError):
            adfsa_labels(one_bit_acceptor(3), [given_bits], [3])


def test_taught_nodes_relevant_implies_correlated():
    for seed in range(20):
        g = push_negations_to_leaves(random_dag(8, 14, seed=200 + seed))
        X = all_inputs(8)
        vals = node_values(g, X)
        root = vals[:, g.root]
        for node in postfix_order(g):
            rel = relevance_mask(g, node, X)
            assert not np.any(rel & (vals[:, node] != root))


def test_shared_literal_breaks_the_rule_outside_taught_nodes():
    g = mixed_relevance_dag()
    # x0 relevant and correlated on (1,1,0), relevant and anticorrelated on (0,0,1)
    X = [(1, 1, 0), (0, 0, 1)]
    assert relevance_mask(g, 0, X).tolist() == [True, True]
    vals = node_values(g, X)
    assert (vals[:, 0] == vals[:, g.root]).tolist() == [True, False]


def test_irrelevant_examples_mix_correlations():
    found_mixed = False
    for seed in range(30):
        g = push_negations_to_leaves(random_dag(6, 12, seed=300 + seed))
        X = all_inputs(6)
        vals = node_values(g, X)
        root = vals[:, g.root]
        for node in postfix_order(g):
            irrelevant = ~relevance_mask(g, node, X)
            same = vals[irrelevant, node] == root[irrelevant]
            if same.any() and (~same).any():
                found_mixed = True
                break
        if found_mixed:
            break
    assert found_mixed


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "concept",
    [and_dag(), nand_dag(), mixed_relevance_dag(), vote_circuit(), layered_circuit(),
     one_bit_acceptor(), chain_automaton(), build_parity(10, (1, 6, 8, 9))],
    ids=["and", "nand", "mixed", "vote", "layered", "one-bit", "chain", "parity"],
)
def test_json_round_trip(concept, tmp_path):
    path = tmp_path / "concept.json"
    save_concept(concept, path)
    loaded = load_concept(path)
    assert concept_to_dict(loaded) == concept_to_dict(concept)


def test_round_trip_preserves_semantics(tmp_path):
    g = build_parity(6, (0, 2, 4))
    path = tmp_path / "parity.json"
    save_concept(g, path)
    loaded = load_concept(path)
    X = all_inputs(6)
    assert np.array_equal(evaluate_batch(g, X), evaluate_batch(loaded, X))


@pytest.mark.parametrize(
    "raw",
    [
        {"type": "mystery", "n": 2},
        {"type": "dag", "n": 2, "nodes": [{"op": "lit"}], "root": 0},
        {"type": "dag", "n": 2, "nodes": [{"op": "lit", "bit": 0}], "root": 5},
        {"type": "threshold", "n": 2, "gates": [], "root": 0},
        {"type": "adfsa", "n": 1, "states": [{"kind": "accept"}], "start": 0},
        "not even a dict",
    ],
)
def test_malformed_json_rejected(raw):
    with pytest.raises(InvalidConceptError):
        concept_from_dict(raw)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b'{"type": "dag", "n": ' + b"9" * 5000 + b', "nodes": [], "root": 0}'],
    ids=["not-utf8", "integer-too-long"],
)
def test_unreadable_concept_file_rejected(content, tmp_path):
    path = tmp_path / "concept.json"
    path.write_bytes(content)
    with pytest.raises(InvalidConceptError):
        load_concept(path)


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_property_random_dag_round_trip(n, data):
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    g = random_dag(n, n + 4, seed=seed)
    assert concept_to_dict(concept_from_dict(concept_to_dict(g))) == concept_to_dict(g)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_property_restructure_preserves_root_function(seed):
    g = random_dag(5, 9, seed=seed)
    out = push_negations_to_leaves(g)
    X = all_inputs(5)
    assert exhaustive_agree(g, out, 5)
    assert out.size <= 2 * g.size


README = Path(__file__).resolve().parent.parent / "README.md"
RECORDED = Path(__file__).resolve().parent / "data"


def readme_concept_examples() -> list[dict]:
    section = README.read_text().split("## Concept files", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_readme_concept_examples_round_trip():
    examples = readme_concept_examples()
    assert [example["type"] for example in examples] == ["dag", "threshold", "adfsa"]
    for example in examples:
        assert concept_to_dict(concept_from_dict(example)) == example


@pytest.mark.parametrize(
    "name, concept",
    [
        ("mixed_relevance_dag", mixed_relevance_dag()),
        ("layered_circuit", layered_circuit()),
        ("chain_automaton", chain_automaton()),
    ],
)
def test_saved_concept_text_matches_the_recorded_file(name, concept, tmp_path):
    path = tmp_path / "concept.json"
    save_concept(concept, path)
    assert path.read_bytes() == (RECORDED / f"{name}.json").read_bytes()
