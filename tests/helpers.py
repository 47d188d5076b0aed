"""Hand-built concepts and small utilities shared across test modules."""

from __future__ import annotations

import numpy as np

from impact import (
    AcceptState,
    Adfsa,
    And,
    AttributeSpace,
    BranchState,
    ConceptDag,
    Gate,
    Literal,
    Not,
    Or,
    RejectState,
    Sample,
    ThresholdCircuit,
    Wire,
    push_negations_to_leaves,
)
from impact.baselines import (
    BoostedStumpsClassifier,
    GreedyTreeClassifier,
    Stump,
    TreeLeaf,
    TreeSplit,
)
from impact.concepts import packed_words
from impact.learner import AND
from impact.oracle import (
    all_inputs,  # noqa: F401 (the tests import it from here)
    reference_adfsa_node,
    reference_eval_table,
    reference_evaluate,
    reference_offset_selection,
    reference_pair_candidates,
    reference_pair_errors,
    reference_perceptron,
    relevance_by_substitution,
)
from impact.plan import postfix_order
from impact.sampling import draw_inputs
from impact.session import TEST_STREAM, TRAIN_STREAM


def and_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), And(left=0, right=1)), root=2, n=n
    )


def or_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), Or(left=0, right=1)), root=2, n=n
    )


def nand_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), And(left=0, right=1), Not(child=2)),
        root=3,
        n=n,
    )


def mixed_relevance_dag() -> ConceptDag:
    # OR(AND(x0,x1), AND(NOT(x0),x2)): the shared literal x0 has relevant
    # examples of both correlations
    return ConceptDag(
        nodes=(
            Literal(bit=0),
            Literal(bit=1),
            Literal(bit=2),
            Not(child=0),
            And(left=0, right=1),
            And(left=3, right=2),
            Or(left=4, right=5),
        ),
        root=6,
        n=3,
    )


def vote_circuit() -> ThresholdCircuit:
    # 2-of-3 over the bits
    gate = Gate(
        threshold=2,
        inputs=(
            Wire(source="bit", index=0),
            Wire(source="bit", index=1),
            Wire(source="bit", index=2),
        ),
    )
    return ThresholdCircuit(gates=(gate,), root=0, n=3)


def layered_circuit() -> ThresholdCircuit:
    # AND(x0,x1) and OR(x2,x3) feeding a 2-of-2 root
    g0 = Gate(threshold=2, inputs=(Wire("bit", 0), Wire("bit", 1)))
    g1 = Gate(threshold=1, inputs=(Wire("bit", 2), Wire("bit", 3)))
    root = Gate(threshold=2, inputs=(Wire("gate", 0), Wire("gate", 1)))
    return ThresholdCircuit(gates=(g0, g1, root), root=2, n=4)


def one_bit_acceptor(n: int = 1) -> Adfsa:
    # first bit 1 -> accept, 0 -> reject
    return Adfsa(
        states=(RejectState(), AcceptState(), BranchState(on0=0, on1=1)), start=2, n=n
    )


def chain_automaton() -> Adfsa:
    # start reads bit 0: on 1 go to a second branch reading the next bit,
    # on 0 reject immediately
    return Adfsa(
        states=(
            RejectState(),
            AcceptState(),
            BranchState(on0=0, on1=1),
            BranchState(on0=0, on1=2),
        ),
        start=3,
        n=2,
    )


def random_strings(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """m bit strings with lengths drawn from 1 to n, zero padded to n bits."""
    lengths = rng.integers(1, n + 1, size=m)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
    bits[np.arange(n)[None, :] >= lengths[:, None]] = 0
    return bits, lengths


def make_sample(bits, labels, lengths=None) -> Sample:
    bits = np.asarray(bits, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if lengths is None:
        lengths = np.full(bits.shape[0], bits.shape[1], dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
    return Sample(bits=bits, labels=labels, lengths=lengths)


def agreement_bits(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """learn_adfsa_node's `agree` for any string-mode value rows (..., n+1, M),
    such as an eval_table cube: packed_words of rows == y, so a -1 cell never
    agrees with a label and the padding bits past M are zero."""
    # y in the rows' int8: uint8 labels would widen the comparison to int16
    return packed_words(rows == y.astype(rows.dtype))


# ---------------------------------------------------------------------------
# Slow references for the baselines
# ---------------------------------------------------------------------------


def _reference_entropy(labels: np.ndarray) -> float:
    m = len(labels)
    if m == 0:
        return 0.0
    p = labels.sum() / m
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _reference_grow(bits: np.ndarray, labels: np.ndarray, used: frozenset):
    majority = 1 if 2 * int(labels.sum()) > len(labels) else 0
    if len(used) == bits.shape[1] or labels.min() == labels.max():
        return TreeLeaf(majority)
    base = _reference_entropy(labels)
    best_bit, best_gain = -1, -1.0
    m = len(labels)
    for bit in range(bits.shape[1]):
        if bit in used:
            continue
        high = bits[:, bit] == 1
        h = int(high.sum())
        gain = base - (
            h / m * _reference_entropy(labels[high])
            + (m - h) / m * _reference_entropy(labels[~high])
        )
        if gain > best_gain + 1e-12:
            best_gain, best_bit = gain, bit
    high = bits[:, best_bit] == 1

    def side(rows):
        if not rows.any():
            return TreeLeaf(majority)
        return _reference_grow(bits[rows], labels[rows], used | {best_bit})

    return TreeSplit(bit=best_bit, low=side(~high), high=side(high))


def reference_tree(s: Sample) -> GreedyTreeClassifier:
    """fit_tree, one node at a time: a recursive split that scores each
    unused bit with its own two boolean gathers and scalar entropies."""
    return GreedyTreeClassifier(root=_reference_grow(s.bits, s.labels.astype(np.int8), frozenset()))


def reference_stumps(s: Sample) -> BoostedStumpsClassifier:
    """fit_stumps with every round's agreement matrix rebuilt and its errors
    read one numpy scalar at a time."""
    m, n = s.bits.shape
    y = s.labels.astype(np.float64) * 2.0 - 1.0
    w = np.full(m, 1.0 / m)
    stumps, alphas = [], []
    signed_bits = s.bits.astype(np.float64) * 2.0 - 1.0
    for _ in range(50):
        agree_pos = (signed_bits * y[:, None] > 0).astype(np.float64)
        err_pos, err_neg = w @ (1.0 - agree_pos), w @ agree_pos
        best = None
        for bit in range(n):
            for polarity, err in ((1, err_pos[bit]), (-1, err_neg[bit])):
                if best is None or err < best[0] - 1e-12:
                    best = (err, bit, polarity)
        err, bit, polarity = best
        if err >= 0.5 - 1e-9:
            break
        err = min(max(err, 1e-10), 1 - 1e-10)
        alpha = 0.5 * np.log((1 - err) / err)
        stump = Stump(bit=bit, polarity=polarity)
        margin = stump.signed(s.bits) * y
        w = w * np.exp(-alpha * margin)
        w /= w.sum()
        stumps.append(stump)
        alphas.append(float(alpha))
        if err <= 1e-10:
            break
    fallback = 1 if 2 * int(s.labels.sum()) > m else 0
    return BoostedStumpsClassifier(stumps=tuple(stumps), alphas=tuple(alphas), fallback=fallback)


# ---------------------------------------------------------------------------
# Slow reference sessions
# ---------------------------------------------------------------------------


def _pair_value(h, rows: list[list[int]], i: int) -> int:
    a = rows[h.left_attr][i] ^ h.left_negated
    b = rows[h.right_attr][i] ^ h.right_negated
    return (a & b) if h.op == AND else (a | b)


def reference_session(concept: ConceptDag, d, m: int, mode: str, test_size: int = 200):
    """A formula session rebuilt from oracle.py's references, one example at
    a time. It draws the session's training and test inputs from their named
    streams and labels them with reference_evaluate. It teaches the nodes of
    postfix_order on the pushed-down DAG, and keeps a round's rows by
    relevance_by_substitution. It learns over the full attribute layout, the
    n bits and then each round's pair and its complement, and picks the first
    minimum of reference_pair_errors over reference_pair_candidates.

    Returns the rounds as (node, subset size, offset, training error,
    dont_know, pair), with no offset, and the final classifier's votes on
    the test inputs with its test accuracy. In reliable mode the votes are
    those of the last round's zero-error pairs: a label where they all
    agree, else -1.
    """
    taught = push_negations_to_leaves(concept)
    X = draw_inputs(d, m, stream=TRAIN_STREAM)[0]
    labels = [reference_evaluate(concept, x) for x in X]
    T = draw_inputs(d, test_size, stream=TEST_STREAM)[0]
    # the attribute layout over the training and the test inputs, row by row
    train = [[int(v) for v in row] for row in X.T]
    test = [[int(v) for v in row] for row in T.T]
    rounds = []
    for node in postfix_order(taught):
        kept = [i for i in range(m) if relevance_by_substitution(taught, node, X[i])]
        V = np.array([[row[i] for i in kept] for row in train]).reshape(len(train), len(kept))
        errors = reference_pair_errors(V, [labels[i] for i in kept])
        candidates = reference_pair_candidates(len(train))
        best = min(errors)
        pick = candidates[errors.index(best)]
        # a reliable round abstains when no pair fits its rows, and on no
        # rows, where every pair fits, and so does its negation
        dont_know = mode == "reliable" and (best > 0 or not kept)
        error = best / len(kept) if kept else 0.0
        rounds.append((node, len(kept), None, error, dont_know, pick))
        for rows in (train, test):
            values = [_pair_value(pick, rows, i) for i in range(len(rows[0]))]
            rows += [values, [1 - v for v in values]]
    members = [h for h, e in zip(candidates, errors) if e == 0] if mode == "reliable" else [pick]
    votes = []
    for i in range(test_size):
        outs = {_pair_value(h, test, i) for h in members}
        votes.append(outs.pop() if len(outs) == 1 else -1)
    truth = [reference_evaluate(concept, x) for x in T]
    accuracy = sum(v == t for v, t in zip(votes, truth)) / test_size
    return rounds, votes, accuracy


def _gate_value(h, rows: list[list[int]], i: int) -> int:
    return int(sum(w * rows[j][i] for j, w in enumerate(h.weights.tolist())) >= h.threshold)


def reference_circuit_session(concept: ThresholdCircuit, d, m: int, test_size: int = 200):
    """A threshold-circuit session rebuilt from oracle.py's references, one
    example at a time. It draws from the session's named streams, labels
    with reference_evaluate, teaches the gates of postfix_order, and keeps a
    round's rows by relevance_by_substitution. Each round's gate is
    reference_perceptron's, run for 1000 epochs over the full attribute
    layout: the n bits and then each round's gate and its complement.

    Returns the rounds as (node, subset size, offset, training error,
    dont_know, weights, threshold), with no offset and dont_know False, and
    the last gate's votes on the test inputs with its test accuracy.
    """
    X = draw_inputs(d, m, stream=TRAIN_STREAM)[0]
    labels = [reference_evaluate(concept, x) for x in X]
    T = draw_inputs(d, test_size, stream=TEST_STREAM)[0]
    train = [[int(v) for v in row] for row in X.T]
    test = [[int(v) for v in row] for row in T.T]
    rounds = []
    for node in postfix_order(concept):
        kept = [i for i in range(m) if relevance_by_substitution(concept, node, X[i])]
        V = np.array([[row[i] for i in kept] for row in train]).reshape(len(train), len(kept))
        h = reference_perceptron(V, np.array([labels[i] for i in kept]), 1000)
        wrong = sum(_gate_value(h, train, i) != labels[i] for i in kept)
        error = wrong / len(kept) if kept else 0.0
        rounds.append((node, len(kept), None, error, False, h.weights.tolist(), h.threshold))
        for rows in (train, test):
            values = [_gate_value(h, rows, i) for i in range(len(rows[0]))]
            rows += [values, [1 - v for v in values]]
    votes = [_gate_value(h, test, i) for i in range(test_size)]
    truth = [reference_evaluate(concept, x) for x in T]
    return rounds, votes, sum(v == t for v, t in zip(votes, truth)) / test_size


def reference_automaton_session(a: Adfsa, d, m: int, test_size: int = 200):
    """An automaton session rebuilt from oracle.py's references, string by
    string. It draws from the session's named streams, labels with
    reference_evaluate, and teaches the branch states of postfix_order. A
    round keeps the rows and offset of reference_offset_selection; with no
    rows it has no offset. Its step is reference_adfsa_node's over the
    reference_eval_table of the steps so far, and its training error is
    read off the new step's row at the step's own offset.

    Returns the rounds as (node, subset size, offset, training error,
    dont_know, step), with dont_know False, and the last step's votes on the test strings, read at its offset, with
    its test accuracy.
    """
    X, lengths = draw_inputs(d, m, stream=TRAIN_STREAM)
    labels = [reference_evaluate(a, X[i, : lengths[i]]) for i in range(m)]
    s = Sample(bits=X, labels=np.array(labels, dtype=np.uint8), lengths=lengths)
    steps, rounds = [], []

    def table(bits, sizes):
        return reference_eval_table(AttributeSpace("strings", 2, tuple(steps)), bits, sizes)

    for node in postfix_order(a):
        mask, offset = reference_offset_selection(a, s, node)
        kept = [i for i in range(m) if mask[i]]
        alone = Sample(bits=X[kept], labels=s.labels[kept], lengths=lengths[kept])
        steps.append(reference_adfsa_node(table(X, lengths)[:, :, kept], alone))
        row = table(X, lengths)[-2, steps[-1].offset]
        wrong = sum(int(row[i]) != labels[i] for i in kept)
        error = wrong / len(kept) if kept else 0.0
        rounds.append((node, len(kept), offset if kept else None, error, False, steps[-1]))
    T, test_lengths = draw_inputs(d, test_size, stream=TEST_STREAM)
    votes = table(T, test_lengths)[-2, steps[-1].offset].tolist()
    truth = [reference_evaluate(a, T[i, : test_lengths[i]]) for i in range(test_size)]
    return rounds, votes, sum(v == t for v, t in zip(votes, truth)) / test_size
