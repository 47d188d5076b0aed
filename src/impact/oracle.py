"""Slow reference implementations used to cross-check the fast paths.

Everything here re-derives results from first principles with its own
traversal code. Nothing in this module calls the vectorized evaluators,
so a bug would have to appear twice, independently, to slip through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .concepts import (
    AcceptState,
    Adfsa,
    And,
    BranchState,
    Concept,
    ConceptDag,
    Literal,
    Not,
    Or,
    RejectState,
    ThresholdCircuit,
)
from .errors import EnumerationCapError, ImpactError, InvalidParameterError, UndefinedMetricError
from .learner import (
    AND,
    OR,
    AdfsaNodeHypothesis,
    AttributeSpace,
    PairHypothesis,
    PerceptronHypothesis,
)
from .sampling import Distribution, Sample, rng_from

ENUMERATION_CAP = 20


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")


def all_inputs(n: int) -> np.ndarray:
    """All 2**n inputs of n bits, a (2**n, n) uint8 matrix whose row i holds
    i's bits, least significant first. n above ENUMERATION_CAP raises."""
    _check_cap(n)
    rows = np.arange(1 << n, dtype=np.uint32)
    return ((rows[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def _eval(
    concept: ConceptDag | ThresholdCircuit, bits, target: int, pins: dict[int, int] | None = None
) -> int:
    """Node (or gate) `target`'s value on one input, by one explicit stack
    walk. The memo starts from `pins`, so a pinned node is never evaluated.
    A node stays on the stack until its inputs have values; formula nodes
    and circuit gates differ only in the body that then computes its own."""
    items = concept.nodes if isinstance(concept, ConceptDag) else concept.gates
    memo = {} if pins is None else dict(pins)
    stack = [target]
    while stack:
        i = stack[-1]
        if i in memo:
            stack.pop()
            continue
        item = items[i]
        kind = type(item)
        if kind is And or kind is Or:
            a, b = memo.get(item.left), memo.get(item.right)
            if a is None or b is None:
                stack += (item.left, item.right)
                continue
            value = a & b if kind is And else a | b
        elif kind is Not:
            a = memo.get(item.child)
            if a is None:
                stack.append(item.child)
                continue
            value = 1 - a
        elif kind is Literal:
            value = int(bits[item.bit])
        else:
            pending = [w.index for w in item.inputs if w.source == "gate" and w.index not in memo]
            if pending:
                stack.extend(pending)
                continue
            total = 0
            for w in item.inputs:
                total += int(bits[w.index]) if w.source == "bit" else memo[w.index]
            value = 1 if total >= item.threshold else 0
        memo[i] = value
        stack.pop()
    return memo[target]


def run_automaton(a: Adfsa, bits) -> int:
    """Walk the automaton over a bit sequence. Returns 1 / 0, or -1 when the
    input runs out mid-walk (the automaton's answer is undefined there)."""
    state = a.states[a.start]
    pos = 0
    while True:
        if isinstance(state, AcceptState):
            return 1
        if isinstance(state, RejectState):
            return 0
        if pos >= len(bits):
            return -1
        step = state.on1 if int(bits[pos]) == 1 else state.on0
        pos += 1
        state = a.states[step]


def reference_evaluate(concept: Concept, bits) -> int:
    """One input, one output, no vectorization."""
    if not isinstance(concept, Adfsa):
        return _eval(concept, bits, concept.root)
    out = run_automaton(concept, bits)
    if out < 0:
        raise UndefinedMetricError("input exhausted before the walk finished")
    return out


def reference_node_value(concept: ConceptDag | ThresholdCircuit, node: int, bits) -> int:
    return _eval(concept, bits, node)


def relevance_by_substitution(concept: ConceptDag | ThresholdCircuit, node: int, bits) -> bool:
    """A node matters on an input exactly when pinning it to 0 versus 1
    changes the root."""
    low, high = (_eval(concept, bits, concept.root, {node: pin}) for pin in (0, 1))
    return low != high


# ---------------------------------------------------------------------------
# Pair-learner reference
# ---------------------------------------------------------------------------


def reference_pair_candidates(attribute_count: int) -> list[PairHypothesis]:
    """Every canonical pair hypothesis in canonical order: and before or,
    then left attribute, right attribute, un-negated before negated. A
    repeated attribute keeps its negation flags non-decreasing."""
    out = []
    for op in (AND, OR):
        for left in range(attribute_count):
            for right in range(left, attribute_count):
                for ln in (False, True):
                    for rn in (False, True):
                        if left == right and ln and not rn:
                            continue
                        out.append(PairHypothesis(op, left, ln, right, rn))
    return out


def reference_pair_errors(V, y) -> list[int]:
    """Disagreement count of each reference_pair_candidates entry on the
    attribute matrix V (A, m) against labels y, one row at a time."""
    rows = [[int(v) for v in row] for row in np.asarray(V)]
    labels = [int(v) for v in y]
    errors = []
    for h in reference_pair_candidates(len(rows)):
        wrong = 0
        for i, label in enumerate(labels):
            a = rows[h.left_attr][i] ^ h.left_negated
            b = rows[h.right_attr][i] ^ h.right_negated
            out = (a & b) if h.op == AND else (a | b)
            wrong += out != label
        errors.append(wrong)
    return errors


# ---------------------------------------------------------------------------
# Perceptron reference
# ---------------------------------------------------------------------------


def reference_perceptron(V, y, max_epochs: int) -> PerceptronHypothesis:
    """Pocket perceptron over attribute rows V (A, m) and labels y that
    rescans every remaining row for the next mistake after each update.

    Weights start at zero and each mistake adds or subtracts its row and
    one unit of threshold; the best end-of-epoch weights by training
    accuracy are kept, and a mistake-free epoch stops early. An empty
    sample makes no mistake, so it keeps the starting point.
    """
    X = V.T.astype(np.float64)
    y = y.astype(np.int8)
    m, A = X.shape
    w = np.zeros(A, dtype=np.float64)
    theta = 0.0

    def acc(wv, tv):
        # rows labelled correctly, which orders weights as accuracy does
        return int(np.count_nonzero((X @ wv >= tv) == (y == 1)))

    pocket_w, pocket_theta, pocket_acc = w.copy(), theta, acc(w, theta)
    for _ in range(max_epochs):
        i = 0
        mistakes = 0
        while i < m:
            scores = X[i:] @ w
            wrong = (scores >= theta) != (y[i:] == 1)
            hits = np.flatnonzero(wrong)
            if hits.size == 0:
                break
            j = i + int(hits[0])
            if y[j] == 1:
                w += X[j]
                theta -= 1.0
            else:
                w -= X[j]
                theta += 1.0
            mistakes += 1
            i = j + 1
        epoch_acc = acc(w, theta)
        if epoch_acc > pocket_acc:
            pocket_w, pocket_theta, pocket_acc = w.copy(), theta, epoch_acc
        if mistakes == 0:
            break
    return PerceptronHypothesis(weights=pocket_w, threshold=pocket_theta)


# ---------------------------------------------------------------------------
# Automaton-step references
# ---------------------------------------------------------------------------


def reference_eval_table(z: AttributeSpace, bits, lengths) -> np.ndarray:
    """AttributeSpace.eval_table one attribute and one offset at a time: a
    step's output at offset o picks its on1 or on0 output at o + 1 by the
    bit at o, and is -1 where the string ends at or before o. Attributes 0
    and 1 accept and reject; round r's step is attribute 2 + 2r and its
    complement, 1 - t where defined, is attribute 3 + 2r."""
    X = np.asarray(bits, dtype=np.uint8)
    m, width = X.shape
    table = np.empty((2 + 2 * len(z.hypotheses), width + 1, m), dtype=np.int8)
    table[0] = 1
    table[1] = 0
    for r, h in enumerate(z.hypotheses):
        j = 2 + 2 * r
        table[j] = -1
        for o in range(width - 1, -1, -1):
            picked = np.where(X[:, o] == 1, table[h.on1, o + 1], table[h.on0, o + 1])
            table[j, o] = np.where(o < lengths, picked, -1)
        table[j + 1] = np.where(table[j] >= 0, 1 - table[j], -1)
    return table


def reference_adfsa_node(table: np.ndarray, s: Sample) -> AdfsaNodeHypothesis:
    """The step learn_adfsa_node picks, by scoring every (offset, on0, on1)
    candidate string by string over an eval_table cube of s: the first
    candidate, in that order, that agrees with the most labels."""
    best, best_score = None, -1
    A, width = table.shape[0], s.bits.shape[1]
    for o, on0, on1 in itertools.product(range(width), range(A), range(A)):
        score = 0
        for i in range(len(s)):
            if o < s.lengths[i]:
                child = on1 if s.bits[i, o] == 1 else on0
                score += int(table[child, o + 1, i] == s.labels[i])
        if score > best_score:
            best, best_score = AdfsaNodeHypothesis(offset=o, on0=on0, on1=on1), score
    return best


def reference_offset_selection(a: Adfsa, s: Sample, state: int) -> tuple[np.ndarray, int]:
    """The rows and offset Teacher.mask selects for the automaton round of
    branch state `state`, reachable from the start, string by string.

    A string whose own walk from the start sits on the state at offset t
    counts at offset t only. At each offset o a string counts when the walk
    of a copy of the automaton that starts at the state, reading the string
    from o on, reaches a terminal: in the agreeing bucket when that terminal
    matches its label, else in the disagreeing one. The first largest bucket
    in (offset, agreeing before disagreeing) order wins.
    """
    from_state = replace(a, start=state)
    strings = [s.bits[i, : s.lengths[i]] for i in range(len(s))]
    arrivals = []
    for bits in strings:
        cur, pos = a.start, 0
        while cur != state and isinstance(a.states[cur], BranchState) and pos < len(bits):
            step = a.states[cur]
            cur = step.on1 if int(bits[pos]) == 1 else step.on0
            pos += 1
        arrivals.append(pos if cur == state else -1)
    best, best_offset, best_size = np.zeros(len(s), dtype=bool), 0, -1
    for o in range(a.n):
        agree = np.zeros(len(s), dtype=bool)
        disagree = np.zeros(len(s), dtype=bool)
        for i, bits in enumerate(strings):
            if arrivals[i] in (-1, o):
                out = run_automaton(from_state, bits[o:])
                if out >= 0:
                    (agree if out == s.labels[i] else disagree)[i] = True
        for bucket in (agree, disagree):
            if bucket.sum() > best_size:
                best, best_offset, best_size = bucket, o, int(bucket.sum())
    return best, best_offset


# ---------------------------------------------------------------------------
# Exhaustive comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisagreementReport:
    checked: int
    disagreements: int
    witnesses: tuple[tuple[tuple[int, ...], int, int], ...]

    @property
    def fraction(self) -> float:
        return self.disagreements / self.checked if self.checked else 0.0


def _apply_bits(f, bits) -> int:
    if isinstance(f, (ConceptDag, ThresholdCircuit)):
        return _eval(f, bits, f.root)
    if isinstance(f, Adfsa):
        return run_automaton(f, bits)
    return int(f(bits))


def _check_width(n: int, *predictors) -> None:
    """Each concept among the predictors must read the n bits compared on;
    a callable or classifier is taken as it is."""
    for h in predictors:
        if isinstance(h, (ConceptDag, ThresholdCircuit, Adfsa)) and h.n != n:
            raise InvalidParameterError(f"a concept of n={h.n} cannot be compared on n={n} bits")


def _compare(
    f, g, inputs, ignore_undefined: bool, witness_limit: int
) -> DisagreementReport | None:
    """Compare two predictors on every input of an iterable. Returns None
    when they agree on all of them. With ignore_undefined only inputs
    defined for both sides (output >= 0) count. Witnesses are re-evaluated
    before being recorded, so a report never lies about its examples."""
    checked = disagreements = 0
    witnesses = []
    for bits in inputs:
        a = _apply_bits(f, bits)
        b = _apply_bits(g, bits)
        if ignore_undefined and (a < 0 or b < 0):
            continue
        checked += 1
        if a != b:
            disagreements += 1
            if len(witnesses) < witness_limit:
                if (_apply_bits(f, bits), _apply_bits(g, bits)) != (a, b):
                    raise ImpactError(f"a predictor answered differently on repeated input {bits}")
                witnesses.append((bits, a, b))
    if disagreements == 0:
        return None
    return DisagreementReport(checked, disagreements, tuple(witnesses))


def exhaustive_equivalence(f, g, n: int, *, witness_limit: int = 5) -> DisagreementReport | None:
    """Compare two fixed-width predictors on every one of the 2**n inputs.
    Returns None when they agree everywhere."""
    _check_cap(n)
    _check_width(n, f, g)
    return _compare(f, g, itertools.product((0, 1), repeat=n), False, witness_limit)


def exhaustive_string_equivalence(
    f: Adfsa,
    g: Adfsa,
    *,
    max_len: int | None = None,
    ignore_undefined: bool = False,
    witness_limit: int = 5,
) -> DisagreementReport | None:
    """Compare two automata on every bit string up to max_len. Outcomes are
    three-valued (accept / reject / undefined); with ignore_undefined only
    strings defined for both sides count."""
    if max_len is None:
        max_len = max(f.n, g.n)
    _check_cap(max_len)
    strings = itertools.chain.from_iterable(
        itertools.product((0, 1), repeat=length) for length in range(max_len + 1)
    )
    return _compare(f, g, strings, ignore_undefined, witness_limit)


# ---------------------------------------------------------------------------
# Sampled comparison
# ---------------------------------------------------------------------------


def sampled_disagreement(f, g, d: Distribution, m: int) -> float:
    """Fraction of freshly drawn inputs on which two predictors differ.
    Draws its own inputs rather than trusting the library sampler."""
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    _check_width(d.n, f, g)
    rng = rng_from(d.seed, "oracle-disagreement", 0)
    n = d.n
    if d.kind == "strings":
        lengths = rng.integers(d.length_low, n + 1, size=m)
        bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        for i in range(m):
            bits[i, lengths[i] :] = 0
    else:
        lengths = np.full(m, n, dtype=np.int64)
        if d.kind == "product":
            p = np.asarray(d.probabilities, dtype=np.float64)
            bits = (rng.random((m, n)) < p).astype(np.uint8)
        else:
            bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)

    def outputs(h) -> np.ndarray:
        if isinstance(h, (ConceptDag, ThresholdCircuit, Adfsa)) or callable(h):
            out = np.empty(m, dtype=np.int8)
            for i in range(m):
                row = bits[i, : lengths[i]] if d.kind == "strings" else bits[i]
                out[i] = _apply_bits(h, row)
            return out
        s = Sample(
            bits=bits.copy(),
            labels=np.zeros(m, dtype=np.uint8),
            lengths=lengths.copy(),
        )
        return np.asarray(h.predict_sample(s), dtype=np.int8)

    fa = outputs(f)
    fb = outputs(g)
    defined = (fa >= 0) & (fb >= 0)
    if not defined.any():
        raise UndefinedMetricError("no input was defined for both predictors")
    return float(np.mean(fa[defined] != fb[defined]))
