"""Round learners: pair search, the pocket perceptron, automaton steps, and
the attribute space that grows between rounds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import agreement_bits, all_inputs, make_sample, random_strings
from impact import (
    AdfsaNodeHypothesis,
    AttributeSpace,
    InputShapeError,
    InvalidParameterError,
    PairHypothesis,
    PerceptronHypothesis,
    ReliablePairSet,
    augment,
    learn_adfsa_node,
    learn_pair_node,
    learn_threshold_node,
    pair_space_size,
    sample_budget,
)
import impact.learner
from impact.concepts import string_words
from impact.learner import (
    _and_planes,
    adfsa_candidate_count,
    decode_planes,
    exact_float_dtype,
    fill_step_planes,
    step_planes,
)
from impact.oracle import (
    reference_adfsa_node,
    reference_eval_table,
    reference_pair_candidates,
    reference_pair_errors,
    reference_perceptron,
)
from impact.session import full_layout


def table_sample(n, fn):
    X = all_inputs(n)
    labels = np.array([fn(row) for row in X], dtype=np.uint8)
    return make_sample(X, labels)


def by_label(V, y):
    """The columns of attribute rows V with label 0 and those with label 1,
    the two classes learn_pair_node takes."""
    return V[:, y == 0], V[:, y == 1]


# ---------------------------------------------------------------------------
# Pair candidate space
# ---------------------------------------------------------------------------


def pair_errors(V, y):
    """Every pair hypothesis's count in the learner's layout (op, left_negated,
    right_negated, left, right): its and planes, and the or half derived as m
    minus the and plane with both negation flags flipped."""
    planes = _and_planes(*by_label(V, y))
    return np.stack([planes, V.shape[1] - planes[::-1, ::-1]])


def canonical_entries(errs):
    """Canonical entries of a pair_errors array (left < right, or the same
    attribute twice with non-decreasing negation flags), in canonical order."""
    errs = errs.transpose(0, 3, 4, 1, 2)  # (op, left, right, ln, rn): C order is canonical
    _, left, right, ln, rn = np.indices(errs.shape)
    return errs[(left < right) | ((left == right) & (ln <= rn))]


@pytest.mark.parametrize("A", [1, 2, 3, 5, 8])
def test_candidate_count_matches_formula(A):
    assert len(reference_pair_candidates(A)) == pair_space_size(A)
    V, y = np.zeros((A, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8)
    assert _and_planes(*by_label(V, y)).shape == (2, 2, A, A)
    assert canonical_entries(pair_errors(V, y)).size == pair_space_size(A)


def test_candidates_are_canonical_and_distinct():
    """Left <= right, equal refs keep non-decreasing negation flags, and no
    candidate appears twice."""
    candidates = reference_pair_candidates(4)
    seen = set()
    for h in candidates:
        assert h.left_attr <= h.right_attr
        if h.left_attr == h.right_attr:
            assert h.left_negated <= h.right_negated
        assert h not in seen
        seen.add(h)


def test_identity_pair_represents_a_bare_attribute():
    h = PairHypothesis(op="and", left_attr=2, left_negated=False, right_attr=2, right_negated=False)
    z = AttributeSpace.pure(4)
    V = z.values(all_inputs(4))
    assert np.array_equal(h.evaluate_rows(V), V[2])


def assert_errors_match_direct_evaluation(V, y):
    reference = reference_pair_errors(V, y)
    for h, err in zip(reference_pair_candidates(V.shape[0]), reference):
        assert err == int(np.sum(h.evaluate_rows(V) != y))
    errs = pair_errors(V, y)
    assert canonical_entries(errs).tolist() == reference
    return errs


def test_pair_errors_match_brute_force():
    rng = np.random.default_rng(7)
    V = rng.integers(0, 2, size=(4, 25)).astype(np.uint8)
    y = rng.integers(0, 2, size=25).astype(np.uint8)
    assert_errors_match_direct_evaluation(V, y)


def test_pair_errors_all_positive_labels():
    # degenerate split: no negative rows
    V = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8)
    y = np.ones(3, dtype=np.uint8)
    errs = assert_errors_match_direct_evaluation(V, y)
    assert errs.min() == 0


@st.composite
def tied_attribute_matrices(draw, max_attributes=5, max_rows=12):
    """Small attribute matrices with many ties: duplicated and constant rows,
    a single attribute, and labels that may all be equal."""
    A = draw(st.integers(min_value=1, max_value=max_attributes))
    m = draw(st.integers(min_value=1, max_value=max_rows))
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    rows = []
    for _ in range(A):
        shape = draw(st.sampled_from(["free", "copy", "zeros", "ones"]))
        if shape == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif shape == "zeros":
            rows.append([0] * m)
        elif shape == "ones":
            rows.append([1] * m)
        else:
            rows.append(draw(bits))
    labels = draw(st.one_of(bits, st.just([0] * m), st.just([1] * m)))
    return np.array(rows, dtype=np.uint8), np.array(labels, dtype=np.uint8)


def assert_pair_learner_matches_the_reference(V, y):
    """Best fit is the canonically first minimal candidate. The reliable set
    is every zero-error candidate, in canonical order; it abstains when
    there is none, and its primary is the best fit either way."""
    candidates = reference_pair_candidates(V.shape[0])
    errors = reference_pair_errors(V, y)
    best = candidates[errors.index(min(errors))]
    assert learn_pair_node(*by_label(V, y)) == best
    out = learn_pair_node(*by_label(V, y), mode="reliable")
    assert isinstance(out, ReliablePairSet)
    assert list(out.members) == [h for h, e in zip(candidates, errors) if e == 0]
    assert out.abstains == (min(errors) > 0)
    assert out.primary == best


@given(tied_attribute_matrices())
@settings(max_examples=200, deadline=None)
def test_pair_learner_matches_the_reference(data):
    assert_pair_learner_matches_the_reference(*data)


@given(tied_attribute_matrices(max_attributes=12, max_rows=64))
@settings(max_examples=60, deadline=None)
def test_pair_learner_matches_the_reference_on_wider_spaces(data):
    """The same check on up to 12 attributes and 64 rows, where duplicate
    rows repeat a first hit across planes and both halves."""
    assert_pair_learner_matches_the_reference(*data)


def test_best_fit_prefers_and_when_the_or_half_ties_earlier():
    """The constant 1 is the best fit: or(x0, not x0) at references (0, 0),
    and(x1, x1) at (1, 1). The two minima tie and and comes first."""
    V = np.array([[0, 1, 0, 1, 0], [1, 1, 1, 1, 1]], dtype=np.uint8)
    y = np.array([1, 1, 1, 1, 0], dtype=np.uint8)
    candidates = reference_pair_candidates(2)
    errors = reference_pair_errors(V, y)
    best = [h for h, e in zip(candidates, errors) if e == min(errors)]
    assert (best[0].op, best[0].left_attr) == ("and", 1)
    assert (best[1].op, best[1].left_attr, best[1].right_attr) == ("or", 0, 0)
    assert learn_pair_node(*by_label(V, y)) == PairHypothesis("and", 1, False, 1, False)


@pytest.mark.parametrize(
    "rows, labels, expected",
    [
        # and planes (0, 0) and (1, 1) both first hit at (0, 1)
        ([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]], [0, 1, 0, 1, 0], ("and", 0, False, 1, False)),
        # or planes (0, 1) and (1, 0) both first hit at (0, 0): the constant 1
        ([[0, 1, 0]], [1, 1, 1], ("or", 0, False, 0, True)),
    ],
)
def test_best_fit_breaks_a_shared_first_hit_by_negation_flags(rows, labels, expected):
    V, y = np.array(rows, dtype=np.uint8), np.array(labels, dtype=np.uint8)
    errors = reference_pair_errors(V, y)
    assert learn_pair_node(*by_label(V, y)) == PairHypothesis(*expected)
    best = reference_pair_candidates(len(rows))[errors.index(min(errors))]
    assert learn_pair_node(*by_label(V, y)) == best


def test_exact_float_dtype_switches_at_two_to_the_24():
    assert exact_float_dtype(2**24) is np.float32
    assert exact_float_dtype(2**24 + 1) is np.float64
    assert int(np.float32(2**24)) == 2**24
    assert int(np.float32(2**24 + 1)) != 2**24 + 1


def test_and_planes_stay_exact_at_the_bound_they_pass(monkeypatch):
    """Every intermediate of the and planes lies within the bound the learner
    passes to exact_float_dtype. Modelled at half precision, exact for
    integers up to 2**11, the planes of 2**11 rows are still exact; an
    intermediate that reached 2m would round its odd values."""
    def half_up_to_2_11(bound):
        return np.float16 if bound <= 2**11 else np.float64

    monkeypatch.setattr("impact.learner.exact_float_dtype", half_up_to_2_11)
    rng = np.random.default_rng(11)
    m = 2**11
    for ones_frac, pos_frac in [(0.5, 0.5), (0.9, 0.95), (0.1, 0.05), (1.0, 1.0), (0.0, 0.0)]:
        V = (rng.random((6, m)) < ones_frac).astype(np.uint8)
        y = (rng.random(m) < pos_frac).astype(np.uint8)
        planes = _and_planes(*by_label(V, y))
        assert planes.dtype == np.float16
        for ln, rn in np.ndindex(2, 2):
            direct = ((V[:, None] ^ ln) & (V[None, :] ^ rn)) != y
            assert np.array_equal(planes[ln, rn], direct.sum(axis=2))


# ---------------------------------------------------------------------------
# Best-fit learning
# ---------------------------------------------------------------------------


def test_recovers_conjunction_exactly():
    z = AttributeSpace.pure(4)
    s = table_sample(4, lambda row: row[0] & row[1])
    h = learn_pair_node(*by_label(z.values(s.bits), s.labels))
    assert h == PairHypothesis(
        op="and", left_attr=0, left_negated=False, right_attr=1, right_negated=False
    )
    assert np.mean(h.evaluate_rows(z.values(s.bits)) != s.labels) == 0.0


def test_recovers_negated_disjunction():
    z = AttributeSpace.pure(3)
    s = table_sample(3, lambda row: (1 - row[0]) | row[2])
    h = learn_pair_node(*by_label(z.values(s.bits), s.labels))
    assert np.mean(h.evaluate_rows(z.values(s.bits)) != s.labels) == 0.0
    V = z.values(s.bits)
    assert np.array_equal(h.evaluate_rows(V), s.labels)


def test_parity_defeats_every_pair():
    """No and/or over two literal references fits 4-bit parity: best training
    error on the full table stays at or above 0.25."""
    z = AttributeSpace.pure(4)
    s = table_sample(4, lambda row: int(row.sum()) % 2)
    h = learn_pair_node(*by_label(z.values(s.bits), s.labels))
    assert np.mean(h.evaluate_rows(z.values(s.bits)) != s.labels) >= 0.25


def test_pair_learner_returns_its_first_candidate_on_an_empty_sample():
    """On no rows every pair fits equally well, so best-fit returns the pair
    that minimises the reference counts first, and a reliable set abstains
    with that pair as its primary."""
    for A, n in ((1, 1), (4, 4), (5, 3)):
        V = np.zeros((A, 0), dtype=np.uint8)
        y = np.zeros(0, dtype=np.uint8)
        first = reference_pair_candidates(A)[0]
        assert int(np.argmin(reference_pair_errors(V, y))) == 0
        assert full_layout(learn_pair_node(*by_label(V, y), "best-fit"), n) == first
        h = full_layout(learn_pair_node(*by_label(V, y), "reliable"), n)
        assert h.abstains and h.primary == first


def test_unknown_mode_rejected():
    z = AttributeSpace.pure(2)
    s = table_sample(2, lambda row: row[0])
    with pytest.raises(InvalidParameterError):
        learn_pair_node(*by_label(z.values(s.bits), s.labels), mode="pac")


@pytest.mark.parametrize(
    "F0, F1",
    [
        # three attribute rows on the negatives, four on the positives
        (np.zeros((3, 5), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8)),
        # no attribute rows at all
        (np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 2), dtype=np.uint8)),
        # one class given as a single column vector
        (np.zeros((3, 5), dtype=np.uint8), np.zeros(3, dtype=np.uint8)),
    ],
)
def test_pair_learner_rejects_classes_that_do_not_share_attribute_rows(F0, F1):
    with pytest.raises(InvalidParameterError):
        learn_pair_node(F0, F1)


# ---------------------------------------------------------------------------
# Reliable learning
# ---------------------------------------------------------------------------


def test_reliable_set_members_all_fit_the_sample():
    z = AttributeSpace.pure(3)
    s = table_sample(3, lambda row: row[0] & row[1])
    out = learn_pair_node(*by_label(z.values(s.bits), s.labels), mode="reliable")
    assert isinstance(out, ReliablePairSet)
    V = z.values(s.bits)
    for member in out.members:
        assert np.array_equal(member.evaluate_rows(V), s.labels)
    assert np.array_equal(out.classify_rows(V), s.labels.astype(np.int8))


def test_reliable_abstains_where_members_disagree():
    """Two rows pin down x0 on the diagonal; off-diagonal inputs are still
    ambiguous between x0, x1, and their combinations, so the set votes -1."""
    z = AttributeSpace.pure(2)
    s = make_sample(
        np.array([[0, 0], [1, 1]], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
    )
    out = learn_pair_node(*by_label(z.values(s.bits), s.labels), mode="reliable")
    assert isinstance(out, ReliablePairSet)
    assert len(out.members) > 1
    V = z.values(np.array([[1, 0]], dtype=np.uint8))
    assert out.classify_rows(V)[0] == -1


def test_reliable_abstains_everywhere_on_contradiction():
    """No pair fits contradictory labels: the set has no member, votes -1 on
    every input, and carries the best-fit pair as its attribute."""
    z = AttributeSpace.pure(2)
    s = make_sample(
        np.array([[1, 0], [1, 0]], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
    )
    V = z.values(s.bits)
    out = learn_pair_node(*by_label(V, s.labels), mode="reliable")
    assert out.abstains and out.members == ()
    assert out.primary == learn_pair_node(*by_label(V, s.labels))
    assert out.classify_rows(z.values(all_inputs(2))).tolist() == [-1] * 4
    assert augment(z, out).hypotheses == (out.primary,)


# ---------------------------------------------------------------------------
# Learning on base and hypothesis rows
# ---------------------------------------------------------------------------


def space_case(n, hypotheses, bits, labels):
    z = AttributeSpace.pure(n)
    for h in hypotheses:
        z = augment(z, PairHypothesis(*h))
    return z, z.values(np.array(bits, dtype=np.uint8)), np.array(labels, dtype=np.uint8)


@st.composite
def spaces_with_complements(draw):
    """A space with at least one hypothesis and its complement row, its value
    rows on a random sample, and labels that are random bits, a constant, or
    an attribute's row (possibly negated), so that reliable sets hold
    identity pairs and pairs reading one hypothesis twice."""
    n = draw(st.integers(1, 4))
    hypotheses = []
    for r in range(draw(st.integers(1, 4))):
        refs = st.integers(0, n + 2 * r - 1)
        ops = st.sampled_from(["and", "or"])
        hypotheses.append(draw(st.tuples(ops, refs, st.booleans(), refs, st.booleans())))
    m = draw(st.integers(1, 12))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m))
    z, V, _ = space_case(n, hypotheses, bits, [])
    kind = draw(st.sampled_from(["random", "constant", "attribute"]))
    if kind == "random":
        labels = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    elif kind == "constant":
        labels = [draw(st.integers(0, 1))] * m
    else:
        labels = V[draw(st.integers(0, len(z) - 1))] ^ draw(st.integers(0, 1))
    return z, V, np.array(labels, dtype=np.uint8)


@given(
    case=spaces_with_complements(),
    flips=st.sets(st.integers(0, 11), max_size=2),
    mode=st.sampled_from(["best-fit", "reliable"]),
    seed=st.integers(0, 2**32 - 1),
)
# one hypothesis over x0 and constant labels: the reliable set holds pairs
# reading that hypothesis twice with different flags, whose complement
# variants come only from the reference-swapped twin
@example(
    case=space_case(1, [("and", 0, False, 0, False)], [[0], [1]], [0, 0]),
    flips=set(),
    mode="reliable",
    seed=0,
)
# the same with every label 1: no label-0 column
@example(
    case=space_case(1, [("and", 0, False, 0, False)], [[0], [1], [1]], [1, 1, 1]),
    flips=set(),
    mode="reliable",
    seed=1,
)
# contradictory labels: reliable abstains, and its primary maps back
@example(
    case=space_case(2, [("and", 0, False, 1, False)], [[1, 0], [1, 0]], [0, 1]),
    flips=set(),
    mode="reliable",
    seed=0,
)
# parity of x0 and x1 over their and: only the and row is constant on a
# label, and no pair over it fits every row
@example(
    case=space_case(2, [("and", 0, False, 1, False)], all_inputs(2), [0, 1, 1, 0]),
    flips=set(),
    mode="reliable",
    seed=0,
)
@settings(max_examples=300, deadline=None)
def test_learning_on_hypothesis_rows_maps_back_to_the_full_layout(case, flips, mode, seed):
    """learn_pair_node on the base and hypothesis rows, restated by the
    session's full_layout, picks the full layout's first minimal pair by
    reference_pair_errors. Its reliable set holds every zero-error pair of
    the full layout that reads no complement, and abstains exactly when no
    pair fits every row; each pair left out has a member twin with the same
    values, so the votes are those of learn_pair_node on every row,
    complements included. Flipped labels make rounds with no zero-error
    pair, where the search falls back to every row. Shuffling the columns
    within each class changes no pick, primary or member."""
    z, V, y = case
    y = y.copy()
    y[[i for i in flips if i < len(y)]] ^= 1
    n = z.base_count
    classes = by_label(V[np.r_[0:n, n : len(z) : 2]], y)
    candidates = reference_pair_candidates(len(z))
    errors = reference_pair_errors(V, y)
    best = candidates[errors.index(min(errors))]
    rng = np.random.default_rng(seed)
    shuffled = [F[:, rng.permutation(F.shape[1])] for F in classes]
    for got in (
        full_layout(learn_pair_node(*classes, mode), n),
        full_layout(learn_pair_node(*shuffled, mode), n),
    ):
        if mode == "best-fit":
            assert got == best
            continue
        assert got.primary == best
        assert got.abstains == (min(errors) > 0)
        assert got.members == tuple(
            h
            for h, e in zip(candidates, errors)
            if e == 0 and all(j < n or (j - n) % 2 == 0 for j in (h.left_attr, h.right_attr))
        )
        votes = learn_pair_node(*by_label(V, y), mode).classify_rows(V)
        assert np.array_equal(got.classify_rows(V), votes)


# ---------------------------------------------------------------------------
# Planes over the rows that can join a zero-error pair
# ---------------------------------------------------------------------------


def spy_plane_rows(monkeypatch) -> list[int]:
    """The row count of every _and_planes call from here on."""
    seen = []
    real = impact.learner._and_planes

    def spying(F0, F1):
        seen.append(len(F0))
        return real(F0, F1)

    monkeypatch.setattr(impact.learner, "_and_planes", spying)
    return seen


@pytest.mark.parametrize(
    "V, y, expected",
    [
        # y = x0 and x1: only x0 and x1 are constant on the positives
        (all_inputs(4).T, all_inputs(4)[:, 0] & all_inputs(4)[:, 1], [2]),
        # y = x2 or x3: only x2 and x3 are constant on the negatives
        (all_inputs(4).T, all_inputs(4)[:, 2] | all_inputs(4)[:, 3], [2]),
        # y = x1, beside a row of zeros, which is constant on both sides
        (np.vstack([np.zeros(8, dtype=np.uint8), all_inputs(3).T]), all_inputs(3)[:, 1], [2]),
    ],
)
@pytest.mark.parametrize("mode", ["best-fit", "reliable"])
def test_a_zero_error_round_builds_planes_over_its_candidate_rows_only(
    monkeypatch, V, y, expected, mode
):
    seen = spy_plane_rows(monkeypatch)
    got = learn_pair_node(*by_label(V, y), mode)
    assert seen == expected
    candidates = reference_pair_candidates(V.shape[0])
    errors = reference_pair_errors(V, y)
    best = candidates[errors.index(0)]
    if mode == "best-fit":
        assert got == best
    else:
        assert got.primary == best
        assert list(got.members) == [h for h, e in zip(candidates, errors) if e == 0]


@pytest.mark.parametrize(
    "V, y, expected",
    [
        # parity of three bits: no row is constant on either side
        (all_inputs(3).T, all_inputs(3).sum(axis=1) % 2, [0, 3]),
        # parity of x0 and x1 beside their and and its complement: the two
        # learned rows are constant on the positives, and no pair fits
        (
            space_case(2, [("and", 0, False, 1, False)], all_inputs(2), [])[1],
            np.array([0, 1, 1, 0]),
            [2, 4],
        ),
    ],
)
def test_a_round_without_a_zero_error_pair_falls_back_to_every_row(monkeypatch, V, y, expected):
    seen = spy_plane_rows(monkeypatch)
    got = learn_pair_node(*by_label(V, y), "reliable")
    assert seen == expected
    errors = reference_pair_errors(V, y)
    assert min(errors) > 0
    assert got.abstains
    assert got.primary == reference_pair_candidates(V.shape[0])[errors.index(min(errors))]


# ---------------------------------------------------------------------------
# Attribute space growth
# ---------------------------------------------------------------------------


def identity_pair(attr):
    return PairHypothesis(
        op="and", left_attr=attr, left_negated=False, right_attr=attr, right_negated=False
    )


def test_augment_adds_two_attributes_per_round():
    z = AttributeSpace.pure(4)
    for r in range(1, 6):
        z = augment(z, identity_pair(0))
        assert len(z) == 4 + 2 * r


def test_string_space_starts_at_two_and_grows_by_two():
    z = AttributeSpace.terminals()
    assert len(z) == 2
    for r in range(1, 4):
        z = augment(z, AdfsaNodeHypothesis(offset=0, on0=1, on1=0))
        assert len(z) == 2 + 2 * r


def test_learned_attributes_follow_the_base_attributes_in_pairs():
    """Attribute base_count + 2r is round r's hypothesis, the next its complement."""
    h1, h2 = identity_pair(0), identity_pair(2)
    z = augment(augment(AttributeSpace.pure(2), h1), h2)
    assert [z.learned(j) for j in range(2, 6)] == [(h1, False), (h1, True), (h2, False), (h2, True)]
    with pytest.raises(InvalidParameterError):
        z.learned(1)


def test_a_space_refuses_what_its_mode_cannot_hold():
    """A bit space has at least one input bit, and each mode evaluates only
    its own kind of input."""
    with pytest.raises(InvalidParameterError, match="at least one input bit"):
        AttributeSpace.pure(0)
    bits, lengths = np.zeros((3, 2), dtype=np.uint8), np.full(3, 2)
    with pytest.raises(InvalidParameterError, match="bit-vector"):
        AttributeSpace.terminals().values(bits)
    with pytest.raises(InvalidParameterError, match="string attribute spaces"):
        AttributeSpace.pure(2).eval_table(bits, lengths)


def test_augment_rejects_mismatched_hypothesis_kind():
    with pytest.raises(InvalidParameterError):
        augment(AttributeSpace.pure(2), AdfsaNodeHypothesis(offset=0, on0=1, on1=0))
    with pytest.raises(InvalidParameterError):
        augment(AttributeSpace.terminals(), identity_pair(0))


def test_augment_unwraps_a_reliable_set_to_its_primary():
    z = AttributeSpace.pure(3)
    s = table_sample(3, lambda row: row[0] & row[1])
    out = learn_pair_node(*by_label(z.values(s.bits), s.labels), mode="reliable")
    grown = augment(z, out)
    X = all_inputs(3)
    rows = grown.values(X)
    assert np.array_equal(rows[3], out.primary.evaluate_rows(z.values(X)))


def test_complement_row_is_one_minus_derived_row():
    z = augment(AttributeSpace.pure(3), identity_pair(1))
    rows = z.values(all_inputs(3))
    assert np.array_equal(rows[4], 1 - rows[3])


def test_derived_attributes_feed_later_rounds():
    """A second-round pair may reference first-round outputs; its value is
    computed against the already-filled earlier rows."""
    z1 = augment(AttributeSpace.pure(2), identity_pair(0))
    h2 = PairHypothesis(op="or", left_attr=2, left_negated=False, right_attr=1, right_negated=False)
    z2 = augment(z1, h2)
    rows = z2.values(all_inputs(2))
    assert np.array_equal(rows[4], rows[0] | rows[1])


def test_attribute_values_reject_non_bit_values():
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(2).values(np.array([[0.5, 1.9]]))
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(2).values([0.7, 1.2])


def test_attribute_values_reject_inputs_narrower_than_the_space():
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(3).values(np.zeros((4, 2), dtype=np.uint8))
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(3).values([1, 0])


def test_attribute_values_reject_inputs_wider_than_the_space():
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(2).values(np.zeros((4, 3), dtype=np.uint8))
    with pytest.raises(InputShapeError):
        AttributeSpace.pure(2).values([1, 0, 1])


def test_eval_table_rejects_non_bit_values():
    with pytest.raises(InputShapeError):
        AttributeSpace.terminals().eval_table(np.array([[0.5, 1.9]]), np.array([2]))


def test_eval_table_rejects_lengths_past_the_bit_width():
    with pytest.raises(InputShapeError):
        AttributeSpace.terminals().eval_table(np.zeros((1, 2), dtype=np.uint8), np.array([5]))


def test_eval_table_rejects_a_single_vector():
    with pytest.raises(InputShapeError):
        AttributeSpace.terminals().eval_table(np.array([0, 1], dtype=np.uint8), np.array([2]))


def test_eval_table_rejects_a_length_count_other_than_the_string_count():
    with pytest.raises(InputShapeError):
        AttributeSpace.terminals().eval_table(np.zeros((3, 2), dtype=np.uint8), np.array([2]))


def test_attribute_values_of_a_single_vector():
    z = augment(AttributeSpace.pure(3), identity_pair(2))
    got = z.values([1, 0, 1])
    assert got.shape == (5, 1)
    assert got[:, 0].tolist() == [1, 0, 1, 1, 0]


# ---------------------------------------------------------------------------
# Sample complexity
# ---------------------------------------------------------------------------


def test_budget_frozen_values():
    assert sample_budget(0.1, 0.05) == 185
    assert sample_budget(0.05, 0.05) == 738


def test_budget_near_the_open_interval_edge():
    assert sample_budget(0.499999, 0.999999) == 2


def test_budget_scales_with_inverse_square_epsilon():
    raw = math.log(2.0 / 0.05) / (2.0 * 0.1 * 0.1)
    for N in range(1, 6):
        assert sample_budget(0.1 / N, 0.05) == math.ceil(raw * N * N)


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-0.2, 0.5)])
def test_budget_rejects_degenerate_parameters(eps, delta):
    with pytest.raises(InvalidParameterError):
        sample_budget(eps, delta)


# ---------------------------------------------------------------------------
# Threshold learning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,fn",
    [
        ("or", lambda row: int(row.any())),
        ("and", lambda row: int(row.all())),
        ("2of3", lambda row: int(row.sum() >= 2)),
    ],
)
def test_perceptron_learns_separable_gates(name, fn):
    z = AttributeSpace.pure(3)
    s = table_sample(3, fn)
    h = learn_threshold_node(z.values(s.bits), s.labels)
    V = z.values(s.bits)
    assert np.array_equal(h.evaluate_rows(V), s.labels), name


def test_perceptron_matches_explicit_vote_construction():
    """Unit weights with threshold t fire exactly on sum >= t; the trained
    model must agree with that construction on the full table."""
    z = AttributeSpace.pure(4)
    s = table_sample(4, lambda row: int(row.sum() >= 3))
    reference = PerceptronHypothesis(weights=np.ones(4), threshold=3.0)
    V = z.values(s.bits)
    assert np.array_equal(reference.evaluate_rows(V), s.labels)
    learned = learn_threshold_node(z.values(s.bits), s.labels)
    assert np.array_equal(learned.evaluate_rows(V), s.labels)


def test_perceptron_ignores_attributes_added_after_training():
    h = PerceptronHypothesis(weights=np.array([1.0, 1.0]), threshold=2.0)
    z = augment(AttributeSpace.pure(2), identity_pair(0))
    rows = z.values(all_inputs(2))
    assert rows.shape[0] == 4
    assert h.evaluate_rows(rows).tolist() == [0, 0, 0, 1]


def test_perceptron_pocket_survives_nonseparable_labels():
    z = AttributeSpace.pure(2)
    s = table_sample(2, lambda row: int(row.sum()) % 2)
    h = learn_threshold_node(z.values(s.bits), s.labels)
    V = z.values(s.bits)
    err = float(np.mean(h.evaluate_rows(V) != s.labels))
    assert err <= 0.5


def test_perceptron_rejects_a_label_count_other_than_the_column_count():
    V = np.zeros((3, 5), dtype=np.uint8)
    for shape in (4, 6, (1, 5)):
        with pytest.raises(InvalidParameterError):
            learn_threshold_node(V, np.zeros(shape, dtype=np.uint8))


def test_perceptron_returns_its_starting_point_on_an_empty_sample():
    """An empty sample makes no mistake, so the perceptron keeps its
    starting point: zero float64 weights and threshold 0.0."""
    for A in (1, 4, 5):
        y = np.zeros(0, dtype=np.uint8)
        gate = learn_threshold_node(np.zeros((A, 0), dtype=np.uint8), y)
        assert gate.weights.dtype == np.float64 and gate.weights.tolist() == [0.0] * A
        assert type(gate.threshold) is float and gate.threshold == 0.0


@st.composite
def perceptron_problems(draw):
    """Attribute rows, labels and an epoch cap for the perceptron. Sizes run
    from the empty sample through one 128-row scan window to several, with
    a partial last window and the window edges themselves; labels come from a random
    integer gate, the same gate with a tenth of them flipped, or one class."""
    A = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.one_of(st.integers(0, 700), st.sampled_from([127, 128, 129, 256, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.integers(0, 2, size=(A, m)).astype(np.uint8)
    labels = draw(st.sampled_from(["separable", "noisy", "constant"]))
    if labels == "constant":
        y = np.full(m, draw(st.integers(0, 1)), dtype=np.uint8)
    else:
        gate = rng.integers(-3, 4, size=A)
        y = (gate @ V >= rng.integers(-2, 4)).astype(np.uint8)
        if labels == "noisy":
            y ^= (rng.random(m) < 0.1).astype(np.uint8)
    return V, y, draw(st.integers(min_value=1, max_value=40))


@given(perceptron_problems())
@settings(max_examples=150, deadline=None)
def test_perceptron_matches_the_reference(problem):
    """The windowed scan keeps exactly the full-rescan perceptron's weights
    and threshold."""
    V, y, max_epochs = problem
    h = learn_threshold_node(V, y, max_epochs=max_epochs)
    reference = reference_perceptron(V, y, max_epochs)
    assert h.weights.tobytes() == reference.weights.tobytes()
    assert repr(h.threshold) == repr(reference.threshold)


def test_perceptron_stays_exact_across_its_precision_switch(monkeypatch):
    """Every margin and weight lies within the bound the perceptron passes to
    exact_float_dtype each epoch. Modelled at half precision, exact for
    integers up to 2**11, and switched past each problem's first-epoch
    bound (A + 1)m <= 2**11, each problem starts in half precision, crosses
    the bound once its first mistakes leave u nonzero, finishes in float64,
    and still keeps the reference's weights and threshold. A run's values
    stay near its starting bound, and numpy sums float16 dot products in
    float32, so a run that never left float16 would keep them too: the model
    also records the dtype of the learner's Z each time it is asked, and
    every epoch must hold what the call before it chose."""
    chosen, held = [], []

    def half_up_to_the_first_bound(bound):
        held.append(getattr(sys._getframe(1).f_locals.get("Z"), "dtype", None))
        chosen.append(np.float16 if bound <= limit else np.float64)
        return chosen[-1]

    monkeypatch.setattr("impact.learner.exact_float_dtype", half_up_to_the_first_bound)
    rng = np.random.default_rng(12)
    for _ in range(30):
        # at least two attributes: a single one can cycle u back to zero at
        # every epoch's start, and so rightly never leave half precision
        A = int(rng.integers(2, 12))
        m = int(rng.integers(2**11 // (A + 1) // 2, 2**11 // (A + 1) + 1))
        limit = (A + 1) * m
        V = rng.integers(0, 2, size=(A, m)).astype(np.uint8)
        y = (rng.integers(-3, 4, size=A) @ V >= rng.integers(-2, 4)).astype(np.uint8)
        y ^= (rng.random(m) < 0.1).astype(np.uint8)
        chosen.clear()
        held.clear()
        h = learn_threshold_node(V, y, max_epochs=40)
        reference = reference_perceptron(V, y, 40)
        assert chosen[0] is np.float16 and chosen[-1] is np.float64
        assert held[0] is None and held[1:] == chosen[:-1]
        assert h.weights.tobytes() == reference.weights.tobytes()
        assert repr(h.threshold) == repr(reference.threshold)


def replayed_epochs(V, y, max_epochs):
    """The full-rescan perceptron replayed in Python ints: per epoch, ||u||_1
    at its start, the largest ||u||_1 it reaches, and the largest magnitude
    of an entry of u or of a partial sum, in any order, of a margin Z[k] @ u
    over every row k and every u the epoch holds."""
    A, m = V.shape
    Z = [[int(v) if y[k] else -int(v) for v in V[:, k]] + [-1 if y[k] else 1] for k in range(m)]
    u, epochs = [0] * (A + 1), []

    def largest(u):
        terms = [[a * b for a, b in zip(z, u)] for z in Z]
        sides = [sum(t for t in row if t > 0) for row in terms]
        sides += [-sum(t for t in row if t < 0) for row in terms]
        return max(*map(abs, u), *sides)

    for _ in range(max_epochs):
        start = sum(map(abs, u))
        norm, value, mistakes = start, largest(u), 0
        for z, label in zip(Z, y):
            if sum(a * b for a, b in zip(z, u)) < (0 if label else 1):
                u = [a + b for a, b in zip(u, z)]
                mistakes += 1
                norm, value = max(norm, sum(map(abs, u))), max(value, largest(u))
        epochs.append((start, norm, value))
        if not mistakes:
            break
    return epochs


def boundary_rows(width, c):
    """Attribute rows (width, m) and labels of the inputs next to the boundary
    of x >= c, bits most significant first: c, c - 1, and for each bit b from
    the highest down, c with b set and the bits below it cleared where c's b
    is 0, or with b cleared and the bits below it set where it is 1.
    Separating them needs weights that grow along the bits, so the
    perceptron takes hundreds of epochs."""
    values = [c, c - 1]
    for b in reversed(range(width)):
        low = (1 << b) - 1
        values.append((c | 1 << b) & ~low if not c >> b & 1 else (c & ~(1 << b)) | low)
    V = np.array([[v >> (width - 1 - i) & 1 for v in values] for i in range(width)])
    return V.astype(np.uint8), np.array([v >= c for v in values], dtype=np.uint8)


@pytest.mark.parametrize("width, c", [(7, 0b1010101), (8, 0b01010101)])
def test_every_epoch_bound_holds_the_epoch_and_needs_both_terms(monkeypatch, width, c):
    """Each epoch passes exact_float_dtype ||u||_1 at its start plus (A + 1)m,
    and, replayed in Python ints, every epoch's ||u||_1, entries of u and
    partial sums of margins stay within it. Neither term is enough alone:
    some epoch's ||u||_1 rises above its start, and some epoch's rises
    above (A + 1)m."""
    bounds = []

    def recording(bound):
        bounds.append(bound)
        return exact_float_dtype(bound)

    monkeypatch.setattr("impact.learner.exact_float_dtype", recording)
    V, y = boundary_rows(width, c)
    A, m = V.shape
    learn_threshold_node(V, y)
    epochs = replayed_epochs(V, y, 1000)
    assert len(bounds) == 1 + len(epochs) and 100 < len(epochs) < 1000
    for bound, (start, norm, value) in zip(bounds[1:], epochs):
        assert value <= norm <= bound == start + (A + 1) * m
    assert any(norm > start for start, norm, _ in epochs)
    assert max(norm for _, norm, _ in epochs) > (A + 1) * m


# ---------------------------------------------------------------------------
# Automaton-step learning
# ---------------------------------------------------------------------------


def cube_of(z, s):
    """learn_adfsa_node's view of the sample s under space z: the
    agreement_bits of its eval_table cube against its labels, and its
    strings' string_words."""
    table = z.eval_table(s.bits, s.lengths)
    return agreement_bits(table, s.labels), string_words(s.bits, s.lengths)


@pytest.mark.parametrize("M", [1, 63, 64, 65, 128, 129])
def test_agreement_bits_pad_with_zeros_and_never_count_undefined_cells(M):
    """Bit c of word c // 64 is cell c's agreement with label c: a row equal
    to the labels sets exactly the M low bits, its complement and a row of
    -1 cells set none, and a mixed row sets the bits of its agreeing cells."""
    rng = np.random.default_rng(M)
    y = rng.integers(0, 2, size=M).astype(np.uint8)
    mixed = rng.integers(-1, 2, size=M)
    rows = np.stack([y, 1 - y, np.full(M, -1), mixed]).astype(np.int8)[:, None]
    words = agreement_bits(rows, y)
    assert words.shape == (4, 1, -(-M // 64))
    unpacked = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[:, 0]
    assert not unpacked[:, M:].any()
    expected = np.stack([np.ones(M), np.zeros(M), np.zeros(M), mixed == y])
    assert np.array_equal(unpacked[:, :M], expected.astype(np.uint8))
    assert [int(np.bitwise_count(w).sum()) for w in words] == [M, 0, 0, np.sum(mixed == y)]


def test_learns_single_bit_acceptor_step():
    z = AttributeSpace.terminals()
    s = make_sample(
        np.array([[0], [1]], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
        lengths=np.array([1, 1]),
    )
    h = learn_adfsa_node(*cube_of(z, s), np.arange(len(s)))
    assert h == AdfsaNodeHypothesis(offset=0, on0=1, on1=0)


def test_learns_complement_pattern_with_swapped_children():
    z = AttributeSpace.terminals()
    s = make_sample(
        np.array([[0], [1]], dtype=np.uint8),
        np.array([1, 0], dtype=np.uint8),
        lengths=np.array([1, 1]),
    )
    h = learn_adfsa_node(*cube_of(z, s), np.arange(len(s)))
    assert h == AdfsaNodeHypothesis(offset=0, on0=0, on1=1)


def test_second_round_links_to_first_round_attribute():
    """Language: both bits set. Round one learns the tail state from data
    aligned one step in; round two reads the first bit and hands the 1-branch
    to the derived attribute, reproducing the chain exactly."""
    z = AttributeSpace.terminals()
    tail = make_sample(
        np.array([[1, 0], [1, 1]], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
        lengths=np.array([2, 2]),
    )
    h1 = learn_adfsa_node(*cube_of(z, tail), np.arange(len(tail)))
    assert h1 == AdfsaNodeHypothesis(offset=1, on0=1, on1=0)
    z2 = augment(z, h1)

    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    labels = np.array([0, 0, 0, 1], dtype=np.uint8)
    start = make_sample(bits, labels, lengths=np.full(4, 2))
    h2 = learn_adfsa_node(*cube_of(z2, start), np.arange(len(start)))
    assert h2 == AdfsaNodeHypothesis(offset=0, on0=1, on1=2)

    z3 = augment(z2, h2)
    table = z3.eval_table(bits, np.full(4, 2))
    assert np.array_equal(table[4, 0], labels.astype(np.int8))


def test_adfsa_learner_searches_offsets_itself():
    # the informative bit sits at offset 1, not at the first offset
    z = AttributeSpace.terminals()
    s = make_sample(
        np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8),
        np.array([0, 1, 0, 1], dtype=np.uint8),
        lengths=np.full(4, 2),
    )
    h = learn_adfsa_node(*cube_of(z, s), np.arange(len(s)))
    assert h.offset == 1
    assert (h.on0, h.on1) == (1, 0)


def test_adfsa_candidate_count():
    z = augment(AttributeSpace.terminals(), AdfsaNodeHypothesis(offset=0, on0=1, on1=0))
    assert adfsa_candidate_count(z, width=5) == 5 * 4 * 4


def test_adfsa_learner_returns_its_first_step_on_an_empty_sample():
    """With no columns every count is 0, so the automaton learner returns
    the reference's step, (offset 0, on0 0, on1 0), also when the cube
    holds strings outside the round."""
    z = augment(AttributeSpace.terminals(), AdfsaNodeHypothesis(offset=1, on0=1, on1=0))
    empty = make_sample(np.zeros((0, 3)), np.zeros(0), lengths=np.zeros(0))
    step = reference_adfsa_node(z.eval_table(empty.bits, empty.lengths), empty)
    assert step == AdfsaNodeHypothesis(offset=0, on0=0, on1=0)
    assert learn_adfsa_node(*cube_of(z, empty), np.arange(0)) == step
    bits, lengths = random_strings(np.random.default_rng(3), 20, 3)
    s = make_sample(bits, np.arange(20) % 2, lengths)
    assert learn_adfsa_node(*cube_of(z, s), np.empty(0, dtype=np.intp)) == step


def test_adfsa_learner_rejects_a_cube_with_no_attribute_rows():
    bits, lengths = random_strings(np.random.default_rng(3), 20, 3)
    s = make_sample(bits, np.arange(20) % 2, lengths)
    agree, strings = cube_of(AttributeSpace.terminals(), s)
    with pytest.raises(InvalidParameterError):
        learn_adfsa_node(agree[:0], strings, np.arange(20))


@st.composite
def string_problems(draw):
    """An attribute space of up to four learned steps over strings of n bits,
    a sample of strings with lengths 1 to n (so some offsets fall at or past
    a string's end) and labels that may all be equal, and a nonempty,
    increasing selection of its rows."""
    n = draw(st.integers(min_value=1, max_value=6))
    z = AttributeSpace.terminals()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        A = len(z)
        step = AdfsaNodeHypothesis(
            offset=draw(st.integers(0, n - 1)),
            on0=draw(st.integers(0, A - 1)),
            on1=draw(st.integers(0, A - 1)),
        )
        z = augment(z, step)
    m = draw(st.integers(min_value=1, max_value=30))
    bits, lengths = random_strings(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n)
    constant = draw(st.sampled_from([None, None, None, 0, 1]))
    if constant is None:
        y = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    else:
        y = [constant] * m
    kept = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    return z, make_sample(bits, y, lengths), np.array(kept, dtype=np.int64)


# one string, one bit long in a two-bit sample: m = 1, and offset 1 is past its end
ONE_STRING = (
    augment(AttributeSpace.terminals(), AdfsaNodeHypothesis(offset=0, on0=1, on1=0)),
    make_sample([[1, 0]], [1], lengths=[1]),
    np.array([0]),
)


@given(string_problems())
@example(ONE_STRING)
@settings(max_examples=200, deadline=None)
def test_eval_table_matches_the_reference(problem):
    """Every attribute's output at every offset, complements and -1 cells
    included, equals the offset-by-offset reference."""
    z, s, _ = problem
    table = z.eval_table(s.bits, s.lengths)
    assert np.array_equal(table, reference_eval_table(z, s.bits, s.lengths))


@given(
    M=st.sampled_from([1, 63, 65, 100, 129]),
    width=st.integers(1, 5),
    steps=st.lists(st.tuples(*[st.integers(0, 99)] * 3), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_step_planes_pad_with_zeros_and_decode_to_the_reference(M, width, steps, seed):
    """At column counts that are not a multiple of 64, the packed planes of
    any space of steps, filled as values (accept all ones) or as agreement
    with the labels (accept the labels equal to 1), keep every padding bit
    zero and val inside ok; the value planes decode to the reference cube,
    and the agreement planes are that cube's agreement_bits."""
    z = AttributeSpace.terminals()
    for offset, on0, on1 in steps:
        z = augment(z, AdfsaNodeHypothesis(offset % width, on0 % len(z), on1 % len(z)))
    rng = np.random.default_rng(seed)
    bits, lengths = random_strings(rng, M, width)
    y = rng.integers(0, 2, size=M).astype(np.uint8)
    reference = reference_eval_table(z, bits, lengths)
    strings = string_words(bits, lengths)
    planes = []
    for accept in (np.ones(M, dtype=bool), y == 1):
        ok, val = step_planes(len(z), width, accept)
        for r, h in enumerate(z.hypotheses):
            fill_step_planes(ok, val, 2 + 2 * r, h, strings)
        for words in (ok, val):
            unpacked = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
            assert not unpacked[..., M:].any()
        assert not (val & ~ok).any()
        planes.append((ok, val))
    (ok, val), (agree_ok, agree) = planes
    assert np.array_equal(decode_planes(ok, val, M), reference)
    assert np.array_equal(agree_ok, ok)
    assert np.array_equal(agree, agreement_bits(reference, y))


@given(string_problems())
@example(ONE_STRING)
@settings(max_examples=200, deadline=None)
def test_adfsa_learner_reads_a_subset_from_the_whole_cube(problem):
    """Reading a subset's columns of the whole sample's cube picks the same
    step, ties included, as a cube of the subset alone, and both pick the
    reference's first best-scoring candidate."""
    z, s, kept = problem
    from_whole = learn_adfsa_node(*cube_of(z, s), kept)
    alone = make_sample(s.bits[kept], s.labels[kept], s.lengths[kept])
    from_alone = learn_adfsa_node(*cube_of(z, alone), np.arange(len(alone)))
    assert from_whole == from_alone
    assert from_alone == reference_adfsa_node(z.eval_table(alone.bits, alone.lengths), alone)


@given(
    M=st.sampled_from([63, 64, 65, 127, 128, 129]),
    width=st.integers(1, 4),
    A=st.integers(1, 6),
    constant=st.sampled_from([None, None, 0, 1]),
    chunk_bytes=st.integers(1, 2**11),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_adfsa_learner_matches_the_reference_across_word_edges(
    M, width, A, constant, chunk_bytes, seed
):
    """On column counts at and around 64-column word edges, over any cube of
    -1, 0 and 1 cells, the learner reading a random round of the columns
    picks the reference's first best-scoring step, ties included, whether it
    counts the attributes one at a time, in chunks, or all at once."""
    rng = np.random.default_rng(seed)
    table = rng.integers(-1, 2, size=(A, width + 1, M)).astype(np.int8)
    bits, lengths = random_strings(rng, M, width)
    if constant is None:
        y = rng.integers(0, 2, size=M)
    else:
        y = np.full(M, constant)
    s = make_sample(bits, y, lengths)
    kept = np.flatnonzero(rng.random(M) < rng.random())
    if kept.size == 0:
        kept = np.array([int(rng.integers(M))])
    agree = agreement_bits(table, s.labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("impact.learner._CHUNK_BYTES", chunk_bytes)
        h = learn_adfsa_node(agree, string_words(bits, lengths), kept)
    alone = make_sample(bits[kept], s.labels[kept], lengths[kept])
    assert h == reference_adfsa_node(table[:, :, kept], alone)
