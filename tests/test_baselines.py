"""Reference learners fit once on the raw sample: majority vote, greedy
information-gain tree, boosted stumps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import all_inputs, make_sample, reference_stumps, reference_tree
from impact import (
    Distribution,
    UndefinedMetricError,
    accuracy,
    build_parity,
    draw_sample,
    fit_majority,
    fit_stumps,
    fit_tree,
)
from impact.baselines import TreeLeaf, TreeSplit, _majority_label


def table_sample(n, fn):
    X = all_inputs(n)
    labels = np.array([fn(row) for row in X], dtype=np.uint8)
    return make_sample(X, labels)


def test_majority_label_breaks_ties_toward_zero():
    assert _majority_label(np.array([0, 1])) == 0
    assert _majority_label(np.array([1, 1, 0])) == 1
    assert _majority_label(np.array([0, 0, 1])) == 0


def test_majority_classifier_predicts_constant():
    s = table_sample(2, lambda row: row[0] | row[1])
    clf = fit_majority(s)
    assert clf.label == 1
    assert accuracy(clf, s) == 0.75


def test_fit_on_empty_sample_rejected():
    empty = make_sample(np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
    for fitter in (fit_majority, fit_tree, fit_stumps):
        with pytest.raises(UndefinedMetricError):
            fitter(empty)


# ---------------------------------------------------------------------------
# Greedy tree
# ---------------------------------------------------------------------------


def test_tree_learns_single_literal_with_one_split():
    s = table_sample(3, lambda row: row[1])
    clf = fit_tree(s)
    assert accuracy(clf, s) == 1.0
    assert isinstance(clf.root, TreeSplit)
    assert clf.root.bit == 1
    assert isinstance(clf.root.low, TreeLeaf)
    assert isinstance(clf.root.high, TreeLeaf)


def test_tree_memorizes_parity_on_the_full_table():
    """Every split has zero information gain on parity, but zero-gain splits
    are still taken, so the complete table is reproduced exactly."""
    s = table_sample(4, lambda row: int(row.sum()) % 2)
    clf = fit_tree(s)
    assert accuracy(clf, s) == 1.0


def test_tree_memorization_means_chance_off_sample():
    g = build_parity(8, (0, 1, 2, 3, 4, 5, 6))
    d = Distribution.uniform(8, 29)
    train = draw_sample(d, g, 75, stream="train")
    test = draw_sample(d, g, 500, stream="test")
    clf = fit_tree(train)
    assert accuracy(clf, train) == 1.0
    assert accuracy(clf, test) <= 0.65


def test_tree_is_deterministic():
    d = Distribution.uniform(5, 7)
    g = build_parity(5, (0, 2))
    s = draw_sample(d, g, 60, stream="train")
    assert fit_tree(s) == fit_tree(s)


def test_tree_takes_an_empty_side_as_a_leaf_of_the_parent_majority():
    """Bit 0 is constant and every bit gains nothing on the full parity
    table, so the root splits on bit 0 and its high side holds no row."""
    X = all_inputs(3)
    X[:, 0] = 0
    labels = (X[:, 1] ^ X[:, 2]).astype(np.uint8)
    s = make_sample(X, labels)
    clf = fit_tree(s)
    assert clf == reference_tree(s)
    assert clf.root.bit == 0 and clf.root.high == TreeLeaf(0)
    assert accuracy(clf, s) == 1.0


@st.composite
def baseline_samples(draw):
    """Samples with the shapes that stress a split or a boosting round:
    duplicate columns, which tie every gain and error exactly; constant
    columns, whose splits leave one side empty; single-label samples; and
    labels that are a parity of the bits, where every split gains nothing."""
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bits = (rng.random((m, n)) < draw(st.sampled_from([0.2, 0.5, 0.8]))).astype(np.uint8)
    copy = draw(st.integers(min_value=-1, max_value=n - 1))
    if copy >= 0:
        bits[:, copy] = bits[:, rng.integers(n)]
    constant = draw(st.integers(min_value=-1, max_value=n - 1))
    if constant >= 0:
        bits[:, constant] = draw(st.integers(min_value=0, max_value=1))
    kind = draw(st.sampled_from(["random", "parity", "single", "bit"]))
    if kind == "random":
        labels = rng.integers(0, 2, size=m)
    elif kind == "parity":
        labels = bits.sum(axis=1) % 2
    elif kind == "single":
        labels = np.full(m, draw(st.integers(min_value=0, max_value=1)))
    else:
        labels = bits[:, rng.integers(n)]
    return make_sample(bits, labels)


@settings(max_examples=200, deadline=None)
@given(baseline_samples())
@example(make_sample([[1, 0]], [1]))
@example(make_sample([[0, 0, 1], [0, 0, 1]], [0, 1]))
def test_tree_and_stumps_equal_their_slow_references(s):
    """fit_tree's level-by-level counts and fit_stumps' one agreement matrix
    give exactly the recursive per-bit tree and the per-round stump loop."""
    assert fit_tree(s) == reference_tree(s)
    assert fit_stumps(s) == reference_stumps(s)


# ---------------------------------------------------------------------------
# Boosted stumps
# ---------------------------------------------------------------------------


def test_stumps_fit_a_literal_with_one_stump():
    s = table_sample(3, lambda row: row[1])
    clf = fit_stumps(s)
    assert accuracy(clf, s) == 1.0
    assert len(clf.stumps) == 1


def test_stumps_fit_majority_of_three():
    s = table_sample(3, lambda row: int(row.sum() >= 2))
    clf = fit_stumps(s)
    assert accuracy(clf, s) == 1.0


def test_stumps_refuse_parity_and_fall_back():
    # every stump has weighted error exactly 0.5 on the full parity table
    s = table_sample(2, lambda row: int(row.sum()) % 2)
    clf = fit_stumps(s)
    assert len(clf.stumps) == 0
    assert accuracy(clf, s) == 0.5


def test_stumps_near_chance_on_sampled_parity():
    g = build_parity(8, (1, 4))
    d = Distribution.uniform(8, 31)
    train = draw_sample(d, g, 75, stream="train")
    test = draw_sample(d, g, 500, stream="test")
    clf = fit_stumps(train)
    assert 0.35 <= accuracy(clf, test) <= 0.65


def test_stumps_are_deterministic():
    s = table_sample(3, lambda row: row[0] & (1 - row[2]))
    a = fit_stumps(s)
    b = fit_stumps(s)
    probe = table_sample(3, lambda row: 0)
    assert np.array_equal(a.predict_sample(probe), b.predict_sample(probe))


def test_all_baselines_emit_int_labels():
    s = table_sample(3, lambda row: row[0])
    for fitter in (fit_majority, fit_tree, fit_stumps):
        preds = fitter(s).predict_sample(s)
        assert preds.dtype == np.int8
        assert set(np.unique(preds)) <= {0, 1}
