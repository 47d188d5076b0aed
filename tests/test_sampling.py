"""Distributions, drawing, metrics, seed derivation."""

import numpy as np
import pytest

from helpers import chain_automaton, make_sample
from impact import (
    Distribution,
    InvalidParameterError,
    UndefinedMetricError,
    accuracy,
    build_parity,
    derive_seed,
    draw_sample,
    evaluate_batch,
    max_path_depth,
    rng_from,
    stable_entropy,
)
from impact.sampling import draw_inputs
from helpers import all_inputs


def test_draw_is_deterministic():
    g = build_parity(8, (0, 4))
    d = Distribution.uniform(8, 17)
    a = draw_sample(d, g, 200)
    b = draw_sample(d, g, 200)
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.labels, b.labels)


def test_streams_are_disjoint():
    g = build_parity(8, (0, 4))
    d = Distribution.uniform(8, 17)
    train = draw_sample(d, g, 200, stream="train")
    test = draw_sample(d, g, 200, stream="test")
    assert not np.array_equal(train.bits, test.bits)


def test_labels_match_concept():
    g = build_parity(6, (1, 2, 5))
    d = Distribution.uniform(6, 3)
    s = draw_sample(d, g, 500)
    assert np.array_equal(s.labels, evaluate_batch(g, s.bits))


def test_zero_m_rejected():
    d = Distribution.uniform(4, 0)
    with pytest.raises(InvalidParameterError):
        draw_sample(d, build_parity(4, (0,)), 0)


def test_draw_inputs_are_the_sample_without_labels():
    """draw_inputs makes the rng calls draw_sample makes, so the sample is
    those inputs labelled, for every kind of distribution and stream."""
    g, a = build_parity(4, (0, 2)), chain_automaton()
    for d, concept in [
        (Distribution.uniform(4, 3), g),
        (Distribution.product((0.9, 0.1, 0.5, 1.0), 5), g),
        (Distribution.strings_for(a, 7), a),
    ]:
        for stream in (0, "train"):
            s = draw_sample(d, concept, 50, stream=stream)
            bits, lengths = draw_inputs(d, 50, stream=stream)
            assert np.array_equal(bits, s.bits) and np.array_equal(lengths, s.lengths)
    with pytest.raises(InvalidParameterError):
        draw_inputs(Distribution.uniform(4, 0), 0)


def test_single_literal_label_frequency():
    g = build_parity(10, (3,))
    d = Distribution.uniform(10, 23)
    s = draw_sample(d, g, 10_000)
    assert abs(float(np.mean(s.labels)) - 0.5) <= 0.02


def test_product_distribution_respects_probabilities():
    d = Distribution.product((0.9, 0.1, 0.5, 1.0), 5)
    g = build_parity(4, (0,))
    s = draw_sample(d, g, 20_000)
    freqs = s.bits.mean(axis=0)
    assert abs(freqs[0] - 0.9) < 0.02
    assert abs(freqs[1] - 0.1) < 0.02
    assert freqs[3] == 1.0


def test_string_lengths_cover_the_supported_range():
    a = chain_automaton()
    d = Distribution.strings_for(a, 7)
    s = draw_sample(d, a, 400)
    assert s.lengths.min() >= max_path_depth(a)
    assert s.lengths.max() <= a.n
    # bits beyond an example's length stay zero
    for i in range(len(s)):
        assert not s.bits[i, s.lengths[i] :].any()


def test_sample_arrays_are_frozen():
    g, a = build_parity(4, (0, 2)), chain_automaton()
    for s in (
        draw_sample(Distribution.uniform(4, 3), g, 8),
        draw_sample(Distribution.strings_for(a, 3), a, 8),
    ):
        for arr in (s.bits, s.labels, s.lengths):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


def test_accuracy_bounds():
    g = build_parity(5, (0, 1, 2, 3, 4))
    X = all_inputs(5)
    s = make_sample(X, evaluate_batch(g, X))
    assert accuracy(lambda sample: evaluate_batch(g, sample.bits), s) == 1.0
    assert accuracy(lambda sample: 1 - evaluate_batch(g, sample.bits), s) == 0.0


def test_constant_zero_on_balanced_parity_is_half():
    g = build_parity(6, (0, 3, 5))
    X = all_inputs(6)
    s = make_sample(X, evaluate_batch(g, X))
    got = accuracy(lambda sample: np.zeros(len(sample), dtype=np.int8), s)
    assert got == 0.5


def test_abstentions_count_as_errors():
    s = make_sample(all_inputs(2), np.ones(4))
    preds = np.array([1, 1, -1, -1], dtype=np.int8)
    assert accuracy(lambda sample: preds, s) == 0.5


def test_empty_sample_metrics_undefined():
    s = make_sample(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(UndefinedMetricError):
        accuracy(lambda sample: np.zeros(0), s)


def test_stable_entropy_is_stable():
    # pinned: these values must never change across runs or platforms
    assert stable_entropy(0, "a") == stable_entropy(0, "a")
    assert stable_entropy(0, "a") != stable_entropy(0, "b")
    assert stable_entropy(1, 2) != stable_entropy(12)
    assert derive_seed(7, "train", 0) == derive_seed(7, "train", 0)
    assert derive_seed(7, "train", 0) != derive_seed(7, "train", 1)


def test_rng_from_reproduces():
    a = rng_from(5, "x").integers(0, 1 << 30, size=4)
    b = rng_from(5, "x").integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)


def test_distribution_validation():
    with pytest.raises(InvalidParameterError):
        Distribution.product((0.5, 1.5), 0)
    with pytest.raises(InvalidParameterError):
        Distribution.uniform(0, 0)
    with pytest.raises(InvalidParameterError):
        draw_sample(Distribution.uniform(3, 0), build_parity(4, (0,)), 5)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Distribution(kind="gaussian", n=2, seed=0), "unknown distribution kind"),
        (lambda: Distribution(kind="product", n=2, seed=0), "needs n probabilities"),
        (lambda: Distribution(kind="product", n=2, seed=0, probabilities=(0.5,)), "needs n"),
        (lambda: Distribution.strings(4, 0, length_low=0), "1 <= 0 <= n"),
        (lambda: Distribution.strings(4, 0, length_low=5), "1 <= 5 <= n"),
    ],
    ids=["unknown-kind", "product-without-rates", "product-short", "length-0", "length-above-n"],
)
def test_invalid_distributions_raise(build, message):
    with pytest.raises(InvalidParameterError, match=message):
        build()


def test_strings_distribution_requires_automaton():
    d = Distribution.strings(4, 0)
    with pytest.raises(InvalidParameterError):
        draw_sample(d, build_parity(4, (0,)), 5)
