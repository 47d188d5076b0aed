"""Moderation: relevance filtering, partition fallback, offset buckets,
privileged views. The teacher only ever removes rows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_inputs,
    and_dag,
    chain_automaton,
    make_sample,
    one_bit_acceptor,
    random_strings,
)
from impact import (
    Distribution,
    InputShapeError,
    InsufficientDataError,
    InvalidParameterError,
    ModerationRule,
    build_parity,
    draw_sample,
    evaluate_batch,
    moderate,
    push_negations_to_leaves,
    adfsa_labels,
    export_privileged_view,
)
from impact.generate import random_automaton, random_dag
from impact.concepts import _walk, state_outputs
from impact.oracle import reference_offset_selection, relevance_by_substitution, run_automaton
from impact.plan import postfix_order
from impact.teacher import Teacher


def full_sample(g, n):
    X = all_inputs(n)
    return make_sample(X, evaluate_batch(g, X))


def test_root_round_keeps_everything():
    g = and_dag()
    s = full_sample(g, 2)
    kept = moderate(g, g.root, s, ModerationRule.RELEVANT_FILTER)[0]
    assert len(kept) == len(s)


def test_blocked_and_rows_removed():
    g = and_dag()
    s = full_sample(g, 2)
    kept = moderate(g, 0, s, ModerationRule.RELEVANT_FILTER)[0]
    # x1=0 rows are irrelevant at leaf x0
    assert all(s.bits[i, 1] == 1 for i in kept)
    assert len(kept) == 2


def test_relevant_filter_matches_flip_oracle():
    for seed in range(8):
        g = push_negations_to_leaves(random_dag(6, 12, seed=seed))
        s = full_sample(g, 6)
        for node in postfix_order(g):
            expected = [
                i for i in range(len(s)) if relevance_by_substitution(g, node, s.bits[i])
            ]
            if not expected:
                with pytest.raises(InsufficientDataError):
                    moderate(g, node, s, ModerationRule.RELEVANT_FILTER)
                continue
            kept = moderate(g, node, s, ModerationRule.RELEVANT_FILTER)[0]
            assert kept.tolist() == expected


def test_moderation_never_relabels_or_reorders():
    g = push_negations_to_leaves(build_parity(8, (1, 3, 6)))
    d = Distribution.uniform(8, 99)
    s = draw_sample(d, g, 300)
    for node in postfix_order(g):
        kept, offset = moderate(g, node, s, ModerationRule.RELEVANT_FILTER)
        assert offset is None
        assert 0 <= kept[0] and kept[-1] < len(s)
        assert np.all(np.diff(kept) > 0)


def test_partition_rule_keeps_at_least_half():
    for seed in range(8):
        g = push_negations_to_leaves(random_dag(6, 12, seed=40 + seed))
        s = full_sample(g, 6)
        for node in postfix_order(g):
            kept, _ = moderate(g, node, s, ModerationRule.LARGER_PARTITION)
            assert len(kept) >= (len(s) + 1) // 2


def test_partition_tie_keeps_the_agreeing_half():
    """Bit 0 of and_dag agrees with the labels on exactly half of this
    sample, rows 1 and 2, so the larger partition is a tie and keeps them."""
    g = and_dag()
    s = make_sample([[1, 0], [0, 0], [1, 1], [1, 0]], [0, 0, 1, 0])
    kept, offset = moderate(g, 0, s, ModerationRule.LARGER_PARTITION)
    assert kept.tolist() == [1, 2] and offset is None


def test_tampered_labels_rejected():
    g = and_dag()
    X = all_inputs(2)
    s = make_sample(X, 1 - evaluate_batch(g, X))
    with pytest.raises(InvalidParameterError):
        moderate(g, g.root, s, ModerationRule.RELEVANT_FILTER)
    a = chain_automaton()
    true = adfsa_sample(a, [(1, 1), (1, 0), (0, 1), (0, 0)])
    s = make_sample(true.bits, 1 - true.labels, true.lengths)
    with pytest.raises(InvalidParameterError):
        moderate(a, a.start, s, ModerationRule.OFFSET_PARTITION)


def test_a_teacher_moderates_only_its_own_sample():
    """A Teacher holds one sample's node values, so indices it returns name
    rows of that sample; a different sample, even a slice of it, is refused."""
    g = push_negations_to_leaves(build_parity(6, (0, 2, 5)))
    s = draw_sample(Distribution.uniform(6, 3), g, 60)
    teacher = Teacher(g, s, [g.root])
    part = make_sample(s.bits[:20], s.labels[:20])
    with pytest.raises(InvalidParameterError):
        moderate(teacher, g.root, part, ModerationRule.RELEVANT_FILTER)
    kept, _ = moderate(teacher, g.root, s, ModerationRule.RELEVANT_FILTER)
    assert np.array_equal(kept, moderate(g, g.root, s, ModerationRule.RELEVANT_FILTER)[0])


def test_empty_subset_raises_with_context():
    g = and_dag()
    # only blocked rows: x1 = 0 everywhere
    s = make_sample(np.array([[0, 0], [1, 0]]), np.zeros(2))
    with pytest.raises(InsufficientDataError) as err:
        moderate(g, 0, s, ModerationRule.RELEVANT_FILTER)
    assert err.value.node == 0


# ---------------------------------------------------------------------------
# Offset buckets
# ---------------------------------------------------------------------------


def adfsa_sample(a, lengths_and_bits):
    bits = np.zeros((len(lengths_and_bits), a.n), dtype=np.uint8)
    lengths = np.zeros(len(lengths_and_bits), dtype=np.int64)
    for i, row in enumerate(lengths_and_bits):
        lengths[i] = len(row)
        bits[i, : len(row)] = row
    labels = adfsa_labels(a, bits, lengths)
    return make_sample(bits, labels, lengths)


@pytest.mark.parametrize("length", [-1, 2])
def test_string_lengths_outside_the_bit_width_are_rejected(length):
    """A string longer than its sample's bit width, or of negative length,
    is an input error, not an index error inside the walk."""
    a = chain_automaton()
    X = np.ones((1, 1), dtype=np.uint8)
    lengths = np.array([length])
    with pytest.raises(InputShapeError):
        adfsa_labels(a, X, lengths)
    s = make_sample(X, [1], lengths)
    with pytest.raises(InputShapeError):
        moderate(a, a.start, s, ModerationRule.OFFSET_PARTITION)


def test_start_state_bucket_is_offset_zero():
    a = one_bit_acceptor()
    s = adfsa_sample(a, [(0,), (1,), (1,), (0,)])
    kept, offset = moderate(a, a.start, s, ModerationRule.OFFSET_PARTITION)
    assert offset == 0
    assert len(kept) >= len(s) / 2


def test_chain_second_state_buckets():
    a = chain_automaton()
    # routed strings (leading 1) reach state 2 at offset 1; "0x" strings bypass
    s = adfsa_sample(a, [(1, 1), (1, 0), (0, 1), (0, 0)])
    kept, offset = moderate(a, 2, s, ModerationRule.OFFSET_PARTITION)
    assert offset in (0, 1)
    assert len(kept) >= 1
    # bypassing strings are labeled by the teacher's walk of state 2 at that offset
    for src in kept:
        row = s.bits[src, : s.lengths[src]]
        arrived = row[0] == 1
        if not arrived:
            out = run_automaton(a, row[offset:]) if offset < len(row) else -1
            agrees = out == s.labels[src]
            assert out in (0, 1) and isinstance(agrees, (bool, np.bool_))


def test_bucket_guarantee_over_random_automata():
    for seed in range(10):
        a = random_automaton(6, 4, seed=seed)
        d = Distribution.strings_for(a, seed)
        s = draw_sample(d, a, 240)
        for node in postfix_order(a):
            kept, offset = moderate(a, node, s, ModerationRule.OFFSET_PARTITION)
            assert len(kept) >= len(s) / (2 * a.n)
            assert 0 <= offset < a.n


def test_touching_strings_agree_at_their_arrival_offset():
    a = random_automaton(6, 5, seed=77)
    d = Distribution.strings_for(a, 5)
    s = draw_sample(d, a, 300)
    from impact.concepts import _walk

    for node in postfix_order(a):
        arrivals = _walk(a, s.bits, s.lengths, (node,))[1][0]
        from_state = replace(a, start=node)
        for i in np.flatnonzero(arrivals >= 0):
            out = run_automaton(from_state, s.bits[i, arrivals[i] : s.lengths[i]])
            assert out == s.labels[i]


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
    m=st.integers(1, 30),
    narrower=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
# a round whose largest buckets tie across offsets, and one where they tie
# within an offset
@example(automaton=random_automaton(2, 2, 1), m=5, narrower=0, seed=1)
@example(automaton=random_automaton(3, 3, 16), m=5, narrower=1, seed=16)
def test_offset_moderation_matches_the_reference(automaton, m, narrower, seed):
    """Every plan round's selection and offset, tie-breaks included, equal
    the string-by-string reference, on strings whose width may be less than
    n; the strings are those of lengths 1 to that width that the automaton
    classifies."""
    width = max(1, automaton.n - narrower)
    X, lengths = random_strings(np.random.default_rng(seed), m, width)
    labels = np.array([run_automaton(automaton, X[i, : lengths[i]]) for i in range(m)])
    keep = labels >= 0
    s = make_sample(X[keep], labels[keep], lengths[keep])
    plan = postfix_order(automaton)
    teacher = Teacher(automaton, s, plan)
    for node in plan:
        mask, offset = teacher.mask(node, ModerationRule.OFFSET_PARTITION)
        expected, expected_offset = reference_offset_selection(automaton, s, node)
        assert np.array_equal(mask, expected)
        assert offset == expected_offset


def labelled_strings(a, m, seed):
    """The first m of 4m random strings, of lengths 1 to n, that the
    automaton classifies, as a sample."""
    X, lengths = random_strings(np.random.default_rng(seed), 4 * m, a.n)
    labels = np.array([run_automaton(a, X[i, : lengths[i]]) for i in range(len(X))])
    keep = np.flatnonzero(labels >= 0)[:m]
    assert len(keep) == m
    return make_sample(X[keep], labels[keep], lengths[keep])


def bucket_sizes(a, s, state):
    """The (n, 2) sizes of the agreeing and disagreeing buckets at each
    offset of the state's round, string by string."""
    arrivals = _walk(a, s.bits, s.lengths, [state])[1][0]
    from_state = replace(a, start=state)
    sizes = np.zeros((a.n, 2), dtype=np.int64)
    for o in range(a.n):
        for i in np.flatnonzero(np.isin(arrivals, (-1, o))):
            out = run_automaton(from_state, s.bits[i, o : s.lengths[i]])
            if out >= 0:
                sizes[o, int(out != s.labels[i])] += 1
    return sizes


@pytest.mark.parametrize(
    "m,automaton,seed,tie",
    [
        (1, (3, 2, 5), 0, "across"),
        (63, (3, 2, 5), 25, "across"),
        (63, (3, 3, 158), 17, "within"),
        (64, (3, 2, 5), 27, "across"),
        (64, (3, 3, 158), 23, "within"),
        (65, (3, 2, 5), 12, "across"),
        (65, (3, 3, 158), 62, "within"),
        (129, (3, 2, 5), 2, "across"),
        (129, (3, 3, 158), 66, "within"),
    ],
)
def test_packed_offset_pass_matches_the_reference_at_word_edges(m, automaton, seed, tie):
    """At sample sizes on and around 64-string word edges, every round's
    selection and offset equal the reference's, and some round holds the
    named tie: the largest buckets of two offsets are equal, so the lower
    offset wins (across), or the winning offset's two buckets are equal, so
    the agreeing one wins (within)."""
    a = random_automaton(*automaton)
    s = labelled_strings(a, m, seed)
    plan = postfix_order(a)
    teacher = Teacher(a, s, plan)
    ties = set()
    for node in plan:
        mask, offset = teacher.mask(node, ModerationRule.OFFSET_PARTITION)
        expected, expected_offset = reference_offset_selection(a, s, node)
        assert np.array_equal(mask, expected)
        assert offset == expected_offset
        sizes = bucket_sizes(a, s, node)
        largest = sizes.max(axis=1)
        if np.count_nonzero(largest == largest.max()) > 1:
            ties.add("across")
        if sizes[offset, 0] == sizes[offset, 1] > 0:
            ties.add("within")
    assert tie in ties


def test_automaton_teacher_makes_one_descending_pass(monkeypatch):
    """Building the Teacher runs state_outputs once for all its states, so
    moderating every round adds no pass, whatever the round count."""
    import impact.teacher

    calls = []

    def counting(*args):
        calls.append(args)
        return state_outputs(*args)

    monkeypatch.setattr(impact.teacher, "state_outputs", counting)
    round_counts = set()
    for a in (chain_automaton(), random_automaton(8, 6, seed=1)):
        calls.clear()
        s = draw_sample(Distribution.strings_for(a, 1), a, 100)
        plan = postfix_order(a)
        teacher = Teacher(a, s, plan)
        for node in plan:
            teacher.mask(node, ModerationRule.OFFSET_PARTITION)
        round_counts.add(len(plan))
        assert len(calls) == 1
    assert len(round_counts) == 2


# ---------------------------------------------------------------------------
# Privileged views
# ---------------------------------------------------------------------------


def test_privileged_view_single_round_all_ones():
    g = and_dag()
    s = full_sample(g, 2)
    view = export_privileged_view(postfix_order(g), s, g, ModerationRule.RELEVANT_FILTER)
    assert view.shape == (4, 1)
    assert view.dtype == np.uint8
    assert view.all()  # the root keeps every example


def assert_view_replays_moderation(concept, s, rule, starved_ok=False):
    """Each column of the privileged view under the rule is the membership
    of that round's moderated subset. A round moderation starves fails the
    check unless `starved_ok`, and then its column must be all zeros."""
    plan = postfix_order(concept)
    view = export_privileged_view(plan, s, concept, rule)
    assert view.shape == (len(s), len(plan))
    for r, node in enumerate(plan):
        column = np.zeros(len(s), dtype=np.uint8)
        try:
            kept, _ = moderate(concept, node, s, rule)
            column[kept] = 1
        except InsufficientDataError:
            if not starved_ok:
                raise
        assert np.array_equal(view[:, r], column)


def test_privileged_view_matches_moderation_replay():
    g = push_negations_to_leaves(build_parity(6, (0, 2, 5)))
    s = draw_sample(Distribution.uniform(6, 4), g, 120)
    for rule in (ModerationRule.RELEVANT_FILTER, ModerationRule.LARGER_PARTITION):
        assert_view_replays_moderation(g, s, rule)


@pytest.mark.parametrize("seed", range(6))
def test_privileged_view_matches_moderation_replay_for_automata(seed):
    a = random_automaton(8, 6, seed=seed)
    d = Distribution.strings_for(a, seed)
    s = draw_sample(d, a, 150)
    assert_view_replays_moderation(a, s, ModerationRule.OFFSET_PARTITION, starved_ok=True)


def test_moderate_and_the_view_take_a_rule_or_its_value():
    g = build_parity(6, (0, 2, 5))
    s = draw_sample(Distribution.uniform(6, 7), g, 200)
    plan = postfix_order(g)
    for rule in (ModerationRule.RELEVANT_FILTER, ModerationRule.LARGER_PARTITION):
        for node in plan:
            kept, offset = moderate(g, node, s, rule.value)
            expected, expected_offset = moderate(g, node, s, rule)
            assert np.array_equal(kept, expected) and offset is expected_offset is None
        view = export_privileged_view(plan, s, g, rule.value)
        assert np.array_equal(view, export_privileged_view(plan, s, g, rule))
    for value, message in (("bogus", "unknown moderation rule 'bogus'"), ("offset", "offset")):
        with pytest.raises(InvalidParameterError, match=message):
            moderate(g, plan[0], s, value)
        with pytest.raises(InvalidParameterError, match=message):
            export_privileged_view(plan, s, g, value)


def test_offset_moderation_makes_no_walk_per_offset(monkeypatch):
    """Offset moderation reads every offset from one descending pass of
    state_outputs: the Teacher that each call builds walks the sample once,
    from the start, instead of once per offset."""
    import impact.teacher

    calls = []
    real = impact.teacher._walk

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(impact.teacher, "_walk", counting)
    a = random_automaton(8, 6, seed=1)
    s = draw_sample(Distribution.strings_for(a, 1), a, 100)
    rounds = postfix_order(a)
    for node in rounds:
        moderate(a, node, s, ModerationRule.OFFSET_PARTITION)
    assert len(calls) == len(rounds)

