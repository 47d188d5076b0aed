"""Full teaching sessions: determinism, diagnostics, final classifiers, and
their expansion back into plain concepts."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    agreement_bits,
    all_inputs,
    and_dag,
    chain_automaton,
    layered_circuit,
    make_sample,
    reference_automaton_session,
    reference_circuit_session,
    reference_session,
    vote_circuit,
)
from impact import (
    AcceptState,
    Adfsa,
    AdfsaNodeHypothesis,
    And,
    AttributeSpace,
    AutomatonClassifier,
    BranchState,
    ConceptDag,
    DagClassifier,
    Distribution,
    Gate,
    ImpactError,
    InsufficientDataError,
    InvalidParameterError,
    Literal,
    ModerationRule,
    PairHypothesis,
    RejectState,
    ReliablePairSet,
    ThresholdCircuit,
    Wire,
    augment,
    build_parity,
    draw_sample,
    evaluate_batch,
    export_privileged_view,
    node_values,
    pair_space_size,
    push_negations_to_leaves,
    run_teaching_session,
    sample_budget,
)
import impact.concepts
import impact.session
import impact.teacher
from impact.concepts import max_path_depth, string_words
from impact.generate import random_automaton, random_circuit, random_dag
from impact.oracle import (
    exhaustive_equivalence,
    exhaustive_string_equivalence,
    reference_eval_table,
    run_automaton,
)
from impact.learner import decode_planes
from impact.plan import default_rule, postfix_order
from impact.session import full_layout, true_attribute_matrix


def parity_session(mode="best-fit", m=80, seed=11, **kwargs):
    g = build_parity(4, (0, 2))
    d = Distribution.uniform(4, seed)
    return run_teaching_session(g, d, m, mode=mode, **kwargs)


def test_session_is_deterministic():
    a = parity_session().to_json_dict()
    b = parity_session().to_json_dict()
    assert a == b


def test_attribute_count_matches_round_count():
    report = parity_session()
    assert report.attribute_count == 4 + 2 * len(report.rounds)


def test_json_report_shape():
    report = parity_session()
    payload = report.to_json_dict()
    assert payload["concept_kind"] == "dag"
    assert payload["mode"] == "best-fit"
    assert payload["moderation"] == "relevant"
    assert payload["model"]["type"] == "dag"
    assert len(payload["rounds"]) == len(report.rounds)
    for entry in payload["rounds"]:
        assert {"index", "node", "rule", "subset_size", "training_error"} <= set(entry)


@pytest.mark.parametrize("rule", list(ModerationRule), ids=lambda rule: rule.value)
def test_session_takes_a_rule_or_its_value(rule):
    """A rule named by its value gives the member's report."""
    if rule is ModerationRule.OFFSET_PARTITION:
        concept = random_automaton(8, 6, seed=1)
        d = Distribution.strings_for(concept, 2)
    else:
        concept, d = build_parity(6, (0, 2, 5)), Distribution.uniform(6, 7)
    report = run_teaching_session(concept, d, 200, moderation=rule).to_json_dict()
    assert run_teaching_session(concept, d, 200, moderation=rule.value).to_json_dict() == report


@pytest.mark.parametrize("value", ["bogus", "offset"])
def test_session_rejects_a_rule_value_that_does_not_fit(value):
    g, d = build_parity(4, (0, 1)), Distribution.uniform(4, 0)
    with pytest.raises(InvalidParameterError, match=value):
        run_teaching_session(g, d, 50, moderation=value)


def test_full_error_never_exceeds_relevant_error():
    """Relevant rows are a subset of the sample, so the same mistakes weigh
    less against the whole."""
    report = parity_session(m=120)
    assert report.rounds
    for r in report.rounds:
        assert r.error_full is not None
        assert r.error_full <= r.error_relevant + 1e-12


def test_corruption_bounded_by_child_attribute_errors():
    # a pair reads two attributes, so a union bound caps the damage
    report = parity_session(m=120)
    checked = 0
    for r in report.rounds:
        if r.hypothesis_corruption is None:
            continue
        bound = r.child_error_left + r.child_error_right
        assert r.hypothesis_corruption <= bound + 1e-12
        checked += 1
    assert checked > 0


def test_a_pair_of_raw_input_bits_has_no_child_error():
    """A raw input bit is its own true value, so a round whose pair reads two
    of them reports no child error on either side."""
    report = run_teaching_session(build_parity(8, (1, 3, 6)), Distribution.uniform(8, 5), 200)
    for r, h in zip(report.rounds[:2], report.classifier.space.hypotheses):
        assert (h.left_attr, h.right_attr) == (3, 6)
        assert r.child_error_left == r.child_error_right == 0.0


def test_dag_expansion_agrees_with_classifier_everywhere():
    report = parity_session(m=100)
    clf = report.classifier
    expanded = clf.to_concept()
    X = all_inputs(4)
    probe = make_sample(X, np.zeros(len(X), dtype=np.uint8))
    assert np.array_equal(evaluate_batch(expanded, X).astype(np.int8), clf.predict_sample(probe))


def test_parity_session_recovers_target_exactly():
    report = parity_session(m=100)
    assert report.test_accuracy == 1.0
    expanded = report.classifier.to_concept()
    assert exhaustive_equivalence(build_parity(4, (0, 2)), expanded, 4) is None


def test_reliable_session_is_never_wrong():
    report = parity_session(mode="reliable", m=100)
    assert report.test_accuracy + report.test_dont_know_rate == pytest.approx(1.0)
    assert report.test_accuracy >= 0.9


def test_single_literal_concept_one_round():
    g = ConceptDag(nodes=(Literal(1),), root=0, n=2)
    d = Distribution.uniform(2, 5)
    report = run_teaching_session(g, d, 40)
    assert len(report.rounds) == 1
    assert report.test_accuracy == 1.0
    assert report.attribute_count == 4


def test_circuit_session_emits_weight_stack():
    """Earlier rounds ride in the stored attribute space; the last one is the
    classifier itself, so the schema splits them as rounds plus final."""
    c = layered_circuit()
    d = Distribution.uniform(4, 9)
    report = run_teaching_session(c, d, 200)
    assert report.test_accuracy >= 0.95
    model = report.classifier.model_dict()
    assert model["type"] == "perceptron_stack"
    assert model["n"] == 4
    assert len(model["rounds"]) == len(report.rounds) - 1
    assert len(model["final"]["weights"]) == 4 + 2 * (len(report.rounds) - 1)


def test_automaton_session_recovers_language():
    a = chain_automaton()
    d = Distribution.strings_for(a, 13)
    report = run_teaching_session(a, d, 400)
    assert report.test_accuracy >= 0.99
    expanded = report.classifier.to_concept()
    assert exhaustive_string_equivalence(a, expanded, ignore_undefined=True) is None
    assert report.classifier.model_dict()["type"] == "adfsa"


@given(
    n=st.integers(1, 5),
    extra=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    m=st.integers(1, 60),
    mode=st.sampled_from(["best-fit", "reliable"]),
)
@settings(max_examples=40, deadline=None)
def test_dag_expansion_agrees_with_classifier_wherever_it_answers(n, extra, seed, m, mode):
    """The expanded DAG of a session's classifier, in either mode, matches
    the classifier on every input the classifier answers."""
    g = random_dag(n, n + extra, seed)
    report = run_teaching_session(g, Distribution.uniform(n, seed), m, mode=mode, test_size=1)
    clf = report.classifier
    X = all_inputs(n)
    predicted = clf.predict_sample(make_sample(X, np.zeros(len(X))))
    answered = predicted >= 0
    if not answered.any():
        return
    expanded = evaluate_batch(clf.to_concept(), X)
    assert np.array_equal(expanded[answered], predicted[answered])


def pairs_over(attribute_count):
    refs = st.integers(0, attribute_count - 1)
    ops = st.sampled_from(["and", "or"])
    return st.builds(PairHypothesis, ops, refs, st.booleans(), refs, st.booleans())


@st.composite
def pair_stacks(draw):
    """A DagClassifier over random pairs, each reading any earlier attribute.
    A session's pairs never read a complement attribute (the negated row
    below it comes first in canonical order); these do."""
    space = AttributeSpace.pure(draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(0, 4))):
        space = augment(space, draw(pairs_over(len(space))))
    return DagClassifier(space=space, final=draw(pairs_over(len(space))))


@given(pair_stacks())
@settings(max_examples=60, deadline=None)
def test_dag_expansion_of_any_pair_stack_agrees_with_classifier(clf):
    X = all_inputs(clf.space.base_count)
    predicted = clf.predict_sample(make_sample(X, np.zeros(len(X))))
    assert np.array_equal(evaluate_batch(clf.to_concept(), X).astype(np.int8), predicted)


@given(
    n=st.integers(1, 5),
    branches=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    m=st.integers(1, 60),
)
@settings(max_examples=40, deadline=None)
def test_automaton_expansion_agrees_with_classifier_wherever_it_answers(n, branches, seed, m):
    """The expanded automaton walks every string up to length n to the
    classifier's answer wherever the classifier gives one."""
    a = random_automaton(n, min(branches, n), seed)
    report = run_teaching_session(a, Distribution.strings_for(a, seed), m, test_size=1)
    clf = report.classifier
    strings = [bits for k in range(n + 1) for bits in itertools.product((0, 1), repeat=k)]
    X = np.array([bits + (0,) * (n - len(bits)) for bits in strings], dtype=np.uint8)
    lengths = [len(bits) for bits in strings]
    predicted = clf.predict_sample(make_sample(X, np.zeros(len(X)), lengths))
    expanded = clf.to_concept()
    for bits, p in zip(strings, predicted):
        if p >= 0:
            assert run_automaton(expanded, bits) == p


def test_automaton_expansion_replays_a_late_final_offset():
    """A final step learned at offset 2 expands behind a leading chain of
    two branches that ignore their bit; the expansion walks every string of
    lengths 1 to 4 to the classifier's answer, -1 included."""
    step = AdfsaNodeHypothesis(offset=0, on0=1, on1=0)
    space = augment(AttributeSpace.terminals(), step)
    clf = AutomatonClassifier(space=space, final=AdfsaNodeHypothesis(offset=2, on0=2, on1=0), n=4)
    strings = [bits for k in range(1, 5) for bits in itertools.product((0, 1), repeat=k)]
    X = np.array([bits + (0,) * (4 - len(bits)) for bits in strings], dtype=np.uint8)
    lengths = [len(bits) for bits in strings]
    predicted = clf.predict_sample(make_sample(X, np.zeros(len(X)), lengths))
    expanded = clf.to_concept()
    assert [run_automaton(expanded, bits) for bits in strings] == predicted.tolist()
    assert set(predicted.tolist()) == {-1, 0, 1}


def test_a_deep_pair_stack_exports_its_dag():
    """Export has no depth limit: a final pair on a chain of 2,000 learned
    pairs, each reading the one before it (every fourth through its
    complement attribute, every third negated), exports a DAG that agrees
    with the classifier on sampled inputs."""
    n, chain = 5, 2000
    space = AttributeSpace.pure(n)
    for r in range(chain):
        below = len(space) - 2 + (r % 4 == 3) if r else 0
        h = PairHypothesis(("and", "or")[r % 2], below, r % 3 == 0, r % n, r % 5 == 0)
        space = augment(space, h)
    clf = DagClassifier(space=space, final=PairHypothesis("or", len(space) - 2, True, 1, False))
    assert clf.model_dict()["type"] == "dag"
    X = np.random.default_rng(7).integers(0, 2, size=(300, n), dtype=np.uint8)
    predicted = clf.predict_sample(make_sample(X, np.zeros(len(X))))
    assert np.array_equal(evaluate_batch(clf.to_concept(), X).astype(np.int8), predicted)
    assert set(predicted.tolist()) == {0, 1}


def test_a_deep_step_chain_exports_one_state_per_step_and_reading():
    """Export has no depth limit: on a chain of 2,000 learned steps, each
    step reads the step below it on 0 and that step's complement on 1, so
    every step is read both ways. A complement read the other way is its
    step, so each step gives exactly two states, and the final offset adds
    its leading chain."""
    chain, offset = 2000, 3
    space = AttributeSpace.terminals()
    for r in range(chain):
        below = len(space) - 2 if r else 0
        space = augment(space, AdfsaNodeHypothesis(offset=0, on0=below, on1=below + 1))
    final = AdfsaNodeHypothesis(offset=offset, on0=len(space) - 2, on1=len(space) - 1)
    n = chain + 1 + offset
    clf = AutomatonClassifier(space=space, final=final, n=n)
    expanded = clf.to_concept()
    assert expanded.size == 2 + 2 * chain + 1 + offset
    assert clf.model_dict()["type"] == "adfsa"
    assert max_path_depth(expanded) == n


def test_abstaining_classifier_reports_why_it_has_no_model():
    """A reliable session whose final round abstains everywhere has no DAG to
    export; its report says so instead."""
    report = run_teaching_session(
        random_dag(4, 10, 188), Distribution.uniform(4, 188), 10, mode="reliable"
    )
    assert report.to_json_dict()["model"] == {
        "type": "unserializable",
        "reason": "an always-abstaining classifier has no DAG form",
    }


def test_an_abstaining_final_set_reads_no_test_attribute(monkeypatch):
    """A final reliable set with no member abstains on every test input
    without filling the test sample's attribute rows. The report is the one
    the session gave when it filled them: the digest below is the sha256 of
    its JSON with sorted keys, recorded before abstention skipped the fill."""
    fills = []
    values = AttributeSpace.values

    def counting(self, bits):
        fills.append(len(bits))
        return values(self, bits)

    monkeypatch.setattr(AttributeSpace, "values", counting)
    report = run_teaching_session(
        random_dag(8, 30, seed=53), Distribution.uniform(8, 53), 60, mode="reliable"
    )
    assert report.classifier.final.abstains
    assert fills == []
    assert report.test_dont_know_rate == 1.0
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "95dd105eafd77b4da336b88d7e9078b1595ace5891f352552621e65e35a9fd6a"
    )


def starving_automaton():
    # on two strings, the second round's bucket is empty
    a = Adfsa(
        (RejectState(), AcceptState(), BranchState(0, 1), BranchState(2, 2), BranchState(1, 3)),
        start=4,
        n=3,
    )
    return a, Distribution.strings(3, 4, length_low=1)


def test_automaton_round_without_data_degenerates_and_continues():
    """An automaton round that moderation leaves empty keeps the learner's
    first step, (offset 0, accept, accept), and the session goes on."""
    report = run_teaching_session(*starving_automaton(), 2, test_size=1)
    starved = report.rounds[1]
    assert starved.subset_size == 0
    # three offsets, and four attributes for each child
    assert starved.candidate_count == 3 * 4 * 4
    assert report.classifier.space.learned(4)[0] == AdfsaNodeHypothesis(0, 0, 0)
    assert report.attribute_count == 2 + 2 * len(report.rounds)


@given(
    n=st.integers(1, 6),
    branches=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    m=st.integers(1, 60),
    chain=st.booleans(),
)
@example(n=2, branches=2, seed=0, m=1, chain=True)
@settings(max_examples=40, deadline=None)
def test_session_value_cube_matches_the_reference(n, branches, seed, m, chain):
    """The packed planes the session fills two rows per round decode to the
    reference eval_table of the round's space over the whole sample
    (complement rows and -1 cells included), the learner reads that cube's
    agreement_bits against the labels and the session's own string_words of
    the sample, each round's training error is read off its step's row, and
    the final space's eval_table matches the reference."""
    a = chain_automaton() if chain else random_automaton(n, min(branches, n), seed)
    d = Distribution.strings_for(a, seed)
    cubes, calls, held = [], [], []
    real_learn = impact.session._AutomatonRounds.learn
    real_learner = impact.session.learn_adfsa_node

    def recording_learn(rounds, A, kept, y):
        ok, agree = rounds.ok[:A], rounds.agree[:A]
        # a row's value is ok & ~(agree ^ y), and row 0's agreement is the packed labels
        cubes.append(decode_planes(ok, ok & ~(agree ^ rounds.agree[0, 0]), rounds.m))
        held.append(rounds.string_words)
        return real_learn(rounds, A, kept, y)

    def recording_learner(agree, strings, columns):
        calls.append((agree.copy(), strings, columns.copy()))
        return real_learner(agree, strings, columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(impact.session._AutomatonRounds, "learn", recording_learn)
        patch.setattr(impact.session, "learn_adfsa_node", recording_learner)
        report = run_teaching_session(a, d, m, test_size=20)
    s = draw_sample(d, a, m, stream=impact.session.TRAIN_STREAM)
    z = augment(report.classifier.space, report.classifier.final)
    whole = reference_eval_table(z, s.bits, s.lengths)
    assert np.array_equal(z.eval_table(s.bits, s.lengths), whole)
    words = string_words(s.bits, s.lengths)
    rows = [(r, 2 + 2 * r.index) for r in report.rounds]
    assert len(rows) == len(cubes) == len(calls) == len(held)
    for (record, row), table, own, (agree, strings, columns) in zip(rows, cubes, held, calls):
        assert np.array_equal(table, whole[: len(table)])
        assert np.array_equal(agree, agreement_bits(whole[: len(table)], s.labels))
        assert strings is own and np.array_equal(strings, words)
        step, _ = z.learned(row)
        wrong = whole[row, step.offset, columns] != s.labels[columns]
        assert record.training_error == (float(np.mean(wrong)) if len(columns) else 0.0)


def test_enforce_budget_aborts_small_samples():
    g = build_parity(8, (0, 3, 5))
    d = Distribution.uniform(8, 3)
    with pytest.raises(InsufficientDataError) as info:
        run_teaching_session(g, d, 10, enforce_budget=True)
    err = info.value
    assert err.round_index == 0
    # a total error of 0.05 split evenly over the taught rounds
    rounds = len(postfix_order(push_negations_to_leaves(g)))
    assert err.required == sample_budget(0.05 / rounds, 0.05)
    assert err.subset_size <= 10


def test_enforce_budget_admits_a_round_at_exactly_the_budget():
    """and_dag has one round, its root, and every row is relevant to the
    root: a sample of exactly the budget's size runs, one row fewer aborts."""
    g = and_dag()
    required = sample_budget(0.05 / len(postfix_order(g)), 0.05)
    report = run_teaching_session(g, Distribution.uniform(2, 1), required, enforce_budget=True)
    assert [r.subset_size for r in report.rounds] == [required]
    with pytest.raises(InsufficientDataError) as info:
        run_teaching_session(g, Distribution.uniform(2, 1), required - 1, enforce_budget=True)
    assert (info.value.subset_size, info.value.required) == (required - 1, required)


def test_automaton_session_holds_packed_planes_not_an_int8_cube(monkeypatch):
    """The automaton rounds hold no int8 array at all: their arrays are the
    two packed planes, ok and agree, of 2 + 2R rows at n + 1 offsets in
    ceil(m / 64) words, plus the sample's string_words, its two packed rows
    per offset. An int8 cube alone would hold about four times the planes
    here."""
    held = []
    real_fill = impact.session._AutomatonRounds.fill

    def recording_fill(rounds, A, h):
        held.append(rounds)
        return real_fill(rounds, A, h)

    monkeypatch.setattr(impact.session._AutomatonRounds, "fill", recording_fill)
    a, m = random_automaton(12, 12, seed=4), 1000
    report = run_teaching_session(a, Distribution.strings_for(a, 3), m, test_size=20)
    n, R, words = a.n, len(report.rounds), -(-m // 64)
    assert R >= 4
    arrays = [x for x in vars(held[-1]).values() if isinstance(x, np.ndarray)]
    assert [x.shape for x in arrays if x.dtype == np.int8] == []
    planes = 2 * (2 + 2 * R) * (n + 1) * 8 * words
    assert sum(x.nbytes for x in arrays) <= planes + 2 * n * 8 * words
    assert (2 + 2 * R) * (n + 1) * m > 3 * planes


def starving_concept():
    # inner gate is only relevant when the outer sibling is 1, and that
    # sibling is essentially impossible under the paired distribution
    g = ConceptDag(
        nodes=(Literal(0), Literal(1), And(0, 1), Literal(2), And(2, 3)),
        root=4,
        n=3,
    )
    return g, Distribution.product([0.5, 0.5, 1e-12], seed=21)


def test_enforced_starvation_reports_which_node():
    g, d = starving_concept()
    first_taught = postfix_order(push_negations_to_leaves(g))[0]
    with pytest.raises(InsufficientDataError) as info:
        run_teaching_session(g, d, 40, enforce_budget=True)
    assert info.value.round_index == 0
    assert info.value.node == first_taught
    assert info.value.subset_size == 0


def test_unenforced_starvation_degenerates_and_continues():
    """Without budget enforcement an empty round learns on no rows and the
    session still produces a classifier."""
    g, d = starving_concept()
    report = run_teaching_session(g, d, 40)
    assert report.rounds[0].subset_size == 0
    assert report.attribute_count == 3 + 2 * len(report.rounds)
    assert 0.0 <= report.test_accuracy <= 1.0


def starving_circuit():
    # the inner gate matters only where bit 2 is 1, which the distribution
    # almost never draws
    inner = Gate(threshold=2, inputs=(Wire("bit", 0), Wire("bit", 1)))
    outer = Gate(threshold=2, inputs=(Wire("gate", 0), Wire("bit", 2)))
    return ThresholdCircuit(gates=(inner, outer), root=1, n=3), Distribution.product(
        [0.5, 0.5, 1e-12], seed=4
    )


def test_a_starved_threshold_round_learns_zero_weights():
    """The inner gate's round learns on no rows and keeps the perceptron's
    starting point, zero weights and threshold 0.0."""
    report = run_teaching_session(*starving_circuit(), 40)
    starved = report.rounds[0]
    assert starved.subset_size == 0 and starved.training_error == 0.0
    gate = report.classifier.space.hypotheses[0]
    assert gate.weights.tolist() == [0.0, 0.0, 0.0] and gate.threshold == 0.0
    assert report.to_json_dict()["model"]["rounds"][0] == {
        "weights": [0.0, 0.0, 0.0],
        "threshold": 0.0,
    }


@pytest.mark.parametrize(
    "concept,d,m",
    [
        (build_parity(6, (0, 2, 5)), Distribution.uniform(6, 4), 120),
        (random_circuit(8, 4, seed=2), Distribution.uniform(8, 2), 150),
        (
            random_automaton(8, 6, seed=3),
            Distribution.strings_for(random_automaton(8, 6, seed=3), 3),
            150,
        ),
        (*starving_concept(), 40),
    ],
    ids=["parity", "circuit", "automaton", "starving"],
)
def test_session_moderation_matches_the_privileged_view(concept, d, m):
    """The session and export_privileged_view share one moderation path:
    each round's subset size is its column sum of the view over the
    session's training sample, under the session's one rule."""
    report = run_teaching_session(concept, d, m, test_size=20)
    taught = push_negations_to_leaves(concept) if isinstance(concept, ConceptDag) else concept
    rule = default_rule(taught)
    assert {r.rule for r in report.rounds} == {rule.value}
    s = draw_sample(d, concept, m, stream=impact.session.TRAIN_STREAM)
    view = export_privileged_view(postfix_order(taught), s, taught, rule)
    assert [r.subset_size for r in report.rounds] == view.sum(axis=0).tolist()


def test_pair_rounds_refuse_to_read_a_complement():
    """Pair rounds keep no complement rows, and no pair a round picks reads
    one, so reading a complement attribute is an invariant error rather
    than a row computed on the fly."""
    g = push_negations_to_leaves(build_parity(4, (0, 1, 3)))
    s = draw_sample(Distribution.uniform(4, 0), g, 40)
    plan = postfix_order(g)
    teacher = impact.teacher.Teacher(g, s, plan)
    rounds = impact.session._PairRounds(teacher, plan, "best-fit", diagnostics=False)
    assert np.array_equal(rounds[3], s.bits[:, 3])
    assert np.shares_memory(rounds[4], rounds.V)  # round 0's hypothesis row
    for j in (5, 4 + 2 * len(plan) - 1):
        with pytest.raises(ImpactError, match="complement"):
            rounds[j]


def test_parity_session_evaluates_the_concept_once(monkeypatch):
    """The teacher holds the node values every round reads, so a session
    makes one node_values call, counted through both modules that import it."""
    calls = []
    for module in (impact.teacher, impact.session):

        def counting(*args, real=module.node_values, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "node_values", counting)
    report = run_teaching_session(build_parity(8, (1, 3, 6)), Distribution.uniform(8, 5), 200)
    assert len(report.rounds) > 1
    assert len(calls) == 1


def test_automaton_session_walks_from_the_start_a_fixed_number_of_times(monkeypatch):
    """The two draws and the teacher walk the sample from the start state,
    three walks whatever the session's round count."""
    walks = []
    real = impact.concepts._walk

    def counting(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(impact.concepts, "_walk", counting)
    monkeypatch.setattr(impact.teacher, "_walk", counting)
    round_counts = set()
    for a in (chain_automaton(), random_automaton(8, 6, seed=1)):
        walks.clear()
        report = run_teaching_session(a, Distribution.strings_for(a, 2), 100, test_size=20)
        round_counts.add(len(report.rounds))
        assert len(walks) == 3
    assert len(round_counts) == 2


@pytest.mark.parametrize(
    "corrupt,case",
    [
        (lambda kept: kept[::-1], "reversed"),
        (lambda kept: kept + 10**6, "outside"),
        (lambda kept: np.r_[kept[:1], kept], "repeated"),
        # parity_session draws 80 rows, so index 80 is one past the last
        (lambda kept: np.r_[kept, 80], "one-past-the-end"),
    ],
)
def test_moderation_that_changes_rows_is_an_error(monkeypatch, corrupt, case):
    """A round whose row indices are not ascending rows of the sample, here
    reordered, repeated or outside it, stops the session with an explicit
    error, also under python -O."""
    real = impact.session.moderate

    def corrupted(*args):
        kept, offset = real(*args)
        return corrupt(kept), offset

    monkeypatch.setattr(impact.session, "moderate", corrupted)
    with pytest.raises(ImpactError, match="not ascending rows of the sample"):
        parity_session()


def test_mode_validation():
    c = vote_circuit()
    d = Distribution.uniform(3, 1)
    with pytest.raises(InvalidParameterError):
        run_teaching_session(c, d, 50, mode="reliable")
    g = and_dag()
    with pytest.raises(InvalidParameterError):
        run_teaching_session(g, Distribution.uniform(2, 1), 50, mode="other")


def test_true_attribute_matrix_layout():
    g = and_dag()
    plan = postfix_order(g)
    X = all_inputs(2)
    truth = true_attribute_matrix(node_values(g, X), plan, X)
    assert truth.shape == (2 + 2 * len(plan), 4)
    root_vals = evaluate_batch(g, X)
    assert np.array_equal(truth[2], root_vals)
    assert np.array_equal(truth[3], 1 - root_vals)


def test_medium_dag_session_generalizes():
    g = random_dag(8, 14, seed=3)
    d = Distribution.uniform(8, 17)
    report = run_teaching_session(g, d, 738, diagnostics=False)
    assert report.test_accuracy >= 0.9


def test_diagnostics_flag_suppresses_extras():
    report = parity_session(m=80, diagnostics=False)
    assert all(r.error_full is None for r in report.rounds)


@pytest.mark.parametrize("mode", ["best-fit", "reliable"])
def test_pair_rounds_learn_on_base_and_hypothesis_rows(monkeypatch, mode):
    """No round's pair, and no member of a round's reliable set, reads a
    complement attribute, which is what lets pair rounds keep only the n base
    rows and one row per round; the reported candidate counts still describe
    the full canonical space."""
    learned = []
    learn = impact.session._PairRounds.learn

    def recording(self, A, kept, y):
        h = learn(self, A, kept, y)
        learned.append((self.V.shape[0], h))
        return h

    monkeypatch.setattr(impact.session._PairRounds, "learn", recording)
    n = 6
    for seed in range(20):
        learned.clear()
        g = random_dag(n, 40, seed)
        report = run_teaching_session(g, Distribution.uniform(n, seed), 300, mode=mode)
        R = len(report.rounds)
        assert learned and all(rows == n + R for rows, _ in learned)
        pairs = list(report.classifier.space.hypotheses)
        for _, h in learned:
            pairs += [h.primary, *h.members] if isinstance(h, ReliablePairSet) else [h]
        assert all(j < n or (j - n) % 2 == 0 for h in pairs for j in (h.left_attr, h.right_attr))
        assert [r.candidate_count for r in report.rounds] == [
            pair_space_size(n + 2 * r) for r in range(R)
        ]


def test_reliable_rounds_are_best_fit_rounds_that_abstain_by_their_error(monkeypatch):
    """A reliable session's attribute in every round is its best-fit pair,
    and only the last round builds a version space: its rounds equal a
    best-fit session's, and each round's dont_know is exactly whether the
    reliable set learned on that round's rows abstains. Those sets read no
    complement attribute. Seeds 0-39 abstain only in starved rounds, or in
    the last; seeds 64 and 152 each have an intermediate round that abstains
    with 37 and 29 rows."""
    calls = []
    learn = impact.session.learn_pair_node

    def recording(F0, F1, mode):
        calls.append((F0, F1, mode))
        return learn(F0, F1, mode)

    def summary(report):
        return [(r.node, r.subset_size, r.training_error) for r in report.rounds]

    monkeypatch.setattr(impact.session, "learn_pair_node", recording)
    n, fed_abstentions = 8, 0
    for seed in [*range(40), 64, 152]:
        g, d = random_dag(n, 30, seed), Distribution.uniform(n, seed)
        best = run_teaching_session(g, d, 60)
        calls.clear()
        report = run_teaching_session(g, d, 60, mode="reliable")
        assert [mode for *_, mode in calls].count("reliable") == 1 and calls[-1][2] == "reliable"
        assert summary(report) == summary(best) and not any(r.dont_know for r in best.rounds)
        assert report.classifier.space == best.classifier.space
        for r, (F0, F1, _) in zip(report.rounds, calls, strict=True):
            h = full_layout(learn(F0, F1, "reliable"), n)
            assert h.abstains == r.dont_know
            assert all(j < n or (j - n) % 2 == 0 for p in h.members for j in (p.left_attr, p.right_attr))
            fed_abstentions += r.dont_know and r.subset_size > 0 and r.index < len(report.rounds) - 1
    assert fed_abstentions == 2


@pytest.mark.parametrize("mode", ["best-fit", "reliable"])
def test_every_pair_round_calls_the_learner_once(monkeypatch, mode):
    """Every round, fed or starved, calls learn_pair_node once: a starved
    round learns on no rows. In reliable mode round 3 abstains in both
    sessions: starved in the first, fed in the second, where its set carries
    the best-fit pair that becomes the round's attribute."""
    calls = []
    learn = impact.session.learn_pair_node

    def counting(*args, **kwargs):
        calls.append(args)
        return learn(*args, **kwargs)

    monkeypatch.setattr(impact.session, "learn_pair_node", counting)
    sessions = [
        (random_dag(10, 40, seed=18), Distribution.uniform(10, 5), 30, 0),
        (random_dag(8, 30, seed=53), Distribution.uniform(8, 53), 60, 60),
    ]
    for g, d, m, abstaining_size in sessions:
        calls.clear()
        report = run_teaching_session(g, d, m, mode=mode)
        assert len(calls) == len(report.rounds)
        abstaining = [(r.index, r.subset_size) for r in report.rounds if r.dont_know]
        assert abstaining == ([(3, abstaining_size)] if mode == "reliable" else [])


def session_rounds_and_votes(concept, d, m, state, test_size=200, mode="best-fit"):
    """A session's rounds as (node, subset size, offset, training error,
    dont_know, and each field of state(hypothesis)), its classifier's votes
    on the test inputs, and its test accuracy."""
    report = run_teaching_session(concept, d, m, mode=mode, test_size=test_size)
    clf = report.classifier
    rounds = [
        (r.node, r.subset_size, r.offset, r.training_error, r.dont_know, *state(h))
        for r, h in zip(report.rounds, [*clf.space.hypotheses, clf.final], strict=True)
    ]
    test = draw_sample(d, concept, test_size, stream=impact.session.TEST_STREAM)
    return rounds, clf.predict_sample(test).tolist(), report.test_accuracy


@pytest.mark.parametrize("mode", ["best-fit", "reliable"])
def test_formula_sessions_equal_the_reference_session(mode):
    """Round by round, a formula session equals reference_session: the node,
    the subset size, no offset, the training error, dont_know and the picked
    pair; and its classifier's votes on the test inputs, with its test
    accuracy. The reliable set is compared by its votes: the reference's
    zero-error set also holds the pairs that read a complement row, which
    the session's set drops, as each has a twin in the set with the same
    values. Three
    sessions have a starved round (the last three cases, which include a
    product distribution), three have a fed round that abstains in
    reliable mode (seeds 53, 64 and 152), and five reliable classifiers
    abstain on some test inputs."""
    cases = [(random_dag(8, 30, seed), Distribution.uniform(8, seed), 60) for seed in range(20)]
    cases += [(random_dag(8, 30, seed), Distribution.uniform(8, seed), 60) for seed in (53, 64, 152)]
    cases += [
        (random_dag(10, 40, seed=18), Distribution.uniform(10, 5), 30),
        (random_dag(10, 40, seed=18), Distribution.product([0.2, 0.8, 0.5, 0.5, 0.3] * 2, 5), 30),
        (*starving_concept(), 40),
    ]
    seen = {"starved": 0, "fed abstention": 0, "abstaining vote": 0}
    for g, d, m in cases:
        rounds, votes, accuracy = session_rounds_and_votes(
            g, d, m, lambda h: (getattr(h, "primary", h),), mode=mode
        )
        assert (rounds, votes, accuracy) == reference_session(g, d, m, mode, test_size=200)
        seen["starved"] += any(size == 0 for _, size, *_ in rounds)
        seen["fed abstention"] += any(size and dont_know for _, size, _, _, dont_know, _ in rounds)
        seen["abstaining vote"] += -1 in votes
    reliable = mode == "reliable"
    assert seen == {"starved": 3, "fed abstention": 3 * reliable, "abstaining vote": 5 * reliable}


def test_circuit_sessions_equal_the_reference_session():
    """Round by round, a threshold-circuit session equals
    reference_circuit_session: the node, the subset size, no offset, the
    training error, no dont_know, and the gate's weights and threshold; and
    its classifier's votes on the test inputs, with its test accuracy.
    Three sessions have a starved round (starving_circuit among them), two
    have a round whose gate errs on its rows, so its perceptron runs all its
    epochs, and sixteen err on some test input."""
    cases = [(random_circuit(6, 3, seed), Distribution.uniform(6, seed), 60) for seed in range(6)]
    cases += [(random_circuit(8, 5, seed), Distribution.uniform(8, seed), 120) for seed in range(8)]
    cases += [
        (layered_circuit(), Distribution.uniform(4, 9), 60),
        (vote_circuit(), Distribution.uniform(3, 1), 60),
        (*starving_circuit(), 40),
        (random_circuit(6, 4, 7, fan_in=2), Distribution.uniform(6, 7), 100),
        (random_circuit(8, 3, 2, fan_in=4), Distribution.uniform(8, 2), 100),
    ]
    seen = {"starved": 0, "erring round": 0, "test error": 0}
    for c, d, m in cases:
        rounds, votes, accuracy = session_rounds_and_votes(
            c, d, m, lambda h: (h.weights.tolist(), h.threshold)
        )
        assert (rounds, votes, accuracy) == reference_circuit_session(c, d, m)
        seen["starved"] += any(size == 0 for _, size, *_ in rounds)
        seen["erring round"] += any(error > 0 for *_, error, _, _, _ in rounds)
        seen["test error"] += accuracy < 1
    assert seen == {"starved": 3, "erring round": 2, "test error": 16}


def test_automaton_sessions_equal_the_reference_session():
    """Round by round, an automaton session equals
    reference_automaton_session: the node, the subset size, the offset, the
    training error, no dont_know and the step; and its classifier's votes on
    the test strings, with its test accuracy. starving_automaton has a
    starved round, which has no offset; five rounds learn a step at an
    offset other than their bucket's, and three sessions err on some test
    string."""
    cases = [(random_automaton(5, 4, seed), seed, 60) for seed in range(6)]
    cases += [(random_automaton(8, 6, seed), seed, 80) for seed in (0, 1, 2, 3, 7, 11)]
    cases += [(random_automaton(6, 6, 5), 5, 60), (chain_automaton(), 13, 60)]
    cases = [(a, Distribution.strings_for(a, seed), m, 200) for a, seed, m in cases]
    # two training strings, and one test string, which must be long enough
    cases += [(*starving_automaton(), 2, 1)]
    seen = {"starved": 0, "moved offset": 0, "test error": 0}
    for a, d, m, test_size in cases:
        rounds, votes, accuracy = session_rounds_and_votes(a, d, m, lambda h: (h,), test_size)
        assert (rounds, votes, accuracy) == reference_automaton_session(a, d, m, test_size)
        seen["starved"] += sum(offset is None for _, _, offset, *_ in rounds)
        seen["moved offset"] += sum(
            offset is not None and step.offset != offset for *_, offset, _, _, step in rounds
        )
        seen["test error"] += accuracy < 1
    assert seen == {"starved": 1, "moved offset": 5, "test error": 3}
