"""The verifiers get verified first, on cases small enough to do by hand."""

import numpy as np
import pytest

from helpers import (
    all_inputs,
    and_dag,
    chain_automaton,
    layered_circuit,
    mixed_relevance_dag,
    nand_dag,
    one_bit_acceptor,
    or_dag,
    vote_circuit,
)
from impact import (
    And,
    AttributeSpace,
    ConceptDag,
    Distribution,
    EnumerationCapError,
    ImpactError,
    InvalidParameterError,
    Literal,
    Not,
    PairHypothesis,
    UndefinedMetricError,
    build_parity,
    run_teaching_session,
)
from impact.oracle import (
    WITNESS_LIMIT,
    DisagreementReport,
    _eval,
    exhaustive_equivalence,
    exhaustive_string_equivalence,
    reference_evaluate,
    reference_node_value,
    reference_perceptron,
    relevance_by_substitution,
    run_automaton,
    sampled_disagreement,
)


def test_reference_evaluate_and_truth_table():
    g = and_dag()
    table = [reference_evaluate(g, bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert table == [0, 0, 0, 1]


def test_reference_evaluate_or_and_nand():
    assert [reference_evaluate(or_dag(), b) for b in ((0, 0), (1, 0), (0, 1))] == [0, 1, 1]
    assert [reference_evaluate(nand_dag(), b) for b in ((1, 1), (0, 1))] == [0, 1]


def test_reference_evaluate_shared_node():
    g = mixed_relevance_dag()
    # x0=1,x1=1 -> left AND fires; x0=0,x2=1 -> right AND fires
    assert reference_evaluate(g, (1, 1, 0)) == 1
    assert reference_evaluate(g, (0, 0, 1)) == 1
    assert reference_evaluate(g, (1, 0, 0)) == 0


def test_reference_evaluate_circuits():
    c = vote_circuit()
    assert reference_evaluate(c, (1, 1, 0)) == 1
    assert reference_evaluate(c, (1, 0, 0)) == 0
    layered = [
        (bits, reference_evaluate(vote_circuit(), bits)) for bits in all_inputs(3)
    ]
    assert all(out == (int(sum(bits)) >= 2) for bits, out in layered)


def test_reference_node_value_inner_node():
    g = mixed_relevance_dag()
    assert reference_node_value(g, 4, (1, 1, 0)) == 1
    assert reference_node_value(g, 4, (1, 0, 0)) == 0
    assert reference_node_value(g, 3, (0, 1, 1)) == 1


def test_run_automaton_single_step():
    a = one_bit_acceptor()
    assert run_automaton(a, (1,)) == 1
    assert run_automaton(a, (0,)) == 0


def test_run_automaton_exhaustion_is_undefined():
    a = chain_automaton()
    assert run_automaton(a, (1,)) == -1
    assert run_automaton(a, (1, 1)) == 1
    assert run_automaton(a, (1, 0)) == 0
    assert run_automaton(a, (0,)) == 0


def test_reference_evaluate_walks_an_automaton():
    """An automaton's output where its walk ends at a terminal; a string that
    runs out first has no output, which is an error here."""
    a = chain_automaton()
    assert [reference_evaluate(a, bits) for bits in ((0,), (1, 1), (1, 0))] == [0, 1, 0]
    with pytest.raises(UndefinedMetricError, match="input exhausted"):
        reference_evaluate(a, (1,))


def test_relevance_by_substitution_blocked_and():
    g = and_dag()
    # x1=0 blocks the AND, so x0 cannot matter
    assert not relevance_by_substitution(g, 0, (1, 0))
    assert relevance_by_substitution(g, 0, (1, 1))
    assert relevance_by_substitution(g, 2, (0, 0))  # the root always matters


def test_relevance_of_dead_code_is_false():
    from impact import And, ConceptDag, Literal

    g = ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), And(left=0, right=1), Literal(bit=0)),
        root=3,
        n=2,
    )
    for bits in all_inputs(2):
        assert not relevance_by_substitution(g, 2, bits)


def test_relevance_by_substitution_circuit():
    c = vote_circuit()
    assert relevance_by_substitution(c, 0, (0, 0, 0))


def _and_chain(depth: int) -> ConceptDag:
    """x0 and x0 and ... x0, each And one level above the last."""
    nodes = [Literal(bit=0)] + [And(left=i, right=0) for i in range(depth)]
    return ConceptDag(nodes=tuple(nodes), root=depth, n=1)


@pytest.mark.parametrize(
    "concept, bits, target, pins, expected",
    [
        pytest.param(and_dag(), (1, 1), 2, {2: 0}, 0, id="pinned-target-node"),
        pytest.param(layered_circuit(), (1, 1, 1, 0), 2, {2: 0}, 0, id="pinned-target-gate"),
        pytest.param(and_dag(), (1, 0), 0, {1: 1, 2: 1}, 1, id="pins-off-cone-node"),
        pytest.param(layered_circuit(), (1, 1, 0, 0), 1, {0: 0, 2: 1}, 0, id="pins-off-cone-gate"),
        pytest.param(_and_chain(5000), (1,), 5000, None, 1, id="5000-level-and-chain"),
    ],
)
def test_eval_reads_pins_and_walks_deep_concepts(concept, bits, target, pins, expected):
    """A pinned target reads its pin, a pin on a node the target does not
    read changes nothing, and the walk keeps its own stack, so no depth
    reaches Python's recursion limit."""
    assert _eval(concept, bits, target, pins) == expected
    if pins and target not in pins:
        assert _eval(concept, bits, target) == expected


def test_exhaustive_equivalence_equal_returns_none():
    assert exhaustive_equivalence(and_dag(), and_dag(), 2) is None


def test_exhaustive_equivalence_reports_planted_difference():
    report = exhaustive_equivalence(and_dag(), or_dag(), 2)
    assert isinstance(report, DisagreementReport)
    # AND and OR differ exactly on (0,1) and (1,0)
    assert report.checked == 4
    assert report.disagreements == 2
    assert report.fraction == 0.5
    for bits, left, right in report.witnesses:
        assert reference_evaluate(and_dag(), bits) == left
        assert reference_evaluate(or_dag(), bits) == right
        assert left != right


def test_exhaustive_equivalence_complement_fraction_one():
    g = and_dag()
    report = exhaustive_equivalence(g, lambda bits: 1 - reference_evaluate(g, bits), 2)
    assert report.fraction == 1.0


def test_exhaustive_equivalence_cap():
    with pytest.raises(EnumerationCapError):
        exhaustive_equivalence(and_dag(), or_dag(), 21)


def test_exhaustive_equivalence_rejects_an_unstable_predictor():
    """Witnesses are re-evaluated before they are recorded; a predictor that
    answers differently on a repeated input is an error, also under python -O."""
    calls = []

    def flaky(bits):
        calls.append(bits)
        return len(calls) % 2

    with pytest.raises(ImpactError, match="repeated input"):
        exhaustive_equivalence(and_dag(), flaky, 2)


def test_witness_limit_respected():
    report = exhaustive_equivalence(build_parity(4, (0, 1, 2, 3)), lambda bits: 0, 4)
    assert report.disagreements == 8
    assert len(report.witnesses) == WITNESS_LIMIT


def test_comparisons_refuse_a_concept_of_another_width():
    """A concept compared on more bits than it reads, or on fewer, is an
    error rather than an IndexError or a silent verdict; a callable is
    taken as it is."""
    four, six = build_parity(4, (0, 3)), build_parity(6, (0, 3))
    with pytest.raises(InvalidParameterError, match="n=4 cannot be compared on n=3"):
        exhaustive_equivalence(four, four, 3)
    with pytest.raises(InvalidParameterError, match="n=6 cannot be compared on n=4"):
        exhaustive_equivalence(four, six, 4)
    with pytest.raises(InvalidParameterError, match="n=4 cannot be compared on n=6"):
        sampled_disagreement(four, six, Distribution.uniform(6, 0), 100)
    with pytest.raises(InvalidParameterError, match="n=2 cannot be compared on n=3"):
        sampled_disagreement(chain_automaton(), chain_automaton(), Distribution.strings(3, 0), 100)
    assert exhaustive_equivalence(four, lambda bits: bits[0] ^ bits[3], 4) is None


def test_string_equivalence_strict_vs_ignore_undefined():
    a = chain_automaton()
    b = one_bit_acceptor(n=2)
    # they agree whenever both are defined, but differ in definedness
    strict = exhaustive_string_equivalence(a, b)
    assert strict is not None
    relaxed = exhaustive_string_equivalence(a, b, ignore_undefined=True)
    assert relaxed is not None  # "0" is defined for both and they disagree
    assert ((0,), 0, 0) not in relaxed.witnesses
    same = exhaustive_string_equivalence(a, chain_automaton())
    assert same is None


def test_string_equivalence_cap():
    with pytest.raises(EnumerationCapError):
        exhaustive_string_equivalence(one_bit_acceptor(n=21), one_bit_acceptor(n=21))


@pytest.mark.parametrize(
    "compare,message",
    [
        (
            lambda: sampled_disagreement(
                build_parity(3, (0, 2)), build_parity(3, (0, 2)), Distribution.strings(3, 0), 50
            ),
            "kind 'dag' cannot read strings",
        ),
        (
            lambda: exhaustive_equivalence(chain_automaton(), chain_automaton(), 2),
            "kind 'adfsa' cannot read fixed-width vectors",
        ),
        (
            lambda: exhaustive_string_equivalence(one_bit_acceptor(n=3), one_bit_acceptor(n=4)),
            "n=4 cannot be compared on n=3",
        ),
    ],
    ids=["formula-on-strings", "automaton-on-vectors", "automata-of-two-widths"],
)
def test_comparisons_refuse_inputs_a_concept_cannot_read(compare, message):
    """Every comparison refuses the pairs that draw_sample refuses: a formula
    on strings, an automaton on fixed-width vectors, and automata of
    different n, which would otherwise be compared on the longer strings."""
    with pytest.raises(InvalidParameterError, match=message):
        compare()


def test_empirical_concentrates_on_distribution_norm():
    # two fixed pair functions whose exact disagreement is one half
    left = PairHypothesis(op="and", left_attr=0, left_negated=False, right_attr=1, right_negated=False)
    right = PairHypothesis(op="or", left_attr=0, left_negated=False, right_attr=1, right_negated=False)
    z = AttributeSpace.pure(4)
    rows = z.values(all_inputs(4))
    exact = float(np.mean(left.evaluate_rows(rows) != right.evaluate_rows(rows)))
    assert exact == 0.5
    epsilon, m, trials = 0.1, 185, 40
    misses = 0
    for t in range(trials):
        d = Distribution.uniform(4, t)
        from impact import draw_sample

        s = draw_sample(d, and_dag(4), m, stream=t)
        frac = float(
            np.mean(left.evaluate_rows(z.values(s.bits)) != right.evaluate_rows(z.values(s.bits)))
        )
        if abs(frac - exact) > epsilon:
            misses += 1
    assert misses <= 2  # delta = 0.05 over 40 trials, with slack


def test_sampled_disagreement_identity_and_complement():
    g = build_parity(6, (0, 3, 5))
    d = Distribution.uniform(6, 9)
    assert sampled_disagreement(g, g, d, 2000) == 0.0
    frac = sampled_disagreement(g, lambda bits: 1 - reference_evaluate(g, bits), d, 2000)
    assert frac == 1.0


def test_sampled_disagreement_draws_product_bits():
    """x0 and not x1 differs from x0 only where both bits are 1: never when
    bit 1 is always 0, on a quarter of uniform inputs."""
    x0 = ConceptDag(nodes=(Literal(bit=0),), root=0, n=2)
    x0_not_x1 = ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), Not(child=1), And(left=0, right=2)), root=3, n=2
    )
    assert sampled_disagreement(x0, x0_not_x1, Distribution.product((1.0, 0.0), 0), 1000) == 0.0
    frac = sampled_disagreement(x0, x0_not_x1, Distribution.uniform(2, 0), 4000)
    assert frac == pytest.approx(0.25, abs=0.03)


def test_sampled_disagreement_draws_strings_for_automata():
    """Strings of every length from length_low to n: chain_automaton is
    undefined on the 1-bit strings that start with 1, which leave the
    comparison, and one_bit_acceptor(2) differs from it on 10 and on
    nothing else it reads. Of the defined strings, 1/3 have length 1 and
    start with 0, and 2/3 are 2 bits long, of which a quarter are 10."""
    a, b = chain_automaton(), one_bit_acceptor(2)
    d = Distribution.strings(2, 3)
    assert sampled_disagreement(a, a, d, 3000) == 0.0
    assert sampled_disagreement(a, b, d, 3000) == pytest.approx(1 / 6, abs=0.03)


def test_sampled_disagreement_runs_a_classifier_on_the_drawn_inputs():
    """A session's classifier against the concept it was taught; a learned
    automaton abstains (-1) where its walk runs out, and those strings
    leave the comparison."""
    g = build_parity(4, (0, 2))
    report = run_teaching_session(g, Distribution.uniform(4, 11), 200)
    assert report.test_accuracy == 1.0
    assert sampled_disagreement(report.classifier, g, Distribution.uniform(4, 5), 500) == 0.0
    a = chain_automaton()
    report = run_teaching_session(a, Distribution.strings_for(a, 13), 400)
    assert report.test_accuracy == 1.0
    assert sampled_disagreement(report.classifier, a, Distribution.strings(2, 5), 500) == 0.0


def test_sampled_disagreement_needs_a_draw_and_a_defined_comparison():
    d = Distribution.uniform(2, 0)
    with pytest.raises(InvalidParameterError, match="m must be >= 1"):
        sampled_disagreement(and_dag(), and_dag(), d, 0)
    with pytest.raises(UndefinedMetricError, match="no input was defined"):
        sampled_disagreement(lambda bits: -1, and_dag(), d, 10)


def test_reference_perceptron_keeps_its_starting_point_on_an_empty_sample():
    """As learn_threshold_node does: zero float64 weights and threshold 0.0."""
    for A in (1, 4):
        h = reference_perceptron(np.zeros((A, 0), dtype=np.uint8), np.zeros(0, dtype=np.uint8), 10)
        assert h.weights.dtype == np.float64 and h.weights.tolist() == [0.0] * A
        assert type(h.threshold) is float and h.threshold == 0.0
