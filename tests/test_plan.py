"""Round planning: postfix order and rule defaults."""

import pytest

from helpers import and_dag, chain_automaton, layered_circuit, one_bit_acceptor
from impact import (
    And,
    ConceptDag,
    Distribution,
    InvalidParameterError,
    Literal,
    ModerationRule,
    Not,
    Or,
    build_parity,
    postfix_order,
    push_negations_to_leaves,
    run_teaching_session,
)
from impact.generate import random_dag
from impact.plan import default_rule


def test_single_literal_is_one_round():
    g = ConceptDag(nodes=(Literal(bit=0),), root=0, n=1)
    plan = postfix_order(g)
    assert plan == (g.root,)


def test_and_over_or_orders_child_first():
    g = ConceptDag(
        nodes=(
            Literal(bit=0),
            Literal(bit=1),
            Literal(bit=2),
            Or(left=0, right=1),
            And(left=3, right=2),
        ),
        root=4,
        n=3,
    )
    plan = postfix_order(g)
    assert plan == (3, 4)


def test_children_always_precede_parents():
    for seed in range(20):
        g = push_negations_to_leaves(random_dag(6, 12, seed=seed))
        plan = postfix_order(g)
        position = {node: i for i, node in enumerate(plan)}
        for node_idx, node in enumerate(g.nodes):
            if node_idx not in position or not isinstance(node, (And, Or)):
                continue
            for child in (node.left, node.right):
                if child in position:
                    assert position[child] < position[node_idx]


def test_plan_contains_only_gate_nodes():
    g = push_negations_to_leaves(build_parity(8, (0, 3, 5, 7)))
    for node in postfix_order(g):
        assert isinstance(g.nodes[node], (And, Or))


def test_not_root_plans_the_root_itself():
    g = ConceptDag(nodes=(Literal(bit=0), Not(child=0)), root=1, n=2)
    plan = postfix_order(g)
    assert plan == (1,)


def test_default_rules_by_kind():
    assert default_rule(and_dag()) is ModerationRule.RELEVANT_FILTER
    assert default_rule(layered_circuit()) is ModerationRule.RELEVANT_FILTER
    assert default_rule(chain_automaton()) is ModerationRule.OFFSET_PARTITION


def test_offset_rule_rejected_for_boolean():
    """A plan carries no rule: the teacher refuses a session's rule that does
    not fit the concept's kind when it moderates a round."""
    with pytest.raises(InvalidParameterError, match="does not apply"):
        run_teaching_session(
            and_dag(), Distribution.uniform(2, 0), 8, moderation=ModerationRule.OFFSET_PARTITION
        )
    a = one_bit_acceptor()
    with pytest.raises(InvalidParameterError, match="does not apply"):
        run_teaching_session(
            a, Distribution.strings_for(a, 0), 8, moderation=ModerationRule.RELEVANT_FILTER
        )


def test_circuit_plan_covers_reachable_gates():
    c = layered_circuit()
    plan = postfix_order(c)
    assert plan == (0, 1, 2)
    assert plan[-1] == c.root
