"""Teaching schedules: which node is taught when, and under which moderation rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .concepts import (
    Adfsa,
    And,
    Concept,
    ConceptDag,
    Or,
    ThresholdCircuit,
    reachable_indices,
)
from .errors import InvalidConceptError


class ModerationRule(enum.Enum):
    """How the teacher filters the sample for one round.

    RELEVANT_FILTER keeps exactly the examples whose root value depends on
    the target node. LARGER_PARTITION splits by agreement between the node
    value and the label and keeps the bigger half. OFFSET_PARTITION is the
    string-concept rule: bucket by arrival offset and agreement, keep the
    largest bucket.
    """

    RELEVANT_FILTER = "relevant"
    LARGER_PARTITION = "partition"
    OFFSET_PARTITION = "offset"


@dataclass(frozen=True)
class Round:
    node: int
    rule: ModerationRule


@dataclass(frozen=True)
class RoundPlan:
    rounds: tuple[Round, ...]

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))

    def __len__(self) -> int:
        return len(self.rounds)


def default_rule(concept: Concept) -> ModerationRule:
    if isinstance(concept, Adfsa):
        return ModerationRule.OFFSET_PARTITION
    return ModerationRule.RELEVANT_FILTER


def postfix_order(concept: Concept, rule: ModerationRule | None = None) -> RoundPlan:
    """One round per teachable node, children always scheduled before parents.

    Edges point to strictly lower indices, so ascending index order over the
    reachable teachable nodes is a valid postfix order with the root last.
    For formula DAGs the teachable nodes are the and/or nodes; literals are
    raw attributes and negations ride along as negated references. A DAG
    whose root is a bare literal or a negated literal still gets one round.
    """
    if rule is None:
        rule = default_rule(concept)
    if isinstance(concept, Adfsa) != (rule is ModerationRule.OFFSET_PARTITION):
        raise InvalidConceptError(f"moderation rule {rule.value} does not fit this concept")
    reach = reachable_indices(concept)
    if isinstance(concept, ConceptDag):
        order = [
            i
            for i in sorted(reach)
            if isinstance(concept.nodes[i], (And, Or))
        ]
        if not order:
            order = [concept.root]
    elif isinstance(concept, ThresholdCircuit):
        order = sorted(reach)
    else:
        order = [i for i in sorted(reach) if concept.children[i]]
        if not order:
            raise InvalidConceptError("automaton has no branch states to teach")
    return RoundPlan(rounds=tuple(Round(i, rule) for i in order))

