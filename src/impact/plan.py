"""Teaching schedules: which node each round teaches, children first."""

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
from .errors import InvalidConceptError, InvalidParameterError


class ModerationRule(enum.Enum):
    """How the teacher filters the sample for one round.

    RELEVANT_FILTER keeps exactly the examples whose root value depends on
    the target node. LARGER_PARTITION splits by agreement between the node
    value and the label and keeps the bigger half. OFFSET_PARTITION is the
    string-concept rule: bucket by arrival offset and agreement, keep the
    largest bucket. ModerationRule(value) gives the member of a value, and
    raises InvalidParameterError for any other.
    """

    RELEVANT_FILTER = "relevant"
    LARGER_PARTITION = "partition"
    OFFSET_PARTITION = "offset"

    @classmethod
    def _missing_(cls, value):
        raise InvalidParameterError(f"unknown moderation rule {value!r}")


@dataclass(frozen=True)
class Round:
    node: int


@dataclass(frozen=True)
class RoundPlan:
    rounds: tuple[Round, ...]

    def __len__(self) -> int:
        return len(self.rounds)


def default_rule(concept: Concept) -> ModerationRule:
    if isinstance(concept, Adfsa):
        return ModerationRule.OFFSET_PARTITION
    return ModerationRule.RELEVANT_FILTER


def postfix_order(concept: Concept) -> RoundPlan:
    """One round per teachable node, children always scheduled before parents.

    Edges point to strictly lower indices, so ascending index order over the
    reachable teachable nodes is a valid postfix order with the root last.
    For formula DAGs the teachable nodes are the and/or nodes; literals are
    raw attributes and negations ride along as negated references. A DAG
    whose root is a bare literal or a negated literal still gets one round.
    """
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
    return RoundPlan(rounds=tuple(Round(i) for i in order))

