"""Teaching schedules: which node each round teaches, children first."""

from __future__ import annotations

import enum

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


def default_rule(concept: Concept) -> ModerationRule:
    if isinstance(concept, Adfsa):
        return ModerationRule.OFFSET_PARTITION
    return ModerationRule.RELEVANT_FILTER


def postfix_order(concept: Concept) -> tuple[int, ...]:
    """The nodes to teach, one round each, children always before parents.

    Edges point to strictly lower indices, so ascending index order over the
    reachable teachable nodes is a valid postfix order with the root last.
    For formula DAGs the teachable nodes are the and/or nodes; literals are
    raw attributes and negations ride along as negated references. A DAG
    whose root is a bare literal or a negated literal still gets one round.
    """
    reach = sorted(reachable_indices(concept))
    if isinstance(concept, ConceptDag):
        order = tuple(i for i in reach if isinstance(concept.nodes[i], (And, Or)))
        return order or (concept.root,)
    if isinstance(concept, ThresholdCircuit):
        return tuple(reach)
    order = tuple(i for i in reach if concept.children[i])
    if not order:
        raise InvalidConceptError("automaton has no branch states to teach")
    return order
