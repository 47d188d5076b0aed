"""Sample moderation. The teacher filters the round's training data and does
nothing else: it never relabels, reorders, or talks to the learner.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concepts import (
    Adfsa,
    Concept,
    ConceptDag,
    ThresholdCircuit,
    adfsa_labels,
    arrival_offsets,
    node_values,
    relevance_mask,
    state_outputs,
)
from .errors import InsufficientDataError, InvalidParameterError
from .plan import ModerationRule, RoundPlan
from .sampling import Sample


def _check_labels_boolean(concept, s: Sample, vals: np.ndarray) -> None:
    if not np.array_equal(vals[:, concept.root], s.labels):
        raise InvalidParameterError(
            "sample labels disagree with the concept; the teacher never relabels"
        )


def _boolean_mask(
    concept: ConceptDag | ThresholdCircuit,
    node: int,
    s: Sample,
    rule: ModerationRule,
    vals: np.ndarray,
) -> np.ndarray:
    if rule is ModerationRule.RELEVANT_FILTER:
        return relevance_mask(concept, node, s.bits, values=vals)
    if rule is ModerationRule.LARGER_PARTITION:
        agree = vals[:, node] == s.labels
        n_agree = int(agree.sum())
        n_disagree = len(s) - n_agree
        # Ties keep the agreeing half.
        return agree if n_agree >= n_disagree else ~agree
    raise InvalidParameterError(f"rule {rule.value} does not apply to this concept")


def moderate_boolean(
    concept: ConceptDag | ThresholdCircuit,
    node: int,
    s: Sample,
    rule: ModerationRule = ModerationRule.RELEVANT_FILTER,
) -> Sample:
    """Select this round's training subset, preserving order and labels.

    The default rule keeps the examples whose root value depends on the
    target node. The partition rule splits on agreement between node value
    and label and keeps the larger half, which is never below half the
    sample. An empty selection raises InsufficientDataError.
    """
    vals = node_values(concept, s.bits)
    _check_labels_boolean(concept, s, vals)
    mask = _boolean_mask(concept, node, s, rule, vals)
    if not mask.any():
        raise InsufficientDataError(
            f"no usable examples for node {node}", node=node, subset_size=0
        )
    return s.subset(mask)


def _best_bucket(a: Adfsa, state: int, s: Sample) -> tuple[int, np.ndarray] | None:
    """The largest nonempty (offset, membership mask) bucket of a branch-state
    round, or None when every bucket is empty.

    Every string that walks through the state lands in the bucket of its
    arrival offset. Strings that never touch the state are usable at any
    offset where the walk from the state stays inside them, filed by whether
    the state's output there matches their label; those outputs come from
    one state_outputs table. Ties resolve to the lower offset and, within an
    offset, to the agreeing bucket.
    """
    arrivals = arrival_offsets(a, s.bits, s.lengths, state)
    out = state_outputs(a, s.bits, s.lengths, state)
    defined = out >= 0
    match = out == s.labels
    eligible = (arrivals == np.arange(a.n)[:, None]) | ((arrivals < 0) & defined)
    agree = eligible & match
    disagree = eligible & defined & ~match
    # (offset, side) in C order is the tie order, so the first argmax wins
    sizes = np.stack(
        [np.count_nonzero(agree, axis=1), np.count_nonzero(disagree, axis=1)], axis=1
    )
    offset, side = np.unravel_index(np.argmax(sizes), sizes.shape)
    if sizes[offset, side] == 0:
        return None
    return int(offset), (disagree if side else agree)[offset]


def moderate_adfsa(a: Adfsa, state: int, s: Sample) -> tuple[Sample, int]:
    """Select the largest offset-aligned bucket for a branch-state round
    (see _best_bucket). Returns the chosen subset along with its offset."""
    if not np.array_equal(adfsa_labels(a, s.bits, s.lengths), s.labels):
        raise InvalidParameterError(
            "sample labels disagree with the automaton; the teacher never relabels"
        )
    best = _best_bucket(a, state, s)
    if best is None:
        raise InsufficientDataError(
            f"no usable examples for state {state}", node=state, subset_size=0
        )
    offset, mask = best
    return s.subset(mask), offset


def moderate(concept: Concept, node: int, s: Sample, rule: ModerationRule) -> tuple[Sample, int | None]:
    """Uniform entry point: returns (subset, offset or None)."""
    if rule is ModerationRule.OFFSET_PARTITION:
        if not isinstance(concept, Adfsa):
            raise InvalidParameterError("offset moderation needs an automaton")
        subset, offset = moderate_adfsa(concept, node, s)
        return subset, offset
    if isinstance(concept, Adfsa):
        raise InvalidParameterError("automaton rounds need offset moderation")
    return moderate_boolean(concept, node, s, rule), None


@dataclass
class PrivilegedView:
    """Per-example round membership: entry (i, r) is 1 iff example i was in
    the moderated subset of round r."""

    membership: np.ndarray  # (m, R) uint8

    @property
    def round_count(self) -> int:
        return int(self.membership.shape[1])

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"bit_{r}" for r in range(self.round_count)])
            for row in self.membership:
                writer.writerow([int(v) for v in row])


def export_privileged_view(plan: RoundPlan, s: Sample, concept: Concept) -> PrivilegedView:
    """Replay every round's moderation over the full sample.

    Rounds that would select nothing produce an all-zero column here instead
    of aborting; the abort semantics belong to the session driver.
    """
    m = len(s)
    membership = np.zeros((m, len(plan)), dtype=np.uint8)
    vals = None if isinstance(concept, Adfsa) else node_values(concept, s.bits)
    for r, rnd in enumerate(plan.rounds):
        if rnd.rule is ModerationRule.OFFSET_PARTITION:
            best = _best_bucket(concept, rnd.node, s)
            if best is not None:
                membership[:, r] = best[1]
        else:
            membership[:, r] = _boolean_mask(concept, rnd.node, s, rnd.rule, vals)
    return PrivilegedView(membership=membership)
