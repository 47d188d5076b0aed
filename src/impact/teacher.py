"""Sample moderation. The teacher filters the round's training data and does
nothing else: it never relabels, reorders, or talks to the learner.

A session builds one Teacher, which checks the sample's labels once and holds
what every round reads. The session, `moderate` and `export_privileged_view`
share its one moderation path, `Teacher.mask`. An automaton's rounds are all
settled when the Teacher is built, from one walk and one descending-offset
pass.
"""

from __future__ import annotations

import numpy as np

from .concepts import (
    Adfsa,
    Concept,
    _walk,
    node_values,
    packed_words,
    relevance_mask,
    state_outputs,
)
from .errors import InsufficientDataError, InvalidParameterError
from .plan import ModerationRule
from .sampling import Sample


class Teacher:
    """The moderator of one sample: it checks the sample's labels once and
    holds what every round reads, the node values of a formula or circuit,
    or the bucket of each of an automaton's `nodes` (distinct branch
    states), settled from one walk and one descending-offset pass."""

    def __init__(self, concept: Concept, s: Sample, nodes: tuple[int, ...]):
        self.concept = concept
        self.sample = s
        if isinstance(concept, Adfsa):
            out, arrivals = _walk(concept, s.bits, s.lengths, nodes)
        else:
            self.values = node_values(concept, s.bits)
            out = self.values[:, concept.root]
        if not np.array_equal(out, s.labels):
            raise InvalidParameterError(
                "sample labels disagree with the concept; the teacher never relabels"
            )
        if isinstance(concept, Adfsa):
            self._buckets = _offset_buckets(concept, s, nodes, arrivals)
        self._relevant: tuple[int, np.ndarray] | None = None

    def relevant(self, node: int) -> np.ndarray:
        """The rows whose root value depends on the node. The last mask is
        kept, because a session's diagnostics read the one its round used."""
        if self._relevant is None or self._relevant[0] != node:
            mask = relevance_mask(self.concept, node, self.sample.bits, values=self.values)
            self._relevant = (node, mask)
        return self._relevant[1]

    def mask(self, node: int, rule: ModerationRule | str) -> tuple[np.ndarray, int | None]:
        """One round's membership over the sample under the rule (see
        ModerationRule), a member or its value, possibly empty, and the
        offset of an automaton round.

        Every string that walks through an automaton round's state lands in
        the bucket of its arrival offset. Strings that never touch the state
        are usable at any offset where the walk from the state stays inside
        them, filed by whether the state's output there matches their label.
        The round keeps its largest bucket; ties resolve to the lower offset
        and, within an offset, to the agreeing bucket. The Teacher settled
        every automaton round when it was built, so here it only looks it up.
        """
        s, rule = self.sample, ModerationRule(rule)
        if isinstance(self.concept, Adfsa) != (rule is ModerationRule.OFFSET_PARTITION):
            raise InvalidParameterError(f"rule {rule.value} does not apply to this concept")
        if rule is ModerationRule.RELEVANT_FILTER:
            return self.relevant(node), None
        if rule is ModerationRule.LARGER_PARTITION:
            agree = self.values[:, node] == s.labels
            n_agree = int(agree.sum())
            n_disagree = len(s) - n_agree
            # Ties keep the agreeing half.
            return (agree if n_agree >= n_disagree else ~agree), None
        return self._buckets[node]


def _offset_buckets(
    a: Adfsa, s: Sample, nodes: tuple[int, ...], arrivals: np.ndarray
) -> dict[int, tuple[np.ndarray, int]]:
    """Each state's bucket and offset (see Teacher.mask) from one pass of
    state_outputs over every offset; `arrivals` holds the bit position at
    which each string's walk sits on each state, -1 where it never does.
    Strings are counted, and each state's winner kept, as packed_words."""
    untouched = packed_words(arrivals < 0)
    labels = packed_words(s.labels == 1)
    # a string that sits on the state at offset o agrees with its label
    # there, because the walk from there is the label's own walk
    ks, cols = np.nonzero(arrivals >= 0)
    arrived = np.bincount(ks * a.n + arrivals[ks, cols], minlength=len(nodes) * a.n)
    arrived = arrived.reshape(len(nodes), a.n)
    best = np.full(len(nodes), -1)
    offsets = np.zeros(len(nodes), dtype=np.int64)
    flips = np.zeros(len(nodes), dtype=bool)
    # every state wins the first offset, so every row is filled
    won_words = np.empty_like(untouched)
    for o, ok, val in state_outputs(a, s.bits, s.lengths, nodes):
        # the untouched strings whose walk from the state ends at a terminal,
        # split by whether it outputs their label
        counted = untouched & ok
        disagreeing = counted & (val ^ labels)
        agreeing = counted ^ disagreeing
        n_agree = arrived[:, o] + np.bitwise_count(agreeing).sum(axis=1, dtype=np.int64)
        n_disagree = np.bitwise_count(disagreeing).sum(axis=1, dtype=np.int64)
        # offsets descend, so an equal size found now wins the tie; within
        # an offset the agreeing bucket does
        size = np.maximum(n_agree, n_disagree)
        won = size >= best
        best[won] = size[won]
        offsets[won] = o
        flips[won] = (n_disagree > n_agree)[won]
        won_words[won] = np.where(flips[won, None], disagreeing[won], agreeing[won])
    masks = np.unpackbits(won_words.view(np.uint8), axis=-1, count=len(s), bitorder="little")
    masks = masks.astype(bool) | (~flips[:, None] & (arrivals == offsets[:, None]))
    return {node: (masks[k], int(offsets[k])) for k, node in enumerate(nodes)}


def moderate(
    concept: Teacher | Concept, node: int, s: Sample, rule: ModerationRule | str
) -> tuple[np.ndarray, int | None]:
    """Select one round's training subset of `s` (see Teacher.mask). Returns
    the ascending indices of its rows in `s` and the offset of an automaton
    round, else None. `concept` is the session's Teacher of `s`, or a concept
    to build one from. An empty selection raises InsufficientDataError."""
    teacher = concept if isinstance(concept, Teacher) else Teacher(concept, s, (node,))
    if s is not teacher.sample:
        raise InvalidParameterError("the Teacher moderates another sample")
    mask, offset = teacher.mask(node, rule)
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        raise InsufficientDataError(
            f"no usable examples for node {node}", node=node, subset_size=0
        )
    return kept, offset


def export_privileged_view(
    plan: tuple[int, ...], s: Sample, concept: Concept, rule: ModerationRule | str
) -> np.ndarray:
    """Every round's moderation under the rule over the full sample, through
    one Teacher: the (m, R) uint8 matrix whose entry (i, r) is 1 iff example
    i is in the moderated subset of round r, which teaches plan[r].

    A round that selects nothing has an all-zero column, as the session
    learns that round on no rows; only under enforce_budget does the
    session abort there.
    """
    teacher = Teacher(concept, s, plan)
    membership = np.zeros((len(s), len(plan)), dtype=np.uint8)
    for r, node in enumerate(plan):
        membership[:, r] = teacher.mask(node, rule)[0]
    return membership
