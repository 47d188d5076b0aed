"""Spans and boundary counts taken around the calls into each layer of
`impact`, from outside the library.

`install` rebinds the names that `impact.session`, `impact.teacher` and
`impact.experiments` look up at call time, plus the `AttributeSpace` and
classifier methods, to wrappers that record one span per call. Nothing
inside `src/impact` changes, and the wrapped calls return exactly what the
originals return.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# Layer name -> the (module of `impact`, attribute) bindings that route calls
# to it; module "" is the package itself, which the benchmark calls.
MODULE_BINDINGS = {
    "sampling.draw_sample": [("session", "draw_sample"), ("experiments", "draw_sample")],
    "sampling.accuracy": [("experiments", "accuracy")],
    "concepts.push_negations_to_leaves": [("session", "push_negations_to_leaves")],
    "concepts.node_values": [("session", "node_values"), ("teacher", "node_values")],
    "concepts.relevance_mask": [("session", "relevance_mask"), ("teacher", "relevance_mask")],
    "plan.postfix_order": [("session", "postfix_order")],
    "teacher.moderate": [("session", "moderate")],
    "learner.learn_pair_node": [("session", "learn_pair_node")],
    "learner.learn_threshold_node": [("session", "learn_threshold_node")],
    "learner.learn_adfsa_node": [("session", "learn_adfsa_node")],
    "learner.augment": [("session", "augment")],
    "session.true_attribute_matrix": [("session", "true_attribute_matrix")],
    "session.run_teaching_session": [("experiments", "run_teaching_session"), ("", "run_teaching_session")],
    "experiments.run_sweep": [("", "run_sweep")],
}
# Layer name -> the (module, class, method) bindings that route calls to it.
METHOD_BINDINGS = {
    "learner.AttributeSpace.values": [("learner", "AttributeSpace", "values")],
    "learner.AttributeSpace.eval_table": [("learner", "AttributeSpace", "eval_table")],
    "session.predict_sample": [
        ("session", "DagClassifier", "predict_sample"),
        ("session", "CircuitClassifier", "predict_sample"),
        ("session", "AutomatonClassifier", "predict_sample"),
    ],
}
# The sweep calls its baselines through this table, not through module names.
BASELINE_FITTERS = {"tree": "baselines.fit_tree", "stumps": "baselines.fit_stumps", "majority": "baselines.fit_majority"}

LAYERS = tuple(MODULE_BINDINGS) + tuple(METHOD_BINDINGS) + tuple(BASELINE_FITTERS.values())
# Boundary counts the wrappers take.
COUNTS = (
    "teacher.moderate.rows_in",
    "teacher.moderate.rows_kept",
    "teacher.moderate.starved",
    "learner.learn_pair_node.candidates",
    "learner.AttributeSpace.values.cells",
    "learner.AttributeSpace.eval_table.cells",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; parent is -1
    for a span no other span encloses."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, impact) -> None:
        counts = self.counts
        moderate = impact.session.moderate
        learn_pair_node = impact.session.learn_pair_node
        values = impact.learner.AttributeSpace.values
        eval_table = impact.learner.AttributeSpace.eval_table

        def counted_moderate(concept, node, s, rule):
            counts["teacher.moderate.rows_in"] += len(s)
            try:
                subset, offset = moderate(concept, node, s, rule)
            except impact.InsufficientDataError:
                counts["teacher.moderate.starved"] += 1
                raise
            counts["teacher.moderate.rows_kept"] += len(subset)
            return subset, offset

        def counted_learn_pair_node(z, s, *args, **kwargs):
            counts["learner.learn_pair_node.candidates"] += impact.pair_space_size(len(z))
            return learn_pair_node(z, s, *args, **kwargs)

        def counted_values(space, bits):
            rows = len(bits) if getattr(bits, "ndim", 1) > 1 else 1
            counts["learner.AttributeSpace.values.cells"] += len(space) * rows
            return values(space, bits)

        def counted_eval_table(space, bits, lengths):
            m, width = bits.shape
            counts["learner.AttributeSpace.eval_table.cells"] += len(space) * (width + 1) * m
            return eval_table(space, bits, lengths)

        counted = {
            "teacher.moderate": counted_moderate,
            "learner.learn_pair_node": counted_learn_pair_node,
            "learner.AttributeSpace.values": counted_values,
            "learner.AttributeSpace.eval_table": counted_eval_table,
        }
        for name, bindings in MODULE_BINDINGS.items():
            for module, attr in bindings:
                owner = getattr(impact, module) if module else impact
                setattr(owner, attr, self.wrap(name, counted.get(name, getattr(owner, attr))))
        for name, bindings in METHOD_BINDINGS.items():
            for module, cls, attr in bindings:
                owner = getattr(getattr(impact, module), cls)
                setattr(owner, attr, self.wrap(name, counted.get(name, getattr(owner, attr))))
        fitters = impact.experiments.BASELINE_FITTERS
        for learner, name in BASELINE_FITTERS.items():
            fitters[learner] = self.wrap(name, fitters[learner])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover. Calls
    are sequential, so children never overlap one another."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
