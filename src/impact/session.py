"""End-to-end teaching sessions: restructure, plan, draw once, then
moderate / learn / augment round by round.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .concepts import (
    AcceptState,
    Adfsa,
    And,
    BranchState,
    Concept,
    ConceptDag,
    Literal,
    Not,
    Or,
    RejectState,
    ThresholdCircuit,
    _emit_postorder,
    concept_to_dict,
    node_values,  # noqa: F401 (perfbench/spans.py traces the Teacher's calls here too)
    push_negations_to_leaves,
    relevance_mask,  # noqa: F401 (likewise)
    string_words,
)
from .errors import (
    ImpactError,
    InsufficientDataError,
    InvalidConceptError,
    InvalidParameterError,
)
from .learner import (
    AdfsaNodeHypothesis,
    AttributeSpace,
    PairHypothesis,
    PerceptronHypothesis,
    ReliablePairSet,
    adfsa_candidate_count,
    augment,
    decode_planes,
    fill_bit_rows,
    fill_step_planes,
    learn_adfsa_node,
    learn_pair_node,
    learn_threshold_node,
    pair_space_size,
    sample_budget,
    step_planes,
)
from .plan import ModerationRule, default_rule, postfix_order
from .sampling import Distribution, Sample, draw_sample
from .teacher import Teacher, moderate

TRAIN_STREAM = "train"
TEST_STREAM = "test"


# ---------------------------------------------------------------------------
# Final classifiers
# ---------------------------------------------------------------------------


class _ConceptExport:
    """model_dict for a classifier with a concept form: its concept file, or
    why it has none."""

    def model_dict(self) -> dict:
        try:
            return concept_to_dict(self.to_concept())
        except (InvalidParameterError, InvalidConceptError) as exc:
            return {"type": "unserializable", "reason": str(exc)}


@dataclass(eq=False)
class DagClassifier(_ConceptExport):
    """Formula learned round by round; evaluates through the attribute space."""

    space: AttributeSpace
    final: PairHypothesis | ReliablePairSet

    def predict_sample(self, s: Sample) -> np.ndarray:
        if isinstance(self.final, ReliablePairSet) and self.final.abstains:
            # abstention reads no attribute
            return np.full(len(s), -1, dtype=np.int8)
        rows = self.space.values(s.bits)
        if isinstance(self.final, ReliablePairSet):
            return self.final.classify_rows(rows)
        return self.final.evaluate_rows(rows).astype(np.int8)

    def to_concept(self) -> ConceptDag:
        """Expand every learned attribute into plain DAG nodes. A key is an
        attribute read plainly or negated; the final pair is attribute
        len(space), where augment would put it."""
        final = self.final
        if isinstance(final, ReliablePairSet):
            if final.abstains:
                raise InvalidParameterError("an always-abstaining classifier has no DAG form")
            final = final.primary
        space = self.space

        def read(j: int, neg: bool) -> tuple[int, bool]:
            # a complement is the Not of the attribute just below it
            if not neg and j >= space.base_count and space.learned(j)[1]:
                return j - 1, True
            return j, neg

        def parts(key: tuple[int, bool]):
            j, neg = key
            if neg:
                return (read(j, False),), Not
            if j < space.base_count:
                return (), lambda: Literal(j)
            h = final if j == len(space) else space.learned(j)[0]
            refs = (read(h.left_attr, h.left_negated), read(h.right_attr, h.right_negated))
            return refs, (And if h.op == "and" else Or)

        nodes: list = []
        root = _emit_postorder((len(space), False), parts, nodes)
        return ConceptDag(nodes=tuple(nodes), root=root, n=space.base_count)


@dataclass(eq=False)
class CircuitClassifier:
    """Stack of learned linear thresholds over the growing attribute space."""

    space: AttributeSpace
    final: PerceptronHypothesis

    def predict_sample(self, s: Sample) -> np.ndarray:
        rows = self.space.values(s.bits)
        return self.final.evaluate_rows(rows).astype(np.int8)

    def model_dict(self) -> dict:
        """Weight-level description. Real-valued separators do not fit the
        integer gate format, so they get their own schema."""

        def gate(h: PerceptronHypothesis) -> dict:
            return {"weights": [float(w) for w in h.weights], "threshold": float(h.threshold)}

        return {
            "type": "perceptron_stack",
            "n": self.space.base_count,
            "rounds": [gate(h) for h in self.space.hypotheses],
            "final": gate(self.final),
        }


@dataclass(eq=False)
class AutomatonClassifier(_ConceptExport):
    """Learned decision steps; reads the input like an automaton walk."""

    space: AttributeSpace
    final: AdfsaNodeHypothesis
    n: int

    def predict_sample(self, s: Sample) -> np.ndarray:
        # the final step's row, read at the offset it was learned at
        table = augment(self.space, self.final).eval_table(s.bits, s.lengths)
        return table[len(self.space), self.final.offset]

    def to_concept(self) -> Adfsa:
        """Expand the learned steps into automaton states. A key is a round's
        step read with its outcomes swapped or not; the final step is round
        len(space.hypotheses). A leading chain of two-way identical branches
        replays the final hypothesis offset."""
        space = self.space
        final_round = len(space.hypotheses)

        def read(j: int, swapped: bool) -> tuple[int, bool]:
            # the terminals are round -1: accept, then its complement, reject
            r, complemented = divmod(j - space.base_count, 2)
            return r, swapped != bool(complemented)

        def parts(key: tuple[int, bool]):
            r, swapped = key
            if r < 0:
                # reject is state 0, accept state 1
                return (), lambda: int(not swapped)
            h = self.final if r == final_round else space.hypotheses[r]
            return (read(h.on0, swapped), read(h.on1, swapped)), BranchState

        states: list = [RejectState(), AcceptState()]
        start = _emit_postorder((final_round, False), parts, states)
        for _ in range(self.final.offset):
            states.append(BranchState(on0=start, on1=start))
            start = len(states) - 1
        return Adfsa(states=tuple(states), start=start, n=self.n)


Classifier = DagClassifier | CircuitClassifier | AutomatonClassifier


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    index: int
    node: int
    rule: str
    subset_size: int
    training_error: float
    candidate_count: int
    offset: int | None = None
    dont_know: bool = False
    error_full: float | None = None
    error_relevant: float | None = None
    child_error_left: float | None = None
    child_error_right: float | None = None
    hypothesis_corruption: float | None = None


# RoundRecord fields the JSON report does not carry yet (ROADMAP item 3)
_UNREPORTED = ("child_error_left", "child_error_right", "hypothesis_corruption")


@dataclass(eq=False)
class SessionReport:
    """A session's outcome. Its JSON report holds the fields in this order,
    with the classifier, last, as its model."""

    concept_kind: str
    n: int
    m: int
    mode: str
    moderation: str
    seed: int
    test_accuracy: float
    test_dont_know_rate: float
    attribute_count: int
    rounds: tuple[RoundRecord, ...]
    classifier: Classifier

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rounds"] = [
            {f.name: getattr(r, f.name) for f in fields(r) if f.name not in _UNREPORTED}
            for r in self.rounds
        ]
        out["model"] = out.pop("classifier").model_dict()
        return out


def true_attribute_matrix(values: np.ndarray, plan: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    """Ground-truth attribute values: raw bits, then each planned node's true
    output and its complement, read from `values`, the concept's node_values
    on X. This is teacher-side bookkeeping; the learner never sees it."""
    rows = [X.T.astype(np.uint8)]
    for node in plan:
        col = values[:, node][None, :]
        rows.append(col)
        rows.append(1 - col)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# The session driver
# ---------------------------------------------------------------------------


class _BitRounds:
    """Rounds over bit vectors. The training attribute matrix V holds the raw
    bits, then two rows per round, each filled from the rows before it. V is
    column-major, so a round's gather of its sample columns copies contiguous
    runs."""

    rows_per_round = 2

    def __init__(self, teacher: Teacher, plan: tuple[int, ...], mode: str, diagnostics: bool):
        n, s = teacher.concept.n, teacher.sample
        self.teacher = teacher
        self.mode = mode
        self.space = AttributeSpace.pure(n)
        self.V = np.empty((n + self.rows_per_round * len(plan), len(s)), dtype=np.uint8, order="F")
        self.V[:n] = s.bits.T
        self.truth = true_attribute_matrix(teacher.values, plan, s.bits) if diagnostics else None

    def __getitem__(self, j: int) -> np.ndarray:
        """Attribute j's values on the sample."""
        return self.V[j]

    def fill(self, A: int, h) -> np.ndarray:
        """Fill rows A and A + 1 with the hypothesis and its complement; return row A."""
        fill_bit_rows(self.V, A, h)
        return self.V[A]

    def diagnose(self, node: int, A: int, h) -> dict:
        if self.truth is None:
            return {}
        truth = self.truth
        rel = self.teacher.relevant(node)
        m = len(rel)
        # truth[A] is the true row of this round's node
        wrong_relevant = np.count_nonzero(rel & (self[A] != truth[A]))
        rel_count = np.count_nonzero(rel)
        extra = {
            "error_full": wrong_relevant / m,
            "error_relevant": wrong_relevant / rel_count if rel_count else 0.0,
        }
        if isinstance(h, PairHypothesis):
            left = h.left_attr
            right = h.right_attr
            extra["child_error_left"] = np.count_nonzero(self[left] != truth[left]) / m
            extra["child_error_right"] = np.count_nonzero(self[right] != truth[right]) / m
            h_on_truth = h.evaluate_rows(truth[:A])
            extra["hypothesis_corruption"] = np.count_nonzero(self[A] != h_on_truth) / m
        return extra


def full_layout(h: PairHypothesis | ReliablePairSet, n: int) -> PairHypothesis | ReliablePairSet:
    """h, learned on n base rows and one row per hypothesis, restated in the
    full layout: row n + r, hypothesis r, is attribute n + 2r."""
    if isinstance(h, ReliablePairSet):
        members = tuple(full_layout(p, n) for p in h.members)
        return ReliablePairSet(full_layout(h.primary, n), members)
    left, right = (max(j, 2 * j - n) for j in (h.left_attr, h.right_attr))
    return PairHypothesis(h.op, left, h.left_negated, right, h.right_negated)


class _PairRounds(_BitRounds):
    """Pair rounds learn on the base rows and one hypothesis row per round,
    with no complement rows: V row n + r holds round r's hypothesis,
    attribute n + 2r of the full layout, where learn restates the learner's
    pairs (full_layout). This is exact. A pair that reads a complement has a
    twin that reads the hypothesis with that reference's negation flipped:
    the same values, so the same count, and a lower index, so the twin comes
    first in canonical order, which the map keeps. So best-fit never picks a
    complement, and a reliable set, which holds no pair that reads one, has
    each such pair's twin as a member and votes as the full layout's would.
    Reports and candidate_count still describe the full canonical space.
    self[j] reads attribute j of the full layout through the same map; a
    complement raises, as no pair a round picks reads one."""

    classifier = DagClassifier
    rows_per_round = 1

    def __getitem__(self, j: int) -> np.ndarray:
        n = self.space.base_count
        if j < n:
            return self.V[j]
        r, complemented = divmod(j - n, 2)
        if complemented:
            raise ImpactError(f"attribute {j} is a complement, which no pair round reads")
        return self.V[n + r]

    def candidates(self, z: AttributeSpace) -> int:
        return pair_space_size(len(z))

    def learn(self, A: int, kept: np.ndarray, y: np.ndarray):
        n = self.space.base_count
        k = (n + A) // 2
        # a reliable set's attribute is its primary, the best-fit pair, and
        # only the last round's members reach the classifier: earlier rounds
        # learn best-fit, and the session reads their abstention off its error
        mode = self.mode if k == len(self.V) - 1 else "best-fit"
        V = self.V[:k]
        return full_layout(learn_pair_node(V[:, kept[y == 0]], V[:, kept[y == 1]], mode), n)

    def fill(self, A: int, h: PairHypothesis) -> np.ndarray:
        """Fill the row of attribute A, a hypothesis, with h; return it."""
        row = self[A]
        row[:] = h.evaluate_rows(self)
        return row


class _ThresholdRounds(_BitRounds):
    classifier = CircuitClassifier

    def candidates(self, z: AttributeSpace) -> int:
        return 0

    def learn(self, A: int, kept: np.ndarray, y: np.ndarray):
        return learn_threshold_node(self.V[:A, kept], y)


class _AutomatonRounds:
    """Rounds over bit strings. The training values are packed step_planes
    over the sample: the two terminals, accept then reject, then two rows per
    round, each filled from the rows before it. `ok` marks where a row is
    defined and `agree` where it is also equal to the label, which the
    learner scores; a row's value is ok & ~(agree ^ y). No int8 cube is
    held: a round's row is decoded at its offset only."""

    def __init__(self, teacher: Teacher, plan: tuple[int, ...], mode: str, diagnostics: bool):
        n, s = teacher.concept.n, teacher.sample
        self.n, self.m = n, len(s)
        self.space = AttributeSpace.terminals()
        # accept agrees with label 1 and reject with label 0, so val is agreement
        self.ok, self.agree = step_planes(2 + 2 * len(plan), n, s.labels == 1)
        self.string_words = string_words(s.bits, s.lengths)

    def candidates(self, z: AttributeSpace) -> int:
        return adfsa_candidate_count(z, self.n)

    def learn(self, A: int, kept: np.ndarray, y: np.ndarray):
        return learn_adfsa_node(self.agree[:A], self.string_words, kept)

    def fill(self, A: int, h: AdfsaNodeHypothesis) -> np.ndarray:
        """Fill rows A and A + 1 with the step and its complement; return row A at its offset."""
        fill_step_planes(self.ok, self.agree, A, h, self.string_words)
        ok, agree = self.ok[A, h.offset], self.agree[A, h.offset]
        # the accept terminal's agreement is the packed labels
        return decode_planes(ok, ok & ~(agree ^ self.agree[0, 0]), self.m)

    def diagnose(self, node: int, A: int, h) -> dict:
        return {}

    def classifier(self, space: AttributeSpace, final) -> Classifier:
        return AutomatonClassifier(space=space, final=final, n=self.n)


# The rounds of each concept kind. learn returns the round's hypothesis;
# augment knows its attribute, which for a reliable pair set is the set's primary.
_ROUNDS = {ConceptDag: _PairRounds, ThresholdCircuit: _ThresholdRounds, Adfsa: _AutomatonRounds}


def run_teaching_session(
    concept: Concept,
    d: Distribution,
    m: int,
    mode: str = "best-fit",
    moderation: ModerationRule | str | None = None,
    *,
    test_size: int = 1000,
    enforce_budget: bool = False,
    diagnostics: bool = True,
) -> SessionReport:
    """Run one full teaching session and evaluate the result.

    The sample is drawn once up front; each round sees only its moderated
    subset. With enforce_budget the session aborts when a round's subset
    falls below the per-round budget, sample_budget(0.05 / rounds, 0.05);
    otherwise a round left with no data learns on no rows, which gives each
    learner's first candidate, and the session continues.
    Everything is deterministic given (concept, distribution, m, mode).
    """
    if mode not in ("best-fit", "reliable"):
        raise InvalidParameterError(f"unknown learning mode {mode!r}")
    if mode == "reliable" and not isinstance(concept, ConceptDag):
        raise InvalidParameterError("reliable mode applies to formula concepts")

    taught = push_negations_to_leaves(concept) if isinstance(concept, ConceptDag) else concept
    rule = ModerationRule(moderation) if moderation is not None else default_rule(taught)
    plan = postfix_order(taught)
    # a total error of 0.05 split evenly over the rounds, at confidence 0.95
    required = sample_budget(0.05 / len(plan), 0.05)

    s = draw_sample(d, concept, m, stream=TRAIN_STREAM)
    test = draw_sample(d, concept, test_size, stream=TEST_STREAM)
    teacher = Teacher(taught, s, plan)
    rounds = _ROUNDS[type(taught)](teacher, plan, mode, diagnostics)

    records: list[RoundRecord] = []
    z = rounds.space

    for r, node in enumerate(plan):
        A = len(z)
        try:
            kept, offset = moderate(teacher, node, s, rule)
        except InsufficientDataError:
            # no admissible data: unless the budget is enforced, the round
            # learns on no rows, where every candidate fits equally well
            kept, offset = np.empty(0, dtype=np.intp), None
        size = len(kept)
        if enforce_budget and size < required:
            raise InsufficientDataError(
                f"round {r} starved: its moderated subset has {size} examples, "
                f"needs {required}",
                node=node,
                round_index=r,
                subset_size=size,
                required=required,
            )
        # moderation only removes rows: it names rows of the sample, each
        # once and in order, and the learner reads their labels from s
        if size and not (kept[0] >= 0 and kept[-1] < len(s) and (kept[1:] > kept[:-1]).all()):
            raise ImpactError(f"round {r} subset is not ascending rows of the sample")
        y = s.labels[kept]
        h = rounds.learn(A, kept, y)
        space, z = z, augment(z, h)
        row = rounds.fill(A, z.hypotheses[-1])
        training_error = np.count_nonzero(row[kept] != y) / size if size else 0.0

        records.append(
            RoundRecord(
                index=r,
                node=node,
                rule=rule.value,
                subset_size=size,
                training_error=training_error,
                candidate_count=rounds.candidates(space),
                offset=offset,
                # a reliable set abstains when no pair fits every row: when
                # the best-fit pair, whose row is filled, errs or has no rows
                dont_know=mode == "reliable" and bool(size == 0 or training_error > 0),
                **rounds.diagnose(node, A, z.hypotheses[-1]),
            )
        )

    # the plan is never empty: h and space are the last round's
    classifier = rounds.classifier(space=space, final=h)
    # free the training matrix or planes (a bit round's row is a view of V) before predicting
    del rounds, teacher, row
    preds = classifier.predict_sample(test)
    test_accuracy = float(np.mean(preds == test.labels))
    test_dk = float(np.mean(preds == -1))

    return SessionReport(
        concept_kind=concept.kind,
        n=concept.n,
        m=m,
        mode=mode,
        moderation=rule.value,
        seed=d.seed,
        rounds=tuple(records),
        classifier=classifier,
        test_accuracy=test_accuracy,
        test_dont_know_rate=test_dk,
        attribute_count=len(z),
    )
