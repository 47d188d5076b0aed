"""End-to-end teaching sessions: restructure, plan, draw once, then
moderate / learn / augment round by round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    concept_to_dict,
    node_values,
    push_negations_to_leaves,
    relevance_mask,
    string_rows,
)
from .errors import (
    ImpactError,
    InsufficientDataError,
    InvalidConceptError,
    InvalidParameterError,
)
from .learner import (
    DONT_KNOW,
    AdfsaNodeHypothesis,
    AttributeSpace,
    ComplementAttr,
    DerivedAttr,
    DontKnowType,
    ErrorBudget,
    PairHypothesis,
    PerceptronHypothesis,
    PureAttr,
    ReliablePairSet,
    adfsa_candidate_count,
    augment,
    canonical_first_pair,
    fill_step_rows,
    flip_outputs,
    learn_adfsa_node,
    learn_pair_node,
    learn_threshold_node,
    pair_space_size,
)
from .plan import ModerationRule, RoundPlan, default_rule, postfix_order
from .sampling import Distribution, Sample, draw_sample
from .teacher import moderate

TRAIN_STREAM = "train"
TEST_STREAM = "test"


# ---------------------------------------------------------------------------
# Final classifiers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DagClassifier:
    """Formula learned round by round; evaluates through the attribute space."""

    space: AttributeSpace
    final: PairHypothesis | ReliablePairSet | DontKnowType

    def predict_sample(self, s: Sample) -> np.ndarray:
        rows = self.space.values(s.bits)
        if isinstance(self.final, DontKnowType):
            return np.full(len(s), -1, dtype=np.int8)
        if isinstance(self.final, ReliablePairSet):
            return self.final.classify_rows(rows)
        return self.final.evaluate_rows(rows).astype(np.int8)

    def to_concept(self) -> ConceptDag:
        """Expand every derived attribute into plain DAG nodes."""
        if isinstance(self.final, DontKnowType):
            raise InvalidParameterError("an always-abstaining classifier has no DAG form")
        final = self.final.primary if isinstance(self.final, ReliablePairSet) else self.final
        nodes = []
        attr_memo: dict[int, int] = {}
        hyp_memo: dict[int, int] = {}
        neg_memo: dict[int, int] = {}

        def emit(node) -> int:
            nodes.append(node)
            return len(nodes) - 1

        def hyp_node(h: PairHypothesis) -> int:
            if id(h) in hyp_memo:
                return hyp_memo[id(h)]
            left = ref_node(h.left_attr, h.left_negated)
            right = ref_node(h.right_attr, h.right_negated)
            cls = And if h.op == "and" else Or
            idx = emit(cls(left, right))
            hyp_memo[id(h)] = idx
            return idx

        def negated(idx: int) -> int:
            if idx not in neg_memo:
                neg_memo[idx] = emit(Not(idx))
            return neg_memo[idx]

        def attr_node(j: int) -> int:
            if j in attr_memo:
                return attr_memo[j]
            attr = self.space.attributes[j]
            if isinstance(attr, PureAttr):
                idx = emit(Literal(attr.bit))
            elif isinstance(attr, DerivedAttr):
                idx = hyp_node(attr.hypothesis)
            elif isinstance(attr, ComplementAttr):
                idx = negated(hyp_node(attr.hypothesis))
            else:
                raise InvalidParameterError("terminal attribute in a formula classifier")
            attr_memo[j] = idx
            return idx

        def ref_node(j: int, neg: bool) -> int:
            base = attr_node(j)
            return negated(base) if neg else base

        root = hyp_node(final)
        n = sum(isinstance(a, PureAttr) for a in self.space.attributes)
        bound = max(n**3, len(nodes))
        return ConceptDag(nodes=tuple(nodes), root=root, n=n, size_bound=bound)

    def model_dict(self) -> dict:
        try:
            return concept_to_dict(self.to_concept())
        except (InvalidParameterError, InvalidConceptError) as exc:
            return {"type": "unserializable", "reason": str(exc)}


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
        n = sum(isinstance(a, PureAttr) for a in self.space.attributes)
        rounds = []
        for attr in self.space.attributes:
            if isinstance(attr, DerivedAttr):
                h = attr.hypothesis
                rounds.append(
                    {"weights": [float(w) for w in h.weights], "threshold": float(h.threshold)}
                )
        return {
            "type": "perceptron_stack",
            "n": n,
            "rounds": rounds,
            "final": {
                "weights": [float(w) for w in self.final.weights],
                "threshold": float(self.final.threshold),
            },
        }


@dataclass(eq=False)
class AutomatonClassifier:
    """Learned decision steps; reads the input like an automaton walk."""

    space: AttributeSpace
    final: AdfsaNodeHypothesis
    n: int

    def predict_sample(self, s: Sample) -> np.ndarray:
        # the final step's row, read at the offset it was learned at
        table = augment(self.space, self.final).eval_table(s.bits, s.lengths)
        return table[len(self.space), self.final.offset]

    def to_concept(self) -> Adfsa:
        """Expand the learned steps into automaton states. A leading chain of
        two-way identical branches replays the final hypothesis offset."""
        states: list = [RejectState(), AcceptState()]
        attr_memo: dict[tuple[int, bool], int] = {}
        hyp_memo: dict[tuple[int, bool], int] = {}

        def emit(state) -> int:
            states.append(state)
            return len(states) - 1

        def attr_state(j: int, swapped: bool) -> int:
            key = (j, swapped)
            if key in attr_memo:
                return attr_memo[key]
            attr = self.space.attributes[j]
            if hasattr(attr, "accepting"):
                accepting = attr.accepting != swapped
                idx = 1 if accepting else 0
            elif isinstance(attr, DerivedAttr):
                idx = hyp_state(attr.hypothesis, swapped)
            elif isinstance(attr, ComplementAttr):
                idx = hyp_state(attr.hypothesis, not swapped)
            else:
                raise InvalidParameterError("bit attribute in an automaton classifier")
            attr_memo[key] = idx
            return idx

        def hyp_state(h: AdfsaNodeHypothesis, swapped: bool) -> int:
            key = (id(h), swapped)
            if key in hyp_memo:
                return hyp_memo[key]
            s0 = attr_state(h.on0, swapped)
            s1 = attr_state(h.on1, swapped)
            idx = emit(BranchState(on0=s0, on1=s1))
            hyp_memo[key] = idx
            return idx

        start = hyp_state(self.final, False)
        for _ in range(self.final.offset):
            start = emit(BranchState(on0=start, on1=start))
        return Adfsa(states=tuple(states), start=start, n=self.n)

    def model_dict(self) -> dict:
        try:
            return concept_to_dict(self.to_concept())
        except (InvalidParameterError, InvalidConceptError) as exc:
            return {"type": "unserializable", "reason": str(exc)}


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


@dataclass(eq=False)
class SessionReport:
    concept_kind: str
    n: int
    m: int
    mode: str
    moderation: str
    seed: int
    rounds: tuple[RoundRecord, ...]
    classifier: Classifier
    test_accuracy: float
    test_dont_know_rate: float
    attribute_count: int

    def to_json_dict(self) -> dict:
        return {
            "concept_kind": self.concept_kind,
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "moderation": self.moderation,
            "seed": self.seed,
            "test_accuracy": self.test_accuracy,
            "test_dont_know_rate": self.test_dont_know_rate,
            "attribute_count": self.attribute_count,
            "rounds": [
                {
                    "index": r.index,
                    "node": r.node,
                    "rule": r.rule,
                    "subset_size": r.subset_size,
                    "training_error": r.training_error,
                    "candidate_count": r.candidate_count,
                    "offset": r.offset,
                    "dont_know": r.dont_know,
                    "error_full": r.error_full,
                    "error_relevant": r.error_relevant,
                }
                for r in self.rounds
            ],
            "model": self.classifier.model_dict(),
        }


def true_attribute_matrix(
    concept: ConceptDag | ThresholdCircuit, plan: RoundPlan, X: np.ndarray
) -> np.ndarray:
    """Ground-truth attribute values: raw bits, then each round's true node
    output and its complement. This is teacher-side bookkeeping; the learner
    never sees it."""
    vals = node_values(concept, X)
    rows = [X.T.astype(np.uint8)]
    for rnd in plan.rounds:
        col = vals[:, rnd.node][None, :]
        rows.append(col)
        rows.append(1 - col)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# The session driver
# ---------------------------------------------------------------------------


def run_teaching_session(
    concept: Concept,
    d: Distribution,
    m: int,
    budget: ErrorBudget | None = None,
    mode: str = "best-fit",
    moderation: ModerationRule | None = None,
    *,
    test_size: int = 1000,
    enforce_budget: bool = False,
    diagnostics: bool = True,
) -> SessionReport:
    """Run one full teaching session and evaluate the result.

    The sample is drawn once up front; each round sees only its moderated
    subset. With enforce_budget the session aborts when a round's subset
    falls below the per-round budget; otherwise a round left with no data
    keeps the canonical degenerate hypothesis and the session continues.
    Everything is deterministic given (concept, distribution, m, mode).
    """
    if mode not in ("best-fit", "reliable"):
        raise InvalidParameterError(f"unknown learning mode {mode!r}")
    if mode == "reliable" and not isinstance(concept, ConceptDag):
        raise InvalidParameterError("reliable mode applies to formula concepts")

    if isinstance(concept, ConceptDag):
        taught: Concept = push_negations_to_leaves(concept)
        kind = "dag"
    elif isinstance(concept, ThresholdCircuit):
        taught = concept
        kind = "threshold"
    else:
        taught = concept
        kind = "adfsa"

    rule = moderation if moderation is not None else default_rule(taught)
    plan = postfix_order(taught, rule)
    if budget is None:
        budget = ErrorBudget(epsilon_total=0.05, delta=0.05, node_count=len(plan))

    s = draw_sample(d, concept, m, stream=TRAIN_STREAM)
    test = draw_sample(d, concept, test_size, stream=TEST_STREAM)

    if kind == "adfsa":
        # The training value cube (see AttributeSpace.eval_table): the two
        # terminals, accept then reject, then two rows per round, each
        # filled from the rows before it.
        z = AttributeSpace.terminals()
        T = np.empty((2 + 2 * len(plan), concept.n + 1, m), dtype=np.int8)
        T[0], T[1] = 1, 0
        string_bits, inside = string_rows(s.bits, s.lengths)
    else:
        # The training attribute matrix: the raw bits, then two rows per
        # round, each filled from the rows before it.
        z = AttributeSpace.pure(concept.n)
        V = np.empty((concept.n + 2 * len(plan), m), dtype=np.uint8)
        V[: concept.n] = s.bits.T

    boolean_diag = diagnostics and kind != "adfsa"
    if boolean_diag:
        truth = true_attribute_matrix(taught, plan, s.bits)
        node_vals = node_values(taught, s.bits)

    records: list[RoundRecord] = []
    final_h = None
    final_space = z
    required = budget.per_round_budget if enforce_budget else 1

    for r, rnd in enumerate(plan.rounds):
        A = len(z)
        try:
            subset, offset = moderate(taught, rnd.node, s, rnd.rule)
        except InsufficientDataError as exc:
            if enforce_budget:
                raise InsufficientDataError(
                    f"round {r} starved: {exc}",
                    node=rnd.node,
                    round_index=r,
                    subset_size=exc.subset_size or 0,
                    required=required,
                ) from exc
            # no admissible data: every candidate fits equally well, so the
            # round degenerates instead of aborting
            subset, offset = None, None
        if subset is not None and len(subset) < required:
            raise InsufficientDataError(
                f"round {r} moderated subset has {len(subset)} examples, "
                f"needs {required}",
                node=rnd.node,
                round_index=r,
                subset_size=len(subset),
                required=required,
            )
        if subset is not None:
            # moderation only removes rows: every kept row is a sample row,
            # with its label unchanged
            kept = subset.source_indices
            if not np.all((kept >= 0) & (kept < len(s))):
                raise ImpactError(f"round {r} subset names rows outside the sample")
            if not np.array_equal(s.labels[kept], subset.labels):
                raise ImpactError(f"round {r} subset changed the sample's labels")

        dont_know = False
        training_error = 0.0
        if subset is None:
            if kind == "adfsa":
                # the first step in the learner's tie order
                attr_h = h = AdfsaNodeHypothesis(offset=0, on0=0, on1=0)
                candidates = adfsa_candidate_count(z, concept.n)
            elif kind == "threshold":
                attr_h = h = PerceptronHypothesis(
                    weights=np.zeros(A, dtype=np.float64), threshold=0.0
                )
                candidates = 0
            else:
                candidates = pair_space_size(A)
                attr_h = canonical_first_pair()
                if mode == "reliable":
                    dont_know = True
                    h = DONT_KNOW
                else:
                    h = attr_h
        elif kind == "adfsa":
            attr_h = h = learn_adfsa_node(T[:A], subset, kept)
            candidates = adfsa_candidate_count(z, concept.n)
        elif kind == "threshold":
            attr_h = h = learn_threshold_node(V[:A, kept], subset.labels)
            candidates = 0
        else:
            rows = V[:A, kept]
            h = learn_pair_node(rows, subset.labels, mode)
            candidates = pair_space_size(A)
            if isinstance(h, DontKnowType):
                dont_know = True
                attr_h = learn_pair_node(rows, subset.labels, "best-fit")
            elif isinstance(h, ReliablePairSet):
                attr_h = h.primary
            else:
                attr_h = h

        extra = {}
        if kind == "adfsa":
            fill_step_rows(T, A, attr_h, string_bits, inside)
            flip_outputs(T[A], out=T[A + 1])
            if subset is not None:
                training_error = float(np.mean(T[A, attr_h.offset, kept] != subset.labels))
        else:
            V[A] = attr_h.evaluate_rows(V[:A])
            h_eval = V[A]
            np.subtract(1, h_eval, out=V[A + 1])
            if subset is not None:
                training_error = float(np.mean(h_eval[kept] != subset.labels))
        if boolean_diag:
            rel = relevance_mask(taught, rnd.node, s.bits, values=node_vals)
            # truth[A] is the true row of this round's node
            wrong_relevant = int(np.sum(rel & (h_eval != truth[A])))
            rel_count = int(rel.sum())
            extra["error_full"] = wrong_relevant / len(s)
            extra["error_relevant"] = (
                wrong_relevant / rel_count if rel_count else 0.0
            )
            if isinstance(attr_h, PairHypothesis):
                left = attr_h.left_attr
                right = attr_h.right_attr
                extra["child_error_left"] = float(np.mean(V[left] != truth[left]))
                extra["child_error_right"] = float(np.mean(V[right] != truth[right]))
                h_on_truth = attr_h.evaluate_rows(truth[:A])
                extra["hypothesis_corruption"] = float(np.mean(h_eval != h_on_truth))

        records.append(
            RoundRecord(
                index=r,
                node=rnd.node,
                rule=rnd.rule.value,
                subset_size=0 if subset is None else len(subset),
                training_error=training_error,
                candidate_count=candidates,
                offset=offset,
                dont_know=dont_know,
                **extra,
            )
        )
        final_space = z
        final_h = h if not dont_know else DONT_KNOW
        z = augment(z, attr_h)

    if kind == "adfsa":
        classifier: Classifier = AutomatonClassifier(
            space=final_space, final=final_h, n=concept.n
        )
    elif kind == "threshold":
        classifier = CircuitClassifier(space=final_space, final=final_h)
    else:
        classifier = DagClassifier(space=final_space, final=final_h)

    preds = classifier.predict_sample(test)
    test_accuracy = float(np.mean(preds == test.labels))
    test_dk = float(np.mean(preds == -1))

    return SessionReport(
        concept_kind=kind,
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
