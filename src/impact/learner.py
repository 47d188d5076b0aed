"""Per-round learners and the growing attribute space.

The learner never sees the concept. Each round it receives moderated data
over the current attributes, fits the round's simple hypothesis, and the
attribute space then grows by that hypothesis and its complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .concepts import as_bit_matrix, as_string_batch, packed_words, select_step, string_words
from .errors import InvalidParameterError

AND = "and"
OR = "or"


# ---------------------------------------------------------------------------
# Hypothesis shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairHypothesis:
    """and/or over two attribute references, each optionally negated.

    Canonical form keeps left_attr <= right_attr; when they are equal the
    negation flags are non-decreasing. The same attribute twice un-negated
    is the identity, which is how a bare input bit stays representable.
    """

    op: str
    left_attr: int
    left_negated: bool
    right_attr: int
    right_negated: bool

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        lv = rows[self.left_attr]
        rv = rows[self.right_attr]
        if self.left_negated:
            lv = 1 - lv
        if self.right_negated:
            rv = 1 - rv
        return (lv & rv) if self.op == AND else (lv | rv)


@dataclass(eq=False)
class PerceptronHypothesis:
    """Linear threshold over the attribute values: fires when w.x >= threshold."""

    weights: np.ndarray
    threshold: float

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        # rows may come from a later, wider space; weights fix the width
        live = rows[: self.weights.shape[0]].astype(np.float64)
        scores = self.weights @ live
        return (scores >= self.threshold).astype(np.uint8)


@dataclass(frozen=True)
class AdfsaNodeHypothesis:
    """One decision step: look at the bit at `offset`, then hand off to the
    on0 or on1 attribute, each a terminal or a previously learned step.

    The stored offset is where the round's aligned data examined the input.
    When the hypothesis is reused as someone else's child it reads wherever
    the parent has walked to, exactly like an automaton state.
    """

    offset: int
    on0: int
    on1: int


@dataclass(eq=False)
class ReliablePairSet:
    """Every zero-disagreement pair from one round, and its best-fit pair.

    Classifies by unanimity: a label only when all members agree, -1
    otherwise. With no members the set abstains everywhere. `primary`, the
    round's best-fit pair, stands in when a single two-valued attribute is
    required downstream; with members it is the canonically first one.
    """

    primary: PairHypothesis
    members: tuple[PairHypothesis, ...]

    @property
    def abstains(self) -> bool:
        return not self.members

    def classify_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.abstains:
            return np.full(rows.shape[1], -1, dtype=np.int8)
        out = self.members[0].evaluate_rows(rows).astype(np.int8)
        settled = np.ones(out.shape, dtype=bool)
        for h in self.members[1:]:
            vals = h.evaluate_rows(rows).astype(np.int8)
            settled &= vals == out
        return np.where(settled, out, -1).astype(np.int8)


RoundHypothesis = PairHypothesis | PerceptronHypothesis | AdfsaNodeHypothesis


# ---------------------------------------------------------------------------
# Attribute space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeSpace:
    """Ordered, append-only attribute list.

    The first base_count attributes are no round's: in mode "bits" the n raw
    input bits, in mode "strings" the two terminal outcomes, accept then
    reject. Then attribute base_count + 2r is hypothesis r, the r-th finished
    round's, and base_count + 2r + 1 is its complement, so earlier indices
    never change meaning.
    """

    mode: str
    base_count: int
    hypotheses: tuple[RoundHypothesis, ...] = ()

    @staticmethod
    def pure(n: int) -> "AttributeSpace":
        if n < 1:
            raise InvalidParameterError("need at least one input bit")
        return AttributeSpace(mode="bits", base_count=n)

    @staticmethod
    def terminals() -> "AttributeSpace":
        return AttributeSpace(mode="strings", base_count=2)

    def __len__(self) -> int:
        return self.base_count + 2 * len(self.hypotheses)

    def learned(self, j: int) -> tuple[RoundHypothesis, bool]:
        """Learned attribute j (j >= base_count): its round's hypothesis, and
        whether j is that hypothesis's complement."""
        r, complemented = divmod(j - self.base_count, 2)
        if r < 0:
            raise InvalidParameterError(f"attribute {j} is a base attribute")
        return self.hypotheses[r], bool(complemented)

    def values(self, bits: np.ndarray) -> np.ndarray:
        """Attribute-value matrix (A, m) for fixed-width inputs; each round's
        two rows are filled at once from the rows below (see fill_bit_rows)."""
        if self.mode != "bits":
            raise InvalidParameterError("values() applies to bit-vector attribute spaces")
        n = self.base_count
        X = as_bit_matrix(bits, n)
        rows = np.empty((len(self), X.shape[0]), dtype=np.uint8)
        rows[:n] = X.T
        for r, h in enumerate(self.hypotheses):
            fill_bit_rows(rows, n + 2 * r, h)
        return rows

    def eval_table(self, bits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """String-mode value cube (A, n+1, m): entry (j, o, i) is attribute j's
        output on string i when read from offset o, and -1 where the walk from
        that offset runs off the end of the string. It decodes the packed
        planes of step_planes, where each round's two rows are filled at every
        offset at once from the rows below (see fill_step_planes)."""
        if self.mode != "strings":
            raise InvalidParameterError("eval_table applies to string attribute spaces")
        X, lengths = as_string_batch(bits, lengths)
        m, width = X.shape
        ok, val = step_planes(len(self), width, np.ones(m, dtype=bool))
        strings = string_words(X, lengths)
        for r, h in enumerate(self.hypotheses):
            fill_step_planes(ok, val, self.base_count + 2 * r, h, strings)
        return decode_planes(ok, val, m)


def fill_bit_rows(rows: np.ndarray, j: int, h: PairHypothesis | PerceptronHypothesis) -> None:
    """Fill rows j and j + 1 of a (A, m) attribute-value matrix with
    hypothesis h and its complement, from the rows below j."""
    rows[j] = h.evaluate_rows(rows[:j])
    np.subtract(1, rows[j], out=rows[j + 1])


def step_planes(A: int, width: int, accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed packed planes `ok` and `val` (A, width + 1, W) of A string-mode
    rows over M strings in packed_words' layout: a row is val's bit where ok's
    is set and -1 elsewhere (see decode_planes). Rows 0 and 1, the terminals,
    are defined everywhere, with val bits the mask `accept` (M,) and its
    negation: values for accept all ones, label agreement for labels == 1."""
    full, yes, no = packed_words(np.stack([np.ones_like(accept), accept, ~accept]))
    ok = np.zeros((A, width + 1, len(full)), dtype=full.dtype)
    val = np.zeros_like(ok)
    ok[:2] = full
    val[0], val[1] = yes, no
    return ok, val


def fill_step_planes(
    ok: np.ndarray, val: np.ndarray, j: int, h: AdfsaNodeHypothesis, strings: np.ndarray
) -> None:
    """Fill rows j and j + 1 of step_planes `ok` and `val` with decision step
    h and its complement at every offset, from its on0 and on1 rows (filled
    already) one offset later, by select_step; `strings` (2, n, W) is the
    strings' string_words. Offset n stays zero, undefined. The complement
    has the same ok and the other val bit. Padding bits stay zero."""
    ok[j, :-1], val[j, :-1] = select_step(
        strings, ok[h.on0, 1:], ok[h.on1, 1:], val[h.on0, 1:], val[h.on1, 1:]
    )
    ok[j + 1] = ok[j]
    np.bitwise_and(ok[j], ~val[j], out=val[j + 1])


def decode_planes(ok: np.ndarray, val: np.ndarray, M: int) -> np.ndarray:
    """The int8 values of packed planes over M strings: val's bit where ok's
    is set, else -1. val is added by leading rows: no second full-size array."""
    table = np.unpackbits(ok.view(np.uint8), axis=-1, count=M, bitorder="little").view(np.int8)
    table -= 1
    for t, v in zip(np.atleast_2d(table), np.atleast_2d(val)):
        t += np.unpackbits(v.view(np.uint8), axis=-1, count=M, bitorder="little").view(np.int8)
    return table


def augment(z: AttributeSpace, h: RoundHypothesis) -> AttributeSpace:
    """Grow the space by a finished round: the hypothesis and its complement.
    A reliable pair set's attribute is its primary, the round's best fit."""
    if isinstance(h, ReliablePairSet):
        h = h.primary
    if isinstance(h, AdfsaNodeHypothesis) != (z.mode == "strings"):
        raise InvalidParameterError("hypothesis kind does not match the attribute space")
    return replace(z, hypotheses=z.hypotheses + (h,))


# ---------------------------------------------------------------------------
# Sample complexity
# ---------------------------------------------------------------------------


def sample_budget(epsilon: float, delta: float) -> int:
    """Examples needed so an empirical error estimate lands within epsilon of
    truth with probability at least 1 - delta (two-sided tail bound)."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


# ---------------------------------------------------------------------------
# Pair learning
# ---------------------------------------------------------------------------


def pair_space_size(attribute_count: int) -> int:
    """Canonical pair-hypothesis count for A attributes: two operators over
    unordered reference pairs, identity pairs included."""
    a = attribute_count
    return 2 * (math.comb(2 * a, 2) + 2 * a)


def exact_float_dtype(bound: int) -> type:
    """float32 for counts whose every intermediate value, product partial sums
    included, is an integer of magnitude at most `bound` <= 2**24: it holds
    them exactly in any summation order. float64 (exact to 2**53) beyond."""
    return np.float32 if bound <= 2**24 else np.float64


def _and_planes(F0: np.ndarray, F1: np.ndarray) -> np.ndarray:
    """learn_pair_node's and counts on the attribute rows of a round's
    label-0 columns F0 (A, m0) and label-1 columns F1 (A, m1)."""
    (A, m0), m1 = F0.shape, F1.shape[1]
    # every value below is a row count or a difference of two: at most m0 + m1
    dtype = exact_float_dtype(m0 + m1)
    F0, F1 = F0.astype(dtype), F1.astype(dtype)
    P = np.empty((2, 2, A, A), dtype=dtype)
    # rows where both plain refs are 1, negatives minus positives (Gram products: half the work)
    both = np.matmul(F0, F0.T, out=P[1, 1])
    both -= F1 @ F1.T
    ones = both.diagonal().copy()
    np.add(both, m1, out=P[0, 0])
    np.subtract((m1 + ones)[:, None], both, out=P[0, 1])
    np.subtract((m1 + ones)[None, :], both, out=P[1, 0])
    # both minus the right ref's ones: rows where only the right ref is 1
    np.subtract(both, ones[None, :], out=P[1, 1])
    P[1, 1] += (m0 - ones)[:, None]
    return P


def _zero_error_rows(F0: np.ndarray, F1: np.ndarray) -> np.ndarray:
    """The ascending rows that can join a zero-error pair: those constant on
    the label-1 columns F1 or constant on the label-0 columns F0."""
    keep = np.zeros(len(F0), dtype=bool)
    for F in (F0, F1):
        ones = F.sum(axis=1, dtype=np.int32)
        keep |= (ones == 0) | (ones == F.shape[1])
    return np.flatnonzero(keep)


def learn_pair_node(
    F0: np.ndarray, F1: np.ndarray, mode: str = "best-fit"
) -> PairHypothesis | ReliablePairSet:
    """Exhaust the canonical pair space against the round's attribute rows
    on its m0 label-0 columns F0 (A, m0) and its m1 label-1 columns F1
    (A, m1), m = m0 + m1. best-fit returns the first candidate with minimal
    disagreement in canonical order; reliable returns the whole
    zero-disagreement set with that best-fit pair as its primary, and the set
    abstains when it has no member. Pairs name rows of F0 and F1. Every count
    is a sum over the columns of one class, so no column order is needed.

    Only the and counts are built: one contiguous array of planes k = 2 * ln
    + rn, indexed (k, left, right), in exact_float_dtype(m). Or plane (ln,
    rn) is m minus and plane (1 - ln, 1 - rn), as a or b = not (not a and
    not b). And wins a tie of the two minima; then the first (left, right)
    with a hit, and its smallest (ln, rn), is canonical: a non-canonical
    entry's twin (references swapped) has the same count and comes first.
    Read as (op, left, right, ln, rn), the planes' C order is canonical
    order, so the members are the canonical entries of one zero mask in
    that order, and when the set has members the best-fit pair is its first.

    The planes are built first over the rows S that can join a zero-error
    pair (_zero_error_rows). An and pair with count 0 has both literals 1 on
    every positive, so both its rows are constant on the positives; an and
    plane entry with count m, an or pair with no error, has both literals 1
    on every negative. So when S's planes hold a 0 or an m, the minimum is 0
    and every hit, and every member, lies in S x S. S is ascending, so the
    first hit in its order is the first overall, and each index maps through
    S. Otherwise, and when S is empty, the planes are built over every row.

    On an empty sample every count is 0, so best-fit returns the canonically
    first pair, and(0, 0) un-negated. The reliable set abstains with that
    pair as its primary: every pair fits no rows, and a pair and its
    negation disagree on every input, so all of them would abstain too.
    F0 and F1 must be matrices over the same attribute rows, at least one.
    """
    if mode not in ("best-fit", "reliable"):
        raise InvalidParameterError(f"unknown learning mode {mode!r}")
    if F0.ndim != 2 or F1.ndim != 2 or len(F0) != len(F1) or not len(F0):
        raise InvalidParameterError(
            f"need class matrices over the same attribute rows, got {F0.shape} and {F1.shape}"
        )
    A, m = len(F0), F0.shape[1] + F1.shape[1]
    rows = _zero_error_rows(F0, F1)
    P = _and_planes(F0[rows], F1[rows])
    if not ((P == 0).any() or (P == m).any()):
        # no zero-error pair, or no rows to hold one: every pair competes
        rows = np.arange(A)
        P = _and_planes(F0, F1)
    a = len(rows)
    low, high = P.min(), P.max()
    is_or = bool(low > m - high)
    hits = (P == (high if is_or else low)).reshape(4, a * a)[:: -1 if is_or else 1]
    p = int(hits.any(axis=0).argmax())
    k = int(hits[:, p].argmax())
    left, right = (int(rows[i]) for i in divmod(p, a))
    best = PairHypothesis(OR if is_or else AND, left, bool(k >> 1), right, bool(k & 1))
    if mode == "best-fit":
        return best
    if m == 0:
        return ReliablePairSet(best, ())
    # (left, right, k): an or count is m minus the flipped and plane; k = 2 is flags (1, 0)
    planes = P.reshape(4, a, a).transpose(1, 2, 0)
    op, left, right, k = np.argwhere(np.stack([planes == 0, planes[..., ::-1] == m])).T
    keep = (left < right) | ((left == right) & (k != 2))
    cols = op[keep], rows[left[keep]], k[keep] >> 1, rows[right[keep]], k[keep] & 1
    members = [
        PairHypothesis(OR if o else AND, lf, bool(ln), rt, bool(rn))
        for o, lf, ln, rt, rn in zip(*(c.tolist() for c in cols))
    ]
    return ReliablePairSet(best, tuple(members))


# ---------------------------------------------------------------------------
# Threshold-gate learning
# ---------------------------------------------------------------------------

_SCAN_WINDOW = 128  # rows per step of the first-mistake scan


def learn_threshold_node(
    V: np.ndarray, y: np.ndarray, *, max_epochs: int = 1000
) -> PerceptronHypothesis:
    """Pocket perceptron over the round's attribute rows V (A, m) and labels y.

    Weights and threshold start at zero and a mistake adds or subtracts its
    row and one unit of threshold, so they are integer vote counts. The best
    end-of-epoch weights by training accuracy are kept; a mistake-free epoch
    stops early. With row k of Z = sign_k * [x_k, -1] and u = [w, threshold],
    row k is a mistake iff Z[k] @ u < off[k] (1 for a negative label), and
    u += Z[k] updates. Integer margins are exact in any order, so scanning
    for the first mistake window by window equals a full rescan.

    Z, off and u run in single precision while that is exact. An epoch makes
    at most m mistakes, each moving every entry of u by at most 1, so from
    its start through its end ||u||_1 stays within its starting value plus
    (A + 1)m, and since every entry of Z is 0 or +-1, so does every entry of
    u and every partial sum of a margin. Each epoch passes that bound to
    exact_float_dtype, and the arrays move to float64 once, for the rest of
    the run, when it passes 2**24. Weights and threshold are returned as
    float64. An empty sample makes no mistake, so it gets the starting
    point: zero weights and threshold 0.0. y must hold one label per column.
    """
    if V.ndim != 2 or y.shape != (V.shape[1],):
        raise InvalidParameterError(f"need one label per column of {V.shape}, got {y.shape}")
    A, m = V.shape
    pos = y == 1
    dtype = exact_float_dtype((A + 1) * m)
    Z = np.empty((m, A + 1), dtype=dtype)
    Z[:, :A] = V.T
    Z[:, A] = -1
    Z[~pos] *= -1
    off = (~pos).astype(dtype)
    u = np.zeros(A + 1, dtype=dtype)
    # zero weights call every row positive
    pocket_u, pocket_hits = u.copy(), int(np.count_nonzero(pos))
    for _ in range(max_epochs):
        # u's entries are exact integers; their sum is exact in float64
        dtype = exact_float_dtype(int(np.abs(u).sum(dtype=np.float64)) + (A + 1) * m)
        if dtype != Z.dtype:
            Z, off, u = Z.astype(dtype), off.astype(dtype), u.astype(dtype)
        i, mistakes = 0, 0
        while i < m:
            end = i + _SCAN_WINDOW
            wrong = Z[i:end].dot(u) < off[i:end]
            j = int(wrong.argmax())
            if not wrong[j]:
                i = end
                continue
            u += Z[i + j]
            mistakes += 1
            i += j + 1
        hits = int(np.count_nonzero(Z.dot(u) >= off))
        if hits > pocket_hits:
            pocket_u, pocket_hits = u.copy(), hits
        if not mistakes:
            break
    return PerceptronHypothesis(
        weights=pocket_u[:A].astype(np.float64), threshold=float(pocket_u[A])
    )


# ---------------------------------------------------------------------------
# Automaton-state learning
# ---------------------------------------------------------------------------


_CHUNK_BYTES = 2**19  # bound on learn_adfsa_node's per-chunk AND temporary


def learn_adfsa_node(
    agree: np.ndarray, strings: np.ndarray, columns: np.ndarray
) -> AdfsaNodeHypothesis:
    """Pick the (offset, on0, on1) step that best matches the aligned data.

    `agree` (A, n+1, W) is the val of step_planes with accept labels == 1:
    packed_words of where each attribute, read from each offset, is defined
    on M strings and equals their labels. `strings` is their string_words,
    and the round's strings are the distinct columns `columns`. Masked by
    the packed columns once per round, the strings that read bit 0, and
    those that read bit 1, at each offset are the two sides, so child a on
    side b at offset o agrees with popcount(agree[a, o + 1] & side[b, o])
    labels: every (attribute, side, offset) count at once, in chunks of
    attributes, and nothing outside the round counts. Because agreement
    splits over the examined bit, the two children are chosen independently,
    and ties resolve to the lower offset then lower attribute indices. With
    no columns every count is 0, so the step is (offset 0, on0 0, on1 0).
    agree must hold at least one attribute row.
    """
    if not len(agree):
        raise InvalidParameterError("need at least one attribute row to choose a child from")
    A, (bits, inside) = len(agree), strings
    chosen = np.zeros(64 * strings.shape[-1], dtype=bool)
    chosen[columns] = True
    live = inside & packed_words(chosen)
    sides = np.stack([live & ~bits, live & bits])
    counts = np.empty((A, 2, len(bits)), dtype=np.int64)
    # a cube of no strings packs into no words
    chunk = max(1, _CHUNK_BYTES // max(1, sides.nbytes))
    for start in range(0, A, chunk):
        block = agree[start : start + chunk, None, 1:] & sides
        counts[start : start + chunk] = np.bitwise_count(block).sum(axis=-1)
    # first best child per (side, offset), then the first offset with the best sum
    on = counts.argmax(axis=0)
    o = int(counts.max(axis=0).sum(axis=0).argmax())
    return AdfsaNodeHypothesis(offset=o, on0=int(on[0, o]), on1=int(on[1, o]))


def adfsa_candidate_count(z: AttributeSpace, width: int) -> int:
    return width * len(z) * len(z)
