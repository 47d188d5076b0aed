"""Reference learners that see the raw, unmoderated sample.

All three are deterministic functions of the training sample, so sweep
results are reproducible without threading extra randomness through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .sampling import Sample


def _majority_label(labels: np.ndarray) -> int:
    ones = int(labels.sum())
    zeros = len(labels) - ones
    return 1 if ones > zeros else 0


@dataclass(frozen=True)
class MajorityClassifier:
    label: int

    def predict_sample(self, s: Sample) -> np.ndarray:
        return np.full(len(s), self.label, dtype=np.int8)


def fit_majority(s: Sample) -> MajorityClassifier:
    if len(s) == 0:
        raise UndefinedMetricError("cannot fit on an empty sample")
    return MajorityClassifier(label=_majority_label(s.labels))


# ---------------------------------------------------------------------------
# Greedy information-gain tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeLeaf:
    label: int


@dataclass(frozen=True)
class TreeSplit:
    bit: int
    low: "TreeLeaf | TreeSplit"
    high: "TreeLeaf | TreeSplit"


@dataclass(frozen=True)
class GreedyTreeClassifier:
    root: TreeLeaf | TreeSplit

    def predict_sample(self, s: Sample) -> np.ndarray:
        out = np.empty(len(s), dtype=np.int8)
        # iterative partition walk; recursion depth is at most n
        stack = [(self.root, np.arange(len(s)))]
        while stack:
            node, idx = stack.pop()
            if isinstance(node, TreeLeaf):
                out[idx] = node.label
                continue
            high = s.bits[idx, node.bit] == 1
            stack.append((node.low, idx[~high]))
            stack.append((node.high, idx[high]))
        return out


def _entropies(ones: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Binary label entropy of sides with `ones` label-1 rows of `sizes`,
    elementwise; 0 for a pure or an empty side."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = ones / sizes
        h = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    return np.where((ones > 0) & (ones < sizes), h, 0.0)


def fit_tree(s: Sample) -> GreedyTreeClassifier:
    """Greedy entropy-split tree. Zero-gain splits are still taken (lowest
    bit first) until purity or every bit is used, so it will happily memorize.

    The tree grows level by level. One product of a one-hot (nodes, rows)
    matrix with the bits, and with the bits times the labels, counts every
    node's rows and label-1 rows on each side of each bit; an empty side
    becomes a leaf of its parent's majority."""
    if len(s) == 0:
        raise UndefinedMetricError("cannot fit on an empty sample")
    m, n = s.bits.shape
    # column 0 counts a node's rows and column 1 + b those with bit b set; the
    # next n + 1 columns count their label-1 rows. An integer product is exact
    # and, unlike a float one, loads no BLAS kernel the sessions do not use.
    X = np.hstack([np.ones((m, 1), dtype=np.intp), s.bits])
    X = np.hstack([X, X * s.labels[:, None]])
    # a TreeLeaf, or (bit, low, high) with its children's indices in `made`
    made: list = [None]
    level = [(0, frozenset())]  # (index in `made`, bits used above)
    rows, at = np.arange(m), np.zeros(m, dtype=np.intp)
    while level:
        onehot = (at == np.arange(len(level))[:, None]).astype(np.intp)
        c = (onehot @ X[rows]).astype(np.float64)
        sizes, ones = c[:, : n + 1], c[:, n + 1 :]
        size, high = sizes[:, :1], sizes[:, 1:]
        low = size - high
        H = _entropies(ones, sizes)
        H_low = _entropies(ones[:, :1] - ones[:, 1:], low)
        gains = H[:, :1] - (high / size * H[:, 1:] + low / size * H_low)
        split = np.zeros(len(level), dtype=np.intp)
        child = np.full((len(level), 2), -1)
        below = []
        for i, ((j, used), counts, one, gain) in enumerate(
            zip(level, sizes.tolist(), ones[:, 0].tolist(), gains.tolist())
        ):
            majority = 1 if one > counts[0] - one else 0
            # every bit used, or a pure node: a leaf, whose label is the majority
            if len(used) == n or one in (0.0, counts[0]):
                made[j] = TreeLeaf(majority)
                continue
            bit, best = -1, -1.0
            for b, g in enumerate(gain):
                if b not in used and g > best + 1e-12:
                    bit, best = b, g
            split[i] = bit
            made[j] = (bit, len(made), len(made) + 1)
            for side, count in enumerate((counts[0] - counts[1 + bit], counts[1 + bit])):
                if count:
                    child[i, side] = len(below)
                    below.append((len(made), used | {bit}))
                made.append(None if count else TreeLeaf(majority))
        at = child[at, s.bits[rows, split[at]]]
        rows, at = rows[at >= 0], at[at >= 0]
        level = below
    # children come after their parents, so a backward pass builds them first
    for j in reversed(range(len(made))):
        if isinstance(made[j], tuple):
            bit, low, high = made[j]
            made[j] = TreeSplit(bit=bit, low=made[low], high=made[high])
    return GreedyTreeClassifier(root=made[0])


# ---------------------------------------------------------------------------
# Boosted decision stumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stump:
    bit: int
    # +1 predicts the bit value itself, -1 predicts its complement
    polarity: int

    def signed(self, bits: np.ndarray) -> np.ndarray:
        raw = bits[:, self.bit].astype(np.float64) * 2.0 - 1.0
        return raw * self.polarity


@dataclass(frozen=True)
class BoostedStumpsClassifier:
    stumps: tuple[Stump, ...]
    alphas: tuple[float, ...]
    fallback: int

    def predict_sample(self, s: Sample) -> np.ndarray:
        if not self.stumps:
            return np.full(len(s), self.fallback, dtype=np.int8)
        score = np.zeros(len(s), dtype=np.float64)
        for stump, alpha in zip(self.stumps, self.alphas):
            score += alpha * stump.signed(s.bits)
        out = np.where(score > 0, 1, np.where(score < 0, 0, self.fallback))
        return out.astype(np.int8)


def fit_stumps(s: Sample) -> BoostedStumpsClassifier:
    """Adaptive boosting over single-bit stumps, 50 rounds at most. Stops
    early when no stump beats weighted chance; ties in the final vote fall
    back to the training majority."""
    if len(s) == 0:
        raise UndefinedMetricError("cannot fit on an empty sample")
    m, n = s.bits.shape
    y = s.labels.astype(np.float64) * 2.0 - 1.0
    w = np.full(m, 1.0 / m)
    fallback = _majority_label(s.labels)

    stumps: list[Stump] = []
    alphas: list[float] = []
    signed_bits = s.bits.astype(np.float64) * 2.0 - 1.0
    agree_pos = (signed_bits * y[:, None] > 0).astype(np.float64)
    disagree_pos = 1.0 - agree_pos
    for _ in range(50):
        # weighted error of every (bit, polarity) pair in one pass
        err_pos = (w @ disagree_pos).tolist()
        err_neg = (w @ agree_pos).tolist()
        best = None
        for bit in range(n):
            for polarity, err in ((1, err_pos[bit]), (-1, err_neg[bit])):
                if best is None or err < best[0] - 1e-12:
                    best = (err, bit, polarity)
        err, bit, polarity = best
        if err >= 0.5 - 1e-9:
            break
        err = min(max(err, 1e-10), 1 - 1e-10)
        alpha = 0.5 * np.log((1 - err) / err)
        margin = signed_bits[:, bit] * polarity * y
        w = w * np.exp(-alpha * margin)
        w /= w.sum()
        stumps.append(Stump(bit=bit, polarity=polarity))
        alphas.append(float(alpha))
        if err <= 1e-10:
            break
    return BoostedStumpsClassifier(
        stumps=tuple(stumps), alphas=tuple(alphas), fallback=fallback
    )
