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


def _entropy(labels: np.ndarray) -> float:
    m = len(labels)
    if m == 0:
        return 0.0
    p = labels.sum() / m
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _grow_tree(bits: np.ndarray, labels: np.ndarray, used: frozenset[int]) -> TreeLeaf | TreeSplit:
    majority = _majority_label(labels)
    if len(used) == bits.shape[1]:
        return TreeLeaf(majority)
    if labels.min() == labels.max():
        return TreeLeaf(int(labels[0]))

    base = _entropy(labels)
    best_bit = -1
    best_gain = -1.0
    m = len(labels)
    for bit in range(bits.shape[1]):
        if bit in used:
            continue
        high = bits[:, bit] == 1
        h = int(high.sum())
        gain = base - (
            h / m * _entropy(labels[high]) + (m - h) / m * _entropy(labels[~high])
        )
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_bit = bit
    # every bit gains more than the starting -1, so some bit wins
    high = bits[:, best_bit] == 1
    child_used = used | {best_bit}

    def side(rows: np.ndarray) -> TreeLeaf | TreeSplit:
        # an empty side is a leaf of this node's majority
        if not rows.any():
            return TreeLeaf(majority)
        return _grow_tree(bits[rows], labels[rows], child_used)

    return TreeSplit(bit=best_bit, low=side(~high), high=side(high))


def fit_tree(s: Sample) -> GreedyTreeClassifier:
    """Greedy entropy-split tree. Zero-gain splits are still taken (lowest
    bit first) until purity or every bit is used, so it will happily memorize."""
    if len(s) == 0:
        raise UndefinedMetricError("cannot fit on an empty sample")
    return GreedyTreeClassifier(root=_grow_tree(s.bits, s.labels.astype(np.int8), frozenset()))


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
    for _ in range(50):
        # weighted error of every (bit, polarity) pair in one pass
        agree_pos = (signed_bits * y[:, None] > 0).astype(np.float64)
        err_pos = w @ (1.0 - agree_pos)
        err_neg = w @ agree_pos
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
        stump = Stump(bit=bit, polarity=polarity)
        margin = stump.signed(s.bits) * y
        w = w * np.exp(-alpha * margin)
        w /= w.sum()
        stumps.append(stump)
        alphas.append(float(alpha))
        if err <= 1e-10:
            break
    return BoostedStumpsClassifier(
        stumps=tuple(stumps), alphas=tuple(alphas), fallback=fallback
    )
