"""Example distributions, sample drawing, and evaluation metrics.

Seeding is hash based and hierarchical: every consumer derives its generator
from (seed, stream tags...) through sha256, so adding a new consumer never
shifts anyone else's stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .concepts import (
    Adfsa,
    Concept,
    adfsa_labels,
    evaluate_batch,
    max_path_depth,
)
from .errors import InvalidParameterError, UndefinedMetricError


def stable_entropy(*parts) -> list[int]:
    """Deterministic 128-bit entropy from a mixed tuple of ints and strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    digest = h.digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def rng_from(*parts) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(stable_entropy(*parts)))


def derive_seed(*parts) -> int:
    """Collapse mixed parts into one stable 64-bit seed value."""
    words = stable_entropy(*parts)
    return (words[0] << 32) | words[1]


@dataclass(frozen=True)
class Distribution:
    """Input distribution over bit vectors, or over bit strings for automata.

    kind "uniform": each bit fair and independent.
    kind "product": bit i is 1 with probability probabilities[i].
    kind "strings": length drawn uniformly from [length_low, n], then fair
    bits.
    """

    kind: str
    n: int
    seed: int
    probabilities: tuple[float, ...] | None = None
    length_low: int = 1

    def __post_init__(self):
        if self.kind not in ("uniform", "product", "strings"):
            raise InvalidParameterError(f"unknown distribution kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParameterError("n must be at least 1")
        if self.kind == "product":
            if self.probabilities is None or len(self.probabilities) != self.n:
                raise InvalidParameterError("product distribution needs n probabilities")
            if any(not (0.0 <= p <= 1.0) for p in self.probabilities):
                raise InvalidParameterError("bit probabilities must lie in [0, 1]")
        if self.kind == "strings":
            if not (1 <= self.length_low <= self.n):
                raise InvalidParameterError(
                    f"string lengths must satisfy 1 <= {self.length_low} <= n"
                )

    @staticmethod
    def uniform(n: int, seed: int) -> "Distribution":
        return Distribution(kind="uniform", n=n, seed=seed)

    @staticmethod
    def product(probabilities, seed: int) -> "Distribution":
        probs = tuple(float(p) for p in probabilities)
        return Distribution(kind="product", n=len(probs), seed=seed, probabilities=probs)

    @staticmethod
    def strings(n: int, seed: int, length_low: int = 1) -> "Distribution":
        return Distribution(kind="strings", n=n, seed=seed, length_low=length_low)

    @staticmethod
    def strings_for(a: Adfsa, seed: int) -> "Distribution":
        """String distribution whose minimum length covers the automaton's deepest walk."""
        return Distribution.strings(a.n, seed, length_low=max(1, max_path_depth(a)))


@dataclass
class Sample:
    """Immutable batch of labeled examples.

    bits is (m, n); for string concepts only the first lengths[i] entries of
    row i are meaningful and the rest are zero padding. A moderated round
    names its rows by their indices here, so it never copies them.
    """

    bits: np.ndarray
    labels: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        for arr in (self.bits, self.labels, self.lengths):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def draw_inputs(d: Distribution, m: int, *, stream=0) -> tuple[np.ndarray, np.ndarray]:
    """Draw m unlabelled inputs: bits (m, n), zero past each string's length,
    and lengths (m,). The same (distribution, stream) always yields the same
    inputs; distinct streams are independent."""
    if m < 1:
        raise InvalidParameterError(f"sample size must be positive, got {m}")
    rng = rng_from(d.seed, "draw", stream)
    if d.kind == "strings":
        lengths = rng.integers(d.length_low, d.n + 1, size=m).astype(np.int64)
        bits = rng.integers(0, 2, size=(m, d.n), dtype=np.uint8)
        mask = np.arange(d.n)[None, :] >= lengths[:, None]
        bits[mask] = 0
        return bits, lengths
    if d.kind == "uniform":
        bits = rng.integers(0, 2, size=(m, d.n), dtype=np.uint8)
    else:
        probs = np.asarray(d.probabilities, dtype=np.float64)
        bits = (rng.random(size=(m, d.n)) < probs[None, :]).astype(np.uint8)
    return bits, np.full(m, d.n, dtype=np.int64)


def require_inputs(concept: Concept, n: int, strings: bool) -> None:
    """Refuse inputs the concept cannot read. An automaton reads strings of
    length up to its n, and a formula or circuit reads vectors of its n
    bits; anything else raises InvalidParameterError, the kind before n."""
    if isinstance(concept, Adfsa) != strings:
        given = "strings" if strings else "fixed-width vectors"
        raise InvalidParameterError(f"a concept of kind {concept.kind!r} cannot read {given}")
    if concept.n != n:
        raise InvalidParameterError(f"a concept of n={concept.n} cannot be compared on n={n} bits")


def draw_sample(d: Distribution, concept: Concept, m: int, *, stream=0) -> Sample:
    """Draw m examples (see draw_inputs) and label them with the concept."""
    require_inputs(concept, d.n, d.kind == "strings")
    bits, lengths = draw_inputs(d, m, stream=stream)
    if isinstance(concept, Adfsa):
        labels = adfsa_labels(concept, bits, lengths)
    else:
        labels = evaluate_batch(concept, bits).astype(np.uint8)
    return Sample(bits=bits, labels=labels, lengths=lengths)


def accuracy(h, s: Sample) -> float:
    """Fraction of s that the classifier, or a callable of the sample, labels
    correctly. Abstentions (-1) count as wrong."""
    if len(s) == 0:
        raise UndefinedMetricError("accuracy over an empty sample is undefined")
    preds = h.predict_sample(s) if hasattr(h, "predict_sample") else h(s)
    return float(np.mean(np.asarray(preds) == s.labels))
