"""Hand-built concepts and small utilities shared across test modules."""

from __future__ import annotations

import numpy as np

from impact import (
    AcceptState,
    Adfsa,
    And,
    BranchState,
    ConceptDag,
    Gate,
    Literal,
    Not,
    Or,
    RejectState,
    Sample,
    ThresholdCircuit,
    Wire,
)
from impact.concepts import packed_words


def all_inputs(n: int) -> np.ndarray:
    rows = np.arange(1 << n, dtype=np.uint32)
    return ((rows[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def and_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), And(left=0, right=1)), root=2, n=n
    )


def or_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), Or(left=0, right=1)), root=2, n=n
    )


def nand_dag(n: int = 2) -> ConceptDag:
    return ConceptDag(
        nodes=(Literal(bit=0), Literal(bit=1), And(left=0, right=1), Not(child=2)),
        root=3,
        n=n,
    )


def mixed_relevance_dag() -> ConceptDag:
    # OR(AND(x0,x1), AND(NOT(x0),x2)): the shared literal x0 has relevant
    # examples of both correlations
    return ConceptDag(
        nodes=(
            Literal(bit=0),
            Literal(bit=1),
            Literal(bit=2),
            Not(child=0),
            And(left=0, right=1),
            And(left=3, right=2),
            Or(left=4, right=5),
        ),
        root=6,
        n=3,
    )


def vote_circuit() -> ThresholdCircuit:
    # 2-of-3 over the bits
    gate = Gate(
        threshold=2,
        inputs=(
            Wire(source="bit", index=0),
            Wire(source="bit", index=1),
            Wire(source="bit", index=2),
        ),
    )
    return ThresholdCircuit(gates=(gate,), root=0, n=3)


def layered_circuit() -> ThresholdCircuit:
    # AND(x0,x1) and OR(x2,x3) feeding a 2-of-2 root
    g0 = Gate(threshold=2, inputs=(Wire("bit", 0), Wire("bit", 1)))
    g1 = Gate(threshold=1, inputs=(Wire("bit", 2), Wire("bit", 3)))
    root = Gate(threshold=2, inputs=(Wire("gate", 0), Wire("gate", 1)))
    return ThresholdCircuit(gates=(g0, g1, root), root=2, n=4)


def one_bit_acceptor(n: int = 1) -> Adfsa:
    # first bit 1 -> accept, 0 -> reject
    return Adfsa(
        states=(RejectState(), AcceptState(), BranchState(on0=0, on1=1)), start=2, n=n
    )


def chain_automaton() -> Adfsa:
    # start reads bit 0: on 1 go to a second branch reading the next bit,
    # on 0 reject immediately
    return Adfsa(
        states=(
            RejectState(),
            AcceptState(),
            BranchState(on0=0, on1=1),
            BranchState(on0=0, on1=2),
        ),
        start=3,
        n=2,
    )


def random_strings(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """m bit strings with lengths drawn from 1 to n, zero padded to n bits."""
    lengths = rng.integers(1, n + 1, size=m)
    bits = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
    bits[np.arange(n)[None, :] >= lengths[:, None]] = 0
    return bits, lengths


def make_sample(bits, labels, lengths=None) -> Sample:
    bits = np.asarray(bits, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if lengths is None:
        lengths = np.full(bits.shape[0], bits.shape[1], dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
    return Sample(bits=bits, labels=labels, lengths=lengths)


def agreement_bits(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """learn_adfsa_node's `agree` for any string-mode value rows (..., n+1, M),
    such as an eval_table cube: packed_words of rows == y, so a -1 cell never
    agrees with a label and the padding bits past M are zero."""
    # y in the rows' int8: uint8 labels would widen the comparison to int16
    return packed_words(rows == y.astype(rows.dtype))
