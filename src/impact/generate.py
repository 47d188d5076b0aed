"""Seeded random concept builders for experiments and property tests."""

from __future__ import annotations

import numpy as np

from .concepts import (
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
    ThresholdCircuit,
    Wire,
)
from .errors import InvalidParameterError
from .sampling import rng_from


def random_dag(n: int, size: int, seed: int) -> ConceptDag:
    """Literals for every bit, then random internal nodes, each a negation
    with probability 0.2; the last node is the root."""
    if size < n + 1:
        raise InvalidParameterError("size must exceed the bit count")
    rng = rng_from(seed, "generate", "dag")
    nodes: list = [Literal(bit=i) for i in range(n)]
    while len(nodes) < size:
        top = len(nodes)
        if rng.random() < 0.2:
            nodes.append(Not(child=int(rng.integers(0, top))))
        else:
            left = int(rng.integers(0, top))
            right = int(rng.integers(0, top))
            cls = And if rng.random() < 0.5 else Or
            nodes.append(cls(left=left, right=right))
    return ConceptDag(nodes=tuple(nodes), root=size - 1, n=n)


def random_circuit(
    n: int, hidden: int, seed: int, *, fan_in: int = 3
) -> ThresholdCircuit:
    """Two layers: hidden vote gates over distinct bits, one root gate over
    all hidden gates."""
    if hidden < 1:
        raise InvalidParameterError("need at least one hidden gate")
    if not (1 <= fan_in <= n):
        raise InvalidParameterError("fan_in must be in [1, n]")
    rng = rng_from(seed, "generate", "circuit")
    gates = []
    for _ in range(hidden):
        bits = rng.choice(n, size=fan_in, replace=False)
        inputs = tuple(Wire(source="bit", index=int(b)) for b in sorted(bits))
        threshold = int(rng.integers(1, fan_in + 1))
        gates.append(Gate(threshold=threshold, inputs=inputs))
    root_inputs = tuple(Wire(source="gate", index=i) for i in range(hidden))
    root_threshold = int(rng.integers(1, hidden + 1))
    gates.append(Gate(threshold=root_threshold, inputs=root_inputs))
    return ThresholdCircuit(gates=tuple(gates), root=hidden, n=n)


def random_automaton(n: int, branches: int, seed: int) -> Adfsa:
    """Terminals first, then branch states wired only backwards; the last
    branch state is the start. branches <= n keeps every walk within the
    input length."""
    if not (1 <= branches <= n):
        raise InvalidParameterError("branches must be in [1, n]")
    rng = rng_from(seed, "generate", "automaton")
    states: list = [RejectState(), AcceptState()]
    for _ in range(branches):
        top = len(states)
        on0 = int(rng.integers(0, top))
        on1 = int(rng.integers(0, top))
        states.append(BranchState(on0=on0, on1=on1))
    return Adfsa(states=tuple(states), start=len(states) - 1, n=n)


def random_parity_subset(n: int, k: int, seed: int) -> tuple[int, ...]:
    if not (1 <= k <= n):
        raise InvalidParameterError("k must be in [1, n]")
    rng = rng_from(seed, "generate", "parity-subset", 0)
    picked = rng.choice(n, size=k, replace=False)
    return tuple(int(b) for b in np.sort(picked))
