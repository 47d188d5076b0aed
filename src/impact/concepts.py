"""Concept classes the teacher can hold: formula DAGs, threshold circuits, acyclic automata.

All three representations store their internal structure as an index-ordered
list in which every edge points to a strictly lower index, so acyclicity is
structural rather than checked by traversal. Each concept describes that
graph once, in its `children` table: entry i lists the indices that node,
gate or state i reads. The constructor builds and checks the table, and
every traversal reads it. Each class also names its kind once, in `kind`,
which concept files, `impact verify` and session reports use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    InputShapeError,
    InvalidConceptError,
    MalformedAutomatonError,
)


Children = tuple[tuple[int, ...], ...]


def _set_children(concept, children: list[tuple[int, ...]], top: int, what: str) -> None:
    """Set the concept's children table, entry i listing the indices that
    node, gate or state i reads, after the checks every concept shares: at
    least one input bit, a root (or start) index in range, and every edge
    pointing to a strictly lower index."""
    if concept.n < 1:
        raise InvalidConceptError(f"need at least one input bit, got n={concept.n}")
    if not (0 <= top < len(children)):
        raise InvalidConceptError(
            f"the root or start, {what} {top}, is not one of the {len(children)} {what}s"
        )
    for i, kids in enumerate(children):
        for kid in kids:
            if not (0 <= kid < i):
                raise InvalidConceptError(
                    f"{what} {i} has an edge to {kid}; edges must point to lower indices"
                )
    object.__setattr__(concept, "children", tuple(children))


def _height(children: Children, top: int) -> int:
    """Indices on the longest path down the children table from `top`, `top` included."""
    heights: list[int] = []
    for kids in children:
        heights.append(1 + max((heights[kid] for kid in kids), default=0))
    return heights[top]


# ---------------------------------------------------------------------------
# Boolean formula DAGs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    bit: int


@dataclass(frozen=True)
class Not:
    child: int


@dataclass(frozen=True)
class And:
    left: int
    right: int


@dataclass(frozen=True)
class Or:
    left: int
    right: int


DagNode = Literal | Not | And | Or


@dataclass(frozen=True)
class ConceptDag:
    """Boolean formula DAG over n input bits."""

    kind: ClassVar[str] = "dag"

    nodes: tuple[DagNode, ...]
    root: int
    n: int
    children: Children = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        children = []
        for i, node in enumerate(self.nodes):
            if isinstance(node, Literal):
                if not (0 <= node.bit < self.n):
                    raise InvalidConceptError(f"node {i} reads bit {node.bit}, n={self.n}")
                children.append(())
            elif isinstance(node, Not):
                children.append((node.child,))
            else:
                children.append((node.left, node.right))
        _set_children(self, children, self.root, "node")

    @property
    def size(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# Threshold circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wire:
    """Input reference for a gate: a raw bit or an earlier gate's output."""

    source: str  # "bit" or "gate"
    index: int


@dataclass(frozen=True)
class Gate:
    """Fires iff at least `threshold` of its inputs are 1."""

    threshold: int
    inputs: tuple[Wire, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class ThresholdCircuit:
    kind: ClassVar[str] = "threshold"

    gates: tuple[Gate, ...]
    root: int
    n: int
    children: Children = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        children = []
        for i, gate in enumerate(self.gates):
            k = len(gate.inputs)
            if k == 0:
                raise InvalidConceptError(f"gate {i} has no inputs")
            if not (1 <= gate.threshold <= k):
                raise InvalidConceptError(
                    f"gate {i} threshold {gate.threshold} outside 1..{k}"
                )
            for wire in gate.inputs:
                if wire.source == "bit":
                    if not (0 <= wire.index < self.n):
                        raise InvalidConceptError(f"gate {i} reads bit {wire.index}")
                elif wire.source != "gate":
                    raise InvalidConceptError(f"unknown wire source {wire.source!r}")
            children.append(tuple(w.index for w in gate.inputs if w.source == "gate"))
        _set_children(self, children, self.root, "gate")
        if self.depth > 8:
            raise InvalidConceptError(f"circuit depth {self.depth} exceeds cap 8")

    @property
    def depth(self) -> int:
        """Longest gate-to-gate chain, counting the gates on it."""
        return _height(self.children, self.root)

    @property
    def size(self) -> int:
        return len(self.gates)


# ---------------------------------------------------------------------------
# Acyclic automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcceptState:
    pass


@dataclass(frozen=True)
class RejectState:
    pass


@dataclass(frozen=True)
class BranchState:
    """Consumes one bit: 0 moves to on0, 1 moves to on1. Both point to lower indices."""

    on0: int
    on1: int


State = AcceptState | RejectState | BranchState


@dataclass(frozen=True)
class Adfsa:
    """Acyclic decision automaton over bit strings of length at most n.

    A walk starts at `start` and consumes one bit per branch state. Reaching
    a terminal classifies the string; any bits left over are ignored.
    """

    kind: ClassVar[str] = "adfsa"

    states: tuple[State, ...]
    start: int
    n: int
    children: Children = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        accepts = sum(isinstance(s, AcceptState) for s in self.states)
        rejects = sum(isinstance(s, RejectState) for s in self.states)
        if accepts != 1 or rejects != 1:
            raise InvalidConceptError(
                f"need exactly one accept and one reject terminal, got {accepts}/{rejects}"
            )
        children = [
            (state.on0, state.on1) if isinstance(state, BranchState) else ()
            for state in self.states
        ]
        _set_children(self, children, self.start, "state")
        depth = max_path_depth(self)
        if depth > self.n:
            raise InvalidConceptError(f"some walk takes {depth} steps, more than n={self.n}")

    @property
    def size(self) -> int:
        return len(self.states)


def max_path_depth(a: Adfsa) -> int:
    """Length in consumed bits of the longest walk from start to a terminal."""
    return _height(a.children, a.start) - 1


Concept = ConceptDag | ThresholdCircuit | Adfsa


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _bit_array(bits) -> np.ndarray:
    """bits as a uint8 array. A value other than 0 or 1 raises instead of
    being cast (0.5 to 0, 1.9 to 1, -1 to an overflow): a uint8 array is
    checked by its maximum alone, any other array element by element."""
    arr = np.asarray(bits)
    if arr.dtype != np.uint8:
        if not np.isin(arr, (0, 1)).all():
            raise InputShapeError("inputs must be 0/1 valued")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise InputShapeError("inputs must be 0/1 valued")
    return arr


def as_bit_matrix(bits, n: int) -> np.ndarray:
    """Coerce one vector or a matrix of bits to a (m, n) uint8 array."""
    arr = _bit_array(bits)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InputShapeError(f"expected vectors of {n} bits, got shape {arr.shape}")
    return arr


def as_string_batch(bits, lengths) -> tuple[np.ndarray, np.ndarray]:
    """A batch of bit strings as a (m, width) uint8 matrix and its m lengths,
    each in [0, width]."""
    X = _bit_array(bits)
    if X.ndim != 2:
        raise InputShapeError(f"expected a matrix of bit strings, got shape {X.shape}")
    lengths = np.asarray(lengths)
    if lengths.shape != (X.shape[0],):
        raise InputShapeError(f"expected {X.shape[0]} string lengths, got shape {lengths.shape}")
    if lengths.size and (lengths.min() < 0 or lengths.max() > X.shape[1]):
        raise InputShapeError(f"string lengths must lie in [0, {X.shape[1]}], the bit width")
    return X, lengths


def _fill_rows(
    concept: ConceptDag | ThresholdCircuit, X: np.ndarray, rows: np.ndarray | dict, indices
) -> None:
    """Evaluate the given nodes (or gates), in increasing order, by assigning
    each one's row: `rows[i] = ...`. `rows` is node_values' (size, m) array,
    whose rows are written in place, or relevance_mask's dict of the rows a
    clamp's cone reads, whose entries are rebound and never written into.
    Every other row is read as it stands; raw bits are read from X. A row may
    also be a stack of planes (..., m): each plane is evaluated on its own,
    the raw bits shared."""
    if isinstance(concept, ConceptDag):
        for i in indices:
            node = concept.nodes[i]
            if isinstance(node, Literal):
                rows[i] = X[:, node.bit]
            elif isinstance(node, Not):
                rows[i] = 1 - rows[node.child]
            elif isinstance(node, And):
                rows[i] = rows[node.left] & rows[node.right]
            else:
                rows[i] = rows[node.left] | rows[node.right]
        return
    for i in indices:
        gate = concept.gates[i]
        total = np.int32(0)  # an int32 start: a uint8 sum would wrap past 255 inputs
        for wire in gate.inputs:
            total = total + (X[:, wire.index] if wire.source == "bit" else rows[wire.index])
        rows[i] = total >= gate.threshold


def node_values(concept: ConceptDag | ThresholdCircuit, X: np.ndarray) -> np.ndarray:
    """Value of every node (or gate) on every row of X, shape (m, size): the
    transpose of one contiguous row per node."""
    X = as_bit_matrix(X, concept.n)
    rows = np.empty((concept.size, X.shape[0]), dtype=np.uint8)
    _fill_rows(concept, X, rows, range(concept.size))
    return rows.T


def evaluate_batch(concept: ConceptDag | ThresholdCircuit, X: np.ndarray) -> np.ndarray:
    return node_values(concept, X)[:, concept.root]


def relevance_mask(
    concept: ConceptDag | ThresholdCircuit,
    node: int,
    X: np.ndarray,
    *,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """True where clamping the node to 0 and to 1 produces different root values.

    Edges point to lower indices, so a clamp changes only nodes above it:
    the concept is evaluated once (not at all when `values`, its
    node_values on X, is given), and both clamps re-evaluate, in one pass,
    just the nodes that read a changed one. The pass runs over a dict of the
    clamp's cone: views of the unchanged node-value rows it reads, the
    clamped node as a (2, m) stack of its 0-plane and 1-plane, and one
    (2, m) stack for each node it evaluates. No row is copied and `values`
    is never written. When no path leads down from the root to the node,
    the mask is all False and nothing is evaluated. Given `values`, X's
    shape is checked but its bits are not scanned again: they were checked
    when `values` was computed, and only a circuit's gates read them here.
    """
    if not (0 <= node < concept.size):
        raise InvalidConceptError(f"node {node} out of range")
    changed, above, read = {node}, [], set()
    for i in range(node + 1, concept.root + 1):
        if not changed.isdisjoint(concept.children[i]):
            read.update(concept.children[i])
            changed.add(i)
            above.append(i)
    if values is None:
        X = as_bit_matrix(X, concept.n)
        values = node_values(concept, X)
    else:
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != concept.n or values.shape != (len(X), concept.size):
            raise InputShapeError(
                f"expected inputs of {concept.n} bits and node values of shape "
                f"{(len(X), concept.size)}, got shapes {X.shape} and {values.shape}"
            )
    if concept.root not in changed:
        return np.zeros(len(X), dtype=bool)
    rows = {k: values[:, k] for k in read - changed}
    rows[node] = np.array([[0], [1]], dtype=values.dtype).repeat(len(X), axis=1)
    _fill_rows(concept, X, rows, above)
    return rows[concept.root][0] != rows[concept.root][1]


def reachable_indices(concept: Concept, top: int | None = None) -> set[int]:
    """Indices reachable from `top` by following edges, `top` included; by
    default from the root (or start)."""
    if top is None:
        top = concept.start if isinstance(concept, Adfsa) else concept.root
    # edges point to lower indices: one descending pass finds every index
    seen = {top}
    for i in range(top, -1, -1):
        if i in seen:
            seen.update(concept.children[i])
    return seen


# ---------------------------------------------------------------------------
# Restructuring: push every negation down to the leaves
# ---------------------------------------------------------------------------


def _emit_postorder(top, parts, nodes: list) -> int:
    """Append to `nodes`, children first, the nodes that key `top` stands for
    and that are not emitted yet, and return top's index. parts(key) gives
    the keys its node is built from, in the order they are emitted, and a
    function from their indices to the node, or to the index of an existing
    node the key stands for. One explicit stack serves any depth."""
    index: dict = {}
    # (key, None) until the key is expanded, then (key, its parts) below its kids
    stack = [(top, None)]
    while stack:
        key, expanded = stack.pop()
        if expanded is None:
            if key not in index:
                expanded = parts(key)
                stack.append((key, expanded))
                stack += [(kid, None) for kid in expanded[0][::-1] if kid not in index]
            continue
        kids, build = expanded
        made = build(*[index[kid] for kid in kids])
        if isinstance(made, int):
            index[key] = made
        else:
            nodes.append(made)
            index[key] = len(nodes) - 1
    return index[top]


def push_negations_to_leaves(g: ConceptDag) -> ConceptDag:
    """Equivalent DAG in which Not nodes appear only directly above literals.

    Builds positive and negated variants of the reachable nodes on demand,
    applying the usual and/or duality, so the output has at most twice as
    many nodes as the input. A Not is no node of its own: it flips the
    polarity its child is read at.
    """

    def read(idx: int, neg: bool) -> tuple[int, bool]:
        while isinstance(g.nodes[idx], Not):
            idx, neg = g.nodes[idx].child, not neg
        return idx, neg

    def parts(key: tuple[int, bool]):
        idx, neg = key
        node = g.nodes[idx]
        if isinstance(node, Literal):
            return (((idx, False),), Not) if neg else ((), lambda: node)
        op = And if isinstance(node, And) != neg else Or
        return (read(node.right, neg), read(node.left, neg)), lambda right, left: op(left, right)

    nodes: list[DagNode] = []
    root = _emit_postorder(read(g.root, False), parts, nodes)
    return ConceptDag(nodes=tuple(nodes), root=root, n=g.n)


# ---------------------------------------------------------------------------
# Automaton walks
# ---------------------------------------------------------------------------


def _adfsa_tables(a: Adfsa) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per state: its 0 and 1 moves (a terminal moves to itself), whether it
    branches, and whether it accepts."""
    moves = np.array([kids or (i, i) for i, kids in enumerate(a.children)], dtype=np.int64)
    branch = np.array([len(kids) > 0 for kids in a.children], dtype=bool)
    accept = np.array([isinstance(state, AcceptState) for state in a.states], dtype=bool)
    return moves[:, 0], moves[:, 1], branch, accept


def _walk(
    a: Adfsa, X: np.ndarray, lengths: np.ndarray, watch=()
) -> tuple[np.ndarray, np.ndarray]:
    """Batch walk from the start: 1/0 for walks that reach a terminal and -1
    where the string runs out first, and for each watched state the bit
    position at which each walk sits on it, -1 where it never does, shape
    (len(watch), m) int32. Moves point to lower indices, so a walk sits on a
    state at most once and one walk serves every watched state."""
    X, lengths = as_string_batch(X, lengths)
    on0, on1, branch, accept = _adfsa_tables(a)
    # unwatched states file their arrivals in one extra row, dropped at the end
    slot = np.full(a.size, len(watch), dtype=np.int64)
    slot[list(watch)] = np.arange(len(watch))
    m = X.shape[0]
    cur = np.full(m, a.start, dtype=np.int64)
    arrived = np.full((len(watch) + 1, m), -1, dtype=np.int32)
    # the walks that have just reached the state they sit on
    rows = np.arange(m)
    pos = 0
    while True:
        arrived[slot[cur[rows]], rows] = pos
        active = branch[cur] & (pos < lengths)
        if not active.any():
            break
        rows = np.flatnonzero(active)
        bit = X[rows, pos]
        cur[rows] = np.where(bit == 1, on1[cur[rows]], on0[cur[rows]])
        pos += 1
    out = np.where(accept[cur], 1, 0).astype(np.int8)
    out[branch[cur]] = -1
    return out, arrived[:-1]


def adfsa_labels(a: Adfsa, X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Classify a batch of strings; exhaustion anywhere is an error."""
    out = _walk(a, X, lengths)[0]
    if (out < 0).any():
        count = int((out < 0).sum())
        raise MalformedAutomatonError(
            f"{count} strings exhausted before reaching a terminal"
        )
    return out.astype(np.uint8)


def packed_words(mask: np.ndarray) -> np.ndarray:
    """A boolean array packed along its last axis of M into ceil(M / 64)
    little-endian 64-bit words: bit c of word c // 64 is mask[..., c], and the
    bits past M are zero."""
    M = mask.shape[-1]
    packed = np.zeros(mask.shape[:-1] + (8 * -(-M // 64),), dtype=np.uint8)
    packed[..., : -(-M // 8)] = np.packbits(mask, axis=-1, bitorder="little")
    return packed.view("<u8")


def string_words(X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Offset-major packed_words (2, n, W) of a batch of m strings: the bit
    at each offset, and where the offset lies inside the string."""
    inside = np.arange(X.shape[1])[:, None] < lengths[None, :]
    return packed_words(np.stack([X.T == 1, inside]))


def select_step(
    strings: np.ndarray, ok0: np.ndarray, ok1: np.ndarray, val0: np.ndarray, val1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Packed planes (ok, val) of decision steps (branch states or learned
    steps) that read `strings`, string_words at some offsets, given their
    two children's planes at the offsets after those: a step is defined (ok)
    inside the string where the child its bit picks is, and takes that
    child's val bit, be it a value or an agreement. Every array broadcasts
    against the others; bits past the strings stay zero."""
    bits, inside = strings
    ok = inside & (ok0 ^ (bits & (ok0 ^ ok1)))
    return ok, ok & (val0 ^ (bits & (val0 ^ val1)))


def state_outputs(a: Adfsa, X: np.ndarray, lengths: np.ndarray, states: tuple[int, ...]):
    """Outputs of `states` when their walks start at each offset, one offset
    at a time: yields (o, ok, val) for o from a.n - 1 down to 0, where row k
    of ok and val, packed_words (len(states), W) of the m strings, holds the
    walks from states[k] that read each string from offset o on: ok where
    they reach a terminal before the string (shorter than o, too) runs out,
    val where that terminal accepts. X has at most a.n columns.

    One pass over the states reachable from `states` that holds their
    planes at one offset only: a branch state's planes at offset o select
    between its children's at o + 1 (select_step).
    """
    on0, on1, branch, accept = _adfsa_tables(a)
    reach = sorted(set().union(*(reachable_indices(a, state) for state in states)))
    reach = np.array(reach, dtype=np.int64)
    # each reachable state's row among them
    local = np.empty(a.size, dtype=np.int64)
    local[reach] = np.arange(len(reach))
    rows = local[list(states)]
    branches = np.flatnonzero(branch[reach])
    kids0 = local[on0[reach[branches]]]
    kids1 = local[on1[reach[branches]]]
    # planes of every reachable state at the offset after the current one;
    # from X's width on, a walk still on a branch state has run out
    shape = (len(reach), X.shape[0])
    ok = packed_words(np.broadcast_to(~branch[reach, None], shape))
    val = packed_words(np.broadcast_to(accept[reach, None], shape))
    strings = string_words(X, lengths)
    for o in range(a.n - 1, -1, -1):
        if o < X.shape[1]:
            ok[branches], val[branches] = select_step(
                strings[:, o], ok[kids0], ok[kids1], val[kids0], val[kids1]
            )
        yield o, ok[rows], val[rows]


# ---------------------------------------------------------------------------
# Parity construction
# ---------------------------------------------------------------------------


def build_parity(n: int, subset) -> ConceptDag:
    """DAG computing the parity of the given bit subset via and/or/not expansion."""
    subset = list(subset)
    if not subset:
        raise InvalidConceptError("parity needs at least one bit")
    if len(set(subset)) != len(subset):
        raise InvalidConceptError("parity subset has repeated bits")
    for b in subset:
        if not (0 <= b < n):
            raise InvalidConceptError(f"parity bit {b} out of range for n={n}")

    nodes: list[DagNode] = []

    def emit(node: DagNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def xor_tree(bits: list[int]) -> int:
        if len(bits) == 1:
            return emit(Literal(bits[0]))
        mid = len(bits) // 2
        a = xor_tree(bits[:mid])
        b = xor_tree(bits[mid:])
        not_a = emit(Not(a))
        not_b = emit(Not(b))
        only_a = emit(And(a, not_b))
        only_b = emit(And(not_a, b))
        return emit(Or(only_a, only_b))

    root = xor_tree(subset)
    return ConceptDag(nodes=tuple(nodes), root=root, n=n)


# ---------------------------------------------------------------------------
# JSON concept files
# ---------------------------------------------------------------------------


# A concept file is a JSON object: the concept's kind name under "type", its
# n, and its first two fields, the list of its nodes, gates or states and its
# root or start index. A DAG node or automaton state is a record of its tag,
# under the key the table gives, followed by its dataclass fields in order. A
# gate is a record of its threshold and its inputs, each {"bit": i} or
# {"gate": i}.
_RECORD_TAGS = {
    Literal: ("op", "lit"),
    Not: ("op", "not"),
    And: ("op", "and"),
    Or: ("op", "or"),
    AcceptState: ("kind", "accept"),
    RejectState: ("kind", "reject"),
    BranchState: ("kind", "branch"),
}
_RECORD_CLASSES = {key_and_tag: cls for cls, key_and_tag in _RECORD_TAGS.items()}
# The key of each kind's record tags; gate records have no tag.
_TAG_KEYS = {ConceptDag: "op", Adfsa: "kind"}
_KINDS = {cls.kind: cls for cls in (ConceptDag, ThresholdCircuit, Adfsa)}


def _record_to_dict(item: DagNode | Gate | State) -> dict:
    if isinstance(item, Gate):
        return {"threshold": item.threshold, "inputs": [{w.source: w.index} for w in item.inputs]}
    key, tag = _RECORD_TAGS[type(item)]
    record = {key: tag}
    for f in fields(item):
        record[f.name] = getattr(item, f.name)
    return record


def concept_to_dict(concept: Concept) -> dict:
    """The concept as the JSON object of a concept file (see _RECORD_TAGS)."""
    items, top = (f.name for f in fields(concept)[:2])
    return {
        "type": concept.kind,
        "n": concept.n,
        items: [_record_to_dict(item) for item in getattr(concept, items)],
        top: getattr(concept, top),
    }


def read_json(path: str | Path, error: type[Exception]):
    """The JSON value of an input file. A file that cannot be read or parsed
    raises `error`; ValueError covers invalid JSON, text that is not UTF-8,
    and integers too long for Python to convert."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def json_int(value) -> int:
    """An integer field of an input file. Anything but a JSON integer, bools
    included, raises TypeError, so neither 2.7 nor "2" ever becomes 2."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _gate_from_dict(entry: dict) -> Gate:
    wires = []
    for ref in entry["inputs"]:
        if "bit" in ref:
            wires.append(Wire("bit", json_int(ref["bit"])))
        elif "gate" in ref:
            wires.append(Wire("gate", json_int(ref["gate"])))
        else:
            raise InvalidConceptError(f"unknown wire {ref!r}")
    return Gate(json_int(entry["threshold"]), tuple(wires))


def _record_from_dict(entry: dict, tag_key: str | None) -> DagNode | Gate | State:
    if tag_key is None:
        return _gate_from_dict(entry)
    tag = entry[tag_key]
    cls = _RECORD_CLASSES.get((tag_key, tag))
    if cls is None:
        raise InvalidConceptError(f"unknown record {tag_key} {tag!r}")
    return cls(*(json_int(entry[f.name]) for f in fields(cls)))


def concept_from_dict(data: dict) -> Concept:
    """The concept a concept file's JSON object describes (see _RECORD_TAGS)."""
    if not isinstance(data, dict):
        raise InvalidConceptError("concept file must hold a JSON object")
    kind = data.get("type")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidConceptError(f"concept type must be one of {sorted(_KINDS)}, got {kind!r}")
    items, top = (f.name for f in fields(cls)[:2])
    tag_key = _TAG_KEYS.get(cls)
    try:
        n = json_int(data["n"])
        records = tuple(_record_from_dict(entry, tag_key) for entry in data[items])
        return cls(**{items: records, top: json_int(data[top]), "n": n})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConceptError(f"malformed concept file: {exc!r}") from exc


def load_concept(path: str | Path) -> Concept:
    return concept_from_dict(read_json(path, InvalidConceptError))


def save_concept(concept: Concept, path: str | Path) -> None:
    Path(path).write_text(json.dumps(concept_to_dict(concept), indent=2) + "\n")
