"""Checks on the library's source text."""

import ast
import types
from collections import defaultdict
from pathlib import Path

import impact
import impact.concepts

SOURCES = sorted(Path(impact.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    """Invariants raise explicit errors: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_float32_appears_only_in_the_exactness_helper():
    """Single-precision counts are exact only up to 2**24, so one helper,
    learner.exact_float_dtype, decides where they are used."""
    found, helpers = [], []
    for path in SOURCES:
        text = path.read_text()
        spans = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(ast.parse(text, filename=str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == "exact_float_dtype"
        ]
        helpers += [path.name for _ in spans]
        found += [
            f"{path.name}:{i}"
            for i, line in enumerate(text.splitlines(), start=1)
            if "float32" in line and not any(i in span for span in spans)
        ]
    assert helpers == ["learner.py"]
    assert found == []


def test_oracle_imports_only_concept_classes_and_never_reads_children():
    """The references in oracle.py walk each concept with traversals of their
    own, so they must not share the children table the fast paths read. The
    reference cube restates the attribute layout and the step recurrence, so
    it must not share AttributeSpace.learned, the row fillers or the packed
    step planes (their builder, filler, step select, decoder, string words
    and word packing) either. The reference perceptron counts in float64, so
    it must not share exact_float_dtype, the precision rule it checks. The
    reference automaton step and offset selection score string by string, so
    they must not share packed words or count packed bits with
    bitwise_count. The reference pair counts score every pair, so they must
    not share the learner's pruning to the rows that can join a zero-error
    pair."""
    path = Path(impact.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "concepts":
            names += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules += [alias.name for alias in node.names]
    assert names
    assert [name for name in modules if name.split(".")[-1] == "concepts"] == []
    kinds = (type, types.UnionType)
    assert [name for name in names if not isinstance(getattr(impact.concepts, name), kinds)] == []
    shared = {
        "fill_bit_rows",
        "step_planes",
        "fill_step_planes",
        "decode_planes",
        "packed_words",
        "string_words",
        "select_step",
        "exact_float_dtype",
        "bitwise_count",
        "_zero_error_rows",
    }
    assert shared.isdisjoint(names + modules)
    assert [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in shared | {"children", "learned"}
    ] == []


def test_every_export_is_used_or_documented():
    """A name the package exports is loaded somewhere in the library outside
    its own definition, or the README documents it in backticks; any other
    export is surface that nothing in the system needs. Only a loaded name
    counts: an attribute, field or keyword of the same spelling is another
    name. A read from the definition of such an export does not count
    either, so this repeats until no more exports drop out."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    readers = defaultdict(set)  # name -> the top-level definitions that read it
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].add(own)
    unused: set[str] = set()
    while True:
        used = {name for name, owns in readers.items() if owns - unused - {name}}
        dropped = {
            name for name in impact.__all__ if name not in used and f"`{name}`" not in readme
        }
        if dropped == unused:
            break
        unused = dropped
    assert sorted(unused) == []


def test_every_import_is_read():
    """A name a module imports at its top level is read in that module, is
    re-exported through `__all__`, or carries `noqa` on its line, where a
    tool outside the library reads it."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported |= set(ast.literal_eval(stmt.value))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"
            ):
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in read or name in exported or "noqa" in lines[alias.lineno - 1]:
                    continue
                found.append(f"{path.name}:{alias.lineno} {name}")
    assert found == []
