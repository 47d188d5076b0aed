"""List the statements of `src/impact` that no Tier-1 test reaches.

    python3 tools/unreached.py [CHECKOUT] [-- PYTEST_ARGS...]

CHECKOUT is a checkout of this repository (default: the one holding this
script). The script runs its `tests/` in this interpreter under
`sys.settrace`, recording every line event in the checkout's `src/impact`.
It then parses each module and prints, one line each, every outermost
statement whose lines saw no event, as `path:first[-last]` and the
statement's first line of text, followed by a count. Docstrings are not
statements here. A statement reached only inside a sweep's worker
processes (a config's `workers` above 1) shows as unreached, since the
trace covers this process only.

It uses the standard library and pytest only, and takes about three times
as long as the suite alone. It gates nothing: the exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path


def unreached(path: Path, lines: set[int]) -> list[tuple[int, int]]:
    """The (first, last) lines of the outermost statements of the module at
    `path` with no line of theirs in `lines`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            docstring = (
                i == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if docstring or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if not any(j in lines for j in range(node.lineno, node.end_lineno + 1)):
                found.append((node.lineno, node.end_lineno))
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ExceptHandler | ast.match_case):
                    visit(child.body)
            for field in ("body", "orelse", "finalbody"):
                if isinstance(getattr(node, field, None), list):
                    visit(getattr(node, field))

    visit(tree.body)
    return found


def main(argv: list[str]) -> int:
    pytest_args = argv[argv.index("--") + 1 :] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    root = Path(own[0] if own else Path(__file__).resolve().parents[1]).resolve()
    package = root / "src" / "impact"
    sys.path.insert(0, str(package.parent))
    prefix = f"{package}/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(root / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        for first, last in unreached(path, hits[str(path)]):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"src/impact/{path.name}:{span}  {source[first - 1].strip()}")
            total += 1
    print(f"{total} unreached statements")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
