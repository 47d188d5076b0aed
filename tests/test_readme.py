"""The README's quick start and the moderation values it names run as written."""

import contextlib
import io
import re
from pathlib import Path

from impact import run_teaching_session

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def run_quick_start() -> tuple[dict, str]:
    """The names the README's one fenced python block defines, and what it prints."""
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    scope, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, scope)
    return scope, out.getvalue()


def test_quick_start_prints_what_its_comment_says():
    _, out = run_quick_start()
    assert out == "9 1.0\n"


def test_key_arguments_moderation_values_run():
    """Each value the "Key arguments" moderation entry names runs the quick
    start's session under that rule."""
    (entry,) = [line for line in README.splitlines() if line.startswith("- `moderation=")]
    values = re.findall(r'"(\w+)"', entry)
    assert values == ["relevant", "partition"]
    scope, _ = run_quick_start()
    for value in values:
        report = run_teaching_session(scope["target"], scope["dist"], m=200, moderation=value)
        assert report.moderation == value
