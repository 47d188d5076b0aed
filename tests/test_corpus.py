"""The digest corpus: one sha256 per family of fixed-seed outputs, so that a
change that claims "reports unchanged" shows it across restructured DAGs,
formula, automaton and circuit reports, sweep CSVs and the exports of
random classifier stacks at once.
`tools/digests.py` defines the families and compares two checkouts item by
item; these tests pin the family digests."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)

FAMILY_DIGESTS = {
    "restructured": "9da33e70b08cba3038388abe5d10b44a26269976f4ca41e0b938a6a529961e17",
    "formula": "8df65a0a4b50d977c6bee24082c78784a3d9d90dd1b323d1f84ceb598923e75f",
    "automaton": "e90d966ad489ef90efbf6eaa24ed293b39816f53ea247cda20dd7da589c4733c",
    "circuit": "91a3fe6efa08780518cb46209ee2500ae2720f58e5543e39ace332c61a7843b9",
    "sweep": "fee1a35716121d1377307510cde55c5bd0bbe8554154281334dc286739055c2b",
    "exports": "0bfa4325f69a721368932ab6aa83ed1bf237be1bd4dc81af40ba07030b8816c4",
}


def test_every_family_is_pinned():
    assert sorted(FAMILY_DIGESTS) == sorted(digests.FAMILIES)


@pytest.mark.parametrize("family", digests.FAMILIES)
def test_family_digest_is_unchanged(family):
    assert digests.family_digest(digests.item_digests(family)) == FAMILY_DIGESTS[family]


def test_dropped_keys_and_columns_leave_the_rest_of_the_digest():
    report = {"n": 3, "rounds": [{"index": 0, "error": 0.5}]}
    grown = {"n": 3, "extra": 1, "rounds": [{"index": 0, "error": 0.5, "extra": [2]}]}
    assert digests.item_digest(grown) != digests.item_digest(report)
    assert digests.item_digest(grown, drop=["extra"]) == digests.item_digest(report)
    csv = "name,value,runtime_ms\na,1,0.5\n"
    assert digests.item_digest(csv) == digests.item_digest("name,value\na,1\n")
    assert digests.item_digest(csv, drop=["value"]) == digests.item_digest("name\na\n")
