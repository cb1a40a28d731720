"""The public API names only what the package uses or tests.

Every name in `seqeffects.__all__` must be unique, must resolve, and must
be referenced somewhere other than its own definition: in a package
module other than `__init__.py`, or in a test other than this one.
"""

import re
from pathlib import Path

import seqeffects

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqeffects"
TESTS = ROOT / "tests"


def _texts():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    tests = [p for p in TESTS.glob("*.py") if p.name != Path(__file__).name]
    return [p.read_text() for p in sources + tests]


def test_all_names_are_unique():
    names = seqeffects.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)


def test_all_names_resolve():
    missing = [n for n in seqeffects.__all__ if not hasattr(seqeffects, n)]
    assert missing == []


def test_all_names_are_used_or_tested():
    texts = _texts()
    unused = [
        n
        for n in seqeffects.__all__
        if not any(re.search(rf"(?<!def )(?<!class )\b{re.escape(n)}\b", t) for t in texts)
    ]
    assert unused == []
