"""Public surface and size of the library.

Every exported name resolves, each export list is sorted and free of
duplicates, and ``src/ibrl`` stays within its line budget. A change that
grows the library past the budget raises ``LINE_BUDGET`` and says why in
CHANGES.md; the total may sit at most 10 lines under the budget, so a change
that shrinks the library lowers ``LINE_BUDGET`` with it."""

from pathlib import Path

import pytest

import ibrl
import ibrl.harness

SRC = Path(__file__).resolve().parents[1] / "src" / "ibrl"
# Total lines of src/ibrl/**/*.py.
LINE_BUDGET = 4319

MODULES = pytest.mark.parametrize("module", [ibrl, ibrl.harness], ids=lambda m: m.__name__)


@MODULES
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@MODULES
def test_exports_are_sorted_and_unique(module):
    assert list(module.__all__) == sorted(set(module.__all__))


def test_library_stays_within_its_line_budget():
    total = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    assert LINE_BUDGET - 10 <= total <= LINE_BUDGET, (
        f"src/ibrl has {total} lines against a budget of {LINE_BUDGET}"
    )
