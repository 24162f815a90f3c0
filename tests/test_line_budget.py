"""The package source stays below its line budget (ROADMAP item 12).

A change that would take ``src/cosdfl/*.py`` to the budget first removes
as many lines elsewhere, so each report of net lines is checked here
rather than counted by hand.
"""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cosdfl"
# ROADMAP item 12: src/ below 3,250 lines
ITEM_12_LINE_BUDGET = 3250


def test_package_source_stays_below_the_item_12_budget():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(lines.values()) < ITEM_12_LINE_BUDGET, lines
