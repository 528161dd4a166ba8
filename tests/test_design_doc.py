"""DESIGN.md is checked against the tree it describes.

* §4's inventory has one row per module under ``src/repro/``;
* §3c's live (not struck-through) record kinds are the ones the product
  writes: ``test_records.FAMILIES`` plus the journal's ``wal``;
* every ``benchmarks/…py`` or ``tests/…py`` path the docs or ``src/``
  name exists.  CHANGES.md and ROADMAP.md are history and not checked.
"""

import pathlib
import re

from tests.core.test_records import FAMILIES

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()


def _section(heading):
    """The text of DESIGN.md from *heading* to the next ``## `` heading."""
    start = DESIGN.index(f"\n## {heading}")
    end = DESIGN.find("\n## ", start + 1)
    return DESIGN[start:end if end >= 0 else None]


def _first_cells(section):
    """The first cell of every body row of the section's tables."""
    return [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("|---")][1:]


def test_module_inventory_matches_the_tree():
    listed = re.findall(r"^\| `([\w/]+\.py)` \|",
                        _section("4. Module inventory"), re.MULTILINE)
    src = ROOT / "src" / "repro"
    modules = sorted(path.relative_to(src).as_posix()
                     for path in src.rglob("*.py")
                     if path.name != "__init__.py")
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert sorted(listed) == modules


def test_live_record_kinds_match_the_catalogue():
    live = {name.split(":")[0]
            for cell in _first_cells(_section("3c. Failure model"))
            if not cell.startswith("~~")
            for name in re.findall(r"`([^`]+)`", cell)}
    assert live == FAMILIES | {"wal"}


def test_named_bench_and_test_paths_exist():
    docs = [ROOT / "DESIGN.md", ROOT / "README.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").rglob("*.md")),
            *sorted((ROOT / "src").rglob("*.py"))]
    path = re.compile(r"(?<![\w/])((?:benchmarks|tests)/[\w/.-]*?\.py)\b")
    missing = sorted(f"{doc.relative_to(ROOT)}: {name}" for doc in docs
                     for name in path.findall(doc.read_text())
                     if not (ROOT / name).exists())
    assert missing == []
