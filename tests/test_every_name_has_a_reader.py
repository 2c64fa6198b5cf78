"""Every top-level function, class and method in ``src/`` has a reader outside ``tests/``.

A reader is a whole-word occurrence of the definition's name in ``src/``,
``examples/`` or ``benchmarks/`` (the harness and the legacy scripts),
outside the definition itself and outside the import statements and
``__all__`` of ``__init__`` modules, which only re-export.  A definition
whose only readers are tests fails :func:`test_every_definition_has_a_reader`:
delete it together with the tests that only exercise it, or give it a reader.

The scan is name-based, not a call graph.  A common name (``run``,
``value``) counts as read wherever that word appears, so dead code with a
common name can hide from it, and a mention in a docstring or comment counts
as a reader.  Dunder methods are skipped: the interpreter calls them.

:data:`ALLOWLIST` names the definitions kept without a reader, each with its
reason: the reader it is waiting for, or its role as a reference that tests
compare against.  An entry is stale, and fails
:func:`test_allowlist_entries_are_current`, once its name gains a reader or
no longer names a definition.
"""

from __future__ import annotations

import ast
import re
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READER_DIRS = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: ``qualified name: reason`` for each definition kept without a reader.
ALLOWLIST = {
    "earth_movers_distance": "W1 beside KL in the accuracy report (ROADMAP item 1C)",
    "total_variation_distance": "TV beside KL in the accuracy report (ROADMAP item 1C)",
    "Decomposition.is_coarser_than": "Theorem 2's order for Fig. 15's invariant (ROADMAP item 2(e))",
    "ghg_emissions_g": "the GHG cost column that ROADMAP item 2(e) settles, or the module goes",
    "HMMMapMatcher._candidates": "tests/reference_matcher.py's candidate scan is compared against it",
    "snapshot_info": "reports whether a snapshot is verified (ROADMAP item 10(d))",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _definitions(tree: ast.Module):
    """``(qualified name, name, first line, last line)`` of each top-level
    function and class and of each method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [
                (f"{node.name}.{member.name}", member)
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        for qualified, member in members:
            first = min([d.lineno for d in member.decorator_list] + [member.lineno])
            yield qualified, member.name, first, member.end_lineno


def _reexport_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in tree.body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        )
        if reexport:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def scan() -> tuple[dict[str, bool], set[str]]:
    """``({qualified name: has a reader}, names without one)`` over ``src/``."""
    occurrences: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    definitions = []
    for directory in READER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            with warnings.catch_warnings():
                # A bad escape in a scanned file's string is not this test's subject.
                warnings.simplefilter("ignore", (DeprecationWarning, SyntaxWarning))
                tree = ast.parse(text)
            skipped = _reexport_lines(tree) if path.name == "__init__.py" else set()
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno not in skipped:
                    for word in set(_WORD.findall(line)):
                        occurrences[word].append((path, lineno))
            if directory == SRC:
                definitions += [(path, *definition) for definition in _definitions(tree)]
    read: dict[str, bool] = {}
    for path, qualified, name, first, last in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        read[qualified] = read.get(qualified, False) or any(
            where != path or not first <= lineno <= last for where, lineno in occurrences[name]
        )
    return read, {qualified for qualified, has_reader in read.items() if not has_reader}


@pytest.fixture(scope="module")
def scanned():
    return scan()


def test_every_definition_has_a_reader(scanned):
    _, unread = scanned
    missing = sorted(unread - ALLOWLIST.keys())
    assert not missing, (
        f"src/ definitions with no reader outside tests/: {missing}. Delete each with the "
        "tests that only exercise it, give it a reader, or allowlist it with its reason."
    )


def test_allowlist_entries_are_current(scanned):
    read, unread = scanned
    gone = sorted(ALLOWLIST.keys() - read.keys())
    assert not gone, f"allowlisted names that no longer name a src/ definition: {gone}"
    now_read = sorted(ALLOWLIST.keys() - unread)
    assert not now_read, f"allowlisted names that have gained a reader: {now_read}"
    assert all(reason.strip() for reason in ALLOWLIST.values())
