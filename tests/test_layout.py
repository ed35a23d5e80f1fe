"""Rules on the layout of the package sources."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "effkit"


def test_no_import_inside_a_function():
    """Every module imports at module level only, so no import cycle hides
    behind a function body that runs later."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    nested = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not nested, f"imports inside functions: {sorted(nested)}"


def test_every_import_is_used():
    """Every name a module imports is used in that module, so a deletion
    leaves no dead import behind; ``__init__.py`` re-exports and is exempt."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.update(
                    f"{path.name}:{node.lineno} {name}"
                    for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in used
                )
    assert not unused, f"unused imports: {sorted(unused)}"


def test_measure_ids_and_masks_stay_in_their_modules():
    """A measure's ``ident`` and a measure set's ``mask`` are read only in
    the modules that define them (``space.py`` holds the id table), so
    every other module goes through ``MeasureSet``'s methods or
    ``_minimal``."""
    owners = {"space.py", "measure.py", "upperset.py"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in owners:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers.update(
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("ident", "mask")
        )
    assert not readers, f"ids or masks read outside their modules: {sorted(readers)}"


def test_mass_order_is_read_only_for_canonical_order():
    """Measure sets and families are built unsorted: outside ``measure.py``,
    which defines it, ``_mass_order`` is named once each in the bodies of
    ``MeasureSet.members`` and ``UpperSet.generators`` and nowhere else, in
    no constructor above all."""
    where = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "measure.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        where += [
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_mass_order"
        ]
    assert sorted(where) == ["upperset.py:generators", "upperset.py:members"], where
