"""Rules on the layout of the package sources."""

from __future__ import annotations

import ast
import subprocess
import sys
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
    the modules that define them (``measure.py`` hands out the ids), so
    every other module goes through ``MeasureSet``'s methods or
    ``_minimal``."""
    owners = {"measure.py", "upperset.py"}
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


def test_a_loaded_model_is_read_as_its_own_type():
    """``load_model`` returns the ``Nlmp`` or ``EffFn`` a file describes,
    and ``model_io.KINDS`` maps its type to the file's ``kind``, so no
    module reads a ``kind``, ``ef`` or ``nlmp`` attribute off a wrapper."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers.update(
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("kind", "ef", "nlmp")
        )
    assert not readers, f"model kinds read off attributes: {sorted(readers)}"


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


def _owners(tree: ast.AST) -> dict[int, str]:
    """Per node, the name of the innermost function around it."""
    return {
        id(node): fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }


def test_measure_supports_are_read_in_few_places():
    """A measure's support, its ``atoms`` beside its ``nums``, is read
    outside ``measure.py`` only by the engine's round (``_refine``), the
    emitter (``_measure_to_dict``) and the span's ``transport``.  A read
    of ``.atoms`` counts as a measure's when its object is also read for
    ``.nums`` in that module, or is named ``mu`` or ``nu``."""
    allowed = {
        "effectivity.py:_refine",
        "model_io.py:_measure_to_dict",
        "cospan.py:transport",
    }
    where = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "measure.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        measures = {"mu", "nu"} | {ast.unparse(n.value) for n in reads if n.attr == "nums"}
        owner = _owners(tree)
        where.update(
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in reads
            if node.attr == "nums"
            or (node.attr == "atoms" and ast.unparse(node.value) in measures)
        )
    assert where == allowed, sorted(where ^ allowed)


def test_one_integer_sum_serves_evaluate_and_the_evaluator():
    """``measure.evaluate`` and ``logic._Evaluator.numerator`` sum a
    measure's numerators over a set of atoms through one helper defined in
    ``measure.py``, and neither reads the support itself."""

    def function(path: Path, name: str, cls: str | None = None) -> ast.FunctionDef:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scope = tree
        if cls is not None:
            scope = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        return next(n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == name)

    measure_tree = ast.parse((SRC / "measure.py").read_text(encoding="utf-8"))
    calls = []
    for fn in (
        function(SRC / "measure.py", "evaluate"),
        function(SRC / "logic.py", "numerator", "_Evaluator"),
    ):
        nodes = list(ast.walk(fn))
        calls.append(
            {n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        )
        support = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr in ("atoms", "nums")]
        assert not support, f"{fn.name} reads a support"
    defined = {n.name for n in measure_tree.body if isinstance(n, ast.FunctionDef)}
    assert calls[0] & calls[1] & defined == {"_atoms_of", "_numerator_in"}


def test_one_routine_interns_every_measure():
    """Every measure is reduced and interned by one routine,
    ``measure._interned``: no other code names the registry class
    ``_Registry`` or the space's ``_measures`` entry.  ``model_io`` reads a
    measure object straight to that routine, naming neither ``SubProb.of``
    nor ``Fraction``."""
    where = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        where.update(
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_Registry")
            or (isinstance(node, ast.Attribute) and node.attr == "_measures")
            or (isinstance(node, ast.Constant) and node.value == "_measures")
        )
    assert where == {"measure.py:_interned"}, sorted(where)
    tree = ast.parse((SRC / "model_io.py").read_text(encoding="utf-8"))
    owner = _owners(tree)
    named = {
        f"{owner.get(id(node), '<module>')} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "of")
        or (isinstance(node, ast.Name) and node.id in ("Fraction", "_interned"))
    }
    assert named == {"_read_measure _interned"}, sorted(named)


def test_the_atom_rule_is_written_once():
    """A kernel or a portfolio is measurable exactly when it is constant on
    each atom, and one routine, ``space._constant_on_atoms``, says so: only
    the ``Kernel`` and ``EffFn`` constructors call it, and only it words the
    refusal.  ``model_io`` compares no dynamics across an atom's states: it
    reads the ``atoms`` of a space or a measure only to emit them.  No
    module names ``_atom_roots``, and the union-find of the atom closure
    lives in ``space.sigma_r`` alone."""
    found: dict[str, set[str]] = {"calls": set(), "words": set(), "atoms": set(), "finds": set()}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        docs = {
            id(scope.body[0].value)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and scope.body
            and isinstance(scope.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{owner.get(id(node), '<module>')}"
            if isinstance(node, ast.Name) and node.id in ("_constant_on_atoms", "_atom_roots"):
                found["calls"].add(f"{where} {node.id}")
            elif isinstance(node, (ast.alias, ast.FunctionDef)) and node.name == "_atom_roots":
                found["calls"].add(f"{where} _atom_roots")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "constant on each atom" in node.value
                and id(node) not in docs
            ):
                found["words"].add(where)
            elif isinstance(node, ast.Attribute) and node.attr == "atoms" and path.name == "model_io.py":
                found["atoms"].add(where)
        found["finds"].update(
            f"{path.name}:{outer.name}"
            for outer in ast.walk(tree)
            if isinstance(outer, ast.FunctionDef)
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, ast.FunctionDef) and inner.name == "find"
        )
    assert found == {
        "calls": {"effectivity.py:__init__ _constant_on_atoms", "nlmp.py:__init__ _constant_on_atoms"},
        "words": {"space.py:_constant_on_atoms"},
        "atoms": {"model_io.py:_measure_to_dict", "model_io.py:model_to_dict"},
        "finds": {"space.py:sigma_r"},
    }, found


def test_the_package_exports_each_modules_public_names():
    """Every module with an ``__all__``, ``model_io`` aside, is exported
    through ``effkit/__init__.py`` with exactly its ``__all__``, under the
    same names but one: ``nlmp.direct_sum`` is exported as ``kernel_sum``."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported: dict[str, set[tuple[str, str]]] = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported.setdefault(node.module, set()).update(
                (a.name, a.asname or a.name) for a in node.names
            )
    renamed = {("nlmp", "direct_sum"): "kernel_sum"}
    checked = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        declared = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ]
        if not declared or module == "model_io":
            continue
        (names,) = declared
        expected = {(name, renamed.get((module, name), name)) for name in names}
        assert exported.get(module) == expected, (module, exported.get(module, set()) ^ expected)
        checked.append(module)
    assert checked == ["cospan", "effectivity", "logic", "measure", "nlmp", "space", "upperset"]


def test_no_module_imports_dataclasses():
    """The value classes derive from ``record.Record``; ``dataclasses``
    would bring ``inspect``, ``ast``, ``dis``, ``tokenize`` and ``copy`` into
    every start of the command."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.add(f"{path.name}:{node.lineno}")
    assert not importers, f"imports of dataclasses: {sorted(importers)}"


def _loaded(code: str) -> set[str]:
    """The modules a fresh isolated interpreter has loaded after ``code``."""
    script = f"import sys; {code}; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    return set(done.stdout.split())


def test_the_command_starts_without_introspection_modules():
    """Importing ``effkit.cli`` in a fresh interpreter loads none of
    ``dataclasses``, ``inspect``, ``ast``, ``dis`` or ``tokenize`` beyond
    what a bare start loads.  This counts modules, not time."""
    bare = _loaded("pass")
    started = _loaded(f"sys.path.insert(0, {str(SRC.parent)!r}); import effkit.cli")
    assert "effkit.cli" in started
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert (started - bare) & heavy == set()
