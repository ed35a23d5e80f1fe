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
    outside ``measure.py`` only by the engine's round (``_refine``) and the
    model writer's measure renderer (``_measure_text``).  A read
    of ``.atoms`` counts as a measure's when its object is also read for
    ``.nums`` in that module, or is named ``mu`` or ``nu``."""
    allowed = {
        "effectivity.py:_refine",
        "model_io.py:_measure_text",
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


def test_a_coarser_space_is_read_and_a_family_moved_in_one_place():
    """A coarser space becomes an atom map in one routine: outside
    ``space.py`` only ``measure._coarsening`` calls ``Space.atom_map`` (a
    map's ``atom_map`` is an attribute, read anywhere), and only it raises
    ``IncompatiblePartitionError``.  Outside ``measure.py`` only
    ``effectivity._moved`` calls ``measure._collect``, so every family
    moves along an atom map through that one helper."""
    maps, collects, refusals = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{owner.get(id(node), '<module>')}"
            if isinstance(node, ast.Raise) and "IncompatiblePartitionError" in ast.unparse(node):
                refusals.add(where)
            if not isinstance(node, ast.Call):
                continue
            called = node.func.attr if isinstance(node.func, ast.Attribute) else ast.unparse(node.func)
            if called == "atom_map" and path.name != "space.py":
                maps.add(where)
            if called == "_collect" and path.name != "measure.py":
                collects.add(where)
    assert maps == {"measure.py:_coarsening"}, sorted(maps)
    assert refusals == {"measure.py:_coarsening"}, sorted(refusals)
    assert collects == {"effectivity.py:_moved"}, sorted(collects)


def test_one_integer_sum_serves_evaluate_and_the_evaluator():
    """``measure.evaluate`` and ``logic._Evaluator.numerator`` sum a
    measure's numerators over a mask of atoms through one helper defined in
    ``measure.py``, and neither reads the support itself.  Only ``evaluate``
    checks that a set of states is a union of atoms (``_atoms_of``): the
    evaluator's extensions are masks of atoms to begin with."""

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
    assert calls[0] & defined == {"_atoms_of", "_numerator_in"}
    assert calls[1] & defined == {"_numerator_in"}


def test_the_engine_and_the_logic_work_on_atoms():
    """Inside ``effectivity._refine``, ``logic._Evaluator`` and
    ``logic._Refiner`` a partition is a block id per atom and a set of
    states is a mask over atom indices.  The model operations that build or
    compare portfolios and kernels (``dual_ef``, ``sum_ef``,
    ``_first_unmatched``, ``_mutually_dominate``, ``filter_generate``,
    ``angelize`` and ``nlmp.direct_sum``) take their values per atom too.
    None of them reads a ``carrier``, ``_index`` or ``_atom_index`` of a
    space, looks up an ``index``, keeps an ``_atoms`` table or names
    ``frozenset[str]``; only the engine builds a ``frozenset`` at all.
    ``_Refiner.separate`` alone turns states into atoms, its two, through
    ``Space.atom_of``.  ``logic.py`` does not name ``_atoms_of``."""
    scopes = {
        "effectivity.py": {
            "_refine", "dual_ef", "sum_ef", "_first_unmatched", "_mutually_dominate"
        },
        "logic.py": {"_Evaluator", "_Refiner"},
        "nlmp.py": {"filter_generate", "angelize", "direct_sum"},
    }
    names = ("carrier", "_index", "_atom_index", "index", "_atoms", "atoms_of_set", "atom_of")
    found = set()
    for name, wanted in scopes.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        tops = [n for n in tree.body if getattr(n, "name", None) in wanted]
        assert {n.name for n in tops} == wanted
        for top in tops:
            methods = [top]
            if isinstance(top, ast.ClassDef):
                methods = [n for n in top.body if isinstance(n, ast.FunctionDef)]
            for fn in methods:
                where = f"{name}:{top.name}" + (f".{fn.name}" if fn is not top else "")
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and node.attr in names:
                        found.add(f"{where} .{node.attr}")
                    elif isinstance(node, ast.Name) and node.id == "frozenset" and top.name != "_refine":
                        found.add(f"{where} frozenset")
                if "frozenset[str]" in ast.unparse(fn):
                    found.add(f"{where} frozenset[str]")
        if name == "logic.py":
            found.update(
                f"logic.py:{node.lineno} _atoms_of"
                for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == "_atoms_of")
                or (isinstance(node, ast.alias) and node.name == "_atoms_of")
            )
    assert found == {"logic.py:_Refiner.separate .atom_of"}, sorted(found)


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


def _atom_comparisons(tree: ast.AST) -> set[str]:
    """The scopes (as ``_scopes`` names them) holding an equality test that
    reads a state of an atom.  In a scope, a name bound by a loop over an
    expression naming ``atoms`` is an atom, a name bound by a loop over an
    atom or a slice of one is a state, and a test reads a state when it
    names one or subscripts an atom by 0."""
    scopes = _scopes(tree)
    atoms: dict[str, set[str]] = {}
    states: dict[str, set[str]] = {}
    loops = [(scopes[id(n)], n.target, n.iter) for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
    for scope, target, over in loops:
        if "atoms" in ast.unparse(over):
            atoms.setdefault(scope, set()).update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    for scope, target, over in loops:
        base = over.value if isinstance(over, ast.Subscript) and isinstance(over.slice, ast.Slice) else over
        if isinstance(target, ast.Name) and isinstance(base, ast.Name) and base.id in atoms.get(scope, ()):
            states.setdefault(scope, set()).add(target.id)

    def reads_a_state(node: ast.AST, scope: str) -> bool:
        return isinstance(node, ast.Name) and node.id in states.get(scope, ()) or (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in atoms.get(scope, ())
            and ast.unparse(node.slice) == "0"
        )

    return {
        scopes[id(node)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(reads_a_state(n, scopes[id(node)]) for n in ast.walk(node))
    }


def test_the_atom_rule_is_written_once():
    """A kernel or a portfolio is measurable exactly when it is constant on
    each atom, a map exactly when the codomain atom of its image is, and a
    partition coarsens a space exactly when its block index is.  One
    routine, ``space._atom_values``, decides that rule for all three: it is
    the only code that compares a per-state value across an atom's states,
    and only ``Space.atom_map``, ``MeasurableMap.__init__`` and
    ``space._constant_on_atoms`` call it.  ``_constant_on_atoms`` words the
    model refusal: only the ``Kernel`` and ``EffFn`` constructors call it,
    and only it words it.  ``model_io`` compares no dynamics across an
    atom's states: it reads the ``atoms`` of a space or a measure only to
    emit them.  No module names ``_atoms_into`` or ``_atom_roots``, and the
    union-find of the atom closure lives in ``space.sigma_r`` alone."""
    found: dict[str, set[str]] = {
        "calls": set(), "words": set(), "atoms": set(), "finds": set(), "rule": set(), "compares": set()
    }
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        scopes = _scopes(tree)
        found["compares"].update(f"{path.name}:{scope}" for scope in _atom_comparisons(tree))
        docs = {
            id(scope.body[0].value)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and scope.body
            and isinstance(scope.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{owner.get(id(node), '<module>')}"
            if isinstance(node, ast.Name) and node.id in ("_constant_on_atoms", "_atoms_into", "_atom_roots"):
                found["calls"].add(f"{where} {node.id}")
            elif isinstance(node, (ast.alias, ast.FunctionDef)) and node.name in ("_atoms_into", "_atom_roots"):
                found["calls"].add(f"{where} {node.name}")
            elif getattr(node, "id", getattr(node, "name", None)) == "_atom_values":
                found["rule"].add(f"{path.name}:{scopes[id(node)]} {type(node).__name__}")
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
        "atoms": {
            "model_io.py:_measure_text",
            "model_io.py:_measure_texts",
            "model_io.py:_model_pieces",
        },
        "finds": {"space.py:sigma_r"},
        "rule": {
            "space.py:<module> FunctionDef",
            "space.py:Space.atom_map Name",
            "space.py:MeasurableMap.__init__ Name",
            "space.py:_constant_on_atoms Name",
        },
        "compares": {"space.py:_atom_values"},
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


def _scopes(tree: ast.AST) -> dict[int, str]:
    """Per node, the name of the innermost function around it, led by the
    classes and functions that hold it (``Class.method``), or ``<module>``."""
    scopes: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            scopes[id(child)] = scope
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", scope)
            elif isinstance(child, ast.FunctionDef):
                visit(child, f"{prefix}{child.name}.", f"{prefix}{child.name}")
            else:
                visit(child, prefix, scope)

    visit(tree, "", "<module>")
    return scopes


def test_fields_are_stored_one_by_one_only_in_hot_constructors():
    """A record stores its fields through ``Record._store``; only the
    constructors of what is built per measure, per measure set or per
    formula node name ``object.__setattr__`` (or ``logic._set``), and
    ``MeasurableMap`` names it only to set ``atom_map``, its one attribute
    outside the fields.  No class passes a keyword to ``Record``, which
    takes none."""
    allowed = {
        "record.py:Record._store",
        "space.py:Space.__new__",
        "space.py:MeasurableMap.__init__",
        "measure.py:_Registry.add",
        "measure.py:_interned",
        "upperset.py:MeasureSet.__init__",
        "upperset.py:UpperSet.__init__",
        "logic.py:<module>",
        *(
            f"logic.py:{cls}.__init__"
            for cls in ("And", "Diamond", "Box", "MAnd", "MOr", "Threshold", "DistinguishResult")
        ),
    }
    where, map_fields, keywords = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = _scopes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.keywords:
                keywords.add(f"{path.name}:{node.name}")
            if isinstance(node, ast.Call) and scopes[id(node)] == "MeasurableMap.__init__":
                if ast.unparse(node.func) == "object.__setattr__":
                    map_fields.add(ast.literal_eval(node.args[1]))
            stores = (isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__") or (
                path.name == "logic.py" and isinstance(node, ast.Name) and node.id == "_set"
            )
            if stores:
                where.add(f"{path.name}:{scopes[id(node)]}")
    assert where == allowed, sorted(where ^ allowed)
    assert map_fields == {"atom_map"}
    assert not keywords, f"class keywords: {sorted(keywords)}"
