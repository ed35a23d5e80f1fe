"""Seeded input generators for the effkit benchmark.

Nothing here imports effkit: the inputs depend only on the seed, so a change
to the library cannot change what the benchmark asks it.  Every generator
returns JSON-ready documents together with the answer it plants by
construction.

Planted models are drawn at the level of *classes*.  Class-level dynamics
come first; then every atom of a class gets the same dynamics, with each
class-level mass spread over random atoms of the target class, and every
state of an atom shares its atom's dynamics.  The class partition is
therefore a bisimulation.  When every measure of class ``i`` (for NLMPs:
every measure under the first label) has the class's own total mass, states
of different classes already split in the first refinement round, so the
planted partition is exactly the greatest bisimulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

DENOMS = (2, 3, 4, 5, 6, 8)


def fmt(q: Fraction, rng: random.Random | None = None) -> str:
    """A rational as the file format wants it; with ``rng`` it is sometimes
    written out of lowest terms, which the loader must reduce."""
    if rng is not None and q.denominator > 1 and rng.random() < 0.2:
        return f"{q.numerator * 2}/{q.denominator * 2}"
    return str(q)


def _split(rng: random.Random, total: Fraction, parts: int) -> list[Fraction]:
    weights = [rng.randint(1, 3) for _ in range(parts)]
    return [total * w / sum(weights) for w in weights]


def _class_measure(rng: random.Random, k: int, total: Fraction) -> tuple:
    """A measure on classes: sorted (class, mass) pairs summing to ``total``."""
    if total == 0:
        return ()
    targets = rng.sample(range(k), min(k, 2))
    return tuple(sorted(zip(targets, _split(rng, total, len(targets)))))


def _distinct_measures(rng: random.Random, k: int, total: Fraction, count: int) -> list[tuple]:
    seen: dict[tuple, None] = {}
    for _ in range(8 * count):
        seen.setdefault(_class_measure(rng, k, total))
        if len(seen) == count:
            break
    return list(seen)


def _antichain(gens: list[frozenset]) -> list[frozenset]:
    """The minimal members of a family of sets."""
    unique = sorted(set(gens), key=len)
    kept: list[frozenset] = []
    for g in unique:
        if not any(h <= g for h in kept):
            kept.append(g)
    return kept


@dataclass
class Planted:
    """A planted model file and the facts it was built from."""

    doc: dict
    classes: list[list[str]]  # the planted partition, blocks of states
    class_doc: dict  # the class-level model, states named c0 .. c{k-1}
    class_of: dict[str, int] = field(default_factory=dict)

    @property
    def states(self) -> list[str]:
        return self.doc["states"]

    def least_names(self) -> dict[str, str]:
        """Each class ``c{i}`` named after its least member in carrier
        order, as ``effkit quotient`` names it."""
        order = {s: i for i, s in enumerate(self.states)}
        return {f"c{i}": min(block, key=order.__getitem__) for i, block in enumerate(self.classes)}

    def quotient_doc(self) -> dict:
        """The class-level model under ``least_names``, in carrier order."""
        names = self.least_names()
        order = [s for s in self.states if s in set(names.values())]
        return rename_doc(self.class_doc, names, order)

    def class_map(self, names: dict[str, str] | None = None) -> dict:
        """The map file sending every state to its class (named ``c{i}``,
        or through ``names``)."""
        table = {s: f"c{i}" for s, i in self.class_of.items()}
        if names is not None:
            table = {s: names[c] for s, c in table.items()}
        return {"map": table}


class _Layout:
    """Classes of atoms of states, named in a random carrier order."""

    def __init__(self, rng: random.Random, sizes: list[list[int]], prefix: str):
        total = sum(sum(atoms) for atoms in sizes)
        names = iter(f"{prefix}{n}" for n in rng.sample(range(total), total))
        self.atoms: list[list[str]] = []
        self.class_atoms: list[list[int]] = []
        self.atom_class: list[int] = []
        for i, atoms in enumerate(sizes):
            self.class_atoms.append([])
            for size in atoms:
                self.class_atoms[i].append(len(self.atoms))
                self.atom_class.append(i)
                self.atoms.append([next(names) for _ in range(size)])
        self.states = [s for atom in self.atoms for s in atom]
        rng.shuffle(self.states)

    def expand(self, rng: random.Random, cmeasure: tuple, even: bool = False) -> dict[str, str]:
        """A state-level measure restricting to ``cmeasure`` on the classes;
        each atom is named by a random one of its states.  The mass of a
        class goes to two random atoms in random shares, or with ``even`` to
        all its atoms in equal shares."""
        out: dict[str, str] = {}
        for j, mass in cmeasure:
            atoms = self.class_atoms[j]
            if even:
                targets, parts = atoms, [mass / len(atoms)] * len(atoms)
            else:
                targets = rng.sample(atoms, min(len(atoms), 2))
                parts = _split(rng, mass, len(targets))
            for atom, part in zip(targets, parts):
                out[rng.choice(self.atoms[atom])] = fmt(part, rng)
        return out

    def header(self, kind: str, rng: random.Random) -> dict:
        doc: dict = {"kind": kind, "states": list(self.states)}
        if any(len(atom) > 1 for atom in self.atoms):
            sigma = [rng.sample(atom, len(atom)) for atom in self.atoms]
            rng.shuffle(sigma)
            doc["sigma"] = sigma
        return doc

    def planted(self, doc: dict, class_doc: dict) -> Planted:
        classes = [[s for a in atoms for s in self.atoms[a]] for atoms in self.class_atoms]
        class_of = {s: i for i, block in enumerate(classes) for s in block}
        return Planted(doc, classes, class_doc, class_of)


def _class_names(k: int) -> list[str]:
    return [f"c{i}" for i in range(k)]


def _cm_doc(cmeasure: tuple) -> dict[str, str]:
    return {f"c{j}": str(q) for j, q in cmeasure}


def _sizes(k: int, clones: int, atom_sizes: tuple[int, ...]) -> list[list[int]]:
    """``clones`` atoms per class, their sizes cycling through ``atom_sizes``:
    the shape of a model does not depend on the seed, so neither does most of
    its cost."""
    sizes = iter(atom_sizes * (k * clones))
    return [[next(sizes) for _ in range(clones)] for _ in range(k)]


def _totals(rng: random.Random, k: int) -> list[Fraction]:
    totals = [Fraction(i + 1, k + 1) for i in range(k)]
    rng.shuffle(totals)
    return totals


def _nlmp_from_dynamics(rng, layout: _Layout, dyn: dict[str, list[list[tuple]]], doc, even=False):
    """``dyn[label][i]`` lists class i's measures under ``label``; ``doc``
    is the file's header, completed here."""
    k = len(layout.class_atoms)
    doc["labels"] = list(dyn)
    doc["kernels"] = {}
    for label, per_class in dyn.items():
        table = {}
        for a, atom in enumerate(layout.atoms):
            measures = [layout.expand(rng, cm, even) for cm in per_class[layout.atom_class[a]]]
            for s in atom:
                table[s] = rng.sample(measures, len(measures))
        doc["kernels"][label] = {s: table[s] for s in layout.states}
    class_doc = {
        "kind": "nlmp",
        "states": _class_names(k),
        "labels": list(dyn),
        "kernels": {
            label: {f"c{i}": [_cm_doc(cm) for cm in per_class[i]] for i in range(k)}
            for label, per_class in dyn.items()
        },
    }
    return layout.planted(doc, class_doc)


def _ef_from_dynamics(rng, layout: _Layout, dyn: list[list[tuple]], doc, even=False):
    """``dyn[i]`` lists class i's generators, each a tuple of class
    measures; ``doc`` is the file's header, completed here."""
    k = len(layout.class_atoms)
    table = {}
    for a, atom in enumerate(layout.atoms):
        cache: dict[tuple, dict] = {}
        gens = [
            [cache[cm] if cm in cache else cache.setdefault(cm, layout.expand(rng, cm, even))
             for cm in rng.sample(gen, len(gen))]
            for gen in dyn[layout.atom_class[a]]
        ]
        for s in atom:
            table[s] = rng.sample(gens, len(gens))
    doc["effectivity"] = {s: table[s] for s in layout.states}
    class_doc = {
        "kind": "ef",
        "states": _class_names(k),
        "effectivity": {
            f"c{i}": [[_cm_doc(cm) for cm in gen] for gen in dyn[i]] for i in range(k)
        },
    }
    return layout.planted(doc, class_doc)


def chain(rng: random.Random, levels: int, clones: int, kind: str) -> Planted:
    """The cloned 1/2-chain: level i moves mass 1/2, evenly over the clones,
    to level i+1, and the last level holds the zero measure.  Refinement
    splits one level per round, so the partition into levels needs
    ``levels`` rounds.  States are listed level by level; the seed only
    names them, since the carrier order alone changes the logic's cost
    severalfold."""
    layout = _Layout(rng, [[1] * clones for _ in range(levels)], "q")
    layout.states = [s for atom in layout.atoms for s in atom]
    steps = [((i + 1, Fraction(1, 2)),) for i in range(levels - 1)] + [()]
    if kind == "nlmp":
        dyn = {"a": [[cm] for cm in steps]}
        return _nlmp_from_dynamics(rng, layout, dyn, layout.header("nlmp", rng), even=True)
    dyn = [[(cm,)] for cm in steps]
    return _ef_from_dynamics(rng, layout, dyn, layout.header("ef", rng), even=True)


def planted_nlmp(
    rng: random.Random,
    k: int,
    labels: int = 1,
    clones: int = 2,
    atom_sizes: tuple[int, ...] = (1,),
    measures: int = 2,
) -> Planted:
    """Random multi-label NLMP with ``k`` planted clone classes; label ``a``
    separates the classes by their total masses.  Each class has
    ``measures`` successor measures under ``a`` and one fewer under the
    other labels."""
    layout = _Layout(rng, _sizes(k, clones, atom_sizes), "s")
    totals = _totals(rng, k)
    dyn = {"a": [_distinct_measures(rng, k, totals[i], measures) for i in range(k)]}
    for label in "bcd"[: labels - 1]:
        dyn[label] = [
            _distinct_measures(rng, k, Fraction(rng.randint(1, 4), 4), measures - 1)
            for _ in range(k)
        ]
    return _nlmp_from_dynamics(rng, layout, dyn, layout.header("nlmp", rng))


def planted_ef(
    rng: random.Random,
    k: int,
    clones: int = 2,
    atom_sizes: tuple[int, ...] = (1,),
    generators: int = 2,
    width: int = 2,
) -> Planted:
    """Random portfolio with ``k`` planted clone classes; each class has
    ``generators`` distinct generators of ``width`` measures (an antichain),
    and every measure of class i has the class's own total mass.
    ``generators=1`` gives a finitely supported portfolio."""
    layout = _Layout(rng, _sizes(k, clones, atom_sizes), "p")
    totals = _totals(rng, k)
    dyn = []
    for i in range(k):
        pool = _distinct_measures(rng, k, totals[i], width + 2)
        gens: set[tuple] = set()
        while len(gens) < generators:
            gens.add(tuple(sorted(rng.sample(pool, width))))
        dyn.append(sorted(gens))
    return _ef_from_dynamics(rng, layout, dyn, layout.header("ef", rng))


def defect_coarse(rng: random.Random, k: int) -> dict:
    """A coarse-sigma model whose first multi-state atom holds states with
    different dynamics, so it is not measurable for its sigma-algebra."""
    model = planted_nlmp(rng, k, atom_sizes=(2, 1))
    doc = model.doc
    atom = next(a for a in doc["sigma"] if len(a) > 1)
    doc["kernels"]["a"][atom[0]] = [{}]  # its atom-mates keep a positive total
    return doc


# ---------------------------------------------------------------------------
# Portfolios for duality
# ---------------------------------------------------------------------------


def _measure_pool(rng: random.Random, states: list[str], count: int) -> list[dict[str, str]]:
    """``count`` distinct measures on the discrete space over ``states``."""
    seen: dict[tuple, dict[str, str]] = {}
    while len(seen) < count:
        support = rng.sample(states, rng.randint(1, 2))
        masses = _split(rng, Fraction(rng.randint(1, 8), 8), len(support))
        key = tuple(sorted(zip(support, masses)))
        seen.setdefault(key, {s: fmt(q, rng) for s, q in key})
    return list(seen.values())


def disjoint_portfolio(rng: random.Random, k: int, m: int, states: int = 6) -> dict:
    """A portfolio whose state ``h0`` has ``k`` pairwise disjoint generators
    of ``m`` measures each; the other states hold small disjoint families.
    The dual at ``h0`` is exactly the set of its ``m**k`` transversals."""
    names = [f"h{i}" for i in range(states)]
    shape = {names[0]: (k, m)}
    for s in names[1:]:
        shape[s] = (rng.randint(1, 2), rng.randint(1, 2))
    pool = _measure_pool(rng, names, sum(a * b for a, b in shape.values()))
    rng.shuffle(pool)
    effectivity = {}
    for s in names:
        a, b = shape[s]
        effectivity[s] = [[pool.pop() for _ in range(b)] for _ in range(a)]
    order = rng.sample(names, len(names))
    return {"kind": "ef", "states": order, "effectivity": {s: effectivity[s] for s in order}}


def overlapping_portfolio(
    rng: random.Random, states: int, pool: int, generators: int, width: int
) -> dict:
    """Random portfolio whose generators, ``generators`` draws of ``width``
    measures from a per-state pool, overlap; the first state holds the
    empty family and the second the full one."""
    names = [f"o{i}" for i in range(states)]
    effectivity: dict[str, list] = {names[0]: [], names[1]: [[]]}
    for s in names[2:]:
        members = _measure_pool(rng, names, pool)
        gens = [frozenset(rng.sample(range(pool), width)) for _ in range(generators)]
        effectivity[s] = [[members[i] for i in sorted(g)] for g in _antichain(gens)]
    return {"kind": "ef", "states": names, "effectivity": effectivity}


def rename_doc(doc: dict, names: dict[str, str], order: list[str] | None = None) -> dict:
    """The same model with states renamed (and listed in ``order`` when
    given, else in the renamed original order)."""

    def measure(mu: dict) -> dict:
        return {names[s]: v for s, v in mu.items()}

    out: dict = {"kind": doc["kind"], "states": order or [names[s] for s in doc["states"]]}
    if "sigma" in doc:
        out["sigma"] = [[names[s] for s in block] for block in doc["sigma"]]
    if doc["kind"] == "nlmp":
        out["labels"] = list(doc["labels"])
        out["kernels"] = {
            label: {names[s]: [measure(mu) for mu in ms] for s, ms in table.items()}
            for label, table in doc["kernels"].items()
        }
    else:
        out["effectivity"] = {
            names[s]: [[measure(mu) for mu in g] for g in gens]
            for s, gens in doc["effectivity"].items()
        }
    return out


def renamed_copy(rng: random.Random, doc: dict) -> tuple[dict, dict]:
    """A copy under a fresh bijective renaming, in a shuffled carrier order,
    with the map file of the renaming."""
    names = {s: f"r{s}" for s in doc["states"]}
    order = rng.sample(list(names.values()), len(names))
    return rename_doc(doc, names, order), {"map": names}


def perturbed(rng: random.Random, doc: dict) -> dict:
    """A copy of a portfolio where one member of one generator is replaced by
    a measure that occurs nowhere else; the family at that state changes."""
    out = rename_doc(doc, {s: s for s in doc["states"]})
    candidates = [s for s in out["states"] if any(out["effectivity"][s])]
    s = rng.choice(candidates)
    gen = rng.choice([g for g in out["effectivity"][s] if g])
    gen[rng.randrange(len(gen))] = {out["states"][0]: "1/97"}
    return out


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

# State formulas: ("T",), ("and", f, g), ("dia", m), ("box", m).
# Measure formulas: ("thr", f, "<" or ">", q), ("mand", m, n), ("mor", m, n).


def _threshold(rng: random.Random) -> Fraction:
    d = rng.choice(DENOMS)
    return Fraction(rng.randrange(d), d)


def formula(rng: random.Random, depth: int) -> tuple:
    """Random state formula of modal depth at most ``depth``."""
    r = rng.random()
    if depth == 0 or r < 0.15:
        return ("T",)
    if r < 0.3:
        return ("and", formula(rng, depth - 1), formula(rng, depth - 1))
    return (rng.choice(("dia", "box")), _measure_formula(rng, depth - 1, 2))


def _measure_formula(rng: random.Random, depth: int, width: int) -> tuple:
    """Random measure formula with at most ``width`` levels of & and |."""
    r = rng.random()
    if width == 0 or r < 0.6:
        return ("thr", formula(rng, depth), rng.choice("<>"), _threshold(rng))
    op = "mand" if r < 0.8 else "mor"
    return (op, _measure_formula(rng, depth, width - 1), _measure_formula(rng, depth, width - 1))


def depth_one(rng: random.Random, width: int = 2) -> tuple:
    """Measure formula over thresholds on ``T`` only, with at most ``width``
    levels of & and |; its truth depends on the measure alone, whatever the
    model."""
    if width == 0 or rng.random() < 0.5:
        return ("thr", ("T",), rng.choice("<>"), _threshold(rng))
    return (rng.choice(("mand", "mor")), depth_one(rng, width - 1), depth_one(rng, width - 1))


def nested_diamonds(depth: int) -> tuple[tuple, str]:
    """``<>[<>[ ... T ... > 0] > 0]`` with ``depth`` modalities, as a tree and
    as text (both built without recursion)."""
    f: tuple = ("T",)
    for _ in range(depth):
        f = ("dia", ("thr", f, ">", Fraction(0)))
    return f, "<>[" * depth + "T" + " > 0]" * depth


def render(f: tuple) -> str:
    """Concrete syntax of a state formula (the grammar in README.md)."""
    tag = f[0]
    if tag == "T":
        return "T"
    if tag == "and":
        return f"({render(f[1])} & {render(f[2])})"
    return ("<>" if tag == "dia" else "[]") + _unit(f[1])


def _unit(m: tuple) -> str:
    if m[0] == "thr":
        return f"[{render(m[1])} {m[2]} {m[3]}]"
    return f"[ {render_measure(m)} ]"


def render_measure(m: tuple) -> str:
    if m[0] == "thr":
        return _unit(m)
    op = "&" if m[0] == "mand" else "|"
    return f"({render_measure(m[1])} {op} {render_measure(m[2])})"
