"""Reference answers the benchmark checks effkit's output against.

Written independently of effkit (which this module does not import): model
files are read into plain frozensets, so two files denote the same model
exactly when their normal forms are equal, whatever their order, their
choice of atom representatives or the terms their rationals are written in.
"""

from __future__ import annotations

from fractions import Fraction


def _atoms(doc: dict) -> dict[str, frozenset]:
    sigma = doc.get("sigma") or [[s] for s in doc["states"]]
    return {s: frozenset(block) for block in sigma for s in block}


def normalize(doc: dict) -> tuple:
    """Normal form of a model file: (kind, states, sigma, dynamics).  A
    measure is the frozenset of its (atom, mass) pairs of nonzero mass; an
    NLMP maps label -> state -> frozenset of measures, a portfolio maps
    state -> frozenset of generators (frozensets of measures)."""
    atom_of = _atoms(doc)

    def measure(mu: dict) -> frozenset:
        pairs = ((atom_of[s], Fraction(v)) for s, v in mu.items())
        return frozenset((a, q) for a, q in pairs if q)

    states = tuple(doc["states"])
    if doc["kind"] == "nlmp":
        dyn = {
            label: {s: frozenset(map(measure, table.get(s, []))) for s in states}
            for label, table in doc["kernels"].items()
        }
    else:
        dyn = {
            s: frozenset(frozenset(map(measure, g)) for g in gens)
            for s, gens in doc["effectivity"].items()
        }
    return doc["kind"], states, frozenset(atom_of.values()), dyn


def min_transversals(gens) -> frozenset:
    """Minimal hitting sets of a family of sets (Berge's method).  No sets
    give the single empty transversal; an empty set leaves none."""
    result = {frozenset()}
    for g in gens:
        grown = set()
        for h in result:
            if h & g:
                grown.add(h)
            else:
                grown.update(h | {x} for x in g)
        result = {h for h in grown if not any(o < h for o in grown)}
    return frozenset(result)


def dual(norm: tuple) -> tuple:
    """The dual portfolio in normal form."""
    kind, states, sigma, dyn = norm
    return kind, states, sigma, {s: min_transversals(gens) for s, gens in dyn.items()}


def demonize(norm: tuple, label: str) -> tuple:
    _, states, sigma, dyn = norm
    return "ef", states, sigma, {s: frozenset([ms]) for s, ms in dyn[label].items()}


def angelize(norm: tuple, label: str) -> tuple:
    _, states, sigma, dyn = norm
    return (
        "ef",
        states,
        sigma,
        {s: frozenset(frozenset([mu]) for mu in ms) for s, ms in dyn[label].items()},
    )


def tagged_sum(a: tuple, b: tuple) -> tuple:
    """Normal form of ``effkit sum``: states tagged ``L:``/``R:``."""

    def tag(norm: tuple, side: str):
        def atom(x: frozenset) -> frozenset:
            return frozenset(f"{side}:{s}" for s in x)

        def measure(mu: frozenset) -> frozenset:
            return frozenset((atom(x), q) for x, q in mu)

        kind, states, sigma, dyn = norm
        states = tuple(f"{side}:{s}" for s in states)
        if kind == "nlmp":
            dyn = {
                label: {f"{side}:{s}": frozenset(map(measure, ms)) for s, ms in table.items()}
                for label, table in dyn.items()
            }
        else:
            dyn = {
                f"{side}:{s}": frozenset(frozenset(map(measure, g)) for g in gens)
                for s, gens in dyn.items()
            }
        return kind, states, frozenset(map(atom, sigma)), dyn

    kind, sa, ga, da = tag(a, "L")
    _, sb, gb, db = tag(b, "R")
    if kind == "nlmp":
        dyn = {label: {**da[label], **db[label]} for label in da}
    else:
        dyn = {**da, **db}
    return kind, sa + sb, ga | gb, dyn


def portfolio(norm: tuple, label: str | None = None) -> dict:
    """Per-state generators of a portfolio, or of an NLMP label's principal
    filters."""
    kind, _, _, dyn = norm
    if kind == "ef":
        return dyn
    return {s: frozenset([ms]) for s, ms in dyn[label or next(iter(dyn))].items()}


def extension(norm: tuple, f: tuple, label: str | None = None) -> frozenset:
    """States satisfying a formula tree (see gen.formula), evaluated without
    recursion so that deeply nested formulas work too."""
    states = norm[1]
    gens = portfolio(norm, label)
    pool = {mu for family in gens.values() for g in family for mu in g}
    value: dict[int, frozenset] = {}
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in value:
            continue
        kids = [c for c in node[1:] if isinstance(c, tuple) and c and isinstance(c[0], str)]
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
            continue
        tag = node[0]
        if tag == "T":
            v = frozenset(states)
        elif tag == "and":
            v = value[id(node[1])] & value[id(node[2])]
        elif tag == "dia":
            sat = value[id(node[1])]
            v = frozenset(s for s in states if any(g <= sat for g in gens[s]))
        elif tag == "box":
            sat = value[id(node[1])]
            v = frozenset(s for s in states if all(g & sat for g in gens[s]))
        elif tag == "thr":
            ext = value[id(node[1])]
            mass = {mu: sum((q for atom, q in mu if atom <= ext), Fraction(0)) for mu in pool}
            q = node[3]
            v = frozenset(mu for mu, m in mass.items() if (m < q if node[2] == "<" else m > q))
        elif tag == "mand":
            v = value[id(node[1])] & value[id(node[2])]
        else:
            v = value[id(node[1])] | value[id(node[2])]
        value[id(node)] = v
    return value[id(f)]


def partition(payload: dict) -> frozenset:
    return frozenset(frozenset(block) for block in payload["partition"])


def blocks(classes) -> frozenset:
    return frozenset(frozenset(block) for block in classes)
