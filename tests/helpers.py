"""Shared test machinery: seeded random model generators and the
independent brute-force oracles used to freeze expected values."""

from __future__ import annotations

import itertools
import json
import math
import re
from bisect import bisect
from fractions import Fraction
from random import Random

from hypothesis import strategies as st

from effkit import (
    Cospan,
    CospanReport,
    CospanVerificationError,
    EffFn,
    EffkitError,
    ForeignStateError,
    FormulaSyntaxError,
    InternalInvariantViolation,
    Kernel,
    MeasurableMap,
    MeasureSet,
    ModelFormatError,
    Nlmp,
    NonSymmetricRelationError,
    NotFinitelySupportedError,
    NotMeasurableSetError,
    Relation,
    Space,
    SpaceMismatchError,
    SpanResult,
    SubProb,
    ThresholdOutOfRangeError,
    UpperSet,
    contains,
    direct_sum,
    equals,
    filter_generate,
    push_upperset,
    pushforward,
    restrict,
    restrict_upperset,
    sigma_r,
    unique_preimages,
)
from effkit.cospan import CheckFailure
from effkit.effectivity import _refine
from effkit.logic import (
    And,
    Box,
    Diamond,
    DistinguishResult,
    MAnd,
    MeasureFormula,
    MOr,
    StateFormula,
    Threshold,
    Top,
    _Refiner,
    _tokenize,
)


def dense(mu: SubProb) -> tuple[Fraction, ...]:
    """The dense vector of a measure: one ``Fraction`` per atom of its space."""
    vec = [Fraction(0)] * len(mu.space.atoms)
    for a, n in zip(mu.atoms, mu.nums):
        vec[a] = Fraction(n, mu.den)
    return tuple(vec)


def pairs(rel: Relation) -> frozenset[tuple[str, str]]:
    """The pairs of a relation, listed from its related sets."""
    return frozenset((s, t) for s, ts in zip(rel.base.carrier, rel.related) for t in ts)


def constant_on_atoms_oracle(space: Space, dynamics) -> bool:
    """Whether per-state dynamics, a mapping from every state to a kernel
    image (measures) or to a portfolio (an ``UpperSet``), are equal on the
    states of each atom, compared by value: a set of dense measure vectors,
    or a set of generators as such sets."""

    def value(x):
        if isinstance(x, UpperSet):
            return frozenset(value(g) for g in x)
        return frozenset(dense(mu) for mu in x)

    return all(len({value(dynamics[s]) for s in block}) == 1 for block in space.atoms)


# ---------------------------------------------------------------------------
# Random generators (all deterministic under a seeded Random)
# ---------------------------------------------------------------------------


def rand_partition_blocks(rng: Random, states: list[str]) -> list[list[str]]:
    k = rng.randint(1, len(states))
    groups: dict[int, list[str]] = {}
    for s in states:
        groups.setdefault(rng.randrange(k), []).append(s)
    return list(groups.values())


def rand_space(rng: Random, min_states=2, max_states=5, allow_coarse=False) -> Space:
    n = rng.randint(min_states, max_states)
    states = [f"s{i}" for i in range(n)]
    if allow_coarse and rng.random() < 0.4:
        return Space(states, rand_partition_blocks(rng, states))
    return Space.discrete(states)


def rand_subprob(rng: Random, space: Space, max_den=8) -> SubProb:
    den = rng.randint(1, max_den)
    remaining = den
    masses = [Fraction(0)] * len(space.atoms)
    order = list(range(len(space.atoms)))
    rng.shuffle(order)
    for i in order:
        if remaining == 0 or rng.random() < 0.35:
            continue
        take = rng.randint(0, remaining)
        masses[i] = Fraction(take, den)
        remaining -= take
    return SubProb(space, dict(enumerate(masses)))


def ring_doc(n: int) -> dict:
    """The ring model: ``n`` states, each with one measure of two positive
    masses, 1/4 on the next state and 1/4 or 1/8 on the seventh next."""
    states = [f"s{i}" for i in range(n)]
    kernel = {
        s: [{states[(i + 1) % n]: "1/4", states[(i + 7) % n]: "1/8" if i % 3 else "1/4"}]
        for i, s in enumerate(states)
    }
    return {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}


def half_chain_doc(n: int) -> dict:
    """The 1/2-chain: states s0 .. s{n-1}, each but the last with one
    measure of mass 1/2 on the next, and c0 moving as s0.  Refinement splits
    off one level per round."""
    states = [f"s{i}" for i in range(n)] + ["c0"]
    kernel = {s: [{f"s{i + 1}": "1/2"}] if i < n - 1 else [] for i, s in enumerate(states[:-1])}
    kernel["c0"] = kernel["s0"]
    return {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}


def harder_ring_doc(n: int) -> dict:
    """The harder ring: ``n`` states, state ``i`` with one measure, of mass
    (1 + i mod 3)/4 on the next state.  Unless 3 divides ``n``, the wrap
    breaks the period one state per round, down to singletons."""
    states = [f"s{i}" for i in range(n)]
    kernel = {s: [{states[(i + 1) % n]: f"{1 + i % 3}/4"}] for i, s in enumerate(states)}
    return {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}


def hub_doc(n: int) -> dict:
    """The 1/2-chain with a hub: a state h whose one measure puts 1/(2n) on
    each chain state s0 .. s{n-1}, so each split of the chain moves one of
    its support atoms."""
    doc = half_chain_doc(n)
    doc["states"].append("h")
    doc["kernels"]["a"]["h"] = [{f"s{i}": f"1/{2 * n}" for i in range(n)}]
    return doc


def wide_family_doc(n: int) -> dict:
    """The ef 1/2-chain with a wide family: state s{i} holds the one
    generator [{s{i+1}: 1/2}], the last state the full family, and h the n
    generators [{s: 1/2}], one per chain state."""
    states = [f"s{i}" for i in range(n)]
    table = {s: [[{states[i + 1]: "1/2"}]] if i < n - 1 else [[]] for i, s in enumerate(states)}
    table["h"] = [[{s: "1/2"}] for s in states]
    return {"kind": "ef", "states": [*states, "h"], "effectivity": table}


def rand_subprob_on(rng: Random, space: Space, support: list[str], max_den=8) -> SubProb:
    """Random measure with all mass on the atoms of the listed states."""
    den = rng.randint(1, max_den)
    remaining = den
    masses = {s: Fraction(0) for s in support}
    for s in support:
        if remaining == 0 or rng.random() < 0.3:
            continue
        take = rng.randint(0, remaining)
        masses[s] = Fraction(take, den)
        remaining -= take
    return SubProb.of(space, masses)


def rand_measure_set(rng: Random, space, min_size=0, max_size=3, max_den=8) -> MeasureSet:
    size = rng.randint(min_size, max_size)
    return MeasureSet(space, [rand_subprob(rng, space, max_den) for _ in range(size)])


def per_atom(space: Space, draw) -> dict:
    """A value per state: one ``draw()`` per atom, in atom order (the
    carrier order on a discrete space), given to each of its states, so the
    values are constant on each atom."""
    values = {}
    for block in space.atoms:
        values.update(dict.fromkeys(block, draw()))
    return values


def rand_kernel(rng: Random, space, max_measures=3, max_den=8) -> Kernel:
    return Kernel(space, per_atom(space, lambda: rand_measure_set(rng, space, 0, max_measures, max_den)))


def rand_portfolio(rng: Random, space, max_gens=3, max_measures=3, max_den=8) -> UpperSet:
    n_gens = rng.randint(0, max_gens)
    gens = [rand_measure_set(rng, space, 1, max_measures, max_den) for _ in range(n_gens)]
    if n_gens and rng.random() < 0.05:
        gens[0] = MeasureSet(space, ())  # occasional full family
    return UpperSet(space, gens)


def rand_ef(rng: Random, space, max_gens=3, max_measures=3, max_den=8) -> EffFn:
    return EffFn(space, per_atom(space, lambda: rand_portfolio(rng, space, max_gens, max_measures, max_den)))


def collision_heavy_ef(rng: Random) -> EffFn:
    """A portfolio drawing its measures from a pool of zero, the Diracs and
    one half-mass: low-entropy masses make accidental agreements common."""
    space = rand_space(rng, 2, 5)
    pool = [SubProb.zero(space)] + [SubProb.dirac(space, s) for s in space.carrier]
    pool.append(SubProb.of(space, {space.carrier[0]: "1/2"}))
    portfolio = {}
    for s in space.carrier:
        gens = [
            MeasureSet(space, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(0, 2))
        ]
        portfolio[s] = UpperSet(space, gens)
    return EffFn(space, portfolio)


def rand_fin_supported_ef(
    rng: Random, space, max_measures=3, max_den=8, allow_empty=False
) -> EffFn:
    portfolio = {}
    for s in space.carrier:
        lo = 0 if (allow_empty and rng.random() < 0.1) else 1
        portfolio[s] = UpperSet(
            space, (rand_measure_set(rng, space, lo, max_measures, max_den),)
        )
    return EffFn(space, portfolio)


def rand_coarsening(rng: Random, space: Space) -> Space:
    """The carrier under a random merge of the atoms of ``space``."""
    groups = rand_partition_blocks(rng, list(range(len(space.atoms))))
    return Space(space.carrier, [[s for i in g for s in space.atoms[i]] for g in groups])


def rand_measurable_map(rng: Random, dom: Space, cod: Space) -> MeasurableMap:
    """Each domain atom sent into one random codomain atom, state by state
    to random states of it, so the map is measurable by construction."""
    table = {}
    for block in dom.atoms:
        target = rng.choice(cod.atoms)
        table.update((s, rng.choice(target)) for s in block)
    return MeasurableMap(dom, cod, table)


def rand_surjection(rng: Random, dom: Space, cod: Space) -> MeasurableMap:
    """Random surjective state assignment (spaces must allow one)."""
    targets = list(cod.carrier)
    sources = list(dom.carrier)
    assert len(sources) >= len(targets)
    rng.shuffle(sources)
    table = {s: t for s, t in zip(sources, targets)}
    for s in sources[len(targets):]:
        table[s] = rng.choice(targets)
    return MeasurableMap(dom, cod, table)


def rand_nk_instance(rng: Random, max_dom=5, max_den=8):
    """A surjection with kernels making it an NK-morphism by construction.

    The target kernel only charges states with singleton fibers, so every
    target measure has a unique pushforward preimage; the source kernel is
    that exact preimage, which makes the morphism condition hold by
    definition.
    """
    m = rng.randint(1, 3)
    n = rng.randint(m, max_dom)
    cod = Space.discrete([f"t{j}" for j in range(m)])
    dom = Space.discrete([f"s{i}" for i in range(n)])
    table = {f"s{i}": f"t{i}" for i in range(m)}
    for i in range(m, n):
        table[f"s{i}"] = f"t{rng.randrange(m)}"
    f = MeasurableMap(dom, cod, table)
    singleton_fibers = [t for t, fiber in f.fibers().items() if len(fiber) == 1]
    k2_image = {}
    for t in cod.carrier:
        k2_image[t] = [
            rand_subprob_on(rng, cod, singleton_fibers, max_den)
            for _ in range(rng.randint(0, 2))
        ]
    k2 = Kernel(cod, k2_image)
    image = {}
    for s in dom.carrier:
        measures = []
        for nu in k2(f(s)):
            sols = unique_preimages(f, nu)
            assert sols, "constructed target measure lost its unique preimage"
            measures.extend(sols)
        image[s] = measures
    return f, Kernel(dom, image), k2


def perturb_kernel(rng: Random, k: Kernel) -> Kernel:
    """Randomly add, drop, or replace one measure of one state, and of the
    other states of its atom."""
    state = rng.choice(k.space.carrier)
    members = list(k(state).members)
    move = rng.random()
    if move < 0.4 or not members:
        members.append(rand_subprob(rng, k.space))
    elif move < 0.7:
        members.pop(rng.randrange(len(members)))
    else:
        members[rng.randrange(len(members))] = rand_subprob(rng, k.space)
    image = {s: k(s) for s in k.space.carrier}
    image.update(dict.fromkeys(k.space.atoms[k.space.atom_of(state)], MeasureSet(k.space, members)))
    return Kernel(k.space, image)


def rand_state_formula(rng: Random, depth=3, max_den=8) -> StateFormula:
    if depth <= 0 or rng.random() < 0.25:
        return Top()
    pick = rng.random()
    if pick < 0.3:
        return And(rand_state_formula(rng, depth - 1, max_den),
                   rand_state_formula(rng, depth - 1, max_den))
    if pick < 0.65:
        return Diamond(rand_measure_formula(rng, depth - 1, max_den))
    return Box(rand_measure_formula(rng, depth - 1, max_den))


def rand_measure_formula(rng: Random, depth=2, max_den=8):
    if depth <= 0 or rng.random() < 0.45:
        den = rng.randint(1, max_den)
        bound = Fraction(rng.randint(0, den - 1), den)
        return Threshold(rand_state_formula(rng, depth - 1, max_den),
                         rng.choice("<>"), bound)
    ctor = MAnd if rng.random() < 0.5 else MOr
    return ctor(rand_measure_formula(rng, depth - 1, max_den),
                rand_measure_formula(rng, depth - 1, max_den))


def all_symmetric_relations(space: Space):
    """Every symmetric relation on the carrier (diagonal choices included)."""
    states = space.carrier
    singles = [(s, s) for s in states]
    doubles = list(itertools.combinations(states, 2))
    for take_singles in itertools.product([0, 1], repeat=len(singles)):
        for take_doubles in itertools.product([0, 1], repeat=len(doubles)):
            pairs = [p for p, t in zip(singles, take_singles) if t]
            for (s, t), flag in zip(doubles, take_doubles):
                if flag:
                    pairs.append((s, t))
                    pairs.append((t, s))
            yield Relation(space, pairs)


def all_partitions(states: tuple[str, ...]):
    """Every partition of the listed states (restricted growth strings)."""
    if not states:
        yield []
        return
    first, rest = states[0], states[1:]
    for sub in all_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            copy = [list(b) for b in sub]
            copy[i].insert(0, first)
            yield copy


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def closed_atom_unions(rel: Relation) -> list[frozenset[str]]:
    """All measurable closed sets of a relation, by enumeration."""
    space = rel.base
    out = []
    for bits in itertools.product([0, 1], repeat=len(space.atoms)):
        chosen = [space.atom_sets[i] for i, b in enumerate(bits) if b]
        sset = frozenset().union(*chosen) if chosen else frozenset()
        if all(t in sset for (s, t) in pairs(rel) if s in sset):
            out.append(sset)
    return out


def sigma_r_blocks_oracle(rel: Relation) -> set[frozenset[str]]:
    """Atoms of the closed-set field: smallest closed set around each state."""
    closed = closed_atom_unions(rel)
    blocks = set()
    for s in rel.base.carrier:
        block = frozenset(rel.base.carrier)
        for c in closed:
            if s in c:
                block &= c
        blocks.add(block)
    return blocks


def agree_mod_oracle(rel: Relation, mu: SubProb, nu: SubProb) -> bool:
    return all(
        evaluate_oracle(mu, c) == evaluate_oracle(nu, c) for c in closed_atom_unions(rel)
    )


# Fraction-vector arithmetic: measures as one Fraction per atom, the way
# SubProb computed before it held integer numerators over one denominator.


def subprob_oracle(space: Space, masses) -> tuple[Fraction, ...]:
    """Mass vector of ``SubProb(space, masses)``, one Fraction per atom,
    raising the constructor's errors with its messages."""
    vec = [Fraction(0)] * len(space.atoms)
    for a, m in masses.items():
        q = Fraction(m)
        if q < 0:
            raise SpaceMismatchError(f"negative mass {q}")
    for a, m in masses.items():
        if not 0 <= a < len(vec):
            raise SpaceMismatchError(
                f"atom index {a!r} outside the {len(vec)} atoms of the space"
            )
        vec[a] = Fraction(m)
    if sum(vec) > 1:
        raise SpaceMismatchError(f"total mass exceeds 1: {sum(vec)}")
    return tuple(vec)


def dense_numerators(mu: SubProb) -> tuple[int, ...]:
    """One integer numerator over ``mu.den`` per atom, zeros included: the
    dense vector ``SubProb`` held before it held its support."""
    return tuple(int(m * mu.den) for m in dense(mu))


def evaluate_oracle(mu: SubProb, states) -> Fraction:
    idx = mu.space.atoms_of_set(states)
    if idx is None:
        raise NotMeasurableSetError("not a union of atoms")
    vec = dense(mu)
    return sum((vec[i] for i in idx), Fraction(0))


def pushforward_oracle(f: MeasurableMap, mu: SubProb) -> tuple[Fraction, ...]:
    return tuple(evaluate_oracle(mu, f.preimage(block)) for block in f.codomain.atoms)


def restrict_oracle(mu: SubProb, coarser: Space) -> tuple[Fraction, ...] | None:
    """Block masses on ``coarser``, or None if it does not coarsen the
    measure's space."""
    fine = mu.space
    if coarser.carrier != fine.carrier or any(
        fine.atoms_of_set(block) is None for block in coarser.atoms
    ):
        return None
    return tuple(evaluate_oracle(mu, block) for block in coarser.atoms)


def unique_preimages_oracle(f: MeasurableMap, nu: SubProb) -> list[tuple[Fraction, ...]] | None:
    """``unique_preimages`` read off the dense mass vector: the mass vector
    of the one preimage, ``[]`` or ``None``, decided at the first atom with
    positive mass whose preimage is not one domain atom."""
    vec = [Fraction(0)] * len(f.domain.atoms)
    for idx, q in zip(f.preimage_atoms, dense(nu)):
        if q:
            if not idx:
                return []
            if len(idx) > 1:
                return None
            vec[idx[0]] = q
    return [tuple(vec)]


def measure_dict_oracle(mu: SubProb) -> dict[str, str]:
    """The emitted form of a measure read off the dense mass vector: each
    atom with positive mass, named by its first state."""
    return {block[0]: str(q) for block, q in zip(mu.space.atoms, dense(mu)) if q}


_RATIONAL_ORACLE = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def read_measure_oracle(space: Space, file, read: dict, raw, where: str, i: int) -> SubProb:
    """The measure object reader that the one-pass loader replaced: each
    rational string parsed where it stands, the numerators brought over the
    lcm of the denominators, and the measure built through ``SubProb.of``
    from a mapping of states to numerators.  Faults come in the order
    rationals, states, mass; ``read`` maps the items of each object read
    before to its measure."""
    if not isinstance(raw, dict):
        message = f"a measure must be an object, got {type(raw).__name__}"
        raise ModelFormatError(message, file=file, location=f"{where}[{i}]")
    key = tuple(raw.items())
    try:
        mu = read.get(key)
    except TypeError:
        mu = None
    if mu is not None:
        return mu
    parts = []
    for state, value in raw.items():
        match = _RATIONAL_ORACLE.fullmatch(value) if isinstance(value, str) else None
        try:
            pq = None if match is None else (int(match[1]), int(match[2] or 1))
        except ValueError:  # more digits than int() converts
            pq = None
        if pq is None:
            message = f'rationals must be "p/q", "0" or "1" strings, got {value!r}'
            raise ModelFormatError(message, file=file, location=f"{where}[{i}].{state}")
        parts.append(pq)
    den = math.lcm(*[q for _, q in parts])
    nums = [p * (den // q) for p, q in parts]
    try:
        mu = read[key] = SubProb.of(space, dict(zip(raw, nums)), den)
    except EffkitError as exc:
        raise ModelFormatError(str(exc), file=file, location=f"{where}[{i}]") from exc
    return mu


def upperset_order_oracle(generators) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Generator order of the UpperSet of ``generators``: the minimal
    distinct ones, by size and then by their members' mass vectors."""
    keys = {tuple(sorted(dense(mu) for mu in g.members)) for g in generators}
    kept = minimal_oracle({frozenset(k) for k in keys})
    return sorted(
        (k for k in keys if frozenset(k) in kept), key=lambda k: (len(k), k)
    )


class PairRelation:
    """A relation held as its frozenset of pairs, with the queries computed
    pair by pair: the reference for ``Relation``, which holds each state's
    related set instead."""

    def __init__(self, base: Space, pairs):
        frozen = frozenset((s, t) for s, t in pairs)
        for s, t in frozen:
            base.index(s)
            base.index(t)
        self.base, self.pairs = base, frozen

    @staticmethod
    def from_partition(space: Space, blocks) -> "PairRelation":
        pairs = []
        for block in blocks:
            block = list(block)
            pairs.extend(itertools.product(block, block))
        return PairRelation(space, pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __repr__(self) -> str:
        """``Relation``'s format, from the pairs: one product per distinct
        nonempty set of related states, in the carrier order of its first
        holder."""
        order = self.base.carrier
        products: dict[tuple[str, ...], list[str]] = {}
        for s in order:
            ts = tuple(t for t in order if (s, t) in self.pairs)
            if ts:
                products.setdefault(ts, []).append(s)
        return f"Relation({', '.join(f'{h!r} x {list(ts)!r}' for ts, h in products.items())})"

    @property
    def is_symmetric(self) -> bool:
        return all((t, s) in self.pairs for s, t in self.pairs)

    @property
    def is_equivalence(self) -> bool:
        if not self.is_symmetric:
            return False
        if any((s, s) not in self.pairs for s in self.base.carrier):
            return False
        related: dict[str, set[str]] = {s: set() for s in self.base.carrier}
        for s, t in self.pairs:
            related[s].add(t)
        return all(related[t] >= related[s] for s, t in self.pairs)

    def classes(self) -> tuple[tuple[str, ...], ...]:
        if not self.is_equivalence:
            raise NonSymmetricRelationError("classes() requires an equivalence relation")
        seen: set[str] = set()
        out = []
        for s in self.base.carrier:
            if s not in seen:
                cls = tuple(t for t in self.base.carrier if (s, t) in self.pairs)
                seen.update(cls)
                out.append(cls)
        return tuple(out)

    def sigma_r(self) -> Space:
        """Base atoms merged across every related pair, transitively."""
        if not self.is_symmetric:
            raise NonSymmetricRelationError(
                "closed sets of a non-symmetric relation do not form a field"
            )
        block = {s: atom for atom in self.base.atom_sets for s in atom}
        for s, t in self.pairs:
            if block[s] != block[t]:
                merged = block[s] | block[t]
                for u in merged:
                    block[u] = merged
        return Space(self.base.carrier, set(block.values()))


def subsystem_oracle(p: EffFn, coarser: Space) -> bool:
    """Whether the portfolio's families, restricted to a coarsening, are
    constant on each of its atoms, compared state by state."""
    return all(
        len({restrict_upperset(p(s), coarser) for s in block}) == 1
        for block in coarser.atoms
    )


def event_bisim_oracle(m, coarser: Space) -> bool:
    """``subsystem_oracle`` for each label's principal-filter portfolio."""
    kernels = (m,) if isinstance(m, Kernel) else tuple(k for _, k in m.kernels)
    return all(subsystem_oracle(filter_generate(k), coarser) for k in kernels)


def relation_from_family(space: Space, family) -> set[tuple[str, str]]:
    """Pairs indistinguishable by every set of the family."""
    return {
        (s, t)
        for s in space.carrier
        for t in space.carrier
        if all((s in q) == (t in q) for q in family)
    }


def generated_field(space: Space, family) -> list[frozenset[str]]:
    """The field of sets generated by a family of subsets of the carrier."""
    sigs = {}
    for s in space.carrier:
        sigs.setdefault(tuple(s in q for q in family), set()).add(s)
    field_atoms = list(sigs.values())
    out = []
    for bits in itertools.product([0, 1], repeat=len(field_atoms)):
        chosen = [field_atoms[i] for i, b in enumerate(bits) if b]
        out.append(frozenset().union(*chosen) if chosen else frozenset())
    return out


def minimal_oracle(sets: set[frozenset]) -> frozenset[frozenset]:
    """The minimal antichain of a finite family of sets, by definition."""
    return frozenset(a for a in sets if not any(b < a for b in sets))


def upperset_members_oracle(u: UpperSet, pool: list[SubProb]) -> set[frozenset[SubProb]]:
    """Extensional view of the family over all subsets of a measure pool."""
    out = set()
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            a = MeasureSet(u.space, combo)
            if contains(u, a):
                out.add(frozenset(a.members))
    return out


def blockwise_bisim_oracle(system) -> set[frozenset[str]]:
    """Alternative greatest-bisimulation route: refine a partition by
    quotiented-behavior signatures instead of pruning pairs.

    Two states satisfy the two-sided transfer condition against an
    equivalence iff their behaviors restricted to its invariant partition
    coincide canonically (measure sets for kernels, upper families for
    portfolios), so splitting blocks by that signature reaches the same
    fixed point as the pairwise computation.
    """
    from effkit import Kernel, restrict
    from effkit.effectivity import restrict_upperset

    space = system.space
    blocks = [tuple(space.carrier)]

    def signature(s, qspace):
        if isinstance(system, Kernel):
            return MeasureSet(qspace, (restrict(mu, qspace) for mu in system(s)))
        return restrict_upperset(system(s), qspace)

    while True:
        qspace = Space(space.carrier, blocks)
        refined: list[tuple[str, ...]] = []
        for block in blocks:
            groups: dict = {}
            for s in block:
                groups.setdefault(signature(s, qspace), []).append(s)
            refined.extend(tuple(g) for g in groups.values())
        if len(refined) == len(blocks):
            return {frozenset(b) for b in blocks}
        blocks = refined


def ef_transfer_oracle(p: EffFn, rel: Relation, agree) -> bool:
    """Definition-level bisimulation check quantifying over all member sets
    of the (finite stand-ins for the) portfolios, not just generators."""
    pool = sorted(
        {mu for u in p.portfolio for g in u.generators for mu in g},
        key=dense,
    )
    subsets = [
        MeasureSet(p.space, combo)
        for r in range(len(pool) + 1)
        for combo in itertools.combinations(pool, r)
    ]
    for s, t in pairs(rel):
        for a in subsets:
            if not contains(p(s), a):
                continue
            matched = False
            for b in subsets:
                if not contains(p(t), b):
                    continue
                if all(any(agree(mu, nu) for mu in a) for nu in b):
                    matched = True
                    break
            if not matched:
                return False
    return True


def _matched(g, h) -> bool:
    """Every member of ``h`` agrees with some member of ``g``."""
    return all(any(a == b for a in g) for b in h)


def _transfer_test(system, quotient: Space):
    """One-sided transfer from ``s`` to ``t``, with measures compared by
    their restrictions to ``quotient``.  Portfolios are checked on
    generators: every generator of ``s`` needs a generator of ``t`` whose
    members all agree with members of the former.  Kernels are checked per
    label: every successor of ``s`` agrees with a successor of ``t``."""

    def restricted(ms):
        return [dense(restrict(mu, quotient)) for mu in ms]

    carrier = system.space.carrier
    if isinstance(system, EffFn):
        gens = {s: [restricted(g) for g in system(s).generators] for s in carrier}
        return lambda s, t: all(any(_matched(g, h) for h in gens[t]) for g in gens[s])
    kernels = (system,) if isinstance(system, Kernel) else [k for _, k in system.kernels]
    images = [{s: restricted(k(s)) for s in carrier} for k in kernels]
    return lambda s, t: all(_matched(image[t], image[s]) for image in images)


def transfer_oracle(system, rel: Relation) -> bool:
    """State-bisimulation test of a symmetric relation by checking the
    transfer condition pair by pair."""
    holds = _transfer_test(system, sigma_r(rel))
    return all(holds(s, t) for s, t in pairs(rel))


def pairwise_bisim_oracle(system) -> Relation:
    """Greatest bisimulation of a kernel, labelled process or portfolio by
    pair pruning: from the full relation, keep the pairs passing the
    two-sided transfer against the current relation until nothing changes."""
    space = system.space
    rel = Relation.full(space)
    while True:
        holds = _transfer_test(system, sigma_r(rel))
        refined = Relation(space, [(s, t) for s, t in pairs(rel) if holds(s, t) and holds(t, s)])
        if refined == rel:
            return rel
        rel = refined


# Canonical JSON emission as the standard library writes it.


def dumps_oracle(doc) -> str:
    """The bytes ``dumps_canonical`` must write for ``doc``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def model_doc_oracle(model: Nlmp | EffFn) -> dict:
    """The model as the JSON document its file holds, built as a nested
    dict: the dict builder the model writer replaced, with each measure
    read off its dense mass vector.  ``dumps_oracle`` of it is the text
    ``dumps_canonical(model)`` must write."""
    doc: dict = {
        "kind": "nlmp" if isinstance(model, Nlmp) else "ef",
        "states": list(model.space.carrier),
        "sigma": [list(block) for block in model.space.atoms],
    }
    if isinstance(model, Nlmp):
        doc["labels"] = list(model.labels)
        doc["kernels"] = {
            label: {s: [measure_dict_oracle(mu) for mu in k(s).members] for s in model.space.carrier}
            for label, k in model.kernels
        }
    else:
        doc["effectivity"] = {
            s: [[measure_dict_oracle(mu) for mu in g.members] for g in model(s).generators]
            for s in model.space.carrier
        }
    return doc


_JSON_CHARS = "az09 \"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u4e2d\U0001f600"


def rand_json_doc(rng: Random, depth: int = 4):
    """A random JSON document of dicts with string keys, lists, tuples,
    strings over ASCII, control, quote and non-ASCII characters, ints,
    booleans and ``None``; containers are often empty."""
    def text() -> str:
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 6)))

    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return text()
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(10**30), 10**40])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.randint(-1000, 1000)
    if kind == 5:
        return {text(): rand_json_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))}
    items = [rand_json_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return items if kind == 6 else tuple(items)


# The measurability scan and the span code as they were before a
# measurable map was checked through its atom map and the span was built
# once per mediator state.


def measurability_oracle(domain: Space, codomain: Space, table) -> str | None:
    """Message of the ``SpaceMismatchError`` a total ``table`` between the
    spaces raises as a map, or None if it is measurable: codomain atoms are
    scanned in order and the first whose preimage is not a union of domain
    atoms is named."""
    for block in codomain.atoms:
        pre = [s for s in domain.carrier if table[s] in set(block)]
        if domain.atoms_of_set(pre) is None:
            return f"not measurable: preimage of atom {block} is not a union of domain atoms"
    return None


def space_fault_oracle(carrier: list[str], atoms: list[list[str]]) -> tuple[type, str] | None:
    """Type and message of the error ``Space(carrier, atoms)`` raises for a
    carrier without repeats, or None if it builds: an empty atom or the
    first foreign state of an atom first, atom by atom in the given order;
    then the first state met again, atom by atom with each atom's states in
    carrier order, named as twice in one atom or in two atoms; then the
    states no atom covers, in carrier order."""
    order = {s: i for i, s in enumerate(carrier)}
    for block in atoms:
        if not block:
            return SpaceMismatchError, "empty atom in partition"
        for s in block:
            if s not in order:
                return ForeignStateError, f"atom state {s!r} not in carrier"
    seen: set[str] = set()
    for block in atoms:
        here: set[str] = set()
        for s in sorted(block, key=order.__getitem__):
            if s in seen:
                where = "twice in one atom" if s in here else "in two atoms"
                return SpaceMismatchError, f"state {s!r} appears {where}"
            seen.add(s)
            here.add(s)
    missing = [s for s in carrier if s not in seen]
    return (SpaceMismatchError, f"atoms do not cover carrier; missing {missing}") if missing else None


def map_fault_oracle(domain: Space, codomain: Space, table) -> tuple[type, str] | None:
    """Type and message of the error ``table`` between the spaces raises as
    a map, or None if it is a map: a state without an image first, in
    carrier order; then a key outside the domain or an image outside the
    codomain, in the table's order, the key of an entry before its image;
    then the lowest codomain atom whose preimage straddles a domain atom."""
    for s in domain.carrier:
        if s not in table:
            return ForeignStateError, f"map is not total: no image for {s!r}"
    for s, t in table.items():
        for state, space in ((s, domain), (t, codomain)):
            if state not in space.carrier:
                return ForeignStateError, f"state {state!r} not in carrier"
    message = measurability_oracle(domain, codomain, table)
    return None if message is None else (SpaceMismatchError, message)


def atom_map_oracle(f: MeasurableMap) -> tuple[int, ...]:
    """Per domain atom, the index of the codomain atom its first state's
    image lies in."""
    return tuple(f.codomain.atom_of(f(block[0])) for block in f.domain.atoms)


def _support_oracle(p: EffFn, s: str) -> MeasureSet:
    return p(s).generators[0]


def verify_cospan_oracle(c: Cospan) -> CospanReport:
    """Surjectivity and morphism checks of both legs, then, for finitely
    supported sides, a principal mediator and equal pushed supports at
    every matched pair."""
    failures: list[CheckFailure] = []
    for name, leg in (("f", c.f), ("g", c.g)):
        if not leg.is_surjective:
            missed = sorted(set(leg.codomain.carrier) - {leg(s) for s in leg.domain.carrier})
            failures.append(CheckFailure("not_surjective", f"{name} misses {missed[0]}"))
    for name, leg, side in (("f", c.f, c.p), ("g", c.g, c.q)):
        for s in side.space.carrier:
            if not equals(c.m(leg(s)), push_upperset(leg, side(s))):
                failures.append(CheckFailure("morphism_violation", f"{name} at {s}"))
                break
    if c.p.is_finitely_supported and c.q.is_finitely_supported and not failures:
        for u in c.m.space.carrier:
            if not c.m(u).is_principal:
                failures.append(CheckFailure("mediator_not_finitely_supported", u))
        pushed_left = {
            s: MeasureSet(c.m.space, (pushforward(c.f, mu) for mu in _support_oracle(c.p, s)))
            for s in c.p.space.carrier
        }
        pushed_right = {
            t: MeasureSet(c.m.space, (pushforward(c.g, nu) for nu in _support_oracle(c.q, t)))
            for t in c.q.space.carrier
        }
        for s in c.p.space.carrier:
            for t in c.q.space.carrier:
                if c.f(s) == c.g(t) and pushed_left[s] != pushed_right[t]:
                    failures.append(CheckFailure("support_mismatch", f"{s}|{t}"))
    return CospanReport(not failures, tuple(failures))


def build_span_oracle(c: Cospan) -> SpanResult:
    """The pullback span, pair by pair: each pair's dynamics transports the
    pushed support of its left state, and both squares are checked at every
    pair."""
    report = verify_cospan_oracle(c)
    if not report.ok:
        raise CospanVerificationError(report)
    if not (c.p.is_finitely_supported and c.q.is_finitely_supported):
        raise NotFinitelySupportedError(
            "span construction requires finitely supported portfolios"
        )

    def preimage_space(leg: MeasurableMap) -> Space:
        return Space(leg.domain.carrier, [leg.preimage(block) for block in leg.codomain.atoms])

    sigma_f = preimage_space(c.f)
    sigma_g = preimage_space(c.g)
    p_f = EffFn(sigma_f, {s: restrict_upperset(c.p(s), sigma_f) for s in sigma_f.carrier})
    q_g = EffFn(sigma_g, {t: restrict_upperset(c.q(t), sigma_g) for t in sigma_g.carrier})

    pairs = [
        (s, t) for s in c.p.space.carrier for t in c.q.space.carrier if c.f(s) == c.g(t)
    ]

    def escaped(state: str) -> str:
        return state.replace("\\", "\\\\").replace("|", "\\|")

    name = {pair: f"{escaped(pair[0])}|{escaped(pair[1])}" for pair in pairs}
    blocks = [
        [name[(s, t)] for (s, t) in pairs if c.f(s) in set(block)]
        for block in c.m.space.atoms
    ]
    w = Space([name[p] for p in pairs], blocks)
    representative = [members[0] for members in blocks]

    def transport(nu: SubProb) -> SubProb:
        return SubProb.of(w, dict(zip(representative, dense_numerators(nu))), nu.den)

    portfolio = {}
    for s, t in pairs:
        pushed = MeasureSet(
            c.m.space, (pushforward(c.f, mu) for mu in _support_oracle(c.p, s))
        )
        transported = MeasureSet(w, (transport(nu) for nu in pushed))
        portfolio[name[(s, t)]] = UpperSet(w, (transported,))
    tau = EffFn(w, portfolio)

    pi_s = MeasurableMap(w, sigma_f, {name[(s, t)]: s for (s, t) in pairs})
    pi_t = MeasurableMap(w, sigma_g, {name[(s, t)]: t for (s, t) in pairs})

    for s, t in pairs:
        at = tau(name[(s, t)])
        if not equals(push_upperset(pi_s, at), p_f(s)):
            raise InternalInvariantViolation(f"left square fails at {name[(s, t)]}")
        if not equals(push_upperset(pi_t, at), q_g(t)):
            raise InternalInvariantViolation(f"right square fails at {name[(s, t)]}")
    return SpanResult(w, tau, p_f, q_g, pi_s, pi_t)


# ---------------------------------------------------------------------------
# Kernel morphisms and sums on measure sets, and the backtracking parser
# ---------------------------------------------------------------------------


def nk_morphism_oracle(f: MeasurableMap, k: Kernel, k2: Kernel) -> bool:
    """Every source measure pushes into the target set, and the target
    set's full pushforward preimage, when finite, is the source set."""
    if f.domain != k.space or f.codomain != k2.space:
        raise SpaceMismatchError("map endpoints must match the kernel spaces")
    for s in k.space.carrier:
        source, target = k(s), k2(f(s))
        if any(pushforward(f, mu) not in target for mu in source):
            return False
        preimage: list[SubProb] = []
        for nu in target:
            sols = unique_preimages(f, nu)
            if sols is None:
                return False
            preimage.extend(sols)
        if MeasureSet(f.domain, preimage) != source:
            return False
    return True


def kernel_sum_oracle(k: Kernel, k2: Kernel):
    """The sum kernel, each measure pushed along its side's injection."""
    ds = direct_sum(k.space, k2.space)
    image: dict[str, list[SubProb]] = {}
    for s in k.space.carrier:
        image[ds.left(s)] = [pushforward(ds.left, mu) for mu in k(s)]
    for t in k2.space.carrier:
        image[ds.right(t)] = [pushforward(ds.right, mu) for mu in k2(t)]
    return Kernel(ds.space, image), ds


# Deepest nesting the recursive oracles accept, both of brackets and of the
# syntax tree: they recurse a few frames per level, so every formula they
# accept stays well under the interpreter's default recursion limit.
ORACLE_NESTING = 100


class _TooDeep(FormulaSyntaxError):
    """Nesting beyond ``ORACLE_NESTING``; never retried as another reading."""


class _BacktrackingParser:
    """Recursive descent that reads ``[`` as a threshold first and, when
    that fails, rewinds and reads it as a group."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        depth = 0
        for kind, _, pos in self.tokens:
            depth += (kind in ("(", "[")) - (kind in (")", "]"))
            self.nested(depth, pos)

    def nested(self, height: int, pos: int) -> int:
        if height > ORACLE_NESTING:
            raise _TooDeep(f"formula nested deeper than {ORACLE_NESTING} levels", pos)
        return height

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise FormulaSyntaxError(f"expected {kind!r}, found {found!r}", tok[2])
        return tok

    def parse_state(self) -> tuple[StateFormula, int]:
        left, height = self.parse_state_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_state_unit()
            left, height = And(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_state_unit(self) -> tuple[StateFormula, int]:
        kind, text, pos = self.peek()
        if kind == "T":
            self.next()
            return Top(), 1
        if kind in ("<>", "[]"):
            self.next()
            body, h = self.parse_measure_unit()
            return (Diamond if kind == "<>" else Box)(body), self.nested(h + 1, pos)
        if kind == "(":
            self.next()
            inner = self.parse_state()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"expected a state formula, found {text or 'end of input'!r}", pos)

    def parse_measure(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_conj()
        while self.peek()[0] == "|":
            pos = self.next()[2]
            right, h = self.parse_measure_conj()
            left, height = MOr(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_conj(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_measure_unit()
            left, height = MAnd(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_unit(self) -> tuple[MeasureFormula, int]:
        kind, text, pos = self.peek()
        if kind == "[":
            self.next()
            mark = self.pos
            try:
                return self._parse_threshold_tail(pos)
            except _TooDeep:
                raise
            except FormulaSyntaxError:
                self.pos = mark  # brackets group a composite measure formula
            inner = self.parse_measure()
            self.expect("]")
            return inner
        if kind == "(":
            self.next()
            inner = self.parse_measure()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(
            f"expected a measure formula, found {text or 'end of input'!r}", pos
        )

    def _parse_threshold_tail(self, open_pos: int) -> tuple[Threshold, int]:
        state, h = self.parse_state()
        kind, text, pos = self.next()
        if kind not in ("<", ">"):
            raise FormulaSyntaxError(f"expected < or > in threshold, found {text!r}", pos)
        rat = self.expect("RAT")
        bound = Fraction(rat[1])
        if bound >= 1:
            raise ThresholdOutOfRangeError(f"threshold {bound} outside [0, 1)")
        self.expect("]")
        return Threshold(state, kind, bound), self.nested(h + 1, open_pos)


def parse_formula_oracle(text: str) -> StateFormula:
    parser = _BacktrackingParser(text)
    formula, _ = parser.parse_state()
    parser.expect("EOF")
    return formula


_TOKENS = ("<>", "[]", "&", "|", "(", ")", "[", "]", "<", ">", "T")
_RATIONAL = re.compile(r"[0-9]+(/[0-9]*)?")  # ASCII digits only


def tokenize_oracle(text: str) -> list[tuple[str, str, int]]:
    """The tokenizer that tried each token in turn, then a rational."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for tok in _TOKENS:
            if text.startswith(tok, i):
                out.append((tok, tok, i))
                i += len(tok)
                matched = True
                break
        if matched:
            continue
        rat = _RATIONAL.match(text, i)
        if rat is not None:
            if rat.group().endswith("/"):
                raise FormulaSyntaxError("missing denominator", rat.end())
            try:
                Fraction(rat.group())
            except (ValueError, ZeroDivisionError) as exc:  # too many digits, zero denominator
                raise FormulaSyntaxError(f"unreadable rational: {exc}", i) from None
            out.append(("RAT", rat.group(), i))
            i = rat.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("EOF", "", n))
    return out


def _shown(tok: tuple[str, str, int]) -> str:
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


class RecursiveParser:
    """The recursive-descent parser ``parse_formula`` replaced: every parse
    method returns the formula and the height of its syntax tree, and
    nesting beyond ``ORACLE_NESTING`` is refused."""

    def __init__(self, text: str):
        self.tokens = tokenize_oracle(text)
        self.pos = 0
        depth = 0
        for kind, _, pos in self.tokens:
            depth += (kind in ("(", "[")) - (kind in (")", "]"))
            self.nested(depth, pos)

    def nested(self, height: int, pos: int) -> int:
        if height > ORACLE_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {ORACLE_NESTING} levels", pos)
        return height

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what or repr(kind)}, found {_shown(tok)}", tok[2])
        return tok

    def parse_state(self) -> tuple[StateFormula, int]:
        left, height = self.parse_state_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_state_unit()
            left, height = And(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_state_unit(self) -> tuple[StateFormula, int]:
        kind, _, pos = self.peek()
        if kind == "T":
            self.next()
            return Top(), 1
        if kind in ("<>", "[]"):
            self.next()
            body, h = self.parse_measure_unit()
            return (Diamond if kind == "<>" else Box)(body), self.nested(h + 1, pos)
        if kind == "(":
            self.next()
            inner = self.parse_state()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"expected a state formula, found {_shown(self.peek())}", pos)

    def parse_measure(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_conj()
        while self.peek()[0] == "|":
            pos = self.next()[2]
            right, h = self.parse_measure_conj()
            left, height = MOr(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_conj(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_measure_unit()
            left, height = MAnd(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_unit(self) -> tuple[MeasureFormula, int]:
        kind, _, pos = self.peek()
        if kind == "[":
            self.next()
            ahead = self.pos
            while self.tokens[ahead][0] == "(":
                ahead += 1
            if self.tokens[ahead][0] in ("T", "<>", "[]"):  # a state formula opens a threshold
                return self._parse_threshold_tail(pos)
            inner = self.parse_measure()
            self.expect("]")
            return inner
        if kind == "(":
            self.next()
            inner = self.parse_measure()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"expected a measure formula, found {_shown(self.peek())}", pos)

    def _parse_threshold_tail(self, open_pos: int) -> tuple[Threshold, int]:
        state, h = self.parse_state()
        tok = self.next()
        kind, _, pos = tok
        if kind not in ("<", ">"):
            raise FormulaSyntaxError(f"expected < or > in threshold, found {_shown(tok)}", pos)
        rat = self.expect("RAT", "a rational")
        self.expect("]")
        return Threshold(state, kind, Fraction(rat[1])), self.nested(h + 1, open_pos)


def parse_formula_recursive(text: str) -> StateFormula:
    parser = RecursiveParser(text)
    formula, _ = parser.parse_state()
    parser.expect("EOF", "end of input")
    return formula


class RecursiveEvaluator:
    """The recursive evaluator ``logic._Evaluator`` replaced, with the same
    identity-keyed memos: a state formula's extension is computed when a
    threshold first reaches it, and ``and``/``or`` short-circuit."""

    def __init__(self, p: EffFn):
        self.p = p
        self._ext: dict[int, tuple[StateFormula, frozenset[str]]] = {}
        self._atoms: dict[int, tuple[StateFormula, tuple[int, ...]]] = {}

    def numerator(self, mu: SubProb, f: StateFormula) -> int:
        hit = self._atoms.get(id(f))
        if hit is None:
            atoms = self.p.space.atoms_of_set(self.state_ext(f))
            if atoms is None:
                raise NotMeasurableSetError("an extension is not a union of atoms")
            hit = self._atoms[id(f)] = (f, atoms)
        num = dense_numerators(mu)
        return sum([num[i] for i in hit[1]])

    def state_ext(self, f: StateFormula) -> frozenset[str]:
        hit = self._ext.get(id(f))
        if hit is not None:
            return hit[1]
        if isinstance(f, Top):
            ext = frozenset(self.p.space.carrier)
        elif isinstance(f, And):
            ext = self.state_ext(f.left) & self.state_ext(f.right)
        elif isinstance(f, Diamond):
            ext = frozenset(
                s
                for s in self.p.space.carrier
                if any(all(self.msat(f.body, mu) for mu in g) for g in self.p(s))
            )
        elif isinstance(f, Box):
            ext = frozenset(
                s
                for s in self.p.space.carrier
                if all(any(self.msat(f.body, mu) for mu in g) for g in self.p(s))
            )
        else:
            raise TypeError(f"not a state formula: {f!r}")
        self._ext[id(f)] = (f, ext)
        return ext

    def msat(self, m: MeasureFormula, mu: SubProb) -> bool:
        if isinstance(m, MAnd):
            return self.msat(m.left, mu) and self.msat(m.right, mu)
        if isinstance(m, MOr):
            return self.msat(m.left, mu) or self.msat(m.right, mu)
        if isinstance(m, Threshold):
            mass = self.numerator(mu, m.state) * m.bound.denominator
            bound = m.bound.numerator * mu.den
            return mass < bound if m.cmp == "<" else mass > bound
        raise TypeError(f"not a measure formula: {m!r}")


# Formula text for fuzzing: formula tokens, stray slashes and digits, and
# arbitrary characters, sometimes inside thousands of levels of openers and
# closers.
_FUZZ_PIECES = st.one_of(
    st.sampled_from(
        ("T", "&", "|", "<>", "[]", "(", ")", "[", "]", "<", ">", " ", "0", "1/2", "1", "3/2",
         "/", "1/", "2/0", "1/" + "7" * 5000)
    ),
    st.characters(),
)


@st.composite
def formula_texts(draw) -> str:
    core = "".join(draw(st.lists(_FUZZ_PIECES, max_size=30)))
    if draw(st.booleans()):
        return core
    opener = draw(st.sampled_from(("(", "[", "<>[", "[][", "[ ", "T & ", "[T > 0] | ", "<>[ (")))
    closer = draw(st.sampled_from((")", "]", " > 1/2]", " ]", " & T", "")))
    depth = st.integers(min_value=0, max_value=3000)
    return opener * draw(depth) + core + closer * draw(depth)


def format_formula_oracle(f: StateFormula) -> str:
    """The recursive printer ``format_formula`` replaced: a few frames per
    level of nesting."""
    return _fmt_state(f, 0)


def _fmt_state(f: StateFormula, prec: int) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, And):
        text = f"{_fmt_state(f.left, 1)} & {_fmt_state(f.right, 2)}"
        return f"({text})" if prec > 1 else text
    if isinstance(f, Diamond):
        return "<>" + _fmt_munit(f.body)
    if isinstance(f, Box):
        return "[]" + _fmt_munit(f.body)
    raise TypeError(f"not a state formula: {f!r}")


def _fmt_munit(m: MeasureFormula) -> str:
    if isinstance(m, Threshold):
        return _fmt_measure(m, 0)
    return f"[ {_fmt_measure(m, 0)} ]"


def _fmt_measure(m: MeasureFormula, prec: int) -> str:
    if isinstance(m, Threshold):
        return f"[{_fmt_state(m.state, 0)} {m.cmp} {m.bound!s}]"
    if isinstance(m, MAnd):
        text = f"{_fmt_measure(m.left, 2)} & {_fmt_measure(m.right, 3)}"
        return f"({text})" if prec > 2 else text
    if isinstance(m, MOr):
        text = f"{_fmt_measure(m.left, 1)} | {_fmt_measure(m.right, 2)}"
        return f"({text})" if prec > 1 else text
    raise TypeError(f"not a measure formula: {m!r}")


# ---------------------------------------------------------------------------
# Frozenset measure sets: the representation before measure ids and masks
# ---------------------------------------------------------------------------


class MeasureSetOracle:
    """A measure set held as a frozenset beside its members sorted by mass
    vector; equality and hash are those of ``(space, members)``."""

    def __init__(self, space: Space, members):
        unique = frozenset(members)
        for mu in unique:
            if mu.space != space:
                raise SpaceMismatchError("measure set members must share one space")
        self.space = space
        self.members = tuple(sorted(unique, key=dense))
        self.member_set = unique

    def __eq__(self, other) -> bool:
        return (self.space, self.members) == (other.space, other.members)

    def __hash__(self) -> int:
        return hash((self.space, self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mu: SubProb) -> bool:
        return mu in self.member_set

    def issubset(self, other: "MeasureSetOracle") -> bool:
        return self.member_set <= other.member_set


def minimal_in_order_oracle(family) -> list:
    """The minimal members of a finite family of frozensets or oracle measure
    sets, smallest first and otherwise in input order."""
    kept = []
    for a in sorted(family, key=len):
        if not any(b.issubset(a) for b in kept):
            kept.append(a)
    return kept


def upperset_oracle(space: Space, generators) -> tuple[MeasureSetOracle, ...]:
    """Canonical antichain of oracle measure sets: sorted by member mass
    vectors, then the minimal ones."""
    gens = list(generators)
    gens.sort(key=lambda g: tuple(dense(mu) for mu in g.members))
    return tuple(minimal_in_order_oracle(gens))


def dual_oracle(space: Space, generators) -> tuple[MeasureSetOracle, ...]:
    """Minimal hitting sets of the generators, grown as frozensets of
    measures generator by generator."""
    partial = [frozenset()]
    for g in generators:
        grown = []
        for h in partial:
            if h & g.member_set:
                grown.append(h)
            else:
                grown.extend(h | {m} for m in g.members)
        partial = minimal_in_order_oracle(grown)
    return upperset_oracle(space, (MeasureSetOracle(space, h) for h in partial))


def refine_oracle(space: Space, portfolios, blocks) -> list:
    """Per round of ``effectivity._refine``, the signature classes per block
    and the class id of each measure, with each signature a frozenset of
    minimal frozensets of class ids and each measure restricted to the atom
    closure of the blocks (the space ``sigma_r`` gives for them)."""
    number: dict[SubProb, int] = {}
    support = []
    for p in portfolios:
        for u in p.portfolio:
            for g in u.generators:
                for mu in g:
                    if number.setdefault(mu, len(number)) == len(support):
                        dense = enumerate(dense_numerators(mu))
                        support.append((mu.den, [(a, n) for a, n in dense if n]))
    rounds = []
    blocks = tuple(blocks)
    while True:
        closure = sigma_r(Relation.from_partition(space, blocks))
        root = [closure.atom_of(block[0]) for block in space.atoms]
        vectors: dict[tuple, int] = {}
        cid = []
        for den, nums in support:
            vec: dict[int, Fraction] = {}
            for a, n in nums:
                vec[root[a]] = vec.get(root[a], 0) + Fraction(n, den)
            cid.append(vectors.setdefault(tuple(sorted(vec.items())), len(vectors)))
        signature = {
            s: tuple(
                frozenset(
                    minimal_in_order_oracle(
                        [frozenset(cid[number[mu]] for mu in g) for g in u.generators]
                    )
                )
                for u in (p(s) for p in portfolios)
            )
            for s in space.carrier
        }
        classes = []
        for block in blocks:
            groups: dict[tuple, list[str]] = {}
            for s in block:
                groups.setdefault(signature[s], []).append(s)
            classes.append(tuple(map(tuple, groups.values())))
        rounds.append((tuple(classes), {mu: cid[m] for mu, m in number.items()}))
        split = tuple(c for group in classes for c in group)
        if len(split) == len(blocks):
            return rounds
        blocks = split


def same_classes(class_of, ids: dict) -> bool:
    """Whether ``class_of`` gives equal ids exactly to the measures that
    ``ids`` gives equal ids."""
    pairs = {(class_of(mu), i) for mu, i in ids.items()}
    return len(pairs) == len({c for c, _ in pairs}) == len({i for _, i in pairs})


def atom_states(space: Space, atoms) -> tuple[str, ...]:
    """The states of some atoms of ``space``, in carrier order: ``atoms`` is
    a mask over atom indices (bit ``a`` for atom ``a``), as the evaluator's
    extensions and the refiner's up-sets are, or an iterable of atom
    indices, as the engine's classes are."""
    if isinstance(atoms, int):
        atoms = [a for a in range(len(space.atoms)) if atoms >> a & 1]
    return tuple(sorted((s for a in atoms for s in space.atoms[a]), key=space.index))


def atom_twin(p: EffFn) -> tuple[EffFn, MeasurableMap]:
    """The discrete twin of a portfolio, one state per atom named by the
    atom's least state, with the map sending each state there; each
    portfolio is pushed along it.  A discrete portfolio's twin equals it."""
    space = p.space
    reps = Space.discrete([block[0] for block in space.atoms])
    f = MeasurableMap(space, reps, {s: block[0] for block in space.atoms for s in block})
    return EffFn(reps, {r: push_upperset(f, p(r)) for r in reps.carrier}), f


def start_blocks(block_of) -> list[tuple[int, tuple[int, ...]]]:
    """The blocks of a block id per atom, as (id, atoms) pairs in the order
    of their least atoms, as ``_Refiner`` and ``refine_oracle`` list them."""
    grouped: dict[int, list[int]] = {}
    for a, b in enumerate(block_of):
        grouped.setdefault(b, []).append(a)
    return [(b, tuple(atoms)) for b, atoms in grouped.items()]


def whole_round(blocks, splits) -> tuple[list, tuple]:
    """The blocks after a round of ``effectivity._refine`` with these
    splits, and the round's classes per block in the form the engine gave
    before it yielded splits, from the blocks before it (both as (id,
    atoms) pairs, a split block's classes in the order of their least
    atoms, as ``_Refiner._classes`` lists them)."""
    after, classes = [], []
    for i, atoms in blocks:
        split = splits.get(i, ((i, None),))
        moved = {a for _, c in split if c is not None for a in c}
        rest = tuple(a for a in atoms if a not in moved)
        group = sorted(((j, rest if c is None else c) for j, c in split), key=lambda jc: jc[1][0])
        after += group
        classes.append(tuple(c for _, c in group))
    return after, tuple(classes)


def engine_rounds(space: Space, portfolios, blocks) -> list:
    """``effectivity._refine``'s rounds from a partition of the carrier into
    unions of atoms, each with its classes as states and its ``class_of``,
    read after the engine has finished: the form of ``refine_oracle``.
    Checks each round's ``block_of``, atom by atom, against the blocks its
    splits give."""
    start = space.atom_map(Space(space.carrier, blocks))
    parts = start_blocks(start)
    rounds = []
    for class_of, splits, block_of in _refine(space, portfolios, start):
        parts, classes = whole_round(parts, splits)
        expected = [None] * len(block_of)
        for i, atoms in parts:
            for a in atoms:
                expected[a] = i
        assert block_of == expected
        states = tuple(tuple(atom_states(space, c) for c in group) for group in classes)
        rounds.append((states, class_of))
    return rounds


class CertifyingRefiner(_Refiner):
    """The oracle for ``logical_equivalence``: the refiner that certifies
    every round to the fixed point (docs/derivations.md, section 12).  Each
    round goes through ``_Refiner._round``, so every split is backed by a
    synthesized, evaluator-confirmed formula that cuts no class of its
    round; ``witnesses`` keeps each as ((s, t), (formula, extension,
    satisfier)) for the pair of class representatives it separates, in
    state names.  ``separate`` is the oracle for ``distinguish``."""

    def __init__(self, p: EffFn):
        super().__init__(p)
        self.witnesses: list[tuple] = []

    def separate(self, s: str, t: str) -> DistinguishResult:
        """``_Refiner.separate`` with no round waiting: ``_round`` runs on
        every round the pair stays together in, the fixed point's included,
        before the next round is read."""
        space = self.p.space
        a, b = space.atom_of(s), space.atom_of(t)
        for class_of, splits, _ in _refine(space, (self.p,), [0] * len(space.atoms)):
            classes = [m for group in self._classes(splits) for _, m in group]
            if not any(m >> a & m >> b & 1 for m in classes):
                formula, _, satisfier = self._confirmed(a, b, class_of)
                satisfier = s if satisfier == a else t
                return DistinguishResult(equivalent=False, formula=formula, satisfied_by=satisfier)
            self._round(class_of, splits)
        return DistinguishResult(equivalent=True)

    def run(self) -> tuple[list[tuple[str, ...]], list[tuple]]:
        """The final blocks, in the engine's order, as states, and the
        up-set records."""
        space = self.p.space
        for class_of, splits, _ in _refine(space, (self.p,), [0] * len(space.atoms)):
            pairs = [
                (atom_states(space, left)[0], atom_states(space, right)[0])
                for group in self._classes(splits)
                for (_, left), (_, right) in itertools.combinations(group, 2)
            ]
            self.witnesses += [
                (pair, (formula, frozenset(atom_states(space, ext)), space.atoms[satisfier][0]))
                for pair, (formula, ext, satisfier) in zip(pairs, self._round(class_of, splits))
            ]
        return [atom_states(space, m) for _, m in self.parts], self.upsets


def certified_partition(p: EffFn) -> set[frozenset[str]]:
    """The blocks of ``CertifyingRefiner``'s fixed point, as a set."""
    return set(map(frozenset, CertifyingRefiner(p).run()[0]))


class FamilyRefiner(CertifyingRefiner):
    """The refiner before up-sets: it keeps the intersection closure of
    every confirmed extension, each with the formula that first named it,
    and ``_test`` scans the whole closure by size, then carrier indices.
    Synthesis, confirmation and the cut check are inherited."""

    def __init__(self, p: EffFn):
        super().__init__(p)
        self.index = {s: i for i, s in enumerate(p.space.carrier)}
        top = frozenset(p.space.carrier)
        self.family: dict[frozenset[str], StateFormula] = {top: Top()}
        self.order: list[frozenset[str]] = [top]
        self.keys: list[tuple] = [self._ext_key(top)]

    def _ext_key(self, ext: frozenset[str]) -> tuple:
        return (len(ext), sorted(map(self.index.__getitem__, ext)))

    def _add(self, formula: StateFormula, ext: frozenset[str]) -> None:
        if ext in self.family:
            return
        old = list(self.family.items())
        self._insert(ext, formula)
        for e, f in old:
            meet = e & ext
            if meet not in self.family:
                self._insert(meet, And(f, formula))

    def _insert(self, ext: frozenset[str], formula: StateFormula) -> None:
        key = self._ext_key(ext)
        at = bisect(self.keys, key)
        self.keys.insert(at, key)
        self.order.insert(at, ext)
        self.family[ext] = formula

    def _round(self, class_of, splits) -> list:
        fresh = super()._round(class_of, splits)
        for formula, ext, _ in fresh:
            self._add(formula, frozenset(atom_states(self.p.space, ext)))
        return fresh

    def _test(self, mu: SubProb, nu: SubProb) -> Threshold:
        for ext in self.order:
            phi = self.family[ext]
            a = Fraction(self.ev.numerator(nu, phi), nu.den)
            b = Fraction(self.ev.numerator(mu, phi), mu.den)
            if a != b:
                return Threshold(phi, "<" if a < b else ">", (a + b) / 2)
        raise InternalInvariantViolation(
            "measures disagree on the partition but on no family extension"
        )
