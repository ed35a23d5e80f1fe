"""Shared test machinery: seeded random model generators and the
independent brute-force oracles used to freeze expected values."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from random import Random

from effkit import (
    EffFn,
    Kernel,
    MeasurableMap,
    MeasureSet,
    NotMeasurableSetError,
    Relation,
    Space,
    SpaceMismatchError,
    SubProb,
    UpperSet,
    contains,
    restrict,
    sigma_r,
    unique_preimages,
)
from effkit.logic import (
    And,
    Box,
    Diamond,
    MAnd,
    MOr,
    StateFormula,
    Threshold,
    Top,
)

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
    return SubProb(space, masses)


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


def rand_kernel(rng: Random, space, max_measures=3, max_den=8) -> Kernel:
    return Kernel(
        space,
        {
            s: rand_measure_set(rng, space, 0, max_measures, max_den)
            for s in space.carrier
        },
    )


def rand_ef(rng: Random, space, max_gens=3, max_measures=3, max_den=8) -> EffFn:
    portfolio = {}
    for s in space.carrier:
        n_gens = rng.randint(0, max_gens)
        gens = [
            rand_measure_set(rng, space, 1, max_measures, max_den)
            for _ in range(n_gens)
        ]
        if n_gens and rng.random() < 0.05:
            gens[0] = MeasureSet(space, ())  # occasional full family
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
    """Randomly add, drop, or replace one measure of one state."""
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
    image[state] = MeasureSet(k.space, members)
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
        if all(t in sset for (s, t) in rel.pairs if s in sset):
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
    """Mass vector of ``SubProb(space, masses)``, one Fraction per entry,
    raising the constructor's errors with its messages."""
    vec = []
    for m in masses:
        q = Fraction(m)
        if q < 0:
            raise SpaceMismatchError(f"negative mass {m!r}")
        vec.append(q)
    if len(vec) != len(space.atoms):
        raise SpaceMismatchError(f"expected {len(space.atoms)} atom masses, got {len(vec)}")
    if sum(vec) > 1:
        raise SpaceMismatchError(f"total mass exceeds 1: {sum(vec)}")
    return tuple(vec)


def evaluate_oracle(mu: SubProb, states) -> Fraction:
    idx = mu.space.atoms_of_set(states)
    if idx is None:
        raise NotMeasurableSetError("not a union of atoms")
    return sum((mu.mass[i] for i in idx), Fraction(0))


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


def upperset_order_oracle(generators) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Generator order of the UpperSet of ``generators``: the minimal
    distinct ones, by size and then by their members' mass vectors."""
    keys = {tuple(sorted(mu.mass for mu in g.members)) for g in generators}
    kept = minimal_oracle({frozenset(k) for k in keys})
    return sorted(
        (k for k in keys if frozenset(k) in kept), key=lambda k: (len(k), k)
    )


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
        {mu for _, u in p.portfolio for g in u.generators for mu in g},
        key=lambda m: m.sort_key(),
    )
    subsets = [
        MeasureSet(p.space, combo)
        for r in range(len(pool) + 1)
        for combo in itertools.combinations(pool, r)
    ]
    for s, t in rel.pairs:
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
        return [restrict(mu, quotient).mass for mu in ms]

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
    return all(holds(s, t) for s, t in rel.pairs)


def pairwise_bisim_oracle(system) -> Relation:
    """Greatest bisimulation of a kernel, labelled process or portfolio by
    pair pruning: from the full relation, keep the pairs passing the
    two-sided transfer against the current relation until nothing changes."""
    space = system.space
    rel = Relation.full(space)
    while True:
        holds = _transfer_test(system, sigma_r(rel))
        refined = Relation(space, [(s, t) for s, t in rel.pairs if holds(s, t) and holds(t, s)])
        if refined == rel:
            return rel
        rel = refined


# Canonical JSON emission as the standard library writes it.


def dumps_oracle(doc) -> str:
    """The bytes ``dumps_canonical`` must write for ``doc``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
