"""Finitary stochastic effectivity functions.

An effectivity function assigns each state an upper-closed family of measure
sets, Angel's portfolio.  Only finitary portfolios (finite unions of
principal filters of finite measure sets) are representable.  One is
t-measurable exactly when it is constant on each atom of its space, and the
constructor refuses any other (docs/derivations.md, section 4); it holds
one family per atom, and the operations here work per atom (section 9).  A
portfolio is finitely supported when every state has exactly one generator.

All quantifications over the (infinite) represented families reduce to their
finite generator antichains; the reductions are spelled out per operation.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ForeignStateError, NotACongruenceError, NotSurjectiveError, SpaceMismatchError
from .measure import SubProb, _coarsening, _collect, unique_preimages
from .record import Record
from .space import (
    DirectSum,
    MeasurableMap,
    Relation,
    Space,
    _constant_on_atoms,
    direct_sum as space_sum,
    sigma_r,
)
from .upperset import MeasureSet, UpperSet, dual, equals

__all__ = [
    "EffFn",
    "is_ef_state_bisim",
    "greatest_ef_bisim",
    "is_ef_morphism",
    "is_strong_morphism",
    "quotient",
    "quotient_space",
    "is_subsystem",
    "dual_ef",
    "sum_ef",
    "from_markov_kernel",
    "push_upperset",
    "restrict_upperset",
]


class EffFn(Record):
    """Upper-closed families given per state, constant on each atom, held per atom."""

    space: Space
    portfolio: tuple[UpperSet, ...]

    def __init__(self, space: Space, portfolio: Mapping[str, UpperSet | Iterable[MeasureSet]]):
        table: dict[str, UpperSet] = {}
        for state, value in portfolio.items():
            space.index(state)
            u = value if isinstance(value, UpperSet) else UpperSet(space, value)
            if u.space != space:
                raise SpaceMismatchError("portfolio values must live on the carrier space")
            table[state] = u
        missing = [s for s in space.carrier if s not in table]
        if missing:
            raise ForeignStateError(f"portfolio missing states {missing}")
        self._store(space, _constant_on_atoms(space, table, "portfolios"))

    def __call__(self, state: str) -> UpperSet:
        return self.portfolio[self.space.atom_of(state)]

    @property
    def is_finitely_supported(self) -> bool:
        return all(u.is_principal for u in self.portfolio)


def _key(den: int, atoms: Sequence[int], nums: Sequence[int], block_of: Sequence[int]) -> tuple:
    """A measure's mass vector summed per block, from its support (``den``,
    ``atoms``, ``nums``) and a block id per atom: the reduced denominator,
    then the (block id, reduced numerator) pairs in block id order.  Equal
    keys are exactly equal restricted vectors."""
    if len(atoms) == 1:
        g = gcd(den, nums[0])
        return den // g, (block_of[atoms[0]], nums[0] // g)
    vec: dict[int, int] = {}
    for a, n in zip(atoms, nums):
        b = block_of[a]
        vec[b] = vec.get(b, 0) + n
    g = gcd(den, *vec.values())
    return den // g, *sorted([(b, n // g) for b, n in vec.items()])


def _signature(families: Sequence[Sequence[tuple[int, ...]]], cid: Sequence[int]) -> tuple:
    """An atom's signature from its generators, per portfolio, as measure
    numbers and the class id ``cid`` of each measure: per portfolio, the
    minimal antichain of the generators' class-id sets."""
    signature = []
    for gens in families:
        sets = {frozenset([cid[m] for m in g]) for g in gens}
        if len(sets) > 1:
            sets = [s for s in sets if not any(t < s for t in sets)]
        signature.append(frozenset(sets))
    return tuple(signature)


# A block's classes in a round: (block id, atoms) pairs, the class that
# keeps the block's id listing None for its atoms.
Split = tuple[tuple[int, "tuple[int, ...] | None"], ...]


def _refine(space: Space, portfolios: Sequence[EffFn], block_of: Sequence[int]) -> Iterator[
    tuple[Callable[[SubProb], int], dict[int, Split], list[int]]
]:
    """Split-driven signature refinement of a partition of the atoms of
    ``space``, given by a block id per atom (``Space.atom_map``'s form),
    against portfolios on it (a kernel enters as its ``filter_generate``).

    The engine works on atoms only: a portfolio is constant on each atom,
    so an atom's states share one signature, and every round's blocks are
    unions of atoms (docs/derivations.md, sections 6 and 7).  A measure's
    class id stands for its mass vector summed per block (``_key``), and an
    atom's signature is, per portfolio, the minimal antichain of its
    generators' class-id sets (``_signature``); equal signatures are
    exactly the two-sided generator transfer.  Each round splits every
    block into its signature classes, and the rounds stop after the first
    that splits no block.

    Blocks, class ids and signatures persist across rounds.  A block keeps
    its id until it splits; then its first largest class keeps it and the
    others get new ones.  The first round keys every measure and signs
    every atom.  A later round re-keys only the measures whose support
    meets an atom that moved to a new block id, re-signs only the atoms
    holding a measure whose class id changed, and regroups only those atoms
    of their blocks; the other atoms of a block keep the signature they
    share.  An atom moves only into a class at most half its block's size,
    so at most log2 of the atoms times (section 7).

    Each round yields three things:

    * ``class_of``, the class id of a measure in that round; it keeps
      answering for its round after the engine moves on;
    * the round's splits: per id of a block that split, its classes as a
      ``Split``: first the atoms not re-signed, if any, then the re-signed
      groups in the order of their least atoms.  The class keeping the
      block's id lists None, as its atoms are the block's outside the other
      classes, which may be many;
    * ``block_of``, the block id per atom after the round: the engine's own
      list, valid until the engine moves on."""
    number: dict[SubProb, int] = {}  # in order of first use
    families = [
        tuple([[tuple([number.setdefault(mu, len(number)) for mu in g]) for g in p.portfolio[a]]
               for p in portfolios])
        for a in range(len(block_of))
    ]
    measures = list(number)
    block_of = list(block_of)
    members: dict[int, list[int]] = {}  # per block, increasing: its atoms and atoms that left
    for a, b in enumerate(block_of):
        members.setdefault(b, []).append(a)
    vectors: dict[tuple, int] = {}  # key -> class id, never reset
    if len(members) == 1:  # one block: a measure's vector is its total mass there
        supports = [(mu.den, mu.atoms[:1], (sum(mu.nums),)) for mu in measures]
    else:
        supports = [(mu.den, mu.atoms, mu.nums) for mu in measures]
    cid = [vectors.setdefault(_key(*support, block_of), len(vectors)) for support in supports]
    size = {b: len(atoms) for b, atoms in members.items()}
    shared: dict[int, tuple] = {}  # per block, the signature its atoms share
    fresh = max(members, default=-1) + 1
    signing = dict(members)  # per block, the atoms to sign this round, increasing
    log: list = [None]  # [the next round's (old class ids, log)], once it runs
    measures_of = atoms_of = None  # the indices, built for a second round

    while True:
        splits: dict[int, Split] = {}
        moved: list[int] = []
        for x, signed in signing.items():
            groups: dict[tuple, list[int]] = {}
            for a in signed:
                groups.setdefault(_signature(families[a], cid), []).append(a)
            keep = groups.pop(shared.get(x), [])  # re-signed to the shared signature
            stay = size[x] - len(signed) + len(keep)
            if not groups or not stay and len(groups) == 1:
                if groups:  # every atom re-signed to one new signature
                    shared[x] = next(iter(groups))
                continue
            classes = [(stay, shared[x], None)] if stay else []
            classes += [(len(g), s, g) for s, g in groups.items()]
            kept = max(classes, key=itemgetter(0))  # the first largest
            if stay and kept[2] is not None:  # the atoms that stay move out too
                gone = {a for g in groups.values() for a in g}
                rest = [a for a in members[x] if block_of[a] == x and a not in gone]
                classes[0] = (stay, shared[x], rest)
            split = []
            for c in classes:
                n, s, atoms = c
                i = x
                if c is not kept:
                    i, fresh = fresh, fresh + 1
                    moved.extend(atoms)
                    for a in atoms:
                        block_of[a] = i
                if atoms is not None:
                    members[i] = atoms
                size[i], shared[i] = n, s
                split.append((i, None if c is kept else tuple(atoms)))
            splits[x] = tuple(split)

        def class_of(mu: SubProb, log=log) -> int:
            m = number[mu]
            while log[0] is not None:
                old, log = log[0]
                if m in old:
                    return old[m]
            return cid[m]

        yield class_of, splits, block_of
        if not splits:
            return
        if measures_of is None:
            measures_of = [[] for _ in block_of]
            for m, mu in enumerate(measures):
                for a in mu.atoms:
                    measures_of[a].append(m)
            atoms_of = [set() for _ in measures]
            for a, family in enumerate(families):
                for gens in family:
                    for g in gens:
                        for m in g:
                            atoms_of[m].add(a)
        old: dict[int, int] = {}
        for m in {m for a in moved for m in measures_of[a]}:
            mu = measures[m]
            c = vectors.setdefault(_key(mu.den, mu.atoms, mu.nums, block_of), len(vectors))
            if c != cid[m]:
                old[m], cid[m] = cid[m], c
        log[0] = old, [None]
        log = log[0][1]
        signing = {}
        for a in sorted({a for m in old for a in atoms_of[m]}):
            signing.setdefault(block_of[a], []).append(a)


def _greatest_bisim(space: Space, portfolios: Sequence[EffFn]) -> Relation:
    for _, _, block_of in _refine(space, portfolios, [0] * len(space.atoms)):
        pass
    blocks: dict[int, list[str]] = {}
    for a, b in enumerate(block_of):
        blocks.setdefault(b, []).extend(space.atoms[a])
    return Relation.from_partition(space, blocks.values())


def _stable(space: Space, portfolios: Sequence[EffFn], coarser: Space) -> bool:
    """Whether one refinement round splits no atom of a coarser space, the
    question of every stability test (docs/derivations.md, sections 6 and 7)."""
    return not next(_refine(space, portfolios, _coarsening(space, coarser)))[1]


def _is_bisim(space: Space, portfolios: Sequence[EffFn], rel: Relation) -> bool:
    """Whether no block of ``sigma_r(rel)``, which refuses a relation that is
    not symmetric, splits: its blocks connect the related pairs, so that is
    equal signatures on every related pair (docs/derivations.md, section 7)."""
    if rel.base != space:
        raise ForeignStateError("relation must be over the model's space")
    return _stable(space, portfolios, sigma_r(rel))


def is_ef_state_bisim(p: EffFn, rel: Relation) -> bool:
    """State bisimulation test for a relation on a portfolio; one that is
    not symmetric raises ``NonSymmetricRelationError``."""
    return _is_bisim(p.space, (p,), rel)


def greatest_ef_bisim(p: EffFn) -> Relation:
    """Greatest state bisimulation of a portfolio (an equivalence).

    Signature refinement from the one-block partition: each round splits
    every block by the states' minimal antichains of generator class ids
    (docs/derivations.md, sections 6 and 7).
    """
    return _greatest_bisim(p.space, (p,))


def _moved(u: Iterable[MeasureSet], space: Space, into: Sequence[int]) -> list[MeasureSet]:
    """A family's generators moved onto ``space`` measure by measure, the
    mass of atom ``i`` going to atom ``into[i]`` of ``space``."""
    return [MeasureSet(space, [_collect(space, into, mu) for mu in g]) for g in u]


def push_upperset(f: MeasurableMap, u: UpperSet) -> UpperSet:
    """Image family on the codomain: generated by the pushforward images of
    the generators.  A set belongs to the image family iff its pushforward
    preimage belongs to ``u``."""
    if u.space != f.domain:
        raise SpaceMismatchError("measure does not live on the map's domain")
    return UpperSet(f.codomain, _moved(u, f.codomain, f.atom_map))


def restrict_upperset(u: UpperSet, coarser: Space) -> UpperSet:
    """Family of restrictions to a coarser sigma-algebra on the carrier."""
    return UpperSet(coarser, _moved(u, coarser, _coarsening(u.space, coarser)))


def _first_unmatched(f: MeasurableMap, p: EffFn, q: EffFn) -> str | None:
    """The least state of the first atom whose image family differs from the
    target's where ``f`` sends it, or None when ``f`` is a portfolio morphism."""
    for block, u, b in zip(p.space.atoms, p.portfolio, f.atom_map):
        if not equals(q.portfolio[b], push_upperset(f, u)):
            return block[0]
    return None


def is_ef_morphism(f: MeasurableMap, p: EffFn, q: EffFn) -> bool:
    """Whether ``f`` is a portfolio morphism: the target portfolio at
    ``f(s)`` is exactly the image family of the portfolio at ``s``."""
    if f.domain != p.space or f.codomain != q.space:
        raise SpaceMismatchError("map endpoints must match the portfolio spaces")
    return _first_unmatched(f, p, q) is None


def _preimage_set(f: MeasurableMap, h: MeasureSet) -> MeasureSet | None:
    """Full pushforward preimage of a finite measure set, or None if it is
    infinite."""
    members: list[SubProb] = []
    for nu in h:
        sols = unique_preimages(f, nu)
        if sols is None:
            return None
        members.extend(sols)
    return MeasureSet(f.domain, members)


def is_strong_morphism(f: MeasurableMap, p: EffFn, q: EffFn) -> bool:
    """Whether ``f`` is a strong morphism: it is onto, and each source
    portfolio is the upper family generated by the pushforward preimages of
    the target generators.

    Decided in two directions on generators: every target generator pulls
    back over some source generator (its preimage contains one), and every
    source generator contains the full preimage of some target generator.
    The latter needs the preimage to be finite, which holds exactly when
    positive mass only sits on atoms with singleton preimages.
    """
    if f.domain != p.space or f.codomain != q.space:
        raise SpaceMismatchError("map endpoints must match the portfolio spaces")
    if not f.is_surjective:
        raise NotSurjectiveError("a strong morphism must be surjective")
    return _mutually_dominate(f, p, q)


def _mutually_dominate(f: MeasurableMap, p: EffFn, q: EffFn) -> bool:
    """The generator test of ``is_strong_morphism`` without surjectivity; on
    principal filters, the kernel-morphism test (docs/derivations.md, section 9)."""
    for source, b in zip(p.portfolio, f.atom_map):
        target = q.portfolio[b]
        pushed = _moved(source, f.codomain, f.atom_map)
        if not all(any(image.issubset(h) for image in pushed) for h in target):
            return False
        preimages = [_preimage_set(f, h) for h in target]
        for g in source:
            if not any(pre is not None and pre.issubset(g) for pre in preimages):
                return False
    return True


def quotient_space(space: Space, alpha: Relation) -> tuple[Space, MeasurableMap]:
    """Quotient of a space by an equivalence, with the factor map.

    Classes are named after their least representative.  The quotient
    carries the finest sigma-algebra making the factor map measurable:
    classes are merged into one quotient atom whenever they overlap a common
    base atom, which makes the quotient atoms the images of the atoms of
    ``sigma_r(alpha)``.
    """
    if alpha.base != space:
        raise ForeignStateError("equivalence must be over the given space")
    classes = alpha.classes()
    name_of = {s: cls[0] for cls in classes for s in cls}
    carrier = tuple(cls[0] for cls in classes)
    qspace = Space(carrier, ({name_of[s] for s in block} for block in sigma_r(alpha).atoms))
    eta = MeasurableMap(space, qspace, {s: name_of[s] for s in space.carrier})
    return qspace, eta


def quotient(p: EffFn, alpha: Relation) -> tuple[EffFn, MeasurableMap]:
    """Quotient portfolio by a congruence, with the factor map.

    The candidate portfolio of a class is the image family of any
    representative; the equivalence is a congruence iff all representatives
    of every class agree, in which case the factor map is a portfolio
    morphism onto the result.  Each atom's family is pushed once.
    """
    qspace, eta = quotient_space(p.space, alpha)
    pushed = [push_upperset(eta, u) for u in p.portfolio]
    table: dict[str, UpperSet] = {}
    witness_of: dict[str, str] = {}
    for s in p.space.carrier:
        cls = eta(s)
        candidate = pushed[p.space.atom_of(s)]
        if cls not in table:
            table[cls] = candidate
            witness_of[cls] = s
        elif not equals(table[cls], candidate):
            raise NotACongruenceError(
                f"representatives {witness_of[cls]!r} and {s!r} of class {cls!r} "
                "induce different quotient portfolios",
                witness=(witness_of[cls], s),
            )
    return EffFn(qspace, table), eta


def is_subsystem(p: EffFn, coarser: Space) -> bool:
    """Whether a coarser sigma-algebra on the carrier cuts out a subsystem:
    the portfolio restricted to the coarser space must be constant on each
    coarser atom, which is the finite form of t-measurability of the
    restricted portfolio.  It holds iff one refinement round splits no
    coarser atom: they are their own atom closure, and equal signatures
    are equal restricted antichains (docs/derivations.md, section 6).  A
    non-coarsening raises ``IncompatiblePartitionError``."""
    return _stable(p.space, (p,), coarser)


def dual_ef(p: EffFn) -> EffFn:
    """Pointwise dual portfolio (Demon's view), one dual per atom."""
    return EffFn._of(p.space, tuple(map(dual, p.portfolio)))


def sum_ef(p: EffFn, q: EffFn) -> tuple[EffFn, DirectSum]:
    """Piecewise sum portfolio on the tagged sum space, with measures
    embedded by zero extension.  The sum space lists the atoms of ``p``,
    then those of ``q``, so each side's families are pushed once per atom."""
    ds = space_sum(p.space, q.space)
    left = [push_upperset(ds.left, u) for u in p.portfolio]
    right = [push_upperset(ds.right, u) for u in q.portfolio]
    return EffFn._of(ds.space, (*left, *right)), ds


def from_markov_kernel(space: Space, k: Mapping[str, SubProb]) -> EffFn:
    """Portfolio of a deterministic stochastic relation: each state gets the
    principal ultrafilter of its single successor measure."""
    return EffFn(
        space,
        {s: UpperSet(space, (MeasureSet(space, (k[s],)),)) for s in space.carrier},
    )
