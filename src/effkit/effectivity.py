"""Finitary stochastic effectivity functions.

An effectivity function assigns each state an upper-closed family of measure
sets, Angel's portfolio.  Only finitary portfolios (finite unions of
principal filters of finite measure sets) are representable.  One is
t-measurable exactly when it is constant on each atom of its space, and the
constructor refuses any other (docs/derivations.md, section 4).  A portfolio
is finitely supported when every state has exactly one generator.

All quantifications over the (infinite) represented families reduce to their
finite generator antichains; the reductions are spelled out per operation.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ForeignStateError,
    IncompatiblePartitionError,
    NotACongruenceError,
    NotSurjectiveError,
    SpaceMismatchError,
)
from .measure import SubProb, _coarsening, _collect, pushforward, unique_preimages
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
from .upperset import MeasureSet, UpperSet, _minimal, dual, equals

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
    """A per-state portfolio of upper-closed families, constant on each atom."""

    space: Space
    portfolio: tuple[tuple[str, UpperSet], ...]

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
        families = [table[s] for s in space.carrier]
        _constant_on_atoms(space, families, "portfolios")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "portfolio", tuple(zip(space.carrier, families)))

    def __call__(self, state: str) -> UpperSet:
        return self.portfolio[self.space.index(state)][1]

    @property
    def is_finitely_supported(self) -> bool:
        return all(u.is_principal for _, u in self.portfolio)


def _refine(
    space: Space, portfolios: Sequence[EffFn], blocks: Iterable[tuple[str, ...]]
) -> Iterator[tuple[Callable[[SubProb], int], tuple[tuple[tuple[str, ...], ...], ...]]]:
    """Signature refinement of a partition of ``space`` into unions of atoms
    against portfolios on it (a kernel enters as its ``filter_generate``).

    A portfolio is constant on each atom, so an atom's states share one
    signature, and every round's blocks are unions of atoms
    (docs/derivations.md, sections 6 and 7).  Each round interns every
    measure's mass vector, its numerators summed per block (looked up per
    atom) over its denominator and reduced, to a class id.  A signature is,
    per portfolio, the minimal antichain of the generators' class-id sets,
    as masks; equal signatures are exactly the two-sided generator
    transfer.  Every round yields the class id of a measure and, per block,
    its signature classes, the next round's blocks; the rounds stop after
    the first that splits no block."""
    atom_of = space._atom_index
    number: dict[SubProb, int] = {}  # in order of first use
    generators = [
        [
            [tuple([number.setdefault(mu, len(number)) for mu in g]) for g in p(block[0])]
            for block in space.atoms
        ]
        for p in portfolios
    ]
    blocks = tuple(blocks)
    while True:
        block_of = {atom_of[s]: b for b, block in enumerate(blocks) for s in block}
        vectors: dict[tuple, int] = {}
        cid = []
        for mu in number:
            vec: dict[int, int] = {}
            for a, n in zip(mu.atoms, mu.nums):
                vec[block_of[a]] = vec.get(block_of[a], 0) + n
            g = gcd(mu.den, *vec.values())
            key = (mu.den // g, *sorted((b, n // g) for b, n in vec.items()))
            cid.append(vectors.setdefault(key, len(vectors)))
        bit = [1 << c for c in cid]
        signature = [
            tuple(
                frozenset(_minimal([reduce(or_, [bit[m] for m in g], 0) for g in gens[a]]))
                for gens in generators
            )
            for a in range(len(space.atoms))
        ]
        classes = []
        for block in blocks:
            groups: dict[tuple, list[str]] = {}
            for s in block:
                groups.setdefault(signature[atom_of[s]], []).append(s)
            classes.append(tuple(map(tuple, groups.values())))

        def class_of(mu: SubProb, cid=cid) -> int:
            return cid[number[mu]]

        yield class_of, tuple(classes)
        split = tuple(c for group in classes for c in group)
        if len(split) == len(blocks):
            return
        blocks = split


def _greatest_bisim(space: Space, portfolios: Sequence[EffFn]) -> Relation:
    for _, classes in _refine(space, portfolios, (space.carrier,)):
        pass
    return Relation.from_partition(space, (c for group in classes for c in group))


def _is_bisim(portfolios: Sequence[EffFn], rel: Relation) -> bool:
    """One round under ``sigma_r(rel)``: a pair of the symmetric relation
    passes the transfer test iff its two signatures are equal."""
    _, classes = next(_refine(rel.base, portfolios, sigma_r(rel).atoms))
    number = {s: i for i, c in enumerate(c for group in classes for c in group) for s in c}
    return all(len({number[s] for s in (*h, *ts)}) == 1 for ts, h in rel._holders.items() if ts)


def is_ef_state_bisim(p: EffFn, rel: Relation) -> bool:
    """State bisimulation test for a symmetric relation on a portfolio."""
    if rel.base != p.space:
        raise ForeignStateError("relation must be over the portfolio's space")
    return _is_bisim((p,), rel)  # sigma_r rejects non-symmetric relations


def greatest_ef_bisim(p: EffFn) -> Relation:
    """Greatest state bisimulation of a portfolio (an equivalence).

    Signature refinement from the one-block partition: each round splits
    every block by the states' minimal antichains of generator class ids
    (docs/derivations.md, sections 6 and 7).
    """
    return _greatest_bisim(p.space, (p,))


def push_upperset(f: MeasurableMap, u: UpperSet) -> UpperSet:
    """Image family on the codomain: generated by the pushforward images of
    the generators.  A set belongs to the image family iff its pushforward
    preimage belongs to ``u``."""
    if u.space != f.domain:
        raise SpaceMismatchError("measure does not live on the map's domain")
    gens = (
        MeasureSet(f.codomain, (pushforward(f, mu) for mu in g))
        for g in u
    )
    return UpperSet(f.codomain, gens)


def restrict_upperset(u: UpperSet, coarser: Space) -> UpperSet:
    """Family of restrictions to a coarser sigma-algebra on the carrier."""
    into = _coarsening(u.space, coarser)
    gens = (
        MeasureSet(coarser, (_collect(coarser, into, mu) for mu in g))
        for g in u
    )
    return UpperSet(coarser, gens)


def _first_unmatched(f: MeasurableMap, p: EffFn, q: EffFn) -> str | None:
    """The first state ``s`` whose image family differs from the target
    portfolio at ``f(s)``, or None when ``f`` is a portfolio morphism."""
    return next((s for s in p.space.carrier if not equals(q(f(s)), push_upperset(f, p(s)))), None)


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
    for s in p.space.carrier:
        source, target = p(s), q(f(s))
        pushed = [MeasureSet(f.codomain, [pushforward(f, mu) for mu in g]) for g in source]
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
    if not alpha.is_equivalence:
        raise SpaceMismatchError("quotient requires an equivalence relation")
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
    morphism onto the result.
    """
    qspace, eta = quotient_space(p.space, alpha)
    table: dict[str, UpperSet] = {}
    witness_of: dict[str, str] = {}
    for s in p.space.carrier:
        cls = eta(s)
        candidate = push_upperset(eta, p(s))
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
    restricted portfolio.  One refinement round from the coarser atoms
    decides it: they are their own atom closure, and equal signatures are
    equal restricted antichains (docs/derivations.md, section 6)."""
    if not coarser.coarsens(p.space):
        raise IncompatiblePartitionError(
            "subsystem test needs a coarsening of the portfolio space's atoms"
        )
    _, classes = next(_refine(p.space, (p,), coarser.atoms))
    return all(len(group) == 1 for group in classes)


def dual_ef(p: EffFn) -> EffFn:
    """Pointwise dual portfolio (Demon's view)."""
    return EffFn(p.space, {s: dual(p(s)) for s in p.space.carrier})


def sum_ef(p: EffFn, q: EffFn) -> tuple[EffFn, DirectSum]:
    """Piecewise sum portfolio on the tagged sum space, with measures
    embedded by zero extension."""
    ds = space_sum(p.space, q.space)
    table: dict[str, UpperSet] = {}
    for s in p.space.carrier:
        table[ds.left(s)] = push_upperset(ds.left, p(s))
    for t in q.space.carrier:
        table[ds.right(t)] = push_upperset(ds.right, q(t))
    return EffFn(ds.space, table), ds


def from_markov_kernel(space: Space, k: Mapping[str, SubProb]) -> EffFn:
    """Portfolio of a deterministic stochastic relation: each state gets the
    principal ultrafilter of its single successor measure."""
    return EffFn(
        space,
        {s: UpperSet(space, (MeasureSet(space, (k[s],)),)) for s in space.carrier},
    )
