"""Finitary upper-closed families of measure sets.

An upper-closed family over the measurable sets of measures is stored by a
finite antichain of generators: finite measure sets ``G`` such that a set
``A`` belongs to the family iff ``G`` is contained in ``A`` for some
generator ``G``.  Equivalently, the family is the union of the principal
filters of its generators.  The antichain form (no generator contains
another) is a canonical representative: two finitary families coincide iff
their antichains are equal.

Degenerate encodings are fixed so that duality is a total involution: no
generators at all encodes the empty family, and a single empty generator
encodes the full family (the empty set is contained in everything).

A measure set holds its members twice: as a tuple sorted by mass vector
(and generators sort by their member tuples), which every iteration,
ordering and emission uses so that output does not depend on hashing (a
frozenset's iteration order changes with ``PYTHONHASHSEED``), and as a
frozenset, which answers containment and subset tests without rehashing
the measures.  One routine, ``_minimal``,
keeps the minimal members of a family of sets; the ``UpperSet``
constructor, ``dual`` and the refinement engine's signatures all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import SpaceMismatchError
from .measure import SubProb, _mass_order
from .space import Space

__all__ = [
    "MeasureSet",
    "UpperSet",
    "filter_of",
    "contains",
    "union",
    "intersect",
    "dual",
    "equals",
]


@dataclass(frozen=True)
class MeasureSet:
    """A finite, canonically ordered set of measures on one space."""

    space: Space
    members: tuple[SubProb, ...]
    member_set: frozenset[SubProb] = field(repr=False, compare=False)

    def __init__(self, space: Space, members: Iterable[SubProb]):
        unique = frozenset(members)
        for mu in unique:
            if mu.space != space:
                raise SpaceMismatchError("measure set members must share one space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", tuple(sorted(unique, key=_mass_order(unique))))
        object.__setattr__(self, "member_set", unique)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mu: SubProb) -> bool:
        return mu in self.member_set

    def issubset(self, other: "MeasureSet") -> bool:
        return self.member_set <= other.member_set

    def union(self, other: "MeasureSet") -> "MeasureSet":
        return MeasureSet(self.space, self.members + other.members)

    def __repr__(self) -> str:
        return f"MeasureSet({list(self.members)!r})"


def _minimal(family: Iterable) -> list:
    """The minimal members of a finite family of sets (frozensets or measure
    sets), smallest first and otherwise in input order; a duplicate is
    dropped as soon as it contains its kept copy."""
    kept = []
    for a in sorted(family, key=len):
        if not any(b.issubset(a) for b in kept):
            kept.append(a)
    return kept


@dataclass(frozen=True)
class UpperSet:
    """An upper-closed family in canonical antichain form.

    The constructor builds that form: duplicate generators are removed and any
    generator containing another is dropped (its filter is already covered).
    """

    space: Space
    generators: tuple[MeasureSet, ...]

    def __init__(self, space: Space, generators: Iterable[MeasureSet]):
        gens = list(generators)
        key = _mass_order(mu for g in gens for mu in g.members)
        gens.sort(key=lambda g: tuple(map(key, g.members)))
        for g in gens:
            if g.space != space:
                raise SpaceMismatchError("generators must live on the carrier space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", tuple(_minimal(gens)))

    @staticmethod
    def empty(space: Space) -> "UpperSet":
        """The empty family: nothing is effective."""
        return UpperSet(space, ())

    @staticmethod
    def full(space: Space) -> "UpperSet":
        """The full family: everything is effective (one empty generator)."""
        return UpperSet(space, (MeasureSet(space, ()),))

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @property
    def is_full(self) -> bool:
        return len(self.generators) == 1 and len(self.generators[0]) == 0

    @property
    def is_principal(self) -> bool:
        """True if the family is a single principal filter."""
        return len(self.generators) == 1

    def __repr__(self) -> str:
        if self.is_empty:
            return "UpperSet(empty)"
        if self.is_full:
            return "UpperSet(full)"
        return f"UpperSet({[list(g.members) for g in self.generators]!r})"


def filter_of(w: MeasureSet) -> UpperSet:
    """Principal filter of a measure set: all supersets of ``w``."""
    return UpperSet(w.space, (w,))


def contains(u: UpperSet, a: MeasureSet) -> bool:
    """Membership of a measure set in the represented family."""
    if a.space != u.space:
        raise SpaceMismatchError("membership test across different spaces")
    return any(g.issubset(a) for g in u.generators)


def union(u: UpperSet, v: UpperSet) -> UpperSet:
    if u.space != v.space:
        raise SpaceMismatchError("union across different spaces")
    return UpperSet(u.space, u.generators + v.generators)


def intersect(u: UpperSet, v: UpperSet) -> UpperSet:
    """Pointwise intersection: ``A`` lies in both families iff some union of
    one generator from each side is contained in ``A``."""
    if u.space != v.space:
        raise SpaceMismatchError("intersection across different spaces")
    return UpperSet(
        u.space,
        (g.union(h) for g in u.generators for h in v.generators),
    )


def dual(u: UpperSet) -> UpperSet:
    """The complementary family: ``D`` is in the dual iff the complement of
    ``D`` is not in ``u``.

    A set misses the complement of ``D`` for every generator iff ``D`` hits
    every generator, so the dual is generated by the minimal hitting sets of
    the generators (equivalently, the minimal ranges of choice functions
    picking one member per generator).  They are accumulated generator by
    generator, pruning dominated candidates along the way to keep the
    choice-function blow-up in check.
    """
    partial: list[frozenset[SubProb]] = [frozenset()]
    for g in u.generators:
        grown: list[frozenset[SubProb]] = []
        for h in partial:
            if h & g.member_set:
                grown.append(h)
            else:
                grown.extend(h | {m} for m in g.members)
        partial = _minimal(grown)
    return UpperSet(u.space, (MeasureSet(u.space, h) for h in partial))


def equals(u: UpperSet, v: UpperSet) -> bool:
    """Canonical antichain equality; sound and complete for the families."""
    if u.space != v.space:
        raise SpaceMismatchError("equality test across different spaces")
    return u.generators == v.generators
