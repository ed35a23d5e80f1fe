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

A measure set holds its members as built, deduplicated and in arrival
order, beside ``mask``, an int with one bit per member at the member's id
on the set's space (``SubProb.ident``).  A set holds its members, so no
live mask names an id that a dead measure gave back, and a bit means one
measure wherever it is read.  Duplicates are dropped by bit, containment is
a bit test and ``A ⊆ B`` is ``A & ~B == 0``.  One routine, ``_minimal``,
keeps the minimal members of a family of masks in popcount order; the
``UpperSet`` constructor, ``dual`` (whose hitting sets are masks until the
end) and the refinement engine's signatures all use it.  Two antichains are
equal iff their sets of generator masks are.

Iteration, ``len`` and ``in`` read the sets as built.  The canonical order,
measures by mass vector and generators by size and then by their members,
is computed on first read of ``MeasureSet.members`` or
``UpperSet.generators`` and kept; only what must not depend on the order of
construction reads it: emission, formula synthesis, ``repr`` and pickling
(docs/derivations.md, sections 8 and 13).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Collection, Iterable

from .errors import SpaceMismatchError
from .measure import SubProb, _mass_order
from .record import Record
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


class MeasureSet(Record):
    """A finite set of measures on one space, kept as built beside its mask;
    ``members`` is its canonical order.  It pickles and copies by value, so
    its mask is rebuilt on the live space."""

    space: Space
    mask: int
    _kept: tuple[SubProb, ...]  # the members, deduplicated, in arrival order

    def __init__(self, space: Space, members: Iterable[SubProb]):
        mask = 0
        kept = []
        for mu in members:
            if mu.space is not space:
                raise SpaceMismatchError("measure set members must share one space")
            bit = 1 << mu.ident
            if not mask & bit:
                mask |= bit
                kept.append(mu)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_kept", tuple(kept))

    @cached_property
    def members(self) -> tuple[SubProb, ...]:
        """The members in mass-vector order, sorted on first read."""
        kept = self._kept
        if len(kept) < 2:
            return kept
        return tuple(sorted(kept, key=_mass_order(kept)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureSet):
            return NotImplemented
        return self.mask == other.mask and self.space is other.space

    def __hash__(self) -> int:
        return hash((self.space, self.mask))

    def __reduce__(self):
        return MeasureSet, (self.space, self.members)

    def __len__(self) -> int:
        return len(self._kept)

    def __iter__(self):
        return iter(self._kept)

    def __contains__(self, mu: SubProb) -> bool:
        return mu.space is self.space and bool(self.mask & 1 << mu.ident)

    def issubset(self, other: "MeasureSet") -> bool:
        """``self ⊆ other``; sets on different spaces are not compared."""
        if other.space is not self.space:
            raise SpaceMismatchError("subset test across different spaces")
        return self.mask & ~other.mask == 0

    def union(self, other: "MeasureSet") -> "MeasureSet":
        if other.space is not self.space:
            raise SpaceMismatchError("measure set members must share one space")
        return MeasureSet(self.space, self._kept + other._kept)

    def __repr__(self) -> str:
        return f"MeasureSet({list(self.members)!r})"


def _minimal(masks: Collection[int]) -> list[int]:
    """The minimal members of a finite family of sets held as masks, in
    popcount order and otherwise in input order; a duplicate is dropped as
    soon as it contains its kept copy.  A proper subset has fewer bits, so
    it is met, and kept or itself dominated, before any superset; and a
    kept set with as many bits is contained only if it is equal."""
    if len(masks) < 2:
        return list(masks)
    kept: list[int] = []
    fewer = 0  # how many kept masks have fewer bits than the current one
    size, same = -1, set()  # the current bit count, and the kept masks with it
    for a in sorted(masks, key=int.bit_count):
        if a.bit_count() != size:
            fewer, size, same = len(kept), a.bit_count(), set()
        if a in same:
            continue
        for b in islice(kept, fewer):
            if b & ~a == 0:
                break
        else:
            kept.append(a)
            same.add(a)
    return kept


class UpperSet(Record):
    """An upper-closed family in canonical antichain form.

    The constructor builds that form: duplicate generators are removed and any
    generator containing another is dropped (its filter is already covered).
    The family iterates its generators as built; ``generators`` is their
    canonical order.  Families compare and hash by their sets of generator
    masks, and pickle and copy by value, so no mask outlives its space.
    """

    space: Space
    _kept: tuple[MeasureSet, ...]  # the minimal generators, as built

    def __init__(self, space: Space, generators: Iterable[MeasureSet]):
        gens = tuple(generators)
        for g in gens:
            if g.space is not space:
                raise SpaceMismatchError("generators must live on the carrier space")
        if len(gens) > 1:
            first: dict[int, MeasureSet] = {}
            for g in gens:
                first.setdefault(g.mask, g)
            gens = tuple([first[m] for m in _minimal(first)])
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_kept", gens)

    @cached_property
    def generators(self) -> tuple[MeasureSet, ...]:
        """The generators by size, then by their members in mass-vector
        order, sorted on first read; each generator's ``members`` is filled
        on the way (docs/derivations.md, section 8)."""
        gens = self._kept
        if len(gens) < 2:
            return gens
        distinct = list(dict.fromkeys([mu for g in gens for mu in g._kept]))
        distinct.sort(key=_mass_order(distinct))
        rank = {mu: i for i, mu in enumerate(distinct)}
        keys = {}
        for g in gens:
            ranks = sorted([rank[mu] for mu in g._kept])
            g.__dict__.setdefault("members", tuple([distinct[i] for i in ranks]))
            keys[g.mask] = (len(ranks), ranks)
        return tuple(sorted(gens, key=lambda g: keys[g.mask]))

    @cached_property
    def _masks(self) -> frozenset[int]:
        return frozenset([g.mask for g in self._kept])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpperSet):
            return NotImplemented
        return self.space is other.space and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.space, self._masks))

    def __reduce__(self):
        return UpperSet, (self.space, self.generators)

    def __len__(self) -> int:
        return len(self._kept)

    def __iter__(self):
        return iter(self._kept)

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
        return not self._kept

    @property
    def is_full(self) -> bool:
        return len(self._kept) == 1 and not self._kept[0].mask

    @property
    def is_principal(self) -> bool:
        """True if the family is a single principal filter."""
        return len(self._kept) == 1

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
    return any(g.issubset(a) for g in u)


def union(u: UpperSet, v: UpperSet) -> UpperSet:
    if u.space != v.space:
        raise SpaceMismatchError("union across different spaces")
    return UpperSet(u.space, u._kept + v._kept)


def intersect(u: UpperSet, v: UpperSet) -> UpperSet:
    """Pointwise intersection: ``A`` lies in both families iff some union of
    one generator from each side is contained in ``A``."""
    if u.space != v.space:
        raise SpaceMismatchError("intersection across different spaces")
    return UpperSet(
        u.space,
        (g.union(h) for g in u for h in v),
    )


def dual(u: UpperSet) -> UpperSet:
    """The complementary family: ``D`` is in the dual iff the complement of
    ``D`` is not in ``u``.

    A set misses the complement of ``D`` for every generator iff ``D`` hits
    every generator, so the dual is generated by the minimal hitting sets of
    the generators (equivalently, the minimal ranges of choice functions
    picking one member per generator).  They are accumulated generator by
    generator as masks over the measure ids, pruning dominated candidates
    along the way to keep the choice-function blow-up in check, and turned
    back into measure sets once, at the end (docs/derivations.md, section 8).
    """
    space = u.space
    member: dict[int, SubProb] = {}  # by its bit
    partial = [0]
    for g in u:
        bits = [1 << mu.ident for mu in g._kept]
        member.update(zip(bits, g._kept))
        hit = g.mask
        grown: list[int] = []
        for h in partial:
            if h & hit:
                grown.append(h)
            else:
                grown.extend([h | bit for bit in bits])
        partial = _minimal(grown)
    return UpperSet(space, (MeasureSet(space, _members(h, member)) for h in partial))


def _members(mask: int, member: dict[int, SubProb]) -> list[SubProb]:
    """The measures whose bits ``mask`` sets, lowest id first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(member[low])
        mask ^= low
    return out


def equals(u: UpperSet, v: UpperSet) -> bool:
    """Antichain equality, as equal sets of generator masks; sound and
    complete for the families."""
    if u.space != v.space:
        raise SpaceMismatchError("equality test across different spaces")
    return u._masks == v._masks
