"""Exact-rational subprobability measures on finite spaces.

A measure is a finite sum of nonnegative rational masses on the atoms of
its space, with total mass at most one.  It is held by its support: the
increasing tuple ``atoms`` of the indices of the atoms with positive mass,
their integer numerators ``nums``, and one positive integer denominator
``den``, in lowest terms: ``gcd(den, *nums) == 1``.  Equal measures on a
space therefore have equal ``(den, atoms, nums)``, and the constructor
returns the one live measure of that key from its space's weak registry,
so equal measures are one object and compare and hash by identity; a
measure is a slotted record (``effkit.record``).  Every construction, the
constructor's, pushforward's, restriction's and the model loader's, ends
in one routine, ``_interned``, which reduces an integer support and
interns it.  Sums over atoms and the mass bound are integer operations,
and a measure costs its support, not its space.  There is deliberately no
floating point anywhere, because the bisimulation procedures hinge on
exact equality of masses and floats would produce false separations;
masses are read and reported as :class:`fractions.Fraction` (``total``,
``evaluate``).
Measures on one space sort by their mass vectors, a collection by integer
keys read off the supports, each numerator scaled to the lcm of the
collection's denominators (docs/derivations.md, section 13).

Pushforward and restriction sum the support's numerators along a per-atom
index map: measurability puts each domain atom inside exactly one codomain
atom.

The lifted agreement relation ``agree_mod`` compares two measures on every
measurable closed set of a symmetric relation.  Under symmetry those closed
sets form a field whose atoms are the blocks computed by
:func:`effkit.space.sigma_r`, so agreement on all closed sets is equality
of the two restrictions to that field (see docs/derivations.md).
"""

from __future__ import annotations

import sys
import threading
import weakref
from _weakref import _remove_dead_weakref  # WeakValueDictionary's atomic removal
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    EffkitError,
    IncompatiblePartitionError,
    NotMeasurableSetError,
    NotSurjectiveError,
    SpaceMismatchError,
)
from .record import Record
from .space import MeasurableMap, Relation, Space, kernel_of, sigma_r

__all__ = [
    "SubProb",
    "evaluate",
    "pushforward",
    "unique_preimages",
    "restrict",
    "agree_mod",
    "invariant_measure_transport",
]

RationalLike = Fraction | int | str


# Held while a measure is looked up in or enters its space's registry.
_LOCK = threading.Lock()


class _Held(weakref.ref):
    """A weak reference to a measure, carrying its key and id in its
    registry, as ``weakref.KeyedRef`` carries its key."""

    __slots__ = ("key", "ident")


class _Registry:
    """The live measures on one space, held weakly by value, and freed ids.
    One callback, ``release``, serves every measure of the registry: when a
    measure dies it drops the measure's entry and frees its id.  It takes no
    lock, as it may run inside ``_LOCK`` (docs/derivations.md, section 13)."""

    __slots__ = ("refs", "free", "fresh", "release")

    def __init__(self):
        refs: dict[tuple, _Held] = {}
        free: list[int] = []

        def release(held: _Held) -> None:
            _remove_dead_weakref(refs, held.key)
            free.append(held.ident)

        self.refs, self.free, self.fresh, self.release = refs, free, count(), release

    def add(self, mu: "SubProb", key: tuple) -> None:
        """Give the new measure ``mu`` an id, a freed one first, and make it
        the live measure of ``key``."""
        free = self.free
        ident = free.pop() if free else next(self.fresh)
        object.__setattr__(mu, "ident", ident)
        held = self.refs[key] = _Held(mu, self.release)
        held.key, held.ident = key, ident


class SubProb(Record):
    """A subprobability measure held by its support: the increasing atom
    indices ``atoms``, the ``k``-th carrying ``nums[k] / den`` > 0, in
    lowest terms; every other atom carries zero.

    ``mass`` maps atom indices to rationals (``Fraction``, ``int`` or
    strings such as ``"1/2"``), or with ``den`` given to integer numerators
    over ``den``, in any terms; omitted atoms carry zero.  The constructor
    returns the live measure of its value if there is one.  ``ident`` is
    the measure's id on its space, unique among the live measures there and
    reused once the measure dies.  Hash-consed, a measure compares and
    hashes by identity; it pickles and copies by value, to the live measure
    of that value.
    """

    __slots__ = ("space", "den", "atoms", "nums", "ident", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    space: Space
    den: int
    atoms: tuple[int, ...]
    nums: tuple[int, ...]
    ident: int

    def __new__(cls, space: Space, mass: Mapping[int, RationalLike], den: int | None = None):
        if den is None:
            masses = {}
            for a, m in mass.items():
                q = masses[a] = Fraction(m)
                if q < 0:
                    mass_text = _rational_str(q.numerator, q.denominator, "a negative mass")
                    raise SpaceMismatchError(f"negative mass {mass_text}")
            # reduced denominators: gcd(den, *nums) == 1 (docs/derivations.md, section 13)
            den = lcm(*[q.denominator for q in masses.values()])
            mass = {a: q.numerator * (den // q.denominator) for a, q in masses.items()}
        elif den < 1:
            raise SpaceMismatchError(f"denominator must be positive, got {den!r}")
        return _interned(space, mass, den)

    def __reduce__(self):
        return SubProb, (self.space, dict(zip(self.atoms, self.nums)), self.den)

    @staticmethod
    def of(space: Space, masses: Mapping[str, RationalLike], den: int | None = None) -> "SubProb":
        """Build a measure from per-state masses.

        Keys are carrier states; omitted states carry mass zero.  At most one
        state per atom may be listed, and it sets its whole atom's mass.
        With ``den`` given, the masses are integer numerators over it.
        """
        mass: dict[int, RationalLike] = {}
        for state, raw in masses.items():
            idx = space.atom_of(state)
            if idx in mass:
                first = next(s for s in masses if space.atom_of(s) == idx)
                raise SpaceMismatchError(
                    f"states {first!r} and {state!r} lie in one atom; give the atom's mass once"
                )
            mass[idx] = raw
        return SubProb(space, mass, den)

    @staticmethod
    def zero(space: Space) -> "SubProb":
        return SubProb(space, {}, 1)

    @staticmethod
    def dirac(space: Space, state: str) -> "SubProb":
        """Point mass at ``state`` (all mass on the atom containing it)."""
        return SubProb(space, {space.atom_of(state): 1}, 1)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def __repr__(self) -> str:
        masses = {}
        for a, n in zip(self.atoms, self.nums):
            try:
                text = _rational_str(n, self.den, "a mass")
            except EffkitError:  # never raised from a repr
                text = "<too long to print>"
            masses[self.space.atoms[a][0]] = text
        return f"SubProb({masses!r})" if masses else "SubProb(zero)"


def _interned(space: Space, mass: Mapping[int, int], den: int) -> SubProb:
    """The live measure on ``space`` whose atom ``a`` carries
    ``mass[a] / den``, for integer numerators over a positive ``den`` in any
    terms, built if there is none: the support is sorted, range-checked,
    stripped of zeros, reduced by its gcd with ``den`` and bounded by one,
    then looked up in, or entered into, the space's registry
    (docs/derivations.md, section 13).  Every measure is built here."""
    atoms = tuple(sorted(mass))
    nums = tuple([mass[a] for a in atoms])
    if nums and min(nums) < 0:
        mass_text = _rational_str(min(nums), den, "a negative mass")
        raise SpaceMismatchError(f"negative mass {mass_text}")
    size = len(space.atoms)
    if atoms and (atoms[0] < 0 or atoms[-1] >= size):
        bad = next(a for a in mass if not 0 <= a < size)
        raise SpaceMismatchError(f"atom index {bad!r} outside the {size} atoms of the space")
    if 0 in nums:
        atoms = tuple([a for a in atoms if mass[a]])
        nums = tuple([n for n in nums if n])
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = tuple([n // g for n in nums])
    if sum(nums) > den:
        total = _rational_str(sum(nums), den, "the total mass, which exceeds 1,")
        raise SpaceMismatchError(f"total mass exceeds 1: {total}")
    key = (den, atoms, nums)
    with _LOCK:
        registry = space.__dict__.get("_measures")
        if registry is None:  # kept as a cached property is
            registry = space.__dict__["_measures"] = _Registry()
        ref = registry.refs.get(key)
        mu = None if ref is None else ref()
        if mu is None:
            mu = object.__new__(SubProb)
            object.__setattr__(mu, "space", space)
            object.__setattr__(mu, "den", den)
            object.__setattr__(mu, "atoms", atoms)
            object.__setattr__(mu, "nums", nums)
            registry.add(mu, key)
    return mu


def _rational_str(n: int, den: int, what: str) -> str:
    """``n/den`` in lowest terms, ``n`` alone over 1, as files, formulas and
    messages print it; refused as an input error naming ``what`` when a part
    has more digits than ``int`` converts to text."""
    g = gcd(n, den)
    try:
        return f"{n // g}/{den // g}" if den != g else str(n // g)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"its numerator or denominator has more than {limit} digits"
        raise EffkitError(f"{what} is too long to print: {message}") from None


def _mass_order(measures: Iterable[SubProb]) -> Callable[[SubProb], tuple]:
    """A sort key ordering the given measures, all on one space, as their
    mass vectors: per support atom ``a`` in increasing order, the pair of
    ``-a`` and the numerator scaled to the lcm of the measures'
    denominators (docs/derivations.md, section 13)."""
    den = lcm(*{mu.den for mu in measures})

    def key(mu: SubProb) -> tuple[tuple[int, int], ...]:
        scale = den // mu.den
        return tuple([(-a, n * scale) for a, n in zip(mu.atoms, mu.nums)])

    return key


def _atoms_of(space: Space, states: Iterable[str]) -> int:
    """The mask of the atoms whose union is ``states``: bit ``a`` for atom ``a``."""
    wanted = frozenset(states)
    idx = space.atoms_of_set(wanted)
    if idx is None:
        raise NotMeasurableSetError(f"{sorted(wanted)} is not a union of atoms of the space")
    return sum([1 << a for a in idx])


def _numerator_in(mu: SubProb, mask: int) -> int:
    """The mass ``mu`` gives the atoms set in ``mask``, as a numerator over ``mu.den``."""
    return sum([n for a, n in zip(mu.atoms, mu.nums) if mask >> a & 1])


def evaluate(mu: SubProb, states: Iterable[str]) -> Fraction:
    """Mass of a measurable set given as a union of atoms."""
    return Fraction(_numerator_in(mu, _atoms_of(mu.space, states)), mu.den)


def _collect(space: Space, into: Sequence[int], mu: SubProb) -> SubProb:
    """The measure on ``space`` whose atom ``j`` carries the mass of the
    atoms ``i`` of ``mu`` with ``into[i] == j``."""
    mass: dict[int, int] = {}
    for a, n in zip(mu.atoms, mu.nums):
        mass[into[a]] = mass.get(into[a], 0) + n
    return _interned(space, mass, mu.den)


def pushforward(f: MeasurableMap, mu: SubProb) -> SubProb:
    """Image measure along a measurable map: ``B -> mu(preimage of B)``."""
    if mu.space != f.domain:
        raise SpaceMismatchError("measure does not live on the map's domain")
    return _collect(f.codomain, f.atom_map, mu)


def unique_preimages(f: MeasurableMap, nu: SubProb) -> list[SubProb] | None:
    """All measures on the domain that push forward to ``nu`` along ``f``,
    provided there are finitely many; ``None`` signals an infinite family.

    The solution set is a product of simplex slices, one per codomain atom:
    it is a singleton iff every codomain atom carrying positive mass has a
    single domain atom in its preimage, and empty if some massive atom has
    none.  Multi-atom preimages with positive mass admit infinitely many
    rational splittings.
    """
    if nu.space != f.codomain:
        raise SpaceMismatchError("measure does not live on the map's codomain")
    mass: dict[int, int] = {}
    for a, weight in zip(nu.atoms, nu.nums):
        idx = f.preimage_atoms[a]
        if not idx:
            return []
        if len(idx) > 1:
            return None  # infinitely many splits
        mass[idx[0]] = weight
    return [_interned(f.domain, mass, nu.den)]


def restrict(mu: SubProb, coarser: Space) -> SubProb:
    """Restriction of a measure to a coarser sigma-algebra on the same carrier.

    Equals the pushforward along the identity-carrier inclusion into the
    coarser space.
    """
    return _collect(coarser, _coarsening(mu.space, coarser), mu)


def _coarsening(fine: Space, coarse: Space) -> tuple[int, ...]:
    """``fine.atom_map(coarse)``, refused unless ``coarse`` coarsens ``fine``."""
    into = fine.atom_map(coarse)
    if into is not None:
        return into
    if fine.carrier != coarse.carrier:
        raise IncompatiblePartitionError("partitions live on different carriers")
    raise IncompatiblePartitionError("partition blocks are not unions of the base atoms")


def agree_mod(rel: Relation, mu: SubProb, nu: SubProb) -> bool:
    """The lifted relation on measures: agreement on every measurable closed
    set of a symmetric relation, that is, equal restrictions to ``sigma_r(rel)``,
    which are one object, as measures are interned per space."""
    if mu.space != rel.base or nu.space != rel.base:
        raise SpaceMismatchError("measures must live on the relation's base space")
    quotient = sigma_r(rel)
    return restrict(mu, quotient) is restrict(nu, quotient)


def invariant_measure_transport(f: MeasurableMap, nu: SubProb) -> SubProb:
    """Pull a codomain measure back to the invariant sets of the map's kernel.

    For a surjection whose codomain atoms pair off one-to-one with the
    invariant blocks, the block masses are forced: each block carries the
    mass of its image.  The result lives on the carrier of the domain with
    the invariant partition as atoms, and pushes forward along ``f`` back to
    ``nu``.  When some block's image is not measurable in the codomain the
    transport is underdetermined and we refuse rather than guess.
    """
    if nu.space != f.codomain:
        raise SpaceMismatchError("measure does not live on the map's codomain")
    if not f.is_surjective:
        raise NotSurjectiveError("transport requires a surjective map")
    invariant = sigma_r(kernel_of(f))
    masses = {}
    for i, block in enumerate(invariant.atoms):
        image = f.image(block)
        if nu.space.atoms_of_set(image) is None:
            raise NotMeasurableSetError(
                f"image {sorted(image)} of invariant block {list(block)} is not "
                "measurable in the codomain; the transport is not determined"
            )
        masses[i] = evaluate(nu, image)
    return SubProb(invariant, masses)
