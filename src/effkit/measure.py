"""Exact-rational subprobability measures on finite spaces.

A measure is a vector of nonnegative rationals indexed by the atoms of its
space, with total mass at most one.  It is held as one positive integer
denominator ``den`` and a tuple ``num`` of integer numerators, one per
atom, in lowest terms: ``gcd(den, *num) == 1``.  Equal measures on a space
therefore have equal ``(den, num)``, so equality, hashing, sums over atoms
and the mass bound are integer operations.  There is deliberately no
floating point anywhere, because the bisimulation procedures hinge on exact
equality of masses and floats would produce false separations; masses are
read and reported as :class:`fractions.Fraction` (``mass``, ``total``,
``evaluate``).  Measures on one space sort by their mass vectors; a
collection sorts by integer keys, each numerator scaled to the lcm of the
collection's denominators (docs/derivations.md, section 13).

Pushforward and restriction sum numerators along a per-atom index map:
measurability puts each domain atom inside exactly one codomain atom.

The lifted agreement relation ``agree_mod`` compares two measures on every
measurable closed set of a symmetric relation.  Under symmetry those closed
sets form a field whose atoms are the blocks computed by
:func:`effkit.space.sigma_r`, so agreement on all closed sets reduces to
agreement block by block (see docs/derivations.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    IncompatiblePartitionError,
    NotMeasurableSetError,
    NotSurjectiveError,
    SpaceMismatchError,
)
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


@dataclass(frozen=True, slots=True)
class SubProb:
    """A subprobability mass vector over the atoms of a space: atom ``i``
    carries ``num[i] / den``, in lowest terms.

    ``mass`` lists rationals (``Fraction``, ``int`` or strings such as
    ``"1/2"``); with ``den`` given, it lists integer numerators over ``den``,
    in any terms.  ``ident`` is the measure's id in its space's table:
    equal measures share it, and as equal spaces are one object, two
    measures are equal iff they share their space and their id.  A measure
    pickles and copies by value, so it takes its id on the live space.
    """

    space: Space
    den: int
    num: tuple[int, ...]
    ident: int

    def __init__(self, space: Space, mass: Iterable[RationalLike], den: int | None = None):
        if den is None:
            vec = []
            for m in mass:
                q = Fraction(m)
                if q < 0:
                    raise SpaceMismatchError(f"negative mass {m!r}")
                vec.append(q)
            # reduced denominators: gcd(den, *num) == 1 (docs/derivations.md, section 13)
            den = lcm(*(q.denominator for q in vec))
            num = tuple([q.numerator * (den // q.denominator) for q in vec])
        else:
            num = tuple(mass)
            if den < 1:
                raise SpaceMismatchError(f"denominator must be positive, got {den!r}")
            if num and min(num) < 0:
                raise SpaceMismatchError(f"negative mass {Fraction(min(num), den)!r}")
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = tuple([n // g for n in num])
        if len(num) != len(space.atoms):
            raise SpaceMismatchError(
                f"expected {len(space.atoms)} atom masses, got {len(num)}"
            )
        if sum(num) > den:
            raise SpaceMismatchError(f"total mass exceeds 1: {Fraction(sum(num), den)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "ident", space.measure_id(den, num))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubProb):
            return NotImplemented
        return self.ident == other.ident and self.space is other.space

    def __hash__(self) -> int:
        return hash(self.ident)

    def __reduce__(self):
        return SubProb, (self.space, self.num, self.den)

    @staticmethod
    def of(
        space: Space, masses: Mapping[str, RationalLike], den: int | None = None
    ) -> "SubProb":
        """Build a measure from per-state masses.

        Keys are carrier states; omitted states carry mass zero.  At most one
        state per atom may be listed, and it sets its whole atom's mass.
        With ``den`` given, the masses are integer numerators over it.
        """
        vec: list[RationalLike] = [0] * len(space.atoms)
        used: dict[int, str] = {}
        for state, raw in masses.items():
            idx = space.atom_of(state)
            if idx in used:
                raise SpaceMismatchError(
                    f"states {used[idx]!r} and {state!r} lie in one atom; "
                    "give the atom's mass once"
                )
            used[idx] = state
            vec[idx] = raw
        return SubProb(space, vec, den)

    @staticmethod
    def zero(space: Space) -> "SubProb":
        return SubProb(space, [0] * len(space.atoms), 1)

    @staticmethod
    def dirac(space: Space, state: str) -> "SubProb":
        """Point mass at ``state`` (all mass on the atom containing it)."""
        vec = [0] * len(space.atoms)
        vec[space.atom_of(state)] = 1
        return SubProb(space, vec, 1)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.num), self.den)

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.mass

    def __repr__(self) -> str:
        masses = {
            block[0]: str(m)
            for block, m in zip(self.space.atoms, self.mass)
            if m != 0
        }
        return f"SubProb({masses!r})" if masses else "SubProb(zero)"


def _mass_order(measures: Iterable[SubProb]) -> Callable[[SubProb], tuple[int, ...]]:
    """A sort key ordering the given measures, all on one space, as their
    mass vectors: integer numerators scaled to the lcm of the measures'
    denominators."""
    den = lcm(*{mu.den for mu in measures})

    def key(mu: SubProb) -> tuple[int, ...]:
        scale = den // mu.den
        return mu.num if scale == 1 else tuple([n * scale for n in mu.num])

    return key


def _atoms_of(space: Space, states: Iterable[str]) -> tuple[int, ...]:
    """Indices of the atoms whose union is ``states``."""
    wanted = frozenset(states)
    idx = space.atoms_of_set(wanted)
    if idx is None:
        raise NotMeasurableSetError(
            f"{sorted(wanted)} is not a union of atoms of the space"
        )
    return idx


def evaluate(mu: SubProb, states: Iterable[str]) -> Fraction:
    """Mass of a measurable set given as a union of atoms."""
    num = mu.num
    return Fraction(sum([num[i] for i in _atoms_of(mu.space, states)]), mu.den)


def _collect(space: Space, into: Sequence[int], mu: SubProb) -> SubProb:
    """The measure on ``space`` whose atom ``j`` carries the mass of the
    atoms ``i`` of ``mu`` with ``into[i] == j``."""
    num = [0] * len(space.atoms)
    for j, n in zip(into, mu.num):
        num[j] += n
    return SubProb(space, num, mu.den)


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
    num = [0] * len(f.domain.atoms)
    for idx, weight in zip(f.preimage_atoms, nu.num):
        if weight:
            if not idx:
                return []
            if len(idx) > 1:
                return None  # infinitely many splits
            num[idx[0]] = weight
    return [SubProb(f.domain, num, nu.den)]


def restrict(mu: SubProb, coarser: Space) -> SubProb:
    """Restriction of a measure to a coarser sigma-algebra on the same carrier.

    Equals the pushforward along the identity-carrier inclusion into the
    coarser space.
    """
    into = mu.space.atom_map(coarser)
    if into is None:
        raise _incompatible(mu.space, coarser)
    return _collect(coarser, into, mu)


def _incompatible(fine: Space, coarse: Space):
    if fine.carrier != coarse.carrier:
        return IncompatiblePartitionError("partitions live on different carriers")
    return IncompatiblePartitionError(
        "partition blocks are not unions of the base atoms"
    )


def agree_mod(rel: Relation, mu: SubProb, nu: SubProb) -> bool:
    """The lifted relation on measures: agreement on every measurable
    closed set of a symmetric relation, decided block by block."""
    if mu.space != rel.base or nu.space != rel.base:
        raise SpaceMismatchError("measures must live on the relation's base space")
    quotient = sigma_r(rel)
    return all(
        evaluate(mu, block) == evaluate(nu, block) for block in quotient.atoms
    )


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
    masses = []
    for block in invariant.atoms:
        image = f.image(block)
        if nu.space.atoms_of_set(image) is None:
            raise NotMeasurableSetError(
                f"image {sorted(image)} of invariant block {list(block)} is not "
                "measurable in the codomain; the transport is not determined"
            )
        masses.append(evaluate(nu, image))
    return SubProb(invariant, masses)
