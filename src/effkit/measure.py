"""Exact-rational subprobability measures on finite spaces.

A measure is a vector of nonnegative rationals indexed by the atoms of its
space, with total mass at most one.  All arithmetic is exact
(:class:`fractions.Fraction`); there is deliberately no floating point
anywhere, because the bisimulation procedures hinge on exact equality of
masses and floats would produce false separations.

The lifted agreement relation ``agree_mod`` compares two measures on every
measurable closed set of a symmetric relation.  Under symmetry those closed
sets form a field whose atoms are the blocks computed by
:func:`effkit.space.sigma_r`, so agreement on all closed sets reduces to
agreement block by block (see docs/derivations.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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


def _as_fraction(value: RationalLike) -> Fraction:
    q = Fraction(value)
    if q < 0:
        raise SpaceMismatchError(f"negative mass {value!r}")
    return q


@dataclass(frozen=True)
class SubProb:
    """A subprobability mass vector over the atoms of a space."""

    space: Space
    mass: tuple[Fraction, ...]

    def __init__(self, space: Space, mass: Iterable[RationalLike]):
        vec = tuple(_as_fraction(m) for m in mass)
        if len(vec) != len(space.atoms):
            raise SpaceMismatchError(
                f"expected {len(space.atoms)} atom masses, got {len(vec)}"
            )
        if sum(vec) > 1:
            raise SpaceMismatchError(f"total mass exceeds 1: {sum(vec)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", vec)

    @staticmethod
    def of(space: Space, masses: Mapping[str, RationalLike]) -> "SubProb":
        """Build a measure from per-state masses.

        Keys are carrier states; omitted states carry mass zero.  At most one
        state per atom may be listed, and it sets its whole atom's mass.
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
        return SubProb(space, vec)

    @staticmethod
    def zero(space: Space) -> "SubProb":
        return SubProb(space, [0] * len(space.atoms))

    @staticmethod
    def dirac(space: Space, state: str) -> "SubProb":
        """Point mass at ``state`` (all mass on the atom containing it)."""
        vec = [Fraction(0)] * len(space.atoms)
        vec[space.atom_of(state)] = Fraction(1)
        return SubProb(space, vec)

    @property
    def total(self) -> Fraction:
        return sum(self.mass, Fraction(0))

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.mass

    def __repr__(self) -> str:
        masses = {
            block[0]: str(m)
            for block, m in zip(self.space.atoms, self.mass)
            if m != 0
        }
        return f"SubProb({masses!r})" if masses else "SubProb(zero)"


def evaluate(mu: SubProb, states: Iterable[str]) -> Fraction:
    """Mass of a measurable set given as a union of atoms."""
    idx = mu.space.atoms_of_set(states)
    if idx is None:
        raise NotMeasurableSetError(
            f"{sorted(set(states))} is not a union of atoms of the space"
        )
    return sum((mu.mass[i] for i in idx), Fraction(0))


def pushforward(f: MeasurableMap, mu: SubProb) -> SubProb:
    """Image measure along a measurable map: ``B -> mu(preimage of B)``."""
    if mu.space != f.domain:
        raise SpaceMismatchError("measure does not live on the map's domain")
    return SubProb(
        f.codomain,
        [evaluate(mu, f.preimage(block)) for block in f.codomain.atoms],
    )


def unique_preimages(f: MeasurableMap, nu: SubProb) -> list[SubProb] | None:
    """All measures on the domain that push forward to ``nu`` along ``f``,
    provided there are finitely many; ``None`` signals an infinite family.

    The solution set is a product of simplex slices, one per codomain atom:
    it is a singleton iff every codomain atom carrying positive mass has a
    single domain atom in its preimage, and empty if some massive atom has
    none.  Multi-atom preimages with positive mass admit infinitely many
    rational splittings.
    """
    masses = [None] * len(f.domain.atoms)
    for i, block in enumerate(f.codomain.atoms):
        pre = f.preimage(block)
        idx = f.domain.atoms_of_set(pre)
        weight = nu.mass[i]
        if not idx:
            if weight > 0:
                return []
            continue
        if weight == 0:
            for j in idx:
                masses[j] = 0
        elif len(idx) == 1:
            masses[idx[0]] = weight
        else:
            return None  # infinitely many splits
    return [SubProb(f.domain, [m or 0 for m in masses])]


def restrict(mu: SubProb, coarser: Space) -> SubProb:
    """Restriction of a measure to a coarser sigma-algebra on the same carrier.

    Equals the pushforward along the identity-carrier inclusion into the
    coarser space.
    """
    if not coarser.coarsens(mu.space):
        raise _incompatible(mu.space, coarser)
    return SubProb(coarser, [evaluate(mu, block) for block in coarser.atoms])


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
