"""Finite measurable spaces, measurable maps, and binary relations.

A finite sigma-algebra is atomic, so a measurable space over a finite carrier
is represented by the partition of the carrier into the atoms of its
sigma-algebra; the measurable sets are exactly the unions of atoms.  The
discrete space has one singleton atom per state.  All values here are
immutable and hashable; operations are pure functions.

States are plain strings.  A space fixes a total order on its carrier which
every canonical form (atom order, measure vectors, relation listings) reuses,
so equal inputs always produce identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    ForeignStateError,
    NonSymmetricRelationError,
    NotSurjectiveError,
    SpaceMismatchError,
)

__all__ = [
    "Space",
    "MeasurableMap",
    "Relation",
    "DirectSum",
    "FinalSurjection",
    "sigma_r",
    "kernel_of",
    "direct_sum",
    "is_final_surjection",
    "compose",
]


@dataclass(frozen=True)
class Space:
    """A finite carrier with a sigma-algebra given by its atom partition."""

    carrier: tuple[str, ...]
    atoms: tuple[tuple[str, ...], ...]

    def __init__(self, carrier: Iterable[str], atoms: Iterable[Iterable[str]] | None = None):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise ForeignStateError(f"duplicate states in carrier: {carrier}")
        order = {s: i for i, s in enumerate(carrier)}
        if atoms is None:
            blocks = tuple((s,) for s in carrier)
        else:
            raw = [tuple(sorted(set(a), key=lambda s: order.get(s, -1))) for a in atoms]
            for block in raw:
                if not block:
                    raise SpaceMismatchError("empty atom in partition")
                for s in block:
                    if s not in order:
                        raise ForeignStateError(f"atom state {s!r} not in carrier")
            seen: set[str] = set()
            for block in raw:
                for s in block:
                    if s in seen:
                        raise SpaceMismatchError(f"state {s!r} appears in two atoms")
                    seen.add(s)
            if seen != set(carrier):
                missing = sorted(set(carrier) - seen, key=order.__getitem__)
                raise SpaceMismatchError(f"atoms do not cover carrier; missing {missing}")
            blocks = tuple(sorted(raw, key=lambda a: order[a[0]]))
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "atoms", blocks)

    @staticmethod
    def discrete(states: Iterable[str]) -> "Space":
        return Space(states)

    def __repr__(self) -> str:
        if self.is_discrete:
            return f"Space.discrete({list(self.carrier)!r})"
        return f"Space({list(self.carrier)!r}, {[list(b) for b in self.atoms]!r})"

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.carrier)}

    @cached_property
    def _atom_index(self) -> dict[str, int]:
        return {s: i for i, block in enumerate(self.atoms) for s in block}

    @cached_property
    def atom_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(block) for block in self.atoms)

    @property
    def is_discrete(self) -> bool:
        return len(self.atoms) == len(self.carrier)

    def index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ForeignStateError(f"state {state!r} not in carrier") from None

    def atom_of(self, state: str) -> int:
        """Index of the atom containing ``state``."""
        try:
            return self._atom_index[state]
        except KeyError:
            raise ForeignStateError(f"state {state!r} not in carrier") from None

    def atoms_of_set(self, states: Iterable[str]) -> tuple[int, ...] | None:
        """Atom indices whose union is ``states``, or None if not measurable."""
        wanted = frozenset(states)
        for s in wanted:
            if s not in self._index:
                raise ForeignStateError(f"state {s!r} not in carrier")
        hit = sorted({self._atom_index[s] for s in wanted})
        covered: set[str] = set()
        for i in hit:
            covered |= self.atom_sets[i]
        if covered != wanted:
            return None
        return tuple(hit)

    def coarsens(self, finer: "Space") -> bool:
        """True if this space has the same carrier and every atom here is a
        union of atoms of ``finer``."""
        return finer.atom_map(self) is not None

    def atom_map(self, coarser: "Space") -> tuple[int, ...] | None:
        """Per atom here, the index of the atom of ``coarser`` holding it;
        None unless ``coarser`` coarsens this space.  Both partition one
        carrier, so each atom of ``coarser`` is a union of atoms here iff
        each atom here lies inside one atom of ``coarser``."""
        if self.carrier != coarser.carrier:
            return None
        index = coarser._atom_index
        into = tuple(index[block[0]] for block in self.atoms)
        if any(index[s] != j for block, j in zip(self.atoms, into) for s in block):
            return None
        return into


@dataclass(frozen=True)
class MeasurableMap:
    """A total measurable assignment between two finite spaces.

    Measurability requires the preimage of every codomain atom to be a union
    of domain atoms.
    """

    domain: Space
    codomain: Space
    assignment: tuple[tuple[str, str], ...]

    def __init__(self, domain: Space, codomain: Space, assignment: Mapping[str, str]):
        table = dict(assignment)
        for s in domain.carrier:
            if s not in table:
                raise ForeignStateError(f"map is not total: no image for {s!r}")
        for s, t in table.items():
            domain.index(s)
            codomain.index(t)
        if len(table) != len(domain.carrier):
            extra = sorted(set(table) - set(domain.carrier))
            raise ForeignStateError(f"map defined on foreign states {extra}")
        normalized = tuple((s, table[s]) for s in domain.carrier)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "assignment", normalized)
        for block in codomain.atoms:
            pre = [s for s, t in normalized if t in set(block)]
            if domain.atoms_of_set(pre) is None:
                raise SpaceMismatchError(
                    f"not measurable: preimage of atom {block} is not a union of domain atoms"
                )

    @staticmethod
    def identity(space: Space) -> "MeasurableMap":
        return MeasurableMap(space, space, {s: s for s in space.carrier})

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.assignment)

    def __call__(self, state: str) -> str:
        return self.mapping[state]

    @cached_property
    def atom_map(self) -> tuple[int, ...]:
        """Per domain atom, the index of the codomain atom it maps into
        (one atom, by measurability)."""
        index, table = self.codomain._atom_index, self.mapping
        return tuple(index[table[block[0]]] for block in self.domain.atoms)

    @cached_property
    def is_surjective(self) -> bool:
        return {t for _, t in self.assignment} == set(self.codomain.carrier)

    def preimage(self, states: Iterable[str]) -> frozenset[str]:
        wanted = frozenset(states)
        return frozenset(s for s, t in self.assignment if t in wanted)

    def image(self, states: Iterable[str]) -> frozenset[str]:
        m = self.mapping
        return frozenset(m[s] for s in states)

    def fibers(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {t: set() for t in self.codomain.carrier}
        for s, t in self.assignment:
            out[t].add(s)
        return {t: frozenset(ss) for t, ss in out.items()}


def compose(outer: MeasurableMap, inner: MeasurableMap) -> MeasurableMap:
    """The composite ``outer . inner``."""
    if inner.codomain != outer.domain:
        raise SpaceMismatchError("composition mismatch: inner codomain != outer domain")
    return MeasurableMap(
        inner.domain, outer.codomain, {s: outer(inner(s)) for s in inner.domain.carrier}
    )


@dataclass(frozen=True)
class Relation:
    """A finite binary relation over the carrier of a space."""

    base: Space
    pairs: frozenset[tuple[str, str]]

    def __init__(self, base: Space, pairs: Iterable[tuple[str, str]]):
        frozen = frozenset((s, t) for s, t in pairs)
        for s, t in frozen:
            base.index(s)
            base.index(t)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairs", frozen)

    @staticmethod
    def full(space: Space) -> "Relation":
        return Relation(space, itertools.product(space.carrier, space.carrier))

    @staticmethod
    def identity(space: Space) -> "Relation":
        return Relation(space, ((s, s) for s in space.carrier))

    @staticmethod
    def from_partition(space: Space, blocks: Iterable[Iterable[str]]) -> "Relation":
        """The equivalence whose classes are the given blocks."""
        pairs = []
        for block in blocks:
            block = list(block)
            pairs.extend(itertools.product(block, block))
        return Relation(space, pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __repr__(self) -> str:
        return f"Relation({sorted(self.pairs)!r})"

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

    def converse(self) -> "Relation":
        return Relation(self.base, ((t, s) for s, t in self.pairs))

    def classes(self) -> tuple[tuple[str, ...], ...]:
        """Equivalence classes in carrier order (requires an equivalence)."""
        if not self.is_equivalence:
            raise NonSymmetricRelationError("classes() requires an equivalence relation")
        seen: set[str] = set()
        out = []
        for s in self.base.carrier:
            if s in seen:
                continue
            cls = tuple(t for t in self.base.carrier if (s, t) in self.pairs)
            seen.update(cls)
            out.append(cls)
        return tuple(out)


def sigma_r(rel: Relation) -> Space:
    """The space of closed sets of a symmetric relation.

    Returns the base carrier with the coarsened partition whose blocks are
    the smallest closed unions of base atoms; the measurable closed sets are
    exactly the unions of the returned blocks.  The coarsening merges two
    atoms whenever a related pair straddles them, then closes transitively;
    symmetry makes this a plain connected-components computation.
    """
    if not rel.is_symmetric:
        raise NonSymmetricRelationError(
            "closed sets of a non-symmetric relation do not form a field"
        )
    base = rel.base
    groups: dict[int, list[str]] = {}
    for root, block in zip(_atom_roots(base, rel.pairs), base.atoms):
        groups.setdefault(root, []).extend(block)
    return Space(base.carrier, groups.values())


def _atom_roots(base: Space, groups: Iterable[Iterable[str]]) -> list[int]:
    """Per atom of ``base``, a representative atom index after merging the
    atoms that hold the states of each group, transitively (union-find)."""
    parent = list(range(len(base.atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for group in groups:
        atoms = [base.atom_of(s) for s in group]
        for other in atoms[1:]:
            a, b = find(atoms[0]), find(other)
            if a != b:
                parent[b] = a
    return [find(i) for i in range(len(base.atoms))]


def kernel_of(f: MeasurableMap) -> Relation:
    """The equivalence identifying states with a common image."""
    pairs = [
        (s, s2)
        for s in f.domain.carrier
        for s2 in f.domain.carrier
        if f(s) == f(s2)
    ]
    return Relation(f.domain, pairs)


@dataclass(frozen=True)
class DirectSum:
    """A sum space together with the two injections."""

    space: Space
    left: MeasurableMap
    right: MeasurableMap


def _tag(side: str, state: str) -> str:
    return f"{side}:{state}"


def direct_sum(a: Space, b: Space) -> DirectSum:
    """The coproduct of two spaces.

    States are tagged ``L:name`` / ``R:name`` so the carriers are disjoint;
    the atoms are the tagged atoms of both summands.
    """
    carrier = tuple(_tag("L", s) for s in a.carrier) + tuple(_tag("R", t) for t in b.carrier)
    atoms = [tuple(_tag("L", s) for s in block) for block in a.atoms]
    atoms += [tuple(_tag("R", t) for t in block) for block in b.atoms]
    space = Space(carrier, atoms)
    left = MeasurableMap(a, space, {s: _tag("L", s) for s in a.carrier})
    right = MeasurableMap(b, space, {t: _tag("R", t) for t in b.carrier})
    return DirectSum(space, left, right)


@dataclass(frozen=True)
class FinalSurjection:
    """Result of the finality test for a surjective map.

    ``pairing`` lists, per codomain atom, the preimage as a set of domain
    states; ``is_final`` says whether those preimages are exactly the blocks
    of the invariant partition of the kernel of the map, i.e. whether the
    codomain sigma-algebra and the invariant sets are isomorphic as Boolean
    algebras under preimage.
    """

    is_final: bool
    pairing: tuple[tuple[frozenset[str], frozenset[str]], ...]


def is_final_surjection(f: MeasurableMap) -> FinalSurjection:
    """Decide whether a surjection carries its codomain atoms one-to-one
    onto the blocks of the invariant partition of its kernel."""
    if not f.is_surjective:
        raise NotSurjectiveError("finality test requires a surjective map")
    blocks = sigma_r(kernel_of(f)).atom_sets
    pairing = tuple(
        (f.preimage(block), frozenset(block)) for block in f.codomain.atoms
    )
    preimages = {pre for pre, _ in pairing}
    return FinalSurjection(preimages == set(blocks), pairing)
