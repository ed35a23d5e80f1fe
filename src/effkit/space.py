"""Finite measurable spaces, measurable maps, and binary relations.

A finite sigma-algebra is atomic, so a measurable space over a finite carrier
is represented by the partition of the carrier into the atoms of its
sigma-algebra; the measurable sets are exactly the unions of atoms.  The
discrete space has one singleton atom per state.  All values here are
immutable, hashable records (``effkit.record``); operations are pure
functions.

States are plain strings.  A space fixes a total order on its carrier which
every canonical form (atom order, measure vectors, relation listings) reuses,
so equal inputs always produce identical output.

Spaces are hash-consed: ``Space(carrier, atoms)`` returns the one live
object for its validated value, so equal spaces are one object and compare
and hash by identity (docs/derivations.md, section 13).
"""

from __future__ import annotations

import threading
import weakref
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    ForeignStateError,
    NonSymmetricRelationError,
    NotMeasurableSetError,
    NotSurjectiveError,
    SpaceMismatchError,
)
from .record import Record

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


# Held while ``_SPACES`` is read or filled.
_LOCK = threading.Lock()
# The live space of each validated ``(carrier, atoms)``.
_SPACES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Space(Record):
    """A finite carrier with a sigma-algebra given by its atom partition.
    Hash-consed, it compares and hashes by identity; it pickles and copies
    by value, to the live space of that value."""

    carrier: tuple[str, ...]
    atoms: tuple[tuple[str, ...], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, carrier: Iterable[str], atoms: Iterable[Iterable[str]] | None = None):
        carrier = tuple(carrier)
        order = {s: i for i, s in enumerate(carrier)}
        if len(order) != len(carrier):
            repeated = next(s for i, s in enumerate(carrier) if order[s] != i)
            raise ForeignStateError(f"duplicate state in carrier: {repeated!r}")
        if atoms is None:
            blocks = tuple((s,) for s in carrier)
        else:
            raw = [tuple(a) for a in atoms]
            for block in raw:
                if not block:
                    raise SpaceMismatchError("empty atom in partition")
                for s in block:
                    if s not in order:
                        raise ForeignStateError(f"atom state {s!r} not in carrier")
            raw = [tuple(sorted(block, key=order.__getitem__)) for block in raw]
            seen: set[str] = set()
            for block in raw:
                for i, s in enumerate(block):
                    if s in seen:
                        where = "twice in one atom" if i and block[i - 1] == s else "in two atoms"
                        raise SpaceMismatchError(f"state {s!r} appears {where}")
                    seen.add(s)
            if seen != set(carrier):
                missing = sorted(set(carrier) - seen, key=order.__getitem__)
                raise SpaceMismatchError(f"atoms do not cover carrier; missing {missing}")
            blocks = tuple(sorted(raw, key=lambda a: order[a[0]]))
        with _LOCK:
            space = _SPACES.get((carrier, blocks))
            if space is None:
                space = _SPACES[carrier, blocks] = super().__new__(cls)
                object.__setattr__(space, "carrier", carrier)
                object.__setattr__(space, "atoms", blocks)
        return space

    def __reduce__(self):
        return Space, (self.carrier, self.atoms)

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

    def atom_map(self, coarser: "Space") -> tuple[int, ...] | None:
        """Per atom here, the index of the atom of ``coarser`` holding it;
        None unless ``coarser`` coarsens this space.  Both partition one
        carrier, so each atom of ``coarser`` is a union of atoms here iff
        each atom here lies inside one atom of ``coarser``."""
        if self.carrier != coarser.carrier:
            return None
        into, split = _atom_values(self.atoms, coarser._atom_index)
        return None if split else into


def _atom_values(atoms: tuple[tuple[str, ...], ...], value: Mapping) -> tuple[tuple, list]:
    """Per atom, the value its first state has under ``value``; and, atom
    by atom, each ``(atom, later state)`` whose value differs.  A model, a
    map and a coarsening are measurable exactly when their per-state value
    is constant on each atom, that is, when the second is empty
    (docs/derivations.md, sections 3, 4 and 13)."""
    split = [(block, s) for block in atoms for s in block[1:] if value[s] != value[block[0]]]
    return tuple([value[block[0]] for block in atoms]), split


class MeasurableMap(Record):
    """A total measurable assignment between two finite spaces, held as
    ``images``: the image of each domain state, in domain carrier order.

    Measurability requires the preimage of every codomain atom to be a union
    of domain atoms, that is, every domain atom to map into one codomain
    atom; the attribute ``atom_map`` lists that atom per domain atom.  It is
    read off the fields, not one of them: it takes no part in ``==``,
    ``hash`` and ``repr``, and pickles and copies with the map.
    """

    domain: Space
    codomain: Space
    images: tuple[str, ...]

    def __init__(self, domain: Space, codomain: Space, assignment: Mapping[str, str]):
        index = codomain._atom_index
        images = tuple(map(assignment.get, domain.carrier))
        if len(assignment) != len(images) or not index.keys() >= set(images):
            for s in domain.carrier:  # name the first fault
                if s not in assignment:
                    raise ForeignStateError(f"map is not total: no image for {s!r}")
            for s, t in assignment.items():
                domain.index(s)
                codomain.index(t)
        atom_of = dict(zip(domain.carrier, map(index.__getitem__, images)))
        into, split = _atom_values(domain.atoms, atom_of)
        if split:
            lowest = min(atom_of[s] for block, _ in split for s in block)
            raise SpaceMismatchError(
                f"not measurable: preimage of atom {codomain.atoms[lowest]} "
                "is not a union of domain atoms"
            )
        self._store(domain, codomain, images)
        object.__setattr__(self, "atom_map", into)

    @staticmethod
    def identity(space: Space) -> "MeasurableMap":
        return MeasurableMap(space, space, {s: s for s in space.carrier})

    def __call__(self, state: str) -> str:
        return self.images[self.domain.index(state)]

    @cached_property
    def preimage_atoms(self) -> tuple[tuple[int, ...], ...]:
        """Per codomain atom, the indices of the domain atoms whose union is
        its preimage."""
        over: list[list[int]] = [[] for _ in self.codomain.atoms]
        for i, j in enumerate(self.atom_map):
            over[j].append(i)
        return tuple(map(tuple, over))

    @cached_property
    def is_surjective(self) -> bool:
        return set(self.images) == set(self.codomain.carrier)

    def preimage(self, states: Iterable[str]) -> frozenset[str]:
        wanted = frozenset(states)
        return frozenset(s for s, t in zip(self.domain.carrier, self.images) if t in wanted)

    def image(self, states: Iterable[str]) -> frozenset[str]:
        return frozenset(map(self, states))

    def fibers(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {t: set() for t in self.codomain.carrier}
        for s, t in zip(self.domain.carrier, self.images):
            out[t].add(s)
        return {t: frozenset(ss) for t, ss in out.items()}


def compose(outer: MeasurableMap, inner: MeasurableMap) -> MeasurableMap:
    """The composite ``outer . inner``."""
    if inner.codomain != outer.domain:
        raise SpaceMismatchError("composition mismatch: inner codomain != outer domain")
    images = map(outer, inner.images)
    return MeasurableMap(inner.domain, outer.codomain, dict(zip(inner.domain.carrier, images)))


class Relation(Record):
    """A finite binary relation over the carrier of a space.

    Held as ``related``: per carrier state, in carrier order, the frozenset
    of states it relates to.  ``from_partition`` shares one frozenset per
    block, so an equivalence costs O(n) however many pairs it holds.
    ``classes``, ``is_equivalence``, ``is_symmetric`` and ``sigma_r`` work
    once per distinct related set and never list the pairs.
    """

    base: Space
    related: tuple[frozenset[str], ...]

    def __init__(self, base: Space, pairs: Iterable[tuple[str, str]]):
        related: dict[str, set[str]] = {s: set() for s in base.carrier}
        for s, t in pairs:
            base.index(s)
            base.index(t)
            related[s].add(t)
        self._store(base, tuple(map(frozenset, related.values())))

    @staticmethod
    def full(space: Space) -> "Relation":
        return Relation.from_partition(space, (space.carrier,))

    @staticmethod
    def identity(space: Space) -> "Relation":
        return Relation.from_partition(space, ((s,) for s in space.carrier))

    @staticmethod
    def from_partition(space: Space, blocks: Iterable[Iterable[str]]) -> "Relation":
        """The equivalence whose classes are the given blocks (a state
        relates to the union of the blocks holding it)."""
        held: dict[str, frozenset[str]] = {}
        for block in blocks:
            members = frozenset(block)
            for s in members:
                space.index(s)
                held[s] = held[s] | members if s in held else members
        return Relation._of(space, tuple(held.get(s, frozenset()) for s in space.carrier))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        s, t = pair
        i = self.base._index.get(s)
        return i is not None and t in self.related[i]

    def __repr__(self) -> str:
        """One product ``holders x related`` per distinct nonempty related set."""
        index = self.base._index.__getitem__
        products = (f"{h!r} x {sorted(ts, key=index)!r}" for ts, h in self._holders.items() if ts)
        return f"Relation({', '.join(products)})"

    @cached_property
    def _holders(self) -> dict[frozenset[str], list[str]]:
        """Each distinct related set, with the states relating to exactly
        that set, in carrier order."""
        out: dict[frozenset[str], list[str]] = {}
        for s, ts in zip(self.base.carrier, self.related):
            out.setdefault(ts, []).append(s)
        return out

    @property
    def is_symmetric(self) -> bool:
        """Every member of a related set relates back to all its holders;
        checked once per distinct set among the members' own sets."""
        index, related = self.base._index, self.related
        for ts, holders in self._holders.items():
            back = {id(r): r for r in (related[index[t]] for t in ts)}
            if not all(r.issuperset(holders) for r in back.values()):
                return False
        return True

    @property
    def is_equivalence(self) -> bool:
        """Exactly when every distinct related set is the set of its
        holders: then each state relates to itself, and every state related
        to it holds the same set."""
        return all(len(ts) == len(h) and ts.issuperset(h) for ts, h in self._holders.items())

    def classes(self) -> tuple[tuple[str, ...], ...]:
        """Equivalence classes in carrier order (requires an equivalence)."""
        if not self.is_equivalence:
            raise NonSymmetricRelationError("classes() requires an equivalence relation")
        return tuple(map(tuple, self._holders.values()))


def sigma_r(rel: Relation) -> Space:
    """The space of closed sets of a symmetric relation.

    Returns the base carrier with the coarsened partition whose blocks are
    the smallest closed unions of base atoms; the measurable closed sets are
    exactly the unions of the returned blocks.  The coarsening merges two
    atoms whenever a related pair straddles them, then closes transitively;
    symmetry makes this a union-find over the atoms.
    """
    if not rel.is_symmetric:
        raise NonSymmetricRelationError(
            "closed sets of a non-symmetric relation do not form a field"
        )
    base = rel.base
    parent = list(range(len(base.atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    for ts, holders in rel._holders.items():  # holders are linked to all of ts
        atoms = [base._atom_index[s] for s in (*holders, *ts)] if ts else ()
        for other in atoms[1:]:
            parent[find(other)] = find(atoms[0])
    groups: dict[int, list[str]] = {}
    for i, block in enumerate(base.atoms):
        groups.setdefault(find(i), []).extend(block)
    return Space(base.carrier, groups.values())


def _constant_on_atoms(space: Space, values: Mapping, what: str) -> tuple:
    """Per-state ``values`` as one value per atom (``_atom_values``), refused
    at the first atom whose states differ, naming its first state and the
    first later one with another value: a kernel or a portfolio is
    measurable exactly when it is constant on each atom (docs/derivations.md,
    sections 3 and 4)."""
    per_atom, split = _atom_values(space.atoms, values)
    if split:
        block, state = split[0]
        raise NotMeasurableSetError(
            f"states {block[0]!r} and {state!r} of atom {list(block)} have different "
            f"{what}; a model must be constant on each atom of its sigma"
        )
    return per_atom


def kernel_of(f: MeasurableMap) -> Relation:
    """The equivalence identifying states with a common image."""
    return Relation.from_partition(f.domain, f.fibers().values())


class DirectSum(Record):
    """A sum space together with the two injections."""

    space: Space
    left: MeasurableMap
    right: MeasurableMap

    __init__ = Record._store


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


class FinalSurjection(Record):
    """Result of the finality test for a surjective map.

    ``pairing`` lists, per codomain atom, the preimage as a set of domain
    states; ``is_final`` says whether those preimages are exactly the blocks
    of the invariant partition of the kernel of the map, i.e. whether the
    codomain sigma-algebra and the invariant sets are isomorphic as Boolean
    algebras under preimage.
    """

    is_final: bool
    pairing: tuple[tuple[frozenset[str], frozenset[str]], ...]

    __init__ = Record._store


def is_final_surjection(f: MeasurableMap) -> FinalSurjection:
    """Decide whether a surjection carries its codomain atoms one-to-one
    onto the blocks of the invariant partition of its kernel."""
    if not f.is_surjective:
        raise NotSurjectiveError("finality test requires a surjective map")
    blocks = sigma_r(kernel_of(f)).atom_sets
    atoms = f.domain.atom_sets
    pairing = tuple(
        (frozenset().union(*(atoms[i] for i in over)), frozenset(block))
        for over, block in zip(f.preimage_atoms, f.codomain.atoms)
    )
    preimages = {pre for pre, _ in pairing}
    return FinalSurjection(preimages == set(blocks), pairing)
