"""Image-finite nondeterministic kernels and labelled processes.

A kernel assigns each state a finite set of subprobability measures on its
own space; a labelled process bundles one kernel per label.  A kernel is
hit-measurable exactly when it is constant on each atom of its space, and
the constructor refuses any other (docs/derivations.md, section 3); the
condition against a coarser sigma-algebra is the event-bisimulation test.

Empty images are admitted.  Their principal filter is the full family, read
as "Demon is effective for everything": with no moves available for Angel,
every constraint is met vacuously.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .effectivity import EffFn, _greatest_bisim, _is_bisim, _mutually_dominate, is_subsystem, sum_ef
from .errors import ForeignStateError, IncompatiblePartitionError, SpaceMismatchError
from .measure import SubProb
from .record import Record
from .space import DirectSum, MeasurableMap, Relation, Space, _constant_on_atoms
from .upperset import MeasureSet, UpperSet

__all__ = [
    "Kernel",
    "Nlmp",
    "is_state_bisim",
    "greatest_bisim",
    "is_event_bisim",
    "is_nk_morphism",
    "direct_sum",
    "filter_generate",
    "angelize",
]


class Kernel(Record):
    """A per-state finite set of successor measures, constant on each atom."""

    space: Space
    image: tuple[tuple[str, MeasureSet], ...]

    def __init__(self, space: Space, image: Mapping[str, Iterable[SubProb] | MeasureSet]):
        table = {}
        for state, measures in image.items():
            space.index(state)
            ms = measures if isinstance(measures, MeasureSet) else MeasureSet(space, measures)
            if ms.space != space:
                raise SpaceMismatchError("kernel measures must live on the kernel space")
            table[state] = ms
        empty = MeasureSet(space, ())
        images = [table.get(s, empty) for s in space.carrier]
        _constant_on_atoms(space, images, "measures")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "image", tuple(zip(space.carrier, images)))

    def __call__(self, state: str) -> MeasureSet:
        return self.image[self.space.index(state)][1]


class Nlmp(Record):
    """A finite labelled family of kernels over one space."""

    space: Space
    labels: tuple[str, ...]
    kernels: tuple[tuple[str, Kernel], ...]

    def __init__(self, space: Space, kernels: Mapping[str, Kernel]):
        labels = tuple(kernels.keys())
        for label, k in kernels.items():
            if k.space != space:
                raise SpaceMismatchError(f"kernel for label {label!r} lives on another space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kernels", tuple((a, kernels[a]) for a in labels))

    def kernel(self, label: str) -> Kernel:
        for a, k in self.kernels:
            if a == label:
                return k
        raise ForeignStateError(f"no kernel for label {label!r}")


def _kernels_of(m: Kernel | Nlmp) -> tuple[Kernel, ...]:
    if isinstance(m, Kernel):
        return (m,)
    return tuple(k for _, k in m.kernels)


def _portfolios(m: Kernel | Nlmp) -> tuple[EffFn, ...]:
    return tuple(filter_generate(k) for k in _kernels_of(m))


def is_state_bisim(m: Kernel | Nlmp, rel: Relation) -> bool:
    """Transfer test: a symmetric relation is a state bisimulation iff every
    successor measure of one related state is matched by a successor of the
    other agreeing on all closed sets of the relation."""
    if rel.base != m.space:
        raise ForeignStateError("relation must be over the kernel's space")
    if not rel.is_symmetric:
        return False
    return _is_bisim(_portfolios(m), rel)


def greatest_bisim(m: Kernel | Nlmp) -> Relation:
    """Greatest state bisimulation, as an equivalence relation.

    The signature refinement of the principal-filter portfolios, one per
    label: a kernel's signature at a state is the set of class ids of its
    restricted successor measures (docs/derivations.md, sections 6 and 7).
    """
    return _greatest_bisim(m.space, _portfolios(m))


def is_event_bisim(m: Kernel | Nlmp, coarser: Space) -> bool:
    """Whether a coarser sigma-algebra is respected by the kernel(s).

    Decided by quotienting: restrict every successor measure to the coarser
    space and require the resulting measure set to be constant on each
    coarser atom.  This is the finite reduction of hit-measurability against
    the sub-sigma-algebra (docs/derivations.md).  A principal filter
    restricted to the coarser space is constant on an atom exactly when its
    restricted measure set is, so each label's ``filter_generate``
    portfolio goes through ``is_subsystem``.
    """
    if not coarser.coarsens(m.space):  # also when there is no label to test
        raise IncompatiblePartitionError(
            "event test needs a coarsening of the kernel space's atoms"
        )
    return all(is_subsystem(p, coarser) for p in _portfolios(m))


def is_nk_morphism(f: MeasurableMap, k: Kernel, k2: Kernel) -> bool:
    """Whether ``f`` commutes with the kernels: the image of every state's
    measure set under pushforward lands in the target, and the full
    pushforward preimage of the target set equals the source set.

    That is the generator test of a strong morphism between the
    ``filter_generate`` portfolios, without its surjectivity
    (docs/derivations.md, section 9).
    """
    if f.domain != k.space or f.codomain != k2.space:
        raise SpaceMismatchError("map endpoints must match the kernel spaces")
    return _mutually_dominate(f, filter_generate(k), filter_generate(k2))


def direct_sum(k: Kernel, k2: Kernel) -> tuple[Kernel, DirectSum]:
    """Piecewise sum kernel on the tagged sum space: the sum of the
    ``filter_generate`` portfolios, each state's single generator read back
    as its measure set."""
    summed, ds = sum_ef(filter_generate(k), filter_generate(k2))
    return Kernel(ds.space, {s: u.generators[0] for s, u in summed.portfolio}), ds


def filter_generate(k: Kernel) -> EffFn:
    """Principal-filter embedding of a kernel: each state's portfolio is the
    filter of its measure set (``demonize``)."""
    return EffFn(
        k.space,
        {s: UpperSet(k.space, (k(s),)) for s in k.space.carrier},
    )


def angelize(k: Kernel) -> EffFn:
    """Singleton-filter union of a kernel: each successor measure becomes an
    Angel choice of its own."""
    return EffFn(
        k.space,
        {
            s: UpperSet(k.space, tuple(MeasureSet(k.space, (mu,)) for mu in k(s)))
            for s in k.space.carrier
        },
    )
