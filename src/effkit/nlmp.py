"""Image-finite nondeterministic kernels and labelled processes.

A kernel assigns each state a finite set of subprobability measures on its
own space; a labelled process bundles one kernel per label.  A kernel is
hit-measurable exactly when it is constant on each atom of its space, and
the constructor refuses any other (docs/derivations.md, section 3), and it
holds one measure set per atom; the condition against a coarser
sigma-algebra is the event-bisimulation test.

Empty images are admitted.  Their principal filter is the full family, read
as "Demon is effective for everything": with no moves available for Angel,
every constraint is met vacuously.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .effectivity import EffFn, _greatest_bisim, _is_bisim, _mutually_dominate, _stable, sum_ef
from .errors import ForeignStateError, SpaceMismatchError
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
    """Finite sets of successor measures given per state (none for a state
    left out), constant on each atom, held per atom."""

    space: Space
    image: tuple[MeasureSet, ...]

    def __init__(self, space: Space, image: Mapping[str, Iterable[SubProb] | MeasureSet]):
        table = dict.fromkeys(space.carrier, MeasureSet(space, ()))
        for state, measures in image.items():
            space.index(state)
            ms = measures if isinstance(measures, MeasureSet) else MeasureSet(space, measures)
            if ms.space != space:
                raise SpaceMismatchError("kernel measures must live on the kernel space")
            table[state] = ms
        self._store(space, _constant_on_atoms(space, table, "measures"))

    def __call__(self, state: str) -> MeasureSet:
        return self.image[self.space.atom_of(state)]


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
        self._store(space, labels, tuple((a, kernels[a]) for a in labels))

    def kernel(self, label: str) -> Kernel:
        for a, k in self.kernels:
            if a == label:
                return k
        raise ForeignStateError(f"no kernel for label {label!r}")


def _portfolios(m: Kernel | Nlmp) -> tuple[EffFn, ...]:
    kernels = (m,) if isinstance(m, Kernel) else (k for _, k in m.kernels)
    return tuple(filter_generate(k) for k in kernels)


def is_state_bisim(m: Kernel | Nlmp, rel: Relation) -> bool:
    """Transfer test: a symmetric relation is a state bisimulation iff every
    successor measure of one related state is matched by a successor of the
    other agreeing on all closed sets of the relation.  As in
    ``is_ef_state_bisim``, one that is not symmetric raises
    ``NonSymmetricRelationError``: its closed sets form no field."""
    return _is_bisim(m.space, _portfolios(m), rel)


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
    restricted measure set is, so the test is one refinement round of all
    labels' ``filter_generate`` portfolios that splits no coarser atom.  A
    non-coarsening raises ``IncompatiblePartitionError``.
    """
    return _stable(m.space, _portfolios(m), coarser)


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
    return Kernel._of(ds.space, tuple(u.generators[0] for u in summed.portfolio)), ds


def filter_generate(k: Kernel) -> EffFn:
    """Principal-filter embedding of a kernel: each state's portfolio is the
    filter of its measure set (``demonize``)."""
    return EffFn._of(k.space, tuple(UpperSet(k.space, (ms,)) for ms in k.image))


def angelize(k: Kernel) -> EffFn:
    """Singleton-filter union of a kernel: each successor measure becomes an
    Angel choice of its own."""
    return EffFn._of(
        k.space,
        tuple(UpperSet(k.space, [MeasureSet(k.space, (mu,)) for mu in ms]) for ms in k.image),
    )
