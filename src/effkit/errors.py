"""Exception types shared across the library.

Every decision procedure distinguishes three failure modes: malformed input
(these exceptions), a well-formed negative answer, and internal invariant
violations that indicate a bug.  A negative answer is returned as ``False``
or a report value, but three are raised, each an :class:`EffkitError` that
the command line answers with exit 1: :class:`NotACongruenceError` from
``quotient``, ``CospanVerificationError`` from ``build_span`` and
:class:`NotSurjectiveError` from ``is_strong_morphism``.
"""

from __future__ import annotations


class EffkitError(ValueError):
    """Base class for all input errors raised by this library."""


class ForeignStateError(EffkitError):
    """A state identifier does not belong to the expected carrier."""


class NonSymmetricRelationError(EffkitError):
    """A relation was required to be symmetric but is not.

    Closed sets of a non-symmetric relation are not complement-closed, so
    they do not form a field of sets; every operation built on the invariant
    set structure rejects such relations instead of guessing an intent:
    ``sigma_r``, ``agree_mod`` and the state-bisimulation tests of kernels
    and portfolios alike.  ``Relation.classes`` and ``quotient`` raise it
    for a relation that is not an equivalence.
    """


class NotSurjectiveError(EffkitError):
    """A map was required to be onto but misses part of its codomain."""


class NotMeasurableSetError(EffkitError):
    """A set of states is not a union of atoms of its space, or a kernel or
    a portfolio is not constant on each atom, so not measurable."""


class SpaceMismatchError(EffkitError):
    """Two values that must share a measurable space do not."""


class IncompatiblePartitionError(EffkitError):
    """A partition is not a coarsening of the atoms of the base space."""


class NotACongruenceError(EffkitError):
    """An equivalence does not induce a well-defined quotient system.

    Carries a witness pair of representatives that disagree.
    """

    def __init__(self, message: str, witness: tuple[str, str] | None = None):
        super().__init__(message)
        self.witness = witness


class NotFinitelySupportedError(EffkitError):
    """An effectivity function lacks the single-generator form."""


class FormulaSyntaxError(EffkitError):
    """Formula text could not be parsed; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ThresholdOutOfRangeError(EffkitError):
    """A threshold rational lies outside the half-open unit interval [0, 1)."""


class ModelFormatError(EffkitError):
    """A model, map, or partition file violates its schema."""

    def __init__(self, message: str, file: str | None = None, location: str | None = None):
        super().__init__(message)
        self.file = file
        self.location = location


class InternalInvariantViolation(AssertionError):
    """A construction produced output violating one of its own guarantees."""
