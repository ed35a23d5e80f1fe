"""Stochastic nondeterminism over finite measurable spaces, exactly.

Image-finite nondeterministic kernels (NLMPs) and finitary stochastic
effectivity functions, with exact rational arithmetic throughout: decision
procedures for state and event bisimulations, morphisms and strong
morphisms, congruence quotients, subsystems, a two-level modal logic with
distinguishing-formula synthesis, and the cospan-to-span construction for
behavioral equivalence.
"""

from .cospan import (
    CheckFailure,
    Cospan,
    CospanReport,
    CospanVerificationError,
    SpanResult,
    build_span,
    canonical_mediator_cospan,
    support_relations,
    verify_cospan,
)
from .effectivity import (
    EffFn,
    dual_ef,
    from_markov_kernel,
    greatest_ef_bisim,
    is_ef_morphism,
    is_ef_state_bisim,
    is_strong_morphism,
    is_subsystem,
    push_upperset,
    quotient,
    quotient_space,
    restrict_upperset,
    sum_ef,
)
from .errors import (
    EffkitError,
    ForeignStateError,
    FormulaSyntaxError,
    IncompatiblePartitionError,
    InternalInvariantViolation,
    ModelFormatError,
    NonSymmetricRelationError,
    NotACongruenceError,
    NotFinitelySupportedError,
    NotMeasurableSetError,
    NotSurjectiveError,
    SpaceMismatchError,
    ThresholdOutOfRangeError,
)
from .logic import (
    And,
    Box,
    Diamond,
    DistinguishResult,
    MAnd,
    MOr,
    MeasureFormula,
    StateFormula,
    Threshold,
    Top,
    distinguish,
    eval_measure,
    eval_state,
    format_formula,
    logical_equivalence,
    parse_formula,
)
from .measure import (
    SubProb,
    agree_mod,
    evaluate,
    invariant_measure_transport,
    pushforward,
    restrict,
    unique_preimages,
)
from .nlmp import (
    Kernel,
    Nlmp,
    angelize,
    filter_generate,
    greatest_bisim,
    is_event_bisim,
    is_nk_morphism,
    is_state_bisim,
)
from .nlmp import direct_sum as kernel_sum
from .space import (
    DirectSum,
    FinalSurjection,
    MeasurableMap,
    Relation,
    Space,
    compose,
    direct_sum,
    is_final_surjection,
    kernel_of,
    sigma_r,
)
from .upperset import (
    MeasureSet,
    UpperSet,
    contains,
    dual,
    equals,
    filter_of,
    intersect,
    union,
)

__version__ = "0.1.0"
