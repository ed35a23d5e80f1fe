"""Behavioral equivalence via cospans, and the span construction.

A cospan consists of two portfolios mapped onto a common mediator by
surjective portfolio morphisms.  For finitely supported portfolios the
mediator is finitely supported as well, and both legs push the per-state
supports onto the same mediator support whenever their images meet; the
verifier checks exactly these facts.

The span construction builds the pullback carrier of the two legs, equips
it with one atom per mediator atom, and transports each state's pushed
support through the atom correspondence.  Measures on the pullback space
then match measures on the mediator one-to-one, and both projection squares
commute by canonical portfolio equality; a failed square on verified input
is a bug, not an input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .effectivity import (
    EffFn,
    greatest_ef_bisim,
    push_upperset,
    quotient,
    restrict_upperset,
    sum_ef,
)
from .errors import (
    EffkitError,
    InternalInvariantViolation,
    NotFinitelySupportedError,
    SpaceMismatchError,
)
from .measure import SubProb, pushforward
from .space import MeasurableMap, Space, compose
from .upperset import MeasureSet, UpperSet, equals

__all__ = [
    "Cospan",
    "CheckFailure",
    "CospanReport",
    "CospanVerificationError",
    "SpanResult",
    "verify_cospan",
    "build_span",
    "support_relations",
]


@dataclass(frozen=True)
class Cospan:
    """Two portfolios with maps into a mediating portfolio."""

    p: EffFn
    q: EffFn
    m: EffFn
    f: MeasurableMap
    g: MeasurableMap

    def __post_init__(self):
        if self.f.domain != self.p.space or self.f.codomain != self.m.space:
            raise SpaceMismatchError("left leg must map the left portfolio onto the mediator")
        if self.g.domain != self.q.space or self.g.codomain != self.m.space:
            raise SpaceMismatchError("right leg must map the right portfolio onto the mediator")


@dataclass(frozen=True)
class CheckFailure:
    check: str
    witness: str


@dataclass(frozen=True)
class CospanReport:
    ok: bool
    failures: tuple[CheckFailure, ...]


class CospanVerificationError(EffkitError):
    """A span was requested over a cospan that fails verification."""

    def __init__(self, report: CospanReport):
        lines = ", ".join(f"{c.check}({c.witness})" for c in report.failures)
        super().__init__(f"cospan verification failed: {lines}")
        self.report = report


def _support(p: EffFn, s: str) -> MeasureSet:
    return p(s).generators[0]


def verify_cospan(c: Cospan) -> CospanReport:
    """Check surjectivity and the morphism property of both legs; for
    finitely supported sides additionally check that the mediator is
    finitely supported and that pushed supports agree at matched states."""
    failures: list[CheckFailure] = []
    for name, leg in (("f", c.f), ("g", c.g)):
        if not leg.is_surjective:
            missed = sorted(set(leg.codomain.carrier) - {leg(s) for s in leg.domain.carrier})
            failures.append(CheckFailure("not_surjective", f"{name} misses {missed[0]}"))
    for name, leg, side in (("f", c.f, c.p), ("g", c.g, c.q)):
        for s in side.space.carrier:
            if not equals(c.m(leg(s)), push_upperset(leg, side(s))):
                failures.append(CheckFailure("morphism_violation", f"{name} at {s}"))
                break
    if c.p.is_finitely_supported and c.q.is_finitely_supported and not failures:
        for u in c.m.space.carrier:
            if not c.m(u).is_principal:
                failures.append(CheckFailure("mediator_not_finitely_supported", u))
        pushed_left = {
            s: MeasureSet(c.m.space, (pushforward(c.f, mu) for mu in _support(c.p, s)))
            for s in c.p.space.carrier
        }
        pushed_right = {
            t: MeasureSet(c.m.space, (pushforward(c.g, nu) for nu in _support(c.q, t)))
            for t in c.q.space.carrier
        }
        for s in c.p.space.carrier:
            for t in c.q.space.carrier:
                if c.f(s) == c.g(t) and pushed_left[s] != pushed_right[t]:
                    failures.append(CheckFailure("support_mismatch", f"{s}|{t}"))
    return CospanReport(not failures, tuple(failures))


@dataclass(frozen=True)
class SpanResult:
    """Pullback system with its projections and quotiented endpoints.

    ``w`` carries one atom per mediator atom; ``tau`` is the transported
    dynamics; ``p_f`` and ``q_g`` are the endpoint portfolios restricted to
    the invariant sets of the respective legs.
    """

    w: Space
    tau: EffFn
    p_f: EffFn
    q_g: EffFn
    pi_s: MeasurableMap
    pi_t: MeasurableMap


def _preimage_space(leg: MeasurableMap) -> Space:
    """Domain carrier with the atoms pulled back from the codomain.

    For the legs of a verified cospan these preimages realize the invariant
    sigma-algebra of the leg's kernel in the exact form that makes measures
    on it correspond one-to-one to codomain measures; on discrete spaces it
    is literally the fiber partition.
    """
    return Space(
        leg.domain.carrier,
        [leg.preimage(block) for block in leg.codomain.atoms],
    )


def build_span(c: Cospan) -> SpanResult:
    """Construct the pullback span of a verified, finitely supported cospan.

    Both commuting squares are re-checked point by point; a failure raises
    InternalInvariantViolation since it cannot occur on verified input.
    """
    report = verify_cospan(c)
    if not report.ok:
        raise CospanVerificationError(report)
    if not (c.p.is_finitely_supported and c.q.is_finitely_supported):
        raise NotFinitelySupportedError(
            "span construction requires finitely supported portfolios"
        )

    sigma_f = _preimage_space(c.f)
    sigma_g = _preimage_space(c.g)
    p_f = EffFn(sigma_f, {s: restrict_upperset(c.p(s), sigma_f) for s in sigma_f.carrier})
    q_g = EffFn(sigma_g, {t: restrict_upperset(c.q(t), sigma_g) for t in sigma_g.carrier})

    pairs = [
        (s, t)
        for s in c.p.space.carrier
        for t in c.q.space.carrier
        if c.f(s) == c.g(t)
    ]
    name = {pair: f"{pair[0]}|{pair[1]}" for pair in pairs}
    blocks = [
        [name[(s, t)] for (s, t) in pairs if c.f(s) in set(block)]
        for block in c.m.space.atoms
    ]
    w = Space([name[p] for p in pairs], blocks)
    representative = [members[0] for members in blocks]

    # Measures on w correspond to mediator measures atom for atom; transport
    # each pushed support by reading its mass per mediator atom.
    def transport(nu: SubProb) -> SubProb:
        return SubProb.of(w, dict(zip(representative, nu.num)), nu.den)

    portfolio = {}
    for s, t in pairs:
        pushed = MeasureSet(
            c.m.space, (pushforward(c.f, mu) for mu in _support(c.p, s))
        )
        transported = MeasureSet(w, (transport(nu) for nu in pushed))
        portfolio[name[(s, t)]] = UpperSet(w, (transported,))
    tau = EffFn(w, portfolio)

    pi_s = MeasurableMap(w, sigma_f, {name[(s, t)]: s for (s, t) in pairs})
    pi_t = MeasurableMap(w, sigma_g, {name[(s, t)]: t for (s, t) in pairs})

    for s, t in pairs:
        at = tau(name[(s, t)])
        if not equals(push_upperset(pi_s, at), p_f(s)):
            raise InternalInvariantViolation(f"left square fails at {name[(s, t)]}")
        if not equals(push_upperset(pi_t, at), q_g(t)):
            raise InternalInvariantViolation(f"right square fails at {name[(s, t)]}")
    return SpanResult(w, tau, p_f, q_g, pi_s, pi_t)


def canonical_mediator_cospan(p: EffFn, q: EffFn) -> Cospan:
    """The only mediator search provided: quotient the disjoint sum of the
    two portfolios by its greatest bisimulation and take the composed factor
    maps as legs.

    The legs are always morphisms; they are surjective (hence the cospan
    verifies) exactly when every state of each side is bisimilar to some
    state of the other, so ``verify_cospan`` on the result decides
    behavioral equivalence for finitely supported portfolios.
    """
    summed, ds = sum_ef(p, q)
    mediator, eta = quotient(summed, greatest_ef_bisim(summed))
    return Cospan(p, q, mediator, compose(eta, ds.left), compose(eta, ds.right))


def support_relations(p: EffFn) -> list[dict[str, SubProb]]:
    """Selections realizing a finitely supported portfolio.

    Returns maps ``K_0 .. K_{n-1}`` with ``{K_i(s)} = support(s)`` for every
    state, where ``n`` is the largest support size; shorter supports are
    padded by repeating their last member.  Requires every support to be
    nonempty, since a selection must pick a measure at each state.
    """
    if not p.is_finitely_supported:
        raise NotFinitelySupportedError("portfolio has a state with several generators")
    supports = {s: _support(p, s).members for s in p.space.carrier}
    if any(not members for members in supports.values()):
        empty = next(s for s, m in supports.items() if not m)
        raise NotFinitelySupportedError(
            f"support at {empty!r} is empty; no selection can realize it"
        )
    width = max(len(m) for m in supports.values())
    return [
        {s: members[min(i, len(members) - 1)] for s, members in supports.items()}
        for i in range(width)
    ]
