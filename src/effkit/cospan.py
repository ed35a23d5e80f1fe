"""Behavioral equivalence via cospans, and the span construction.

A cospan consists of two portfolios mapped onto a common mediator by
surjective portfolio morphisms.  The verifier checks exactly these two
facts.  For finitely supported portfolios they imply that the mediator is
finitely supported as well, and that both legs push the per-state supports
onto the same mediator support whenever their images meet.

The span construction builds the pullback carrier of the two legs, equips
it with one atom per mediator atom, and transports the mediator's support at
each mediator state through the atom correspondence.  Measures on the
pullback space then match measures on the mediator one-to-one, and both
projection squares commute by canonical portfolio equality; a failed square
on verified input is a bug, not an input error.
"""

from __future__ import annotations

from .effectivity import (
    EffFn,
    _first_unmatched,
    greatest_ef_bisim,
    push_upperset,
    quotient,
    sum_ef,
)
from .errors import (
    EffkitError,
    InternalInvariantViolation,
    NotFinitelySupportedError,
    SpaceMismatchError,
)
from .measure import SubProb
from .record import Record
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
    "canonical_mediator_cospan",
    "support_relations",
]


class Cospan(Record):
    """Two portfolios with maps into a mediating portfolio."""

    p: EffFn
    q: EffFn
    m: EffFn
    f: MeasurableMap
    g: MeasurableMap

    def __init__(self, p: EffFn, q: EffFn, m: EffFn, f: MeasurableMap, g: MeasurableMap):
        if f.domain != p.space or f.codomain != m.space:
            raise SpaceMismatchError("left leg must map the left portfolio onto the mediator")
        if g.domain != q.space or g.codomain != m.space:
            raise SpaceMismatchError("right leg must map the right portfolio onto the mediator")
        self._store(p, q, m, f, g)


class CheckFailure(Record):
    check: str
    witness: str

    __init__ = Record._store


class CospanReport(Record):
    ok: bool
    failures: tuple[CheckFailure, ...]

    __init__ = Record._store


class CospanVerificationError(EffkitError):
    """A span was requested over a cospan that fails verification."""

    def __init__(self, report: CospanReport):
        lines = ", ".join(f"{c.check}({c.witness})" for c in report.failures)
        super().__init__(f"cospan verification failed: {lines}")
        self.report = report


def verify_cospan(c: Cospan) -> CospanReport:
    """Check surjectivity and the morphism property of both legs.

    For finitely supported sides nothing more is needed: a surjective
    morphism makes the mediator finitely supported and the pushed supports
    of matched states equal (docs/derivations.md, section 11)."""
    failures: list[CheckFailure] = []
    for name, leg in (("f", c.f), ("g", c.g)):
        if not leg.is_surjective:
            missed = sorted(set(leg.codomain.carrier) - {leg(s) for s in leg.domain.carrier})
            failures.append(CheckFailure("not_surjective", f"{name} misses {missed[0]}"))
    for name, leg, side in (("f", c.f, c.p), ("g", c.g, c.q)):
        s = _first_unmatched(leg, side, c.m)
        if s is not None:
            failures.append(CheckFailure("morphism_violation", f"{name} at {s}"))
    return CospanReport(not failures, tuple(failures))


class SpanResult(Record):
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

    __init__ = Record._store


def _preimage_portfolio(leg: MeasurableMap, side: EffFn) -> EffFn:
    """``side`` restricted to its carrier with the atoms pulled back from
    the codomain of ``leg``.

    For the legs of a verified cospan these preimages realize the invariant
    sigma-algebra of the leg's kernel in the exact form that makes measures
    on it correspond one-to-one to codomain measures; on discrete spaces it
    is literally the fiber partition.  Restriction is the pushforward along
    the identity-carrier inclusion, one map and so one atom map per side
    (docs/derivations.md, section 13), once per atom of ``side``; the public
    constructor checks the result constant on each preimage atom (section 11).
    """
    atoms = leg.domain.atoms
    sigma = Space(
        leg.domain.carrier,
        ([s for i in over for s in atoms[i]] for over in leg.preimage_atoms),
    )
    inclusion = MeasurableMap(side.space, sigma, {s: s for s in sigma.carrier})
    restricted = [push_upperset(inclusion, u) for u in side.portfolio]
    return EffFn(sigma, {s: u for block, u in zip(atoms, restricted) for s in block})


def build_span(c: Cospan) -> SpanResult:
    """Construct the pullback span of a verified, finitely supported cospan.

    The dynamics on the atom of ``w`` over a mediator atom is the mediator's
    support there transported to the pullback.  Both commuting squares are
    re-checked at every atom of ``p_f`` and ``q_g``, against the image of
    that dynamics pushed once per mediator atom; a failure raises
    InternalInvariantViolation since it cannot occur on verified input.
    """
    report = verify_cospan(c)
    if not report.ok:
        raise CospanVerificationError(report)
    if not (c.p.is_finitely_supported and c.q.is_finitely_supported):
        raise NotFinitelySupportedError(
            "span construction requires finitely supported portfolios"
        )

    p_f, q_g = _preimage_portfolio(c.f, c.p), _preimage_portfolio(c.g, c.q)

    over: dict[str, list[str]] = {}  # per mediator state, g's fiber in carrier order
    for t in c.q.space.carrier:
        over.setdefault(c.g(t), []).append(t)
    pairs = [(s, t) for s in c.p.space.carrier for t in over[c.f(s)]]
    # a backslash escapes each backslash and bar in a state name, so "s|t" names one pair
    states = (*c.p.space.carrier, *c.q.space.carrier)
    escaped = {s: s.replace("\\", "\\\\").replace("|", "\\|") for s in states}
    names = [f"{escaped[s]}|{escaped[t]}" for s, t in pairs]
    blocks: list[list[str]] = [[] for _ in c.m.space.atoms]
    for (s, _), name in zip(pairs, names):
        blocks[c.m.space.atom_of(c.f(s))].append(name)
    w = Space(names, blocks)
    representative = [members[0] for members in blocks]
    mediator_atom = {name: a for a, name in enumerate(representative)}
    pi_s = MeasurableMap(w, p_f.space, {name: s for name, (s, _) in zip(names, pairs)})
    pi_t = MeasurableMap(w, q_g.space, {name: t for name, (_, t) in zip(names, pairs)})

    # Measures on w correspond to mediator measures atom for atom; transport
    # the mediator's support at u by reading its mass per mediator atom.
    def transport(nu: SubProb) -> SubProb:
        return SubProb.of(w, {representative[a]: n for a, n in zip(nu.atoms, nu.nums)}, nu.den)

    supports = (MeasureSet(w, map(transport, u.generators[0])) for u in c.m.portfolio)
    dynamics = [UpperSet(w, (support,)) for support in supports]
    for side, pi, leg, end in (("left", pi_s, c.f, p_f), ("right", pi_t, c.g, q_g)):
        pushed = [push_upperset(pi, at) for at in dynamics]
        for block, u in zip(end.space.atoms, end.portfolio):
            if not equals(pushed[c.m.space.atom_of(leg(block[0]))], u):
                raise InternalInvariantViolation(f"{side} square fails at {block[0]}")
    tau = EffFn._of(w, tuple(dynamics[mediator_atom[block[0]]] for block in w.atoms))
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
    supports = {s: p(s).generators[0].members for s in p.space.carrier}
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
