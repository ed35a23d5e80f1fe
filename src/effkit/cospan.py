"""Behavioral equivalence via cospans, and the span construction.

A cospan consists of two portfolios mapped onto a common mediator by
surjective portfolio morphisms.  The verifier checks exactly these two
facts.  For finitely supported portfolios they imply that the mediator is
finitely supported as well, and that both legs push the per-state supports
onto the same mediator support whenever their images meet.

The span construction builds its three portfolios by one routine: on the
preimages of the mediator atoms under ``f`` and ``g`` (``p_f``, ``q_g``)
and on the pairs over them (``tau`` on the pullback ``w``), each atom gets
the mediator's family at the mediator atom under it.  A failed projection
square on verified input is a bug, not an input error.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .effectivity import EffFn, _first_unmatched, _moved, greatest_ef_bisim, quotient, sum_ef
from .errors import (
    EffkitError,
    InternalInvariantViolation,
    NotFinitelySupportedError,
    SpaceMismatchError,
)
from .measure import SubProb
from .record import Record
from .space import MeasurableMap, Space, compose
from .upperset import UpperSet

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

    ``w`` carries one atom per mediator atom; ``tau`` is the mediator's
    dynamics moved onto it; ``p_f`` and ``q_g`` are the endpoint portfolios
    restricted to the preimages of the mediator atoms under the legs.
    """

    w: Space
    tau: EffFn
    p_f: EffFn
    q_g: EffFn
    pi_s: MeasurableMap
    pi_t: MeasurableMap

    __init__ = Record._store


def _lifted(m: EffFn, carrier: Sequence[str], under: Iterable[str]) -> tuple[EffFn, list[int]]:
    """The portfolio on ``carrier`` whose atoms are the states lying over
    each mediator atom of ``m`` (``under`` holds the mediator state under
    each state), holding at each atom the mediator's family there; and per
    mediator atom, its atom here.  Measures here match measures on the
    mediator atom for atom, so each family moves once, measure by measure
    (docs/derivations.md, section 11)."""
    blocks: list[list[str]] = [[] for _ in m.space.atoms]
    for s, u in zip(carrier, under):
        blocks[m.space.atom_of(u)].append(s)
    space = Space(carrier, blocks)
    at = [space.atom_of(block[0]) for block in blocks]
    moved = {i: UpperSet(space, _moved(u, space, at)) for i, u in zip(at, m.portfolio)}
    return EffFn._of(space, tuple([moved[i] for i in range(len(at))])), at


def build_span(c: Cospan) -> SpanResult:
    """Construct the pullback span of a verified, finitely supported cospan.

    ``p_f``, ``q_g`` and ``tau`` are one construction: the mediator's
    family at each mediator atom, moved onto the states over it, which are
    its preimages under ``f``, under ``g``, and the pairs.  The squares
    commute when each projection sends the pairs over a mediator atom into
    the preimage over it; that is re-checked per mediator atom, and a
    failure raises InternalInvariantViolation since it cannot occur on
    verified input.
    """
    report = verify_cospan(c)
    if not report.ok:
        raise CospanVerificationError(report)
    if not (c.p.is_finitely_supported and c.q.is_finitely_supported):
        raise NotFinitelySupportedError(
            "span construction requires finitely supported portfolios"
        )

    p_f, at_f = _lifted(c.m, c.p.space.carrier, map(c.f, c.p.space.carrier))
    q_g, at_g = _lifted(c.m, c.q.space.carrier, map(c.g, c.q.space.carrier))

    over: dict[str, list[str]] = {}  # per mediator state, g's fiber in carrier order
    for t in c.q.space.carrier:
        over.setdefault(c.g(t), []).append(t)
    pairs = [(s, t) for s in c.p.space.carrier for t in over[c.f(s)]]
    # a backslash escapes each backslash and bar in a state name, so "s|t" names one pair
    states = (*c.p.space.carrier, *c.q.space.carrier)
    escaped = {s: s.replace("\\", "\\\\").replace("|", "\\|") for s in states}
    names = [f"{escaped[s]}|{escaped[t]}" for s, t in pairs]
    tau, at_w = _lifted(c.m, names, [c.f(s) for s, _ in pairs])
    w = tau.space
    pi_s = MeasurableMap(w, p_f.space, {name: s for name, (s, _) in zip(names, pairs)})
    pi_t = MeasurableMap(w, q_g.space, {name: t for name, (_, t) in zip(names, pairs)})
    for side, pi, at in (("left", pi_s, at_f), ("right", pi_t, at_g)):
        for block, i, j in zip(c.m.space.atoms, at_w, at):
            if pi.atom_map[i] != j:
                raise InternalInvariantViolation(f"{side} square fails over {block[0]}")
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
