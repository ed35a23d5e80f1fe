"""Cospan verification, span construction, support selections."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from effkit import (
    CheckFailure,
    Cospan,
    CospanVerificationError,
    EffFn,
    EffkitError,
    Kernel,
    MeasurableMap,
    MeasureSet,
    NotFinitelySupportedError,
    Relation,
    Space,
    SubProb,
    UpperSet,
    build_span,
    canonical_mediator_cospan,
    equals,
    filter_generate,
    filter_of,
    greatest_ef_bisim,
    intersect,
    is_subsystem,
    quotient,
    sum_ef,
    support_relations,
    verify_cospan,
)
from effkit import effectivity
from effkit.effectivity import push_upperset
from helpers import (
    atom_map_oracle,
    build_span_oracle,
    rand_ef,
    rand_fin_supported_ef,
    rand_measure_set,
    rand_space,
    verify_cospan_oracle,
)

S3 = Space.discrete(["s0", "s1", "s2"])
D2 = SubProb.dirac(S3, "s2")
ZERO = SubProb.zero(S3)
P_A = filter_generate(Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]}))


def canonical_cospan(p: EffFn) -> Cospan:
    quotiented, eta = quotient(p, greatest_ef_bisim(p))
    return Cospan(p, p, quotiented, eta, eta)


class TestVerify:
    def test_canonical_cospan_valid(self):
        report = verify_cospan(canonical_cospan(P_A))
        assert report.ok and not report.failures

    def test_a_failure_takes_both_fields(self):
        with pytest.raises(TypeError, match="CheckFailure takes 2 fields, got 1"):
            CheckFailure("x")

    def test_non_surjective_leg(self):
        c = canonical_cospan(P_A)
        wide = Space.discrete(list(c.m.space.carrier) + ["extra"])
        m2 = EffFn(
            wide,
            {u: UpperSet(wide, ()) for u in wide.carrier},
        )
        f2 = MeasurableMap(S3, wide, {s: c.f(s) for s in S3.carrier})
        report = verify_cospan(Cospan(P_A, P_A, m2, f2, f2))
        assert not report.ok
        assert any(fail.check == "not_surjective" for fail in report.failures)

    def test_perturbed_mediator_names_state(self):
        c = canonical_cospan(P_A)
        table = {u: c.m(u) for u in c.m.space.carrier}
        bad = c.m.space.carrier[0]
        table[bad] = filter_of(
            MeasureSet(c.m.space, [SubProb.of(c.m.space, {bad: "1/8"})])
        )
        report = verify_cospan(Cospan(c.p, c.q, EffFn(c.m.space, table), c.f, c.g))
        assert not report.ok
        assert any(f.check == "morphism_violation" for f in report.failures)


class TestBuildSpan:
    def test_fixture_pullback(self):
        span = build_span(canonical_cospan(P_A))
        # one pullback point per pair of fiber mates
        assert len(span.w.carrier) == 2 * 2 + 1 * 1
        assert len(span.w.atoms) == 2

    def test_identity_cospan_diagonal(self):
        c = Cospan(P_A, P_A, P_A, MeasurableMap.identity(S3), MeasurableMap.identity(S3))
        span = build_span(c)
        assert span.w.carrier == tuple(f"{s}|{s}" for s in S3.carrier)
        # dynamics transports the original portfolio
        for s in S3.carrier:
            assert equals(push_upperset(span.pi_s, span.tau(f"{s}|{s}")), span.p_f(s))

    def test_quotient_portfolios_are_subsystems(self):
        span = build_span(canonical_cospan(P_A))
        assert is_subsystem(P_A, span.p_f.space)
        assert is_subsystem(P_A, span.q_g.space)

    def test_rejects_unverified_cospans(self):
        c = canonical_cospan(P_A)
        table = {u: c.m(u) for u in c.m.space.carrier}
        bad = c.m.space.carrier[0]
        table[bad] = filter_of(
            MeasureSet(c.m.space, [SubProb.of(c.m.space, {bad: "1/8"})])
        )
        with pytest.raises(CospanVerificationError):
            build_span(Cospan(c.p, c.q, EffFn(c.m.space, table), c.f, c.g))

    def test_rejects_non_finitely_supported(self):
        plural = EffFn(
            S3,
            {
                "s0": UpperSet(
                    S3,
                    (
                        MeasureSet(S3, [D2]),
                        MeasureSet(S3, [ZERO, SubProb.of(S3, {"s0": "1/2"})]),
                    ),
                ),
                "s1": P_A("s1"),
                "s2": P_A("s2"),
            },
        )
        quotiented, eta = quotient(plural, Relation.identity(S3))
        with pytest.raises(NotFinitelySupportedError):
            build_span(Cospan(plural, plural, quotiented, eta, eta))

    def test_random_quotient_cospans_commute(self):
        rng = Random(211)
        for _ in range(40):
            space = rand_space(rng, 2, 4)
            p = rand_fin_supported_ef(rng, space, allow_empty=True)
            span = build_span(canonical_cospan(p))  # raises on a failed square
            assert set(span.pi_s.images) == set(space.carrier)

    def test_measure_correspondence_bijective(self):
        span = build_span(canonical_cospan(P_A))
        # every atom of w pairs with exactly one mediator atom
        assert len(span.w.atoms) == len(canonical_cospan(P_A).m.space.atoms)


def renamed(p: EffFn, names) -> EffFn:
    """``p`` on the same atoms with its states renamed in carrier order."""
    rename = dict(zip(p.space.carrier, names))
    space = Space(names, ([rename[s] for s in block] for block in p.space.atoms))
    iso = MeasurableMap(p.space, space, rename)
    return EffFn(space, {rename[s]: push_upperset(iso, p(s)) for s in p.space.carrier})


def random_cospan(rng: Random, kind: str) -> Cospan:
    """A cospan of the given kind over random, sometimes coarse, spaces:
    canonical self-cospans and mediators of a renamed copy or of a double,
    mediators of an unrelated portfolio, perturbed and widened mediators,
    sides with several generators, and state names whose pair names clash."""
    space = rand_space(rng, 2, 4, allow_coarse=True)
    if kind == "plural" or rng.random() < 0.1:
        p = rand_ef(rng, space, max_gens=2, max_measures=2)
    else:
        p = rand_fin_supported_ef(rng, space, allow_empty=True)
    n = len(space.carrier)
    if kind == "clash":
        p = renamed(p, ["x", "x|y", *(f"x{i}" for i in range(2, n))])
        q = renamed(p, ["y|z", "z", *(f"z{i}" for i in range(2, n))])
        return canonical_mediator_cospan(p, q)
    if kind == "copy":
        return canonical_mediator_cospan(p, renamed(p, [f"t{i}" for i in range(n)]))
    if kind == "double":
        return canonical_mediator_cospan(p, sum_ef(p, p)[0])
    if kind == "other":
        return canonical_mediator_cospan(p, rand_fin_supported_ef(rng, rand_space(rng, 2, 4)))
    c = canonical_cospan(p)
    if kind == "perturbed":
        table = {u: c.m(u) for u in c.m.space.carrier}
        gens = [rand_measure_set(rng, c.m.space, 1, 2) for _ in range(rng.randint(0, 2))]
        table[rng.choice(c.m.space.carrier)] = UpperSet(c.m.space, gens)
        return Cospan(c.p, c.q, EffFn(c.m.space, table), c.f, c.g)
    if kind == "wide":
        wide = Space([*c.m.space.carrier, "extra"], [*c.m.space.atoms, ["extra"]])
        inject = MeasurableMap(c.m.space, wide, {u: u for u in c.m.space.carrier})
        table = {u: push_upperset(inject, c.m(u)) for u in c.m.space.carrier}
        mediator = EffFn(wide, {**table, "extra": UpperSet(wide, ())})
        f = MeasurableMap(c.p.space, wide, dict(zip(c.p.space.carrier, c.f.images)))
        return Cospan(c.p, c.q, mediator, f, f)
    return c


KINDS = ("canonical", "copy", "double", "other", "perturbed", "wide", "plural", "clash")


class TestAgainstPairOracle:
    def test_random_cospans(self):
        """Verification and the span against the per-pair code: equal
        reports, equal error types and messages, and every SpanResult field
        and projection atom map equal."""
        rng = Random(241)
        seen: Counter = Counter()
        for case in range(1600):
            kind = KINDS[case % len(KINDS)]
            try:
                c = random_cospan(rng, kind)
            except EffkitError:
                seen["unbuilt"] += 1
                continue
            report = verify_cospan(c)
            assert report == verify_cospan_oracle(c), kind
            both_supported = c.p.is_finitely_supported and c.q.is_finitely_supported
            seen["reached the support checks"] += report.ok and both_supported
            outcomes = []
            for build in (build_span, build_span_oracle):
                try:
                    outcomes.append(build(c))
                except EffkitError as exc:
                    outcomes.append((type(exc), str(exc)))
            new, old = outcomes
            if kind == "clash" and both_supported:
                fibers_f, fibers_g = c.f.fibers(), c.g.fibers()
                pairs = sum(len(fibers_f[u]) * len(fibers_g[u]) for u in c.m.space.carrier)
                assert len(set(new.w.carrier)) == pairs, new
                seen["clash span"] += 1
            if isinstance(old, tuple):
                assert new == old, kind
                seen[old[0].__name__] += 1
                continue
            seen["span"] += 1
            for field in ("w", "tau", "p_f", "q_g", "pi_s", "pi_t"):
                assert getattr(new, field) == getattr(old, field), (kind, field)
            for pi in (new.pi_s, new.pi_t):
                assert pi.atom_map == atom_map_oracle(pi)
        assert seen["span"] > 300 and seen["reached the support checks"] > 300
        for count in ("CospanVerificationError", "NotFinitelySupportedError", "clash span"):
            assert seen[count] > 20, seen


def one_block_cospan(n: int) -> Cospan:
    """The canonical cospan of an n-state portfolio whose states each hold
    one measure of mass 1/2 on a random state: its greatest bisimulation is
    one block, so every pair of states lies over the one mediator state."""
    rng = Random(n)
    space = Space.discrete([f"s{i}" for i in range(n)])
    p = EffFn(space, {
        s: filter_of(MeasureSet(space, [SubProb.of(space, {f"s{rng.randrange(n)}": "1/2"})]))
        for s in space.carrier
    })
    return canonical_cospan(p)


class TestSpanWork:
    def test_pushes_grow_with_states_not_pairs(self, monkeypatch):
        """On the one-block cospan of n states, verification pushes one
        family per atom of p and of q, 2n in all, and the span moves the
        mediator's one family once per space it builds: p_f's, q_g's and
        w's.  Every family holds one generator of one measure, and both
        moves go through ``effectivity._moved``, which moves a measure by
        one ``_collect`` call: 2n + 3 of them.  Nothing grows with the
        n * n pairs."""
        calls: Counter = Counter()
        for name in ("push_upperset", "_collect"):
            def counted(*args, _real=getattr(effectivity, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(effectivity, name, counted)
        for n in (10, 20, 40):
            c = one_block_cospan(n)
            assert len(c.m.space.carrier) == 1
            assert [len(g) for u in c.m.portfolio for g in u] == [1]
            calls.clear()
            assert len(build_span(c).w.carrier) == n * n
            assert calls == {"push_upperset": 2 * n, "_collect": 2 * n + 3}, (n, calls)

    def test_atom_maps_do_not_grow_with_states(self, monkeypatch):
        calls: Counter = Counter()
        atom_map = Space.atom_map

        def counted(space, coarser):
            calls["atom_map"] += 1
            return atom_map(space, coarser)

        monkeypatch.setattr(Space, "atom_map", counted)
        made = {}
        for n in (10, 20, 40):
            c = one_block_cospan(n)
            before = calls["atom_map"]
            build_span(c)
            made[n] = calls["atom_map"] - before
        assert made[10] == made[20] == made[40], made


class TestCanonicalMediator:
    def test_bisimilar_sides_yield_valid_cospan(self):
        from effkit import canonical_mediator_cospan

        c = canonical_mediator_cospan(P_A, P_A)
        report = verify_cospan(c)
        assert report.ok
        span = build_span(c)
        assert len(span.w.atoms) == len(c.m.space.atoms)

    def test_unmatched_state_breaks_surjectivity(self):
        from effkit import canonical_mediator_cospan

        lonely = Space.discrete(["x"])
        q = EffFn(
            lonely,
            {"x": UpperSet(lonely, (MeasureSet(lonely, [SubProb.of(lonely, {"x": "1/2"})]),))},
        )
        c = canonical_mediator_cospan(P_A, q)
        report = verify_cospan(c)
        assert not report.ok
        assert any(f.check == "not_surjective" for f in report.failures)

    def test_random_self_pairs_always_behaviorally_equivalent(self):
        rng = Random(233)
        from effkit import canonical_mediator_cospan

        for _ in range(20):
            space = rand_space(rng, 2, 4)
            p = rand_fin_supported_ef(rng, space, allow_empty=True)
            c = canonical_mediator_cospan(p, p)
            assert verify_cospan(c).ok
            build_span(c)


class TestSupportRelations:
    def test_single_selection(self):
        sels = support_relations(P_A)
        assert len(sels) == 1
        assert sels[0]["s0"] == D2

    def test_padding(self):
        mu = SubProb.of(S3, {"s0": "1/2"})
        p = EffFn(
            S3,
            {
                "s0": UpperSet(S3, (MeasureSet(S3, [mu, D2]),)),
                "s1": UpperSet(S3, (MeasureSet(S3, [ZERO]),)),
                "s2": UpperSet(S3, (MeasureSet(S3, [D2]),)),
            },
        )
        sels = support_relations(p)
        assert len(sels) == 2
        assert sels[0]["s1"] == sels[1]["s1"] == ZERO
        assert {sels[0]["s0"], sels[1]["s0"]} == {mu, D2}

    def test_selections_reassemble_portfolio(self):
        rng = Random(223)
        for _ in range(25):
            space = rand_space(rng, 2, 4)
            p = rand_fin_supported_ef(rng, space)
            sels = support_relations(p)
            for s in space.carrier:
                rebuilt = filter_of(MeasureSet(space, [sels[0][s]]))
                for sel in sels[1:]:
                    rebuilt = intersect(
                        rebuilt, filter_of(MeasureSet(space, [sel[s]]))
                    )
                assert equals(rebuilt, p(s))

    def test_rejects_plural_portfolios(self):
        plural = EffFn(
            S3,
            {
                "s0": UpperSet(
                    S3, (MeasureSet(S3, [D2]), MeasureSet(S3, [ZERO]))
                ),
                "s1": P_A("s1"),
                "s2": P_A("s2"),
            },
        )
        with pytest.raises(NotFinitelySupportedError):
            support_relations(plural)

    def test_rejects_empty_supports(self):
        hollow = EffFn(S3, {s: UpperSet.full(S3) for s in S3.carrier})
        with pytest.raises(NotFinitelySupportedError):
            support_relations(hollow)
