"""Exact measures: evaluation, pushforward, restriction, agreement,
invariant transport."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest

from effkit import (
    IncompatiblePartitionError,
    MeasurableMap,
    MeasureSet,
    NotMeasurableSetError,
    NotSurjectiveError,
    Relation,
    Space,
    SpaceMismatchError,
    SubProb,
    UpperSet,
    agree_mod,
    compose,
    evaluate,
    invariant_measure_transport,
    kernel_of,
    pushforward,
    restrict,
    sigma_r,
    unique_preimages,
)
from helpers import (
    agree_mod_oracle,
    evaluate_oracle,
    pushforward_oracle,
    rand_coarsening,
    rand_measurable_map,
    rand_partition_blocks,
    rand_space,
    rand_subprob,
    rand_surjection,
    restrict_oracle,
    subprob_oracle,
    upperset_order_oracle,
)

S3 = Space.discrete(["s0", "s1", "s2"])
T2 = Space.discrete(["t0", "t1"])
F3TO2 = MeasurableMap(S3, T2, {"s0": "t0", "s1": "t0", "s2": "t1"})
MU_A = SubProb.of(S3, {"s0": "1/2", "s1": "1/4"})


class TestSubProb:
    def test_mass_bounds(self):
        with pytest.raises(SpaceMismatchError):
            SubProb.of(S3, {"s0": "3/4", "s1": "1/2"})
        with pytest.raises(SpaceMismatchError):
            SubProb(S3, [Fraction(-1, 2), 0, 0])

    def test_dirac_and_zero(self):
        assert SubProb.dirac(S3, "s1").mass == (0, 1, 0)
        assert SubProb.zero(S3).total == 0

    def test_one_key_per_atom(self):
        coarse = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        with pytest.raises(SpaceMismatchError):
            SubProb.of(coarse, {"s0": "1/4", "s1": "1/4"})
        mu = SubProb.of(coarse, {"s1": "1/4"})
        assert mu.mass == (Fraction(1, 4), 0)


class TestEvaluate:
    def test_additive(self):
        assert evaluate(MU_A, ["s0", "s1"]) == Fraction(3, 4)

    def test_empty_set(self):
        assert evaluate(MU_A, []) == 0

    def test_full_carrier(self):
        assert evaluate(MU_A, S3.carrier) == Fraction(3, 4)

    def test_non_measurable(self):
        coarse = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        mu = SubProb.of(coarse, {"s0": "1/2"})
        with pytest.raises(NotMeasurableSetError):
            evaluate(mu, ["s0"])


class TestPushforward:
    def test_forced_by_definition(self):
        nu = pushforward(F3TO2, MU_A)
        assert nu.mass == (Fraction(3, 4), 0)

    def test_identity(self):
        assert pushforward(MeasurableMap.identity(S3), MU_A) == MU_A

    def test_constant_map_point_mass(self):
        one = Space.discrete(["u"])
        const = MeasurableMap(S3, one, {s: "u" for s in S3.carrier})
        assert pushforward(const, SubProb.dirac(S3, "s2")) == SubProb.dirac(one, "u")

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            pushforward(F3TO2, SubProb.zero(T2))

    def test_functorial(self):
        rng = Random(23)
        for _ in range(40):
            a = rand_space(rng, 2, 5)
            b = Space.discrete([f"t{j}" for j in range(rng.randint(1, len(a.carrier)))])
            c = Space.discrete([f"u{j}" for j in range(rng.randint(1, len(b.carrier)))])
            f = rand_surjection(rng, a, b)
            g = rand_surjection(rng, b, c)
            mu = rand_subprob(rng, a)
            assert pushforward(g, pushforward(f, mu)) == pushforward(compose(g, f), mu)
            assert pushforward(MeasurableMap.identity(a), mu) == mu


class TestRestrict:
    COARSE = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])

    def test_blocks_summed(self):
        assert restrict(MU_A, self.COARSE).mass == (Fraction(3, 4), 0)

    def test_same_partition_identity(self):
        assert restrict(MU_A, S3) == MU_A

    def test_dirac(self):
        assert restrict(SubProb.dirac(S3, "s1"), self.COARSE).mass == (1, 0)

    def test_incompatible(self):
        other = Space(["s0", "s1"], [["s0", "s1"]])
        with pytest.raises(IncompatiblePartitionError):
            restrict(MU_A, other)

    def test_nested_coarsenings_compose(self):
        rng = Random(29)
        for _ in range(30):
            space = rand_space(rng, 3, 5)
            mid_blocks = [["s0", "s1"]] + [[s] for s in space.carrier[2:]]
            mid = Space(space.carrier, mid_blocks)
            top = Space(space.carrier, [list(space.carrier)])
            mu = rand_subprob(rng, space)
            assert restrict(restrict(mu, mid), top) == restrict(mu, top)


class TestAgreeMod:
    def test_derived_example(self):
        rel = Relation(S3, [("s0", "s1"), ("s1", "s0")])
        nu = SubProb.of(S3, {"s0": "3/4"})
        assert agree_mod_oracle(rel, MU_A, nu)
        assert agree_mod(rel, MU_A, nu)

    def test_empty_relation_separates(self):
        rel = Relation(S3, [])
        nu = SubProb.of(S3, {"s0": "3/4"})
        assert not agree_mod(rel, MU_A, nu)

    def test_full_relation_compares_totals(self):
        rel = Relation.full(S3)
        nu = SubProb.of(S3, {"s2": "3/4"})
        assert agree_mod(rel, MU_A, nu)
        assert not agree_mod(rel, MU_A, SubProb.zero(S3))

    def test_non_symmetric_relation_rejected(self):
        from effkit import NonSymmetricRelationError

        with pytest.raises(NonSymmetricRelationError):
            agree_mod(Relation(S3, [("s0", "s1")]), MU_A, MU_A)

    def test_space_mismatch(self):
        rel = Relation(S3, [])
        with pytest.raises(SpaceMismatchError):
            agree_mod(rel, MU_A, SubProb.zero(T2))

    def test_matches_oracle_randomly(self):
        rng = Random(31)
        for _ in range(60):
            space = rand_space(rng, 2, 4, allow_coarse=True)
            pairs = set()
            for _ in range(rng.randint(0, 4)):
                s, t = rng.choice(space.carrier), rng.choice(space.carrier)
                pairs |= {(s, t), (t, s)}
            rel = Relation(space, pairs)
            mu, nu = rand_subprob(rng, space), rand_subprob(rng, space)
            assert agree_mod(rel, mu, nu) == agree_mod_oracle(rel, mu, nu)

    def test_is_equivalence_on_measures(self):
        rng = Random(37)
        space = Space.discrete(["a", "b", "c"])
        rel = Relation(space, [("a", "b"), ("b", "a")])
        ms = [rand_subprob(rng, space) for _ in range(12)]
        for x in ms:
            assert agree_mod(rel, x, x)
        for x in ms:
            for y in ms:
                assert agree_mod(rel, x, y) == agree_mod(rel, y, x)
                for z in ms:
                    if agree_mod(rel, x, y) and agree_mod(rel, y, z):
                        assert agree_mod(rel, x, z)

    def test_monotone_in_relation(self):
        rng = Random(41)
        space = Space.discrete(["a", "b", "c", "d"])
        small = Relation(space, [("a", "b"), ("b", "a")])
        large = Relation(space, [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        for _ in range(40):
            mu, nu = rand_subprob(rng, space), rand_subprob(rng, space)
            if agree_mod(small, mu, nu):
                assert agree_mod(large, mu, nu)


class TestInvariantTransport:
    def test_fiber_masses_forced(self):
        nu = SubProb.of(T2, {"t0": "1/2", "t1": "1/2"})
        mu = invariant_measure_transport(F3TO2, nu)
        assert set(mu.space.atom_sets) == {frozenset({"s0", "s1"}), frozenset({"s2"})}
        assert mu.mass == (Fraction(1, 2), Fraction(1, 2))

    def test_identity(self):
        mu = invariant_measure_transport(MeasurableMap.identity(S3), MU_A)
        assert mu.mass == MU_A.mass

    def test_zero(self):
        assert invariant_measure_transport(F3TO2, SubProb.zero(T2)).total == 0

    def test_requires_surjective(self):
        skinny = MeasurableMap(S3, T2, {s: "t0" for s in S3.carrier})
        with pytest.raises(NotSurjectiveError):
            invariant_measure_transport(skinny, SubProb.zero(T2))

    def test_refuses_underdetermined(self):
        merged = Space(["t0", "t1"], [["t0", "t1"]])
        f = MeasurableMap(S3, merged, {"s0": "t0", "s1": "t0", "s2": "t1"})
        nu = SubProb.of(merged, {"t0": "1"})
        with pytest.raises(NotMeasurableSetError):
            invariant_measure_transport(f, nu)

    def test_roundtrip_both_ways(self):
        rng = Random(43)
        for _ in range(40):
            m = rng.randint(1, 4)
            cod = Space.discrete([f"t{j}" for j in range(m)])
            dom = Space.discrete([f"s{i}" for i in range(rng.randint(m, 6))])
            f = rand_surjection(rng, dom, cod)
            invariant = sigma_r(kernel_of(f))
            lift = MeasurableMap(invariant, cod, dict(f.assignment))

            nu = rand_subprob(rng, cod)
            mu = invariant_measure_transport(f, nu)
            assert pushforward(lift, mu) == nu

            mu0 = rand_subprob(rng, dom)
            back = invariant_measure_transport(f, pushforward(f, mu0))
            assert back == restrict(mu0, invariant)


def _rand_masses(rng: Random, n: int) -> list:
    """Atom masses as a mix of int, Fraction and non-reduced strings; now and
    then a negative entry, a wrong count or a total above one."""
    den = rng.randint(1, 12)
    remaining = den + (rng.random() < 0.1)
    masses = []
    for _ in range(n + rng.choice([0] * 18 + [-1, 1])):
        take = rng.randint(0, remaining) if rng.random() < 0.7 else 0
        remaining -= take
        q = Fraction(take, den)
        if rng.random() < 0.03:
            q = -q - 1
        k = rng.randint(1, 4)
        kind = rng.random()
        if q.denominator == 1 and kind < 0.3:
            masses.append(int(q))
        elif kind < 0.6:
            masses.append(q)
        else:
            masses.append(f"{q.numerator * k}/{q.denominator * k}")
    return masses


class TestIntegerRepresentation:
    """SubProb holds integer numerators over one denominator; every result
    is checked against one-Fraction-per-atom arithmetic (helpers)."""

    def test_construction_matches_fraction_oracle(self):
        rng = Random(43)
        built = 0
        for _ in range(2000):
            space = rand_space(rng, 1, 6, allow_coarse=True)
            masses = _rand_masses(rng, len(space.atoms))
            try:
                vec = subprob_oracle(space, masses)
            except SpaceMismatchError as exc:
                with pytest.raises(SpaceMismatchError) as got:
                    SubProb(space, masses)
                assert str(got.value) == str(exc)
                continue
            built += 1
            mu = SubProb(space, masses)
            assert mu.mass == vec and mu.total == sum(vec)
            assert mu.den == lcm(*(q.denominator for q in vec))
            assert gcd(mu.den, *mu.num) == 1
            k = rng.randint(2, 6)
            for twin in (SubProb(space, vec), SubProb(space, [n * k for n in mu.num], mu.den * k)):
                assert twin == mu and hash(twin) == hash(mu)
                assert (twin.den, twin.num) == (mu.den, mu.num)
        assert built > 1500

    def test_operations_match_fraction_oracle(self):
        rng = Random(47)
        for _ in range(2000):
            space = rand_space(rng, 1, 6, allow_coarse=True)
            mu = rand_subprob(rng, space, max_den=12)
            states = [s for s in space.carrier if rng.random() < 0.5]
            try:
                expected = evaluate_oracle(mu, states)
            except NotMeasurableSetError:
                with pytest.raises(NotMeasurableSetError):
                    evaluate(mu, states)
            else:
                assert evaluate(mu, states) == expected

            cod = rand_space(rng, 1, 4, allow_coarse=True)
            f = rand_measurable_map(rng, space, cod)
            nu = pushforward(f, mu)
            assert nu.mass == pushforward_oracle(f, mu)
            for pre in unique_preimages(f, nu) or ():
                assert pushforward(f, pre) == nu

            coarser = rand_coarsening(rng, space)
            assert restrict(mu, coarser).mass == restrict_oracle(mu, coarser)
            other = Space(space.carrier, rand_partition_blocks(rng, list(space.carrier)))
            if restrict_oracle(mu, other) is None:
                with pytest.raises(IncompatiblePartitionError):
                    restrict(mu, other)
            else:
                assert restrict(mu, other).mass == restrict_oracle(mu, other)

            pairs = set()
            for _ in range(rng.randint(0, 3)):
                s, t = rng.choice(space.carrier), rng.choice(space.carrier)
                pairs |= {(s, t), (t, s)}
            rel = Relation(space, pairs)
            other_mu = rand_subprob(rng, space, max_den=12)
            assert agree_mod(rel, mu, other_mu) == agree_mod_oracle(rel, mu, other_mu)

    def test_sort_order_follows_fraction_vectors(self):
        rng = Random(53)
        for _ in range(300):
            space = rand_space(rng, 1, 4, allow_coarse=True)
            pool = [rand_subprob(rng, space, max_den=rng.choice([2, 6, 12])) for _ in range(6)]
            ms = MeasureSet(space, rng.sample(pool, rng.randint(0, 6)))
            assert [mu.mass for mu in ms.members] == sorted({mu.mass for mu in ms.members})
            gens = [MeasureSet(space, rng.sample(pool, rng.randint(0, 3))) for _ in range(5)]
            u = UpperSet(space, gens)
            got = [tuple(mu.mass for mu in g.members) for g in u.generators]
            assert got == upperset_order_oracle(gens)


class TestMeasureIds:
    def test_equal_measures_share_an_id_on_one_space_object(self):
        space = Space.discrete(["a", "b"])
        twin = Space(["a", "b"])
        assert twin is space and Space(space.carrier, space.atoms) is space
        mu = SubProb.of(space, {"a": "1/2"})
        assert SubProb(space, ["2/4", 0]).ident == mu.ident
        assert SubProb.of(space, {"b": "1/2"}).ident != mu.ident
        nu = SubProb.of(twin, {"a": "1/2"})
        assert nu == mu and hash(nu) == hash(mu) and nu.ident == mu.ident
        assert nu != SubProb.of(Space(["a", "c"]), {"a": "1/2"})
