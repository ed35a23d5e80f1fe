"""Canonical antichains, filters, lattice operations, duality."""

from __future__ import annotations

from random import Random

import pytest

from effkit import (
    MeasureSet,
    Space,
    SpaceMismatchError,
    SubProb,
    UpperSet,
    contains,
    dual,
    equals,
    filter_of,
    intersect,
    union,
)
from effkit.upperset import _minimal
from helpers import (
    minimal_oracle,
    rand_measure_set,
    rand_space,
    rand_subprob,
    upperset_members_oracle,
)

S3 = Space.discrete(["s0", "s1", "s2"])
M1 = SubProb.of(S3, {"s0": "1/2"})
M2 = SubProb.of(S3, {"s1": "1/3"})
M3 = SubProb.of(S3, {"s2": "1/4"})
D0 = SubProb.dirac(S3, "s0")
D1 = SubProb.dirac(S3, "s1")


def ms(*measures) -> MeasureSet:
    return MeasureSet(S3, measures)


def rand_upperset(rng: Random, space, max_gens=3, max_measures=3) -> UpperSet:
    return UpperSet(
        space,
        [rand_measure_set(rng, space, 0, max_measures) for _ in range(rng.randint(0, max_gens))],
    )


class TestCanonicalize:
    def test_superset_generator_dropped(self):
        u = UpperSet(S3, [ms(M1), ms(M1, M2)])
        assert u.generators == (ms(M1),)

    def test_empty_is_empty_family(self):
        u = UpperSet(S3, [])
        assert u.is_empty and not u.is_full

    def test_dedup(self):
        u = UpperSet(S3, [ms(M1), ms(M2), ms(M1)])
        assert set(u.generators) == {ms(M1), ms(M2)}
        assert len(u.generators) == 2

    def test_empty_generator_dominates(self):
        u = UpperSet(S3, [ms(), ms(M1), ms(M2, M3)])
        assert u.is_full

    def test_space_mismatch(self):
        other = Space.discrete(["x"])
        with pytest.raises(SpaceMismatchError):
            UpperSet(S3, [MeasureSet(other, [SubProb.zero(other)])])


class TestMinimal:
    def test_matches_definition_on_random_families(self):
        rng = Random(331)
        for _ in range(2500):
            family = [
                frozenset(rng.sample(range(6), rng.randint(0, 4)))
                for _ in range(rng.randint(0, 8))
            ]
            if family and rng.random() < 0.3:  # chains and repeats
                base = rng.choice(family)
                family += [base, base | {6}, base | {6, 7}, frozenset()][: rng.randint(1, 4)]
                rng.shuffle(family)
            kept = _minimal(family)
            assert set(kept) == minimal_oracle(set(family))
            assert len(kept) == len(set(kept))
            assert [len(a) for a in kept] == sorted(len(a) for a in kept)
            first = {}
            for i, a in enumerate(family):
                first.setdefault(a, i)
            same_size = [[first[a] for a in kept if len(a) == n] for n in {len(a) for a in kept}]
            assert all(order == sorted(order) for order in same_size)


class TestFilterOf:
    def test_definition(self):
        u = filter_of(ms(D0, D1))
        assert u.generators == (ms(D0, D1),)
        assert contains(u, ms(D0, D1, M1))
        assert not contains(u, ms(D0))

    def test_empty_set_gives_full_family(self):
        assert filter_of(ms()).is_full

    def test_singleton_principal(self):
        u = filter_of(ms(M1))
        assert u.is_principal and contains(u, ms(M1))


class TestContains:
    def test_upward_closure(self):
        assert contains(UpperSet(S3, [ms(M1)]), ms(M1, M2))

    def test_empty_family_contains_nothing(self):
        assert not contains(UpperSet.empty(S3), ms())
        assert not contains(UpperSet.empty(S3), ms(M1))

    def test_generator_inclusion_is_the_criterion(self):
        u = UpperSet(S3, [ms(M1, M2)])
        assert not contains(u, ms(M1))
        assert contains(u, ms(M1, M2))

    def test_monotone(self):
        rng = Random(47)
        for _ in range(60):
            space = rand_space(rng, 2, 4)
            u = rand_upperset(rng, space)
            small = rand_measure_set(rng, space, 0, 2)
            big = small.union(rand_measure_set(rng, space, 0, 2))
            if contains(u, small):
                assert contains(u, big)


class TestUnionIntersect:
    def test_union_of_principals(self):
        u = union(UpperSet(S3, [ms(M1)]), UpperSet(S3, [ms(M2)]))
        assert set(u.generators) == {ms(M1), ms(M2)}

    def test_intersect_of_principals(self):
        u = intersect(UpperSet(S3, [ms(M1)]), UpperSet(S3, [ms(M2)]))
        assert u.generators == (ms(M1, M2),)
        # membership oracle: a set is in both filters iff it has both members
        assert contains(u, ms(M1, M2, M3))
        assert not contains(u, ms(M1))
        assert not contains(u, ms(M2))

    def test_intersect_with_full_is_identity(self):
        rng = Random(53)
        for _ in range(20):
            u = rand_upperset(rng, S3)
            assert equals(intersect(u, UpperSet.full(S3)), u)
            assert equals(union(u, UpperSet.empty(S3)), u)

    def test_semantics_match_pointwise_oracle(self):
        rng = Random(59)
        for _ in range(40):
            space = rand_space(rng, 2, 3)
            pool = sorted(
                {rand_subprob(rng, space, 4) for _ in range(3)},
                key=lambda m: m.sort_key(),
            )

            def subpool(r: Random):
                return MeasureSet(space, [m for m in pool if r.random() < 0.6])

            u = UpperSet(space, [subpool(rng) for _ in range(rng.randint(0, 2))])
            v = UpperSet(space, [subpool(rng) for _ in range(rng.randint(0, 2))])
            mu_u = upperset_members_oracle(u, pool)
            mu_v = upperset_members_oracle(v, pool)
            assert upperset_members_oracle(union(u, v), pool) == (mu_u | mu_v)
            assert upperset_members_oracle(intersect(u, v), pool) == (mu_u & mu_v)


class TestDual:
    def test_choice_functions_example(self):
        u = UpperSet(S3, [ms(D0, D1)])
        assert set(dual(u).generators) == {ms(D0), ms(D1)}

    def test_involution_random(self):
        rng = Random(61)
        for _ in range(80):
            space = rand_space(rng, 2, 4)
            u = rand_upperset(rng, space)
            assert equals(dual(dual(u)), u)

    def test_degenerate_cases(self):
        assert dual(UpperSet.full(S3)).is_empty
        assert dual(UpperSet.empty(S3)).is_full

    def test_hitting_semantics_against_oracle(self):
        # D is in the dual iff D hits every generator; check extensionally
        rng = Random(67)
        for _ in range(30):
            space = rand_space(rng, 2, 3)
            pool = sorted(
                {rand_subprob(rng, space, 4) for _ in range(4)},
                key=lambda m: m.sort_key(),
            )
            gens = [
                MeasureSet(space, [m for m in pool if rng.random() < 0.5])
                for m2 in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if len(g)]
            u = UpperSet(space, gens)
            d = dual(u)
            import itertools

            for r in range(len(pool) + 1):
                for combo in itertools.combinations(pool, r):
                    test_set = MeasureSet(space, combo)
                    hits_all = all(
                        any(m in test_set for m in g) for g in u.generators
                    )
                    assert contains(d, test_set) == hits_all

    def test_de_morgan(self):
        rng = Random(71)
        for _ in range(50):
            space = rand_space(rng, 2, 4)
            u, v = rand_upperset(rng, space, 2, 2), rand_upperset(rng, space, 2, 2)
            assert equals(dual(union(u, v)), intersect(dual(u), dual(v)))


class TestEquals:
    def test_canonicalization_identifies(self):
        assert equals(
            UpperSet(S3, [ms(M1), ms(M1, M2)]), UpperSet(S3, [ms(M1)])
        )

    def test_distinct_singletons_differ(self):
        assert not equals(UpperSet(S3, [ms(M1)]), UpperSet(S3, [ms(M2)]))

    def test_union_commutes(self):
        rng = Random(73)
        for _ in range(30):
            u, v = rand_upperset(rng, S3), rand_upperset(rng, S3)
            assert equals(union(u, v), union(v, u))

    def test_canonical_form_complete_for_families(self):
        # families coincide extensionally over the shared pool iff canonical
        # forms agree
        rng = Random(79)
        for _ in range(40):
            space = rand_space(rng, 2, 3)
            pool = sorted(
                {rand_subprob(rng, space, 4) for _ in range(3)},
                key=lambda m: m.sort_key(),
            )
            us = [
                UpperSet(
                    space,
                    [
                        MeasureSet(space, [m for m in pool if rng.random() < 0.5])
                        for _ in range(rng.randint(0, 2))
                    ],
                )
                for _ in range(2)
            ]
            same_ext = upperset_members_oracle(us[0], pool) == upperset_members_oracle(
                us[1], pool
            )
            assert equals(us[0], us[1]) == same_ext
