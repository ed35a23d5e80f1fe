"""Canonical antichains, filters, lattice operations, duality."""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from fractions import Fraction
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
from effkit import (
    Kernel,
    Nlmp,
    angelize,
    distinguish,
    dual_ef,
    format_formula,
)
from effkit import upperset as upperset_module
from effkit.effectivity import EffFn
from effkit.model_io import dumps_canonical, model_from_dict, model_to_dict
from effkit.nlmp import filter_generate
from effkit.upperset import _minimal
from helpers import (
    MeasureSetOracle,
    dense,
    dual_oracle,
    engine_rounds,
    half_chain_doc,
    harder_ring_doc,
    minimal_oracle,
    per_atom,
    rand_coarsening,
    rand_measure_set,
    rand_partition_blocks,
    rand_space,
    rand_subprob,
    refine_oracle,
    ring_doc,
    same_classes,
    upperset_members_oracle,
    upperset_oracle,
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
            masks = [sum(1 << i for i in a) for a in family]
            kept = [frozenset(i for i in range(8) if m >> i & 1) for m in _minimal(masks)]
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

    def test_bits_are_read_on_one_space_only(self):
        other = Space.discrete(["s0", "s1"])
        foreign = MeasureSet(other, [SubProb.of(other, {"s0": "1/2"})])
        assert M1 not in foreign and SubProb.of(other, {"s0": "1/2"}) not in ms(M1)
        assert foreign != ms(M1)
        with pytest.raises(SpaceMismatchError):
            ms(M1).issubset(foreign)
        with pytest.raises(SpaceMismatchError):
            MeasureSet(S3, [M1, SubProb.of(other, {"s1": "1/3"})])


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
                key=dense,
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
                key=dense,
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
                key=dense,
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


def check_rounds(space: Space, portfolios, start) -> int:
    """The engine's rounds against ``refine_oracle``'s: the same classes,
    and per round a ``class_of``, read after the engine has finished, that
    gives equal ids exactly to the measures the oracle puts together.
    Returns the number of rounds."""
    rounds = engine_rounds(space, portfolios, start)
    expected = refine_oracle(space, portfolios, start)
    assert [classes for classes, _ in rounds] == [classes for classes, _ in expected]
    for (_, class_of), (_, ids) in zip(rounds, expected):
        assert same_classes(class_of, ids)
    return len(rounds)


def values(measures) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    return [(mu.den, mu.atoms, mu.nums) for mu in measures]


class TestAgainstFrozensetOracle:
    """Measure sets held as id masks against the frozenset representation
    they replace (tests/helpers.py).  About half the cases also build
    measures and sets on the space rebuilt from its value, which is the
    same object."""

    def test_seeded_cross_check(self):
        rng = Random(2718)
        seen: Counter = Counter()
        for _ in range(2000):
            space = rand_space(rng, 2, 4, allow_coarse=True)
            rebuilt = rng.random() < 0.5
            twin = Space(space.carrier, space.atoms) if rebuilt else space
            assert twin is space
            seen["rebuilt spaces"] += rebuilt
            on = (space, twin)
            pool = [rand_subprob(rng, rng.choice(on)) for _ in range(rng.randint(2, 6))]
            pool += [
                SubProb(twin if mu.space is space else space, dict(zip(mu.atoms, mu.nums)), mu.den)
                for mu in pool[:2]
            ]
            drawn = [
                (rng.choice(on), rng.choices(pool, k=rng.randint(1, 3)))
                for _ in range(rng.randint(2, 5))
            ]
            if rng.random() < 0.05:
                drawn.append((rng.choice(on), []))
            new = [MeasureSet(where, members) for where, members in drawn]
            old = [MeasureSetOracle(where, members) for where, members in drawn]
            for a, oa in zip(new, old):
                assert values(a.members) == values(oa.members)
                assert [mu in a for mu in pool] == [mu in oa for mu in pool]
                for b, ob in zip(new, old):
                    assert a.issubset(b) == oa.issubset(ob)
                    assert (a == b) == (oa == ob)
                    if oa == ob:
                        assert hash(a) == hash(b)
            u = UpperSet(space, new)
            gens = upperset_oracle(space, old)
            assert [values(g.members) for g in u.generators] == [values(g.members) for g in gens]
            d = dual(u)
            assert [values(g.members) for g in d.generators] == [
                values(g.members) for g in dual_oracle(space, gens)
            ]
            assert equals(dual(d), u)
            seen["several generators"] += len(u.generators) > 1
            seen["several dual generators"] += len(d.generators) > 1
            portfolios = [
                EffFn(space, per_atom(space, lambda: rng.sample(new, rng.randint(0, len(new)))))
                for _ in range(rng.randint(1, 2))
            ]
            blocks = rand_coarsening(rng, space).atoms  # unions of atoms, as the engine needs
            for start in ((space.carrier,), blocks):
                check_rounds(space, portfolios, start)
        assert min(seen.values()) > 500, seen
        # Deep inputs, where one block splits per round, from the carrier and
        # from coarse starts as ``is_subsystem`` gives them.
        rng = Random(31)
        rounds = []
        for doc in (
            *(half_chain_doc(n) for n in (2, 5, 17, 40)),
            *(ring_doc(n) for n in (9, 20, 40)),
            *(harder_ring_doc(n) for n in (7, 20, 39, 40)),
        ):
            m = model_from_dict(doc)
            portfolios = [filter_generate(k) for _, k in m.kernels]
            carrier = m.space.carrier
            for k in (0, 1, 2):  # cut into k + 1 runs of states
                cuts = [0, *sorted(rng.sample(range(1, len(carrier)), k)), len(carrier)]
                blocks = [carrier[i:j] for i, j in zip(cuts, cuts[1:])]
                rounds.append(check_rounds(m.space, portfolios, blocks))
        assert max(rounds) == 40 and sum(r >= 10 for r in rounds) >= 12, rounds

    def test_ids_belong_to_the_space_value(self):
        twin = Space(S3.carrier, S3.atoms)
        assert twin is S3
        m1 = SubProb.of(twin, {"s0": "1/2"})
        assert m1 == M1 and hash(m1) == hash(M1) and m1 is M1
        assert SubProb.of(S3, {"s0": "1/2"}) is M1
        a, b = ms(M1, M2), MeasureSet(twin, [SubProb.of(twin, {"s1": "1/3"}), m1])
        assert a == b and hash(a) == hash(b) and a.mask == b.mask
        assert a.issubset(b) and b.issubset(a) and m1 in a and M2 in b
        assert MeasureSet(S3, [m1, M1]).members == (M1,)


def rand_masses(rng: Random, atoms: int, max_den=6) -> list[Fraction]:
    den = rng.randint(1, max_den)
    nums = [0] * atoms
    for _ in range(rng.randint(0, den)):
        nums[rng.randrange(atoms)] += 1
    return [Fraction(n, den) for n in nums]


class TestOrderInvariance:
    """The order of construction reaches no output.  Each case is built
    twice, the second time with its measures created in another order (so
    with other ids on a fresh space) and every member and generator list
    shuffled; both builds read the same canonical orders, emit the same
    bytes and give the same witnesses."""

    @staticmethod
    def outputs(case, rng: Random | None):
        carrier, atoms, vectors, portfolio, kernel, pair = case

        def shuffled(items):
            items = list(items)
            if rng is not None:
                rng.shuffle(items)
            return items

        space = Space(carrier, atoms)
        measures = {
            i: SubProb(space, dict(enumerate(vectors[i]))) for i in shuffled(range(len(vectors)))
        }

        def measure_set(indices):
            return MeasureSet(space, [measures[i] for i in shuffled(indices)])

        ef = EffFn(
            space,
            {s: UpperSet(space, map(measure_set, shuffled(gens))) for s, gens in portfolio.items()},
        )
        k = Kernel(space, {s: measure_set(indices) for s, indices in kernel.items()})
        witnesses = []
        for p in (ef, angelize(k)):
            found = distinguish(p, *pair)
            witnesses.append((found.satisfied_by, found.formula and format_formula(found.formula)))
        models = (ef, dual_ef(ef), Nlmp(space, {"a": k}))
        return (
            [[values(g.members) for g in ef(s).generators] for s in carrier],
            [values(k(s).members) for s in carrier],
            [dumps_canonical(model_to_dict(m)) for m in models],
            witnesses,
        ), weakref.ref(space)

    def test_shuffled_builds_agree(self):
        rng = Random(1729)
        seen: Counter = Counter()
        for case_no in range(100):
            carrier = [f"order-{case_no}-{i}" for i in range(rng.randint(2, 5))]
            atoms = rand_partition_blocks(rng, carrier) if rng.random() < 0.4 else None
            width = len(atoms) if atoms else len(carrier)
            vectors = [rand_masses(rng, width) for _ in range(rng.randint(3, 6))]
            draw = range(len(vectors))
            # one draw per atom, given to its states
            blocks = atoms or [[s] for s in carrier]
            portfolio = {}
            for block in blocks:
                gens = [rng.sample(draw, rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
                portfolio.update(dict.fromkeys(block, gens))
            kernel = {}
            for block in blocks:
                kernel.update(dict.fromkeys(block, rng.sample(draw, rng.randint(0, 3))))
            case = (carrier, atoms, vectors, portfolio, kernel, tuple(rng.sample(carrier, 2)))
            first, space = self.outputs(case, None)
            gc.collect()
            assert space() is None
            second, _ = self.outputs(case, Random(case_no))
            assert first == second
            generators, members, _, witnesses = first
            seen["several generators"] += any(len(gens) > 1 for gens in generators)
            seen["several members"] += any(len(m) > 1 for m in members)
            seen["witnesses"] += sum(w[1] is not None for w in witnesses)
        assert min(seen.values()) > 30, seen


class TestWork:
    """Work counters: construction never sorts, the canonical order is
    computed once on first read, and ``dual`` hashes no measure (a measure
    hashes by identity, so the counter wraps ``object.__hash__``)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls: Counter = Counter()

        def order(measures, _order=upperset_module._mass_order):
            calls["_mass_order"] += 1
            return _order(measures)

        def hashed(mu, _hash=SubProb.__hash__):
            calls["SubProb.__hash__"] += 1
            return _hash(mu)

        assert SubProb.__hash__ is object.__hash__

        monkeypatch.setattr(upperset_module, "_mass_order", order)
        monkeypatch.setattr(SubProb, "__hash__", hashed)
        return calls

    def test_building_never_sorts_and_the_first_read_sorts_once(self, calls):
        rng = Random(31)
        for size in range(6):
            pool = [rand_subprob(rng, S3) for _ in range(2 * size + 2)]
            sets = [MeasureSet(S3, rng.sample(pool, size)) for _ in range(size)]
            u = UpperSet(S3, sets)
            assert calls["_mass_order"] == 0
            for a in sets:
                expected = 1 if len(a) > 1 else 0
                a.members
                assert calls["_mass_order"] == expected
                a.members
                assert calls["_mass_order"] == expected
                calls.clear()
            expected = 1 if len(u) > 1 else 0
            u.generators
            assert calls["_mass_order"] == expected
            u.generators
            assert calls["_mass_order"] == expected
            calls.clear()

    def test_reading_generators_orders_their_members(self, calls):
        u = UpperSet(S3, [ms(M3, M1), ms(M2, M3), ms(D0, D1)])
        assert [g.members for g in u.generators] == [(M3, M2), (M3, M1), (D1, D0)]
        assert calls["_mass_order"] == 1

    def test_dual_of_a_disjoint_portfolio_hashes_no_measure(self, calls):
        space = Space.discrete([f"x{i}" for i in range(12)])
        u = UpperSet(
            space,
            [
                MeasureSet(space, [SubProb.dirac(space, f"x{3 * i + j}") for j in range(3)])
                for i in range(4)
            ],
        )
        calls.clear()
        d = dual(u)
        assert calls["SubProb.__hash__"] == 0
        assert len(d.generators) == 3**4
