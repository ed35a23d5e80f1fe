"""Exact measures: evaluation, pushforward, restriction, agreement,
invariant transport."""

from __future__ import annotations

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from random import Random

import pytest

import effkit
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
from effkit.measure import _mass_order
from effkit.model_io import _measure_texts, model_from_dict
from helpers import (
    agree_mod_oracle,
    dense,
    dumps_oracle,
    evaluate_oracle,
    measure_dict_oracle,
    pushforward_oracle,
    rand_coarsening,
    rand_measurable_map,
    rand_partition_blocks,
    rand_space,
    rand_subprob,
    rand_surjection,
    ring_doc,
    restrict_oracle,
    subprob_oracle,
    unique_preimages_oracle,
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
            SubProb(S3, {0: Fraction(-1, 2)})

    @pytest.mark.parametrize(
        "mass, den",
        [({0: Fraction(-1, 2)}, None), ({0: "-2/4"}, None), ({0: -1, 1: 1}, 2)],
        ids=["fraction", "string", "numerators"],
    )
    def test_negative_mass_prints_as_a_rational(self, mass, den):
        with pytest.raises(SpaceMismatchError) as exc:
            SubProb(S3, mass, den)
        assert str(exc.value) == "negative mass -1/2"

    @pytest.mark.parametrize("den", [None, 3])
    def test_negative_mass_too_long_to_print_is_refused(self, den):
        with pytest.raises(effkit.EffkitError) as exc:
            SubProb(Space(["a", "b"]), {0: -(10**5000)}, den)
        assert str(exc.value).startswith("a negative mass is too long to print: ")

    def test_repr_of_a_mass_too_long_to_print(self):
        space = Space(["a", "b"])
        mu = SubProb(space, {0: 1, 1: 1}, 10**5000)
        shown = "{'a': '<too long to print>', 'b': '<too long to print>'}"
        assert repr(mu) == f"SubProb({shown})"
        assert repr(MeasureSet(space, [mu])) == f"MeasureSet([SubProb({shown})])"
        assert repr(UpperSet(space, [MeasureSet(space, [mu])])) == f"UpperSet([[SubProb({shown})]])"
        assert repr(SubProb(space, {0: 1, 1: 2}, 4)) == "SubProb({'a': '1/4', 'b': '1/2'})"

    def test_dirac_and_zero(self):
        assert dense(SubProb.dirac(S3, "s1")) == (0, 1, 0)
        assert SubProb.zero(S3).total == 0

    def test_one_key_per_atom(self):
        coarse = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        with pytest.raises(SpaceMismatchError):
            SubProb.of(coarse, {"s0": "1/4", "s1": "1/4"})
        mu = SubProb.of(coarse, {"s1": "1/4"})
        assert dense(mu) == (Fraction(1, 4), 0)


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
        assert dense(nu) == (Fraction(3, 4), 0)

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
        assert dense(restrict(MU_A, self.COARSE)) == (Fraction(3, 4), 0)

    def test_same_partition_identity(self):
        assert restrict(MU_A, S3) == MU_A

    def test_dirac(self):
        assert dense(restrict(SubProb.dirac(S3, "s1"), self.COARSE)) == (1, 0)

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
        assert dense(mu) == (Fraction(1, 2), Fraction(1, 2))

    def test_identity(self):
        mu = invariant_measure_transport(MeasurableMap.identity(S3), MU_A)
        assert dense(mu) == dense(MU_A)

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
            lift = MeasurableMap(invariant, cod, dict(zip(f.domain.carrier, f.images)))

            nu = rand_subprob(rng, cod)
            mu = invariant_measure_transport(f, nu)
            assert pushforward(lift, mu) == nu

            mu0 = rand_subprob(rng, dom)
            back = invariant_measure_transport(f, pushforward(f, mu0))
            assert back == restrict(mu0, invariant)


def _rand_masses(rng: Random, n: int) -> dict:
    """Masses by atom index as a mix of int, Fraction and non-reduced
    strings, some atoms omitted; now and then a negative entry, an index
    outside the ``n`` atoms or a total above one."""
    den = rng.randint(1, 12)
    remaining = den + (rng.random() < 0.1)
    indices = [i for i in range(n) if rng.random() < 0.8]
    if rng.random() < 0.1:
        indices.insert(rng.randint(0, len(indices)), rng.choice([-1, n, n + 2]))
    masses = {}
    for i in indices:
        take = rng.randint(0, remaining) if rng.random() < 0.7 else 0
        remaining -= take
        q = Fraction(take, den)
        if rng.random() < 0.03:
            q = -q - 1
        k = rng.randint(1, 4)
        kind = rng.random()
        if q.denominator == 1 and kind < 0.3:
            masses[i] = int(q)
        elif kind < 0.6:
            masses[i] = q
        else:
            masses[i] = f"{q.numerator * k}/{q.denominator * k}"
    return masses


def _rand_sparse(rng: Random, n: int, max_den=12) -> dict[int, Fraction]:
    """Positive masses on 0 to 3 of ``n`` atoms, in random index order."""
    k = rng.randint(0, min(3, n))
    den = rng.randint(max(k, 1), max(k, max_den))
    remaining = den
    masses = {}
    for j, a in enumerate(rng.sample(range(n), k)):
        take = rng.randint(1, remaining - (k - j - 1))
        masses[a] = Fraction(take, den)
        remaining -= take
    return masses


class TestIntegerRepresentation:
    """SubProb holds integer numerators over its support; every result
    is checked against one-Fraction-per-atom arithmetic (helpers)."""

    def test_index_outside_the_space_is_refused(self):
        for index in (-1, 3, 7):
            with pytest.raises(SpaceMismatchError, match=f"atom index {index} outside the 3 atoms"):
                SubProb(S3, {0: "1/2", index: 0})
            with pytest.raises(SpaceMismatchError, match="outside"):
                SubProb(S3, {index: 1}, 4)

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
            assert dense(mu) == vec and mu.total == sum(vec)
            assert mu.den == lcm(*(q.denominator for q in vec))
            assert gcd(mu.den, *mu.nums) == 1
            assert mu.atoms == tuple(i for i, q in enumerate(vec) if q)
            assert all(Fraction(n, mu.den) == vec[a] for a, n in zip(mu.atoms, mu.nums))
            k = rng.randint(2, 6)
            scaled = {a: n * k for a, n in zip(mu.atoms, mu.nums)}
            for twin in (SubProb(space, dict(enumerate(vec))), SubProb(space, scaled, mu.den * k)):
                assert twin == mu and hash(twin) == hash(mu)
                assert (twin.den, twin.atoms, twin.nums) == (mu.den, mu.atoms, mu.nums)
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
            assert dense(nu) == pushforward_oracle(f, mu)
            for pre in unique_preimages(f, nu) or ():
                assert pushforward(f, pre) == nu

            coarser = rand_coarsening(rng, space)
            assert dense(restrict(mu, coarser)) == restrict_oracle(mu, coarser)
            other = Space(space.carrier, rand_partition_blocks(rng, list(space.carrier)))
            if restrict_oracle(mu, other) is None:
                with pytest.raises(IncompatiblePartitionError):
                    restrict(mu, other)
            else:
                assert dense(restrict(mu, other)) == restrict_oracle(mu, other)

            pairs = set()
            for _ in range(rng.randint(0, 3)):
                s, t = rng.choice(space.carrier), rng.choice(space.carrier)
                pairs |= {(s, t), (t, s)}
            rel = Relation(space, pairs)
            other_mu = rand_subprob(rng, space, max_den=12)
            assert agree_mod(rel, mu, other_mu) == agree_mod_oracle(rel, mu, other_mu)

    def test_wide_sparse_measures_match_fraction_oracle(self):
        """Spaces of up to 40 atoms, coarse ones included, carrying 0 to 3
        positive masses: every result equals the dense computation."""
        rng = Random(59)
        for _ in range(400):
            space = rand_space(rng, 1, 40, allow_coarse=True)
            n = len(space.atoms)
            masses = _rand_sparse(rng, n)
            vec = subprob_oracle(space, masses)
            mu = SubProb(space, masses)
            assert dense(mu) == vec and mu.total == sum(vec)
            assert mu.atoms == tuple(sorted(masses)) and len(mu.nums) == len(mu.atoms)
            assert mu.den == lcm(*(q.denominator for q in vec)) and gcd(mu.den, *mu.nums) == 1
            full = SubProb(space, dict(enumerate(vec)))
            assert full == mu and full is mu
            other = SubProb(space, _rand_sparse(rng, n))
            assert (other is mu) == (dense(other) == vec)

            for twin in (pickle.loads(pickle.dumps(mu)), copy.deepcopy(mu)):
                assert twin == mu and twin is mu
                assert (twin.den, twin.atoms, twin.nums) == (mu.den, mu.atoms, mu.nums)

            expected = measure_dict_oracle(mu)
            text = _measure_texts(space, [MeasureSet(space, [mu])])[mu]
            assert json.loads(text) == expected
            assert text == dumps_oracle(expected)[:-1].replace("\n", "\n" + " " * 8)

            states = [s for block in space.atoms if rng.random() < 0.5 for s in block]
            if rng.random() < 0.3:
                states = [s for s in space.carrier if rng.random() < 0.5]
            try:
                expected_mass = evaluate_oracle(mu, states)
            except NotMeasurableSetError:
                with pytest.raises(NotMeasurableSetError):
                    evaluate(mu, states)
            else:
                assert evaluate(mu, states) == expected_mass

            cod = rand_space(rng, 1, 40, allow_coarse=True)
            f = rand_measurable_map(rng, space, cod)
            nu = pushforward(f, mu)
            assert dense(nu) == pushforward_oracle(f, mu)
            got = unique_preimages(f, nu)
            want = unique_preimages_oracle(f, nu)
            assert (got if got is None else [dense(pre) for pre in got]) == want
            coarser = rand_coarsening(rng, space)
            assert dense(restrict(mu, coarser)) == restrict_oracle(mu, coarser)

    def test_wide_sparse_order_follows_fraction_vectors(self):
        """The support keys order measures as their dense vectors, when one
        support extends another (a prefix) above all."""
        rng = Random(61)
        for _ in range(200):
            space = rand_space(rng, 1, 40, allow_coarse=True)
            n = len(space.atoms)
            pool = {SubProb.zero(space)}
            for _ in range(6):
                masses = _rand_sparse(rng, n, max_den=rng.choice([2, 6, 12]))
                pool.add(SubProb(space, masses))
                top = max(masses, default=-1)
                if masses and top < n - 1:  # a halved measure, and it extended past its support
                    halved = {a: q / 2 for a, q in masses.items()}
                    pool.add(SubProb(space, halved))
                    past = rng.randint(top + 1, n - 1)
                    pool.add(SubProb(space, {**halved, past: Fraction(1, 4)}))
                if len(masses) > 1:  # a prefix of the support
                    pool.add(SubProb(space, {a: q for a, q in masses.items() if a != top}))
            pool = list(pool)
            rng.shuffle(pool)
            by_vector = sorted(pool, key=dense)
            assert sorted(pool, key=_mass_order(pool)) == by_vector
            ms = MeasureSet(space, pool)
            assert list(ms.members) == by_vector

    def test_ring_loads_in_support_sized_memory(self):
        """3000 measures of two masses each on a 3000-state space cost their
        supports: a dense vector per measure would take tens of MB."""
        doc = ring_doc(3000)
        tracemalloc.start()
        try:
            model = model_from_dict(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (mu,) = model.kernel("a")("s0")
        assert mu.atoms == (1, 7) and mu.nums == (1, 1) and mu.den == 4
        assert peak < 10 * 2**20, f"loading the 3000-state ring peaked at {peak} bytes"

    def test_sort_order_follows_fraction_vectors(self):
        rng = Random(53)
        for _ in range(300):
            space = rand_space(rng, 1, 4, allow_coarse=True)
            pool = [rand_subprob(rng, space, max_den=rng.choice([2, 6, 12])) for _ in range(6)]
            ms = MeasureSet(space, rng.sample(pool, rng.randint(0, 6)))
            assert [dense(mu) for mu in ms.members] == sorted({dense(mu) for mu in ms.members})
            gens = [MeasureSet(space, rng.sample(pool, rng.randint(0, 3))) for _ in range(5)]
            u = UpperSet(space, gens)
            got = [tuple(dense(mu) for mu in g.members) for g in u.generators]
            assert got == upperset_order_oracle(gens)


class TestMeasureIds:
    def test_equal_measures_share_an_id_on_one_space_object(self):
        space = Space.discrete(["a", "b"])
        twin = Space(["a", "b"])
        assert twin is space and Space(space.carrier, space.atoms) is space
        mu = SubProb.of(space, {"a": "1/2"})
        assert SubProb(space, {0: "2/4", 1: 0}) is mu
        other = SubProb.of(space, {"b": "1/2"})
        assert other is not mu and other.ident != mu.ident
        nu = SubProb.of(twin, {"a": "1/2"})
        assert nu == mu and hash(nu) == hash(mu) and nu is mu
        assert nu != SubProb.of(Space(["a", "c"]), {"a": "1/2"})

    def test_an_equal_value_is_the_live_measure(self):
        """Every construction path, pickling and copying give the live
        measure of a value, also on a space dropped and built again."""
        carrier = ("idem-a", "idem-b", "idem-c")
        kept = None
        for _ in range(2):
            space = Space(carrier)
            if kept is not None:  # unpickled after its space was dropped
                assert pickle.loads(kept) is SubProb.of(space, {"idem-a": "1/3", "idem-c": "1/6"})
            mu = SubProb.of(space, {"idem-a": "1/3", "idem-c": "1/6"})
            assert SubProb(space, {2: Fraction(1, 6), 0: "2/6", 1: 0}) is mu
            assert SubProb.of(space, {"idem-c": 1, "idem-a": 2}, den=6) is mu
            point = SubProb.dirac(space, "idem-b")
            assert SubProb.of(space, {"idem-b": 1}) is point and SubProb(space, {1: 3}, 3) is point
            zero = SubProb.zero(space)
            assert SubProb(space, {}) is zero and SubProb.of(space, {"idem-a": 0}) is zero
            for value in (mu, point, zero):
                assert pickle.loads(pickle.dumps(value)) is value
                assert copy.deepcopy(value) is value and copy.copy(value) is value
            assert copy.deepcopy(MeasureSet(space, [mu, zero])).members == (zero, mu)
            kept = pickle.dumps(mu)
            gone = weakref.ref(space)
            del space, mu, point, zero, value
            gc.collect()
            assert gone() is None

    @staticmethod
    def _churn(space: Space, count: int):
        """Build and drop ``count`` distinct two-mass measures on ``space``,
        yielding each while it lives: ``1/(i+2)`` on the first atom and
        ``1/(i+3)`` on the third."""
        for i in range(count):
            yield SubProb(space, {0: i + 3, 2: i + 2}, (i + 2) * (i + 3))

    def test_dropped_measures_leave_nothing_behind(self):
        space = Space.discrete(["leak-a", "leak-b", "leak-c"])
        live = [SubProb.dirac(space, "leak-b"), SubProb.zero(space)]
        registry = space._measures
        before = len(registry.refs)
        top = 0
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for mu in self._churn(space, 100_000):
                top = max(top, mu.ident)
            del mu
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(registry.refs) == before == len(live)
        assert top < 64, f"ids up to {top} for at most {len(live) + 2} live measures"
        assert grown < 2**20, f"100 000 dropped measures left {grown} bytes behind"

    def test_reused_ids_never_meet_a_live_mask(self):
        space = Space.discrete(["reuse-a", "reuse-b", "reuse-c"])
        a, b, c = (SubProb.dirac(space, s) for s in space.carrier)
        half = SubProb.of(space, {"reuse-a": "1/2"})
        ab, c_half = MeasureSet(space, [a, b]), MeasureSet(space, [c, half])
        u = UpperSet(space, [ab, c_half])
        hashes = hash(ab), hash(c_half), hash(u)
        held = ab.mask | c_half.mask
        for mu in self._churn(space, 100_000):
            assert not held & 1 << mu.ident
            assert mu not in ab and mu not in c_half
        del mu
        gc.collect()
        assert (hash(ab), hash(c_half), hash(u)) == hashes
        assert ab == MeasureSet(space, [b, a]) and c_half == MeasureSet(space, [half, c])
        assert u == UpperSet(space, [MeasureSet(space, [half, c]), MeasureSet(space, [b, a])])
        assert [mu in ab for mu in (a, b, c, half)] == [True, True, False, False]
        assert list(u.generators) == [c_half, ab] and ab.members == (b, a)

    def test_threads_building_one_value_get_one_object(self):
        space = Space.discrete([f"threaded-{i}" for i in range(20)])
        values = [{i % 20: Fraction(1, i + 2), (i + 7) % 20: Fraction(1, 3)} for i in range(400)]
        barrier = threading.Barrier(4, timeout=10)
        got: list[list[SubProb]] = []

        def build():
            barrier.wait()
            got.append([SubProb(space, mass) for mass in values])

        threads = [threading.Thread(target=build) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 4
        for built in zip(*got):
            assert all(mu is built[0] for mu in built)
        assert len({mu.ident for mu in got[0]}) == len(values)

    def test_a_value_built_again_before_its_dead_measure_is_released_stays_live(self):
        """The collector clears all weak references into a cycle before it
        runs any of their callbacks.  A callback that builds the value of a
        dead measure of the cycle gets a new measure, and the dead one's
        release, before or after it, must leave the new one registered."""
        space = Space.discrete(["twin-a", "twin-b"])
        rebuilt = []

        class Holder:
            pass

        def rebuild(_):
            rebuilt.append(SubProb(space, {0: 1}, 3))

        gc.disable()
        try:
            first, mu, last = Holder(), SubProb(space, {0: 1}, 3), Holder()
            cycle = [first, mu, last]
            cycle.append(cycle)
            hooks = [weakref.ref(first, rebuild), weakref.ref(last, rebuild)]
            gone = weakref.ref(mu)
            del first, mu, last, cycle
            gc.collect()
        finally:
            gc.enable()
        assert gone() is None and len(rebuilt) == len(hooks)
        assert rebuilt[0] is rebuilt[1] is SubProb.of(space, {"twin-a": "1/3"})
        assert list(space._measures.refs) == [(3, (0,), (1,))]

    def test_a_measure_freed_in_a_cycle_while_one_is_built_does_not_deadlock(self):
        """The collector runs inside the constructor's locked region, where
        a new id is taken, and frees a measure held by a reference cycle;
        its release must not wait for the lock.  Run apart, so that a
        deadlock fails the test instead of hanging the suite."""
        script = textwrap.dedent(
            """
            import gc
            from fractions import Fraction
            from effkit import Space, SubProb

            space = Space.discrete(["a", "b", "c"])
            kept = [SubProb.zero(space)]
            registry = space._measures
            fresh = registry.fresh
            freed = []

            def collecting():
                while True:
                    freed.append(gc.collect())
                    yield next(fresh)

            registry.fresh = collecting()
            for i in range(50):
                cycle = [SubProb(space, {0: Fraction(1, i + 2)})]
                cycle.append(cycle)
                del cycle
                kept.append(SubProb(space, {1: Fraction(1, i + 2)}))
            gc.collect()
            assert len(registry.refs) == len(kept) and sum(map(bool, freed)) >= 40, freed
            print("done")
            """
        )
        src = str(Path(effkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "done\n", "")
