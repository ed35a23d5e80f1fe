"""Effectivity functions: bisimulations, morphisms, quotients, subsystems."""

from __future__ import annotations

import re
from random import Random

import pytest

from effkit import (
    EffFn,
    IncompatiblePartitionError,
    Kernel,
    MeasurableMap,
    MeasureSet,
    Nlmp,
    NotACongruenceError,
    NotMeasurableSetError,
    NotSurjectiveError,
    Relation,
    Space,
    SubProb,
    UpperSet,
    dual_ef,
    equals,
    filter_generate,
    from_markov_kernel,
    greatest_bisim,
    greatest_ef_bisim,
    is_ef_morphism,
    is_ef_state_bisim,
    is_event_bisim,
    is_nk_morphism,
    is_strong_morphism,
    is_state_bisim,
    is_subsystem,
    kernel_of,
    quotient,
    restrict,
    sigma_r,
    sum_ef,
)
from effkit import effectivity
from effkit.effectivity import push_upperset
from helpers import (
    all_partitions,
    all_symmetric_relations,
    constant_on_atoms_oracle,
    dense,
    ef_transfer_oracle,
    event_bisim_oracle,
    pairs,
    pairwise_bisim_oracle,
    rand_coarsening,
    rand_ef,
    rand_kernel,
    rand_measure_set,
    rand_nk_instance,
    rand_partition_blocks,
    rand_portfolio,
    rand_space,
    subsystem_oracle,
    transfer_oracle,
)

S3 = Space.discrete(["s0", "s1", "s2"])
D2 = SubProb.dirac(S3, "s2")
ZERO = SubProb.zero(S3)
K_A = Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]})
P_A = filter_generate(K_A)


def principal(space, *measures) -> UpperSet:
    return UpperSet(space, (MeasureSet(space, measures),))


class TestMeasurableByConstruction:
    """A kernel or a portfolio on a finite space is measurable exactly when
    it is constant on each atom, and the constructors refuse any other
    (docs/derivations.md, sections 3 and 4)."""

    RULE = "; a model must be constant on each atom of its sigma"

    def test_the_4a_model_is_refused(self):
        # a moves to c, and b, in a's atom, has no move
        space = Space(["a", "b", "c"], [["a", "b"], ["c"]])
        to_c, none = MeasureSet(space, [SubProb.dirac(space, "c")]), MeasureSet(space, [])
        image = {"a": to_c, "b": none, "c": none}
        split = "states 'a' and 'b' of atom ['a', 'b'] have different "
        for build in (Kernel, lambda space, image: Nlmp(space, {"y": Kernel(space, image)})):
            with pytest.raises(NotMeasurableSetError) as refused:
                build(space, image)
            assert str(refused.value) == split + "measures" + self.RULE
        with pytest.raises(NotMeasurableSetError) as refused:
            EffFn(space, {s: UpperSet(space, [ms]) for s, ms in image.items()})
        assert str(refused.value) == split + "portfolios" + self.RULE
        image["b"] = to_c
        assert greatest_bisim(Kernel(space, image)).classes() == (("a", "b"), ("c",))

    def test_per_state_draws_are_refused_exactly_when_not_constant_on_atoms(self):
        """Dynamics drawn per state on coarse spaces, kernels and
        portfolios by turns: the constructor builds the draws the dense
        oracle finds constant on each atom, holding them as drawn, and
        refuses every other, naming two states of one atom that differ."""
        rng = Random(1804)
        seen = {"built": 0, "refused": 0}
        for i in range(1200):
            states = [f"s{j}" for j in range(rng.randint(2, 5))]
            space = Space(states, rand_partition_blocks(rng, states))
            if space.is_discrete:
                continue
            if i % 2:
                build, what = EffFn, "portfolios"
                dynamics = {s: rand_portfolio(rng, space, 2, 1, 2) for s in states}
            else:
                build, what = Kernel, "measures"
                dynamics = {s: rand_measure_set(rng, space, 0, 1, 2) for s in states}
            if constant_on_atoms_oracle(space, dynamics):
                value = build(space, dynamics)
                assert all(value(s) == dynamics[s] for s in states)
                seen["built"] += 1
                continue
            with pytest.raises(NotMeasurableSetError) as refused:
                build(space, dynamics)
            a, b, atom = re.fullmatch(
                rf"states '(\w+)' and '(\w+)' of atom (\[.*\]) have different {what}"
                + re.escape(self.RULE),
                str(refused.value),
            ).groups()
            block = space.atoms[space.atom_of(a)]
            assert atom == str(list(block)) and b in block
            assert not constant_on_atoms_oracle(Space([a, b], [[a, b]]), dynamics)
            seen["refused"] += 1
        assert min(seen.values()) >= 100, seen


class TestEfStateBisim:
    def test_fixture_pair(self):
        rel = Relation(S3, [("s0", "s1"), ("s1", "s0")])
        assert is_ef_state_bisim(P_A, rel)

    def test_empty_relation(self):
        assert is_ef_state_bisim(P_A, Relation(S3, []))

    def test_non_symmetric_relation_is_an_error(self):
        from effkit import NonSymmetricRelationError

        with pytest.raises(NonSymmetricRelationError):
            is_ef_state_bisim(P_A, Relation(S3, [("s0", "s1")]))

    def test_self_loop_vs_hop_rejected(self):
        p = EffFn(
            S3,
            {
                "s0": principal(S3, SubProb.dirac(S3, "s0")),
                "s1": principal(S3, D2),
                "s2": UpperSet.empty(S3),
            },
        )
        rel = Relation(S3, [("s0", "s1"), ("s1", "s0")])
        assert not is_ef_state_bisim(p, rel)

    def test_generator_reduction_matches_definition_oracle(self):
        rng = Random(131)
        checked = 0
        for _ in range(12):
            space = rand_space(rng, 2, 3)
            p = rand_ef(rng, space, max_gens=2, max_measures=2, max_den=3)
            pool_size = len(
                {mu for _, u in p.portfolio for g in u.generators for mu in g}
            )
            if pool_size > 4:
                continue
            checked += 1
            for rel in all_symmetric_relations(space):
                quotient_space = sigma_r(rel)
                cache = {}

                def agree(mu, nu):
                    for m in (mu, nu):
                        if m not in cache:
                            cache[m] = dense(restrict(m, quotient_space))
                    return cache[mu] == cache[nu]

                assert is_ef_state_bisim(p, rel) == ef_transfer_oracle(p, rel, agree)
        assert checked >= 5


class TestGreatestEfBisim:
    def test_fixture(self):
        assert greatest_ef_bisim(P_A).classes() == (("s0", "s1"), ("s2",))

    def test_constant_portfolio_full(self):
        p = EffFn(S3, {s: principal(S3, D2) for s in S3.carrier})
        assert greatest_ef_bisim(p) == Relation.full(S3)

    def test_distinct_point_mass_filters_identity(self):
        p = EffFn(
            S3,
            {
                "s0": UpperSet.empty(S3),
                "s1": principal(S3, ZERO),
                "s2": principal(S3, SubProb.dirac(S3, "s2")),
            },
        )
        assert greatest_ef_bisim(p) == Relation.identity(S3)
        for rel in all_symmetric_relations(S3):
            if any(s != t for s, t in pairs(rel)):
                assert not is_ef_state_bisim(p, rel)

    def test_matches_blockwise_signature_refinement(self):
        from helpers import blockwise_bisim_oracle

        rng = Random(283)
        for _ in range(60):
            space = rand_space(rng, 2, 5)
            p = rand_ef(rng, space)
            expected = blockwise_bisim_oracle(p)
            got = {frozenset(c) for c in greatest_ef_bisim(p).classes()}
            assert got == expected

    def test_signature_refinement_matches_pairwise_pruning(self):
        # kernels, labelled processes and portfolios, a third each, on
        # spaces that are coarse 40% of the time
        rng = Random(2005)
        verdicts = {True: 0, False: 0}
        for i in range(2001):
            space = rand_space(rng, 1, 5, allow_coarse=True)
            den = rng.choice((2, 4, 8))
            if i % 3 == 2:
                system, greatest, is_bisim = rand_ef(rng, space, max_den=den), greatest_ef_bisim, is_ef_state_bisim
            else:
                labels = 1 if i % 3 == 0 else rng.randint(1, 3)
                kernels = {f"a{j}": rand_kernel(rng, space, max_den=den) for j in range(labels)}
                system = kernels["a0"] if i % 3 == 0 else Nlmp(space, kernels)
                greatest, is_bisim = greatest_bisim, is_state_bisim
            best = greatest(system)
            assert best == pairwise_bisim_oracle(system)
            kept = [pair for pair in pairs(best) if rng.random() < 0.7]
            kept += [(s, t) for s in space.carrier for t in space.carrier if rng.random() < 0.1]
            rel = Relation(space, kept + [(t, s) for s, t in kept])
            verdict = is_bisim(system, rel)
            assert verdict == transfer_oracle(system, rel)
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 400

    def test_is_greatest_exhaustively(self):
        rng = Random(137)
        for _ in range(12):
            space = rand_space(rng, 2, 3)
            p = rand_ef(rng, space, max_gens=2, max_measures=2, max_den=3)
            best = greatest_ef_bisim(p)
            assert best.is_equivalence
            assert is_ef_state_bisim(p, best)
            for rel in all_symmetric_relations(space):
                if is_ef_state_bisim(p, rel):
                    assert pairs(rel) <= pairs(best)


class TestEfMorphism:
    def test_identity(self):
        assert is_ef_morphism(MeasurableMap.identity(S3), P_A, P_A)

    def test_quotient_by_greatest_bisim(self):
        alpha = greatest_ef_bisim(P_A)
        quotiented, eta = quotient(P_A, alpha)
        assert is_ef_morphism(eta, P_A, quotiented)

    def test_perturbed_target_rejected(self):
        alpha = greatest_ef_bisim(P_A)
        quotiented, eta = quotient(P_A, alpha)
        # nudge one generator measure by an eighth
        qspace = quotiented.space
        bad_mu = SubProb.of(qspace, {qspace.carrier[0]: "1/8"})
        table = {u: quotiented(u) for u in qspace.carrier}
        table[qspace.carrier[0]] = principal(qspace, bad_mu)
        assert not is_ef_morphism(eta, P_A, EffFn(qspace, table))


class TestStrongMorphism:
    def test_identity(self):
        assert is_strong_morphism(MeasurableMap.identity(S3), P_A, P_A)

    def test_nk_instance_lifts(self):
        rng = Random(139)
        for _ in range(30):
            f, k, k2 = rand_nk_instance(rng)
            assert is_nk_morphism(f, k, k2)
            assert is_strong_morphism(f, filter_generate(k), filter_generate(k2))

    def test_collapse_obstruction(self):
        two = Space.discrete(["s0", "s1"])
        one = Space.discrete(["t"])
        f = MeasurableMap(two, one, {"s0": "t", "s1": "t"})
        p = EffFn(
            two,
            {
                "s0": principal(two, SubProb.dirac(two, "s0")),
                "s1": principal(two, SubProb.dirac(two, "s1")),
            },
        )
        q = EffFn(one, {"t": principal(one, SubProb.dirac(one, "t"))})
        assert not is_strong_morphism(f, p, q)

    def test_not_surjective_distinct(self):
        t2 = Space.discrete(["t0", "t1"])
        f = MeasurableMap(S3, t2, {s: "t0" for s in S3.carrier})
        q = EffFn(t2, {t: UpperSet.empty(t2) for t in t2.carrier})
        with pytest.raises(NotSurjectiveError):
            is_strong_morphism(f, P_A, q)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_each_source_measure_is_pushed_once(self, monkeypatch, k):
        """The generator test pushes every source measure forward once,
        whatever the number of target generators it is checked against."""
        space = Space.discrete(["s0", "s1", "s2"])
        measures = [SubProb.of(space, {"s0": f"{j}/{2 * k + 1}"}) for j in range(1, 2 * k + 1)]
        family = UpperSet(space, [MeasureSet(space, measures[2 * i: 2 * i + 2]) for i in range(k)])
        p = EffFn(space, {s: family for s in space.carrier})
        pushed = []
        pushforward = effectivity.pushforward
        monkeypatch.setattr(
            effectivity, "pushforward", lambda f, mu: pushed.append(mu) or pushforward(f, mu)
        )
        assert is_strong_morphism(MeasurableMap.identity(space), p, p)
        assert len(pushed) == sum(len(g) for s in space.carrier for g in p(s)) == 3 * 2 * k

    def test_strong_implies_morphism(self):
        rng = Random(149)
        for _ in range(25):
            f, k, k2 = rand_nk_instance(rng)
            p, q = filter_generate(k), filter_generate(k2)
            if is_strong_morphism(f, p, q):
                assert is_ef_morphism(f, p, q)

    def test_graph_bisimulation_on_sum(self):
        rng = Random(151)
        for _ in range(25):
            f, k, k2 = rand_nk_instance(rng)
            p, q = filter_generate(k), filter_generate(k2)
            assert is_strong_morphism(f, p, q)
            summed, ds = sum_ef(p, q)
            pairs = set()
            for s in p.space.carrier:
                pairs.add((ds.left(s), ds.right(f(s))))
                pairs.add((ds.right(f(s)), ds.left(s)))
            assert is_ef_state_bisim(summed, Relation(summed.space, pairs))


class TestQuotient:
    def test_identity_relation_isomorphic_copy(self):
        quotiented, eta = quotient(P_A, Relation.identity(S3))
        assert quotiented.space.carrier == S3.carrier
        for s in S3.carrier:
            assert equals(quotiented(eta(s)), push_upperset(eta, P_A(s)))

    def test_greatest_bisim_succeeds(self):
        quotiented, eta = quotient(P_A, greatest_ef_bisim(P_A))
        assert quotiented.space.carrier == ("s0", "s2")
        assert quotiented("s0").is_principal

    def test_bad_gluing_raises_with_witness(self):
        alpha = Relation.from_partition(S3, [["s0", "s2"], ["s1"]])
        with pytest.raises(NotACongruenceError) as exc:
            quotient(P_A, alpha)
        assert set(exc.value.witness) == {"s0", "s2"}

    def test_kernel_of_accepted_surjective_morphism_is_congruence(self):
        rng = Random(157)
        for _ in range(25):
            f, k, k2 = rand_nk_instance(rng)
            p = filter_generate(k)
            alpha = kernel_of(f)
            quotiented, eta = quotient(p, alpha)  # must not raise
            assert is_ef_morphism(eta, p, quotiented)


class TestSubsystem:
    def test_discrete_partition(self):
        assert is_subsystem(P_A, S3)

    def test_greatest_bisim_partition(self):
        partition = Space(S3.carrier, greatest_ef_bisim(P_A).classes())
        assert is_subsystem(P_A, partition)

    def test_bad_gluing_rejected(self):
        coarse = Space(S3.carrier, [["s0", "s2"], ["s1"]])
        assert not is_subsystem(P_A, coarse)

    def test_incompatible_partition(self):
        with pytest.raises(IncompatiblePartitionError):
            is_subsystem(P_A, Space(["s0"], [["s0"]]))

    def test_sigma_f_of_surjective_morphism(self):
        rng = Random(163)
        for _ in range(25):
            f, k, k2 = rand_nk_instance(rng)
            p = filter_generate(k)
            sigma_f = sigma_r(kernel_of(f))
            assert is_subsystem(p, sigma_f)

    def test_subsystem_iff_event_bisim_for_filter_portfolios(self):
        rng = Random(167)
        for _ in range(12):
            space = rand_space(rng, 2, 4)
            k = rand_kernel(rng, space, max_measures=2, max_den=4)
            p = filter_generate(k)
            for blocks in all_partitions(space.carrier):
                coarse = Space(space.carrier, blocks)
                assert is_subsystem(p, coarse) == is_event_bisim(k, coarse)

    def test_one_round_matches_restricted_family_oracle(self):
        # coarse spaces give atoms whose states have different dynamics;
        # copying one state's dynamics across a block plants positives
        rng = Random(2025)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            space = rand_space(rng, 2, 5, allow_coarse=True)
            coarse = rand_coarsening(rng, space)
            rep = {s: s for s in space.carrier}
            for block in coarse.atoms:
                if rng.random() < 0.6:
                    rep.update((s, block[0]) for s in block)
            p = rand_ef(rng, space, max_gens=2, max_measures=2, max_den=3)
            p = EffFn(space, {s: p(rep[s]) for s in space.carrier})
            kernels = [rand_kernel(rng, space, max_measures=2, max_den=3) for _ in range(2)]
            kernels = [Kernel(space, {s: k(rep[s]) for s in space.carrier}) for k in kernels]
            m = Nlmp(space, {"a": kernels[0], "b": kernels[1]})
            holds = is_subsystem(p, coarse)
            assert holds == subsystem_oracle(p, coarse)
            assert is_event_bisim(kernels[0], coarse) == event_bisim_oracle(kernels[0], coarse)
            assert is_event_bisim(m, coarse) == event_bisim_oracle(m, coarse)
            verdicts[holds] += 1
        assert min(verdicts.values()) > 100


class TestDualSumMarkov:
    def test_dual_involution(self):
        rng = Random(173)
        for _ in range(40):
            space = rand_space(rng, 2, 4)
            p = rand_ef(rng, space)
            dd = dual_ef(dual_ef(p))
            assert all(equals(dd(s), p(s)) for s in space.carrier)

    def test_dual_filter_is_angelize(self):
        from effkit import angelize

        rng = Random(179)
        for _ in range(30):
            space = rand_space(rng, 2, 4)
            k = rand_kernel(rng, space)
            fp = filter_generate(k)
            ap = angelize(k)
            d = dual_ef(fp)
            assert all(equals(d(s), ap(s)) for s in space.carrier)

    def test_sum_embeds_each_side(self):
        q = EffFn(S3, {s: UpperSet.empty(S3) for s in S3.carrier})
        summed, ds = sum_ef(P_A, q)
        for s in S3.carrier:
            assert equals(summed(ds.left(s)), push_upperset(ds.left, P_A(s)))
            assert summed(ds.right(s)).is_empty

    def test_from_markov_kernel_principal_singletons(self):
        table = {s: SubProb.dirac(S3, s) for s in S3.carrier}
        p = from_markov_kernel(S3, table)
        for s in S3.carrier:
            assert p(s).is_principal
            assert p(s).generators[0].members == (table[s],)
