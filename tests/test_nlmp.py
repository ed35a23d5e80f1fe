"""Kernels: bisimulations, morphisms, sums, filter generation."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from effkit import (
    IncompatiblePartitionError,
    Kernel,
    MeasurableMap,
    Nlmp,
    Relation,
    Space,
    SubProb,
    angelize,
    dual,
    equals,
    filter_generate,
    greatest_bisim,
    is_event_bisim,
    is_nk_morphism,
    is_state_bisim,
    kernel_sum,
    pushforward,
    is_ef_state_bisim,
    unique_preimages,
    UpperSet,
)
from helpers import (
    all_partitions,
    all_symmetric_relations,
    kernel_sum_oracle,
    nk_morphism_oracle,
    pairs,
    perturb_kernel,
    rand_kernel,
    rand_measurable_map,
    rand_nk_instance,
    rand_space,
    rand_subprob_on,
)

S3 = Space.discrete(["s0", "s1", "s2"])
D2 = SubProb.dirac(S3, "s2")
ZERO = SubProb.zero(S3)
# the running fixture: two states hop to s2, the sink state stalls
K_A = Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]})


class TestStateBisim:
    def test_swap_kernel(self):
        swap = Kernel(
            S3,
            {
                "s0": [SubProb.dirac(S3, "s1")],
                "s1": [SubProb.dirac(S3, "s0")],
                "s2": [],
            },
        )
        rel = Relation(S3, [("s0", "s1"), ("s1", "s0")])
        assert is_state_bisim(swap, rel)

    def test_empty_relation_vacuous(self):
        assert is_state_bisim(K_A, Relation(S3, []))

    def test_sink_vs_hopper_rejected(self):
        rel = Relation(S3, [("s0", "s2"), ("s2", "s0")])
        assert not is_state_bisim(K_A, rel)

    def test_non_symmetric_rejected(self):
        assert not is_state_bisim(K_A, Relation(S3, [("s0", "s1")]))


class TestGreatestBisim:
    def test_fixture_partition(self):
        rel = greatest_bisim(K_A)
        assert rel.classes() == (("s0", "s1"), ("s2",))

    def test_uniform_kernel_full(self):
        k = Kernel(S3, {s: [D2] for s in S3.carrier})
        assert greatest_bisim(k) == Relation.full(S3)

    def test_all_distinct_states_identity(self):
        k = Kernel(
            S3,
            {"s0": [], "s1": [ZERO], "s2": [SubProb.dirac(S3, "s2")]},
        )
        assert greatest_bisim(k) == Relation.identity(S3)
        # brute force: no symmetric relation with an off-diagonal pair passes
        for rel in all_symmetric_relations(S3):
            if any(s != t for s, t in pairs(rel)):
                assert not is_state_bisim(k, rel)

    def test_is_greatest_exhaustively(self):
        rng = Random(83)
        sizes = [rng.randint(2, 3) for _ in range(15)] + [4, 4]
        for n in sizes:
            space = Space.discrete([f"s{i}" for i in range(n)])
            k = rand_kernel(rng, space, max_measures=2, max_den=3)
            best = greatest_bisim(k)
            assert best.is_equivalence
            assert is_state_bisim(k, best)
            accepted_union = set()
            for rel in all_symmetric_relations(space):
                if is_state_bisim(k, rel):
                    assert pairs(rel) <= pairs(best)
                    accepted_union |= pairs(rel)
            assert accepted_union == set(pairs(best))

    def test_matches_blockwise_signature_refinement(self):
        from helpers import blockwise_bisim_oracle

        rng = Random(281)
        for _ in range(60):
            space = rand_space(rng, 2, 5)
            k = rand_kernel(rng, space)
            expected = blockwise_bisim_oracle(k)
            got = {frozenset(c) for c in greatest_bisim(k).classes()}
            assert got == expected

    def test_iteration_stabilizes_quickly(self):
        rng = Random(89)
        for _ in range(10):
            space = rand_space(rng, 2, 5)
            k = rand_kernel(rng, space)
            rel = greatest_bisim(k)
            # refining the result once more changes nothing
            assert greatest_bisim(k) == rel

    def test_nlmp_conjunction_over_labels(self):
        k_id = Kernel(S3, {s: [SubProb.dirac(S3, s)] for s in S3.carrier})
        m = Nlmp(S3, {"a": K_A, "b": k_id})
        rel = greatest_bisim(m)
        assert rel.classes() == (("s0", "s1"), ("s2",))
        k_sep = Kernel(S3, {"s0": [ZERO], "s1": [D2], "s2": [ZERO]})
        assert greatest_bisim(Nlmp(S3, {"a": K_A, "b": k_sep})) == Relation.identity(S3)


class TestEventBisim:
    def test_fixture_partition_respected(self):
        coarse = Space(S3.carrier, [["s0", "s1"], ["s2"]])
        assert is_event_bisim(K_A, coarse)

    def test_discrete_always(self):
        rng = Random(97)
        for _ in range(20):
            space = rand_space(rng, 2, 4)
            assert is_event_bisim(rand_kernel(rng, space), space)

    def test_divergent_block_rejected(self):
        k = Kernel(
            S3,
            {"s0": [SubProb.dirac(S3, "s0")], "s1": [D2], "s2": []},
        )
        coarse = Space(S3.carrier, [["s0", "s1"], ["s2"]])
        assert not is_event_bisim(k, coarse)

    def test_incompatible_partition(self):
        for m in (K_A, Nlmp(S3, {})):  # no label still checks the partition
            with pytest.raises(IncompatiblePartitionError):
                is_event_bisim(m, Space(["s0", "s1"], [["s0", "s1"]]))

    def test_greatest_bisim_partition_is_event_bisim(self):
        rng = Random(101)
        for _ in range(25):
            space = rand_space(rng, 2, 4)
            k = rand_kernel(rng, space)
            partition = Space(space.carrier, greatest_bisim(k).classes())
            assert is_event_bisim(k, partition)


class TestNkMorphism:
    def test_identity(self):
        assert is_nk_morphism(MeasurableMap.identity(S3), K_A, K_A)

    def test_collapse_with_infinite_preimage(self):
        two = Space.discrete(["s0", "s1"])
        one = Space.discrete(["t"])
        f = MeasurableMap(two, one, {"s0": "t", "s1": "t"})
        k = Kernel(
            two,
            {"s0": [SubProb.dirac(two, "s0")], "s1": [SubProb.dirac(two, "s1")]},
        )
        k2 = Kernel(one, {"t": [SubProb.dirac(one, "t")]})
        assert not is_nk_morphism(f, k, k2)

    def test_zero_mass_fibers_are_harmless(self):
        t2 = Space.discrete(["t0", "t1"])
        f = MeasurableMap(S3, t2, {"s0": "t0", "s1": "t0", "s2": "t1"})
        k = Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]})
        k2 = Kernel(
            t2, {"t0": [SubProb.dirac(t2, "t1")], "t1": [SubProb.zero(t2)]}
        )
        assert is_nk_morphism(f, k, k2)

    def test_constructed_instances_accepted(self):
        rng = Random(103)
        for _ in range(40):
            f, k, k2 = rand_nk_instance(rng)
            assert is_nk_morphism(f, k, k2)

    def test_graph_is_bisimulation_on_sum(self):
        rng = Random(107)
        for _ in range(30):
            f, k, k2 = rand_nk_instance(rng)
            summed, ds = kernel_sum(k, k2)
            pairs = set()
            for s in k.space.carrier:
                pairs.add((ds.left(s), ds.right(f(s))))
                pairs.add((ds.right(f(s)), ds.left(s)))
            assert is_state_bisim(summed, Relation(summed.space, pairs))


class TestKernelSum:
    def test_left_embedding(self):
        summed, ds = kernel_sum(K_A, K_A)
        embedded = summed(ds.left("s0"))
        assert embedded.members == (pushforward(ds.left, D2),)

    def test_empty_side(self):
        lonely = Space.discrete(["x"])
        k2 = Kernel(lonely, {"x": []})
        summed, ds = kernel_sum(K_A, k2)
        assert len(summed(ds.right("x"))) == 0
        assert greatest_bisim(summed).classes() == (
            ("L:s0", "L:s1"),
            ("L:s2",),
            ("R:x",),
        )


class TestFilterGenerateAngelize:
    def test_filter_single_generator(self):
        p = filter_generate(K_A)
        for s in S3.carrier:
            assert p(s).is_principal
            assert p(s).generators[0] == K_A(s)

    def test_empty_image_full_family(self):
        k = Kernel(S3, {"s0": [], "s1": [], "s2": []})
        p = filter_generate(k)
        assert all(p(s).is_full for s in S3.carrier)

    def test_angelize_singletons(self):
        mu1 = SubProb.of(S3, {"s0": "1/2"})
        k = Kernel(S3, {"s0": [mu1, D2], "s1": [], "s2": []})
        p = angelize(k)
        assert {len(g) for g in p("s0").generators} == {1}
        assert len(p("s0").generators) == 2
        assert p("s1").is_empty

    def test_bisim_transfer_preserved_and_reflected(self):
        rng = Random(109)
        for _ in range(10):
            space = rand_space(rng, 2, 3)
            k = rand_kernel(rng, space, max_measures=2, max_den=4)
            p = filter_generate(k)
            for rel in all_symmetric_relations(space):
                assert is_state_bisim(k, rel) == is_ef_state_bisim(p, rel)

    def test_angelize_dual_of_filter(self):
        rng = Random(113)
        for _ in range(30):
            space = rand_space(rng, 2, 4)
            k = rand_kernel(rng, space)
            fk, ak = filter_generate(k), angelize(k)
            for s in space.carrier:
                assert equals(dual(fk(s)), ak(s))
                assert equals(dual(ak(s)), fk(s))


class TestConcurrentUse:
    def test_parallel_label_checks_are_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = Random(251)
        space = rand_space(rng, 3, 5)
        m = Nlmp(space, {f"l{j}": rand_kernel(rng, space) for j in range(4)})
        sequential = greatest_bisim(m)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: greatest_bisim(m), range(8)))
        assert all(r == sequential for r in results)


class TestPerturbationsDetected:
    def test_perturbed_morphisms_mostly_rejected(self):
        rng = Random(127)
        rejected = 0
        total = 40
        for _ in range(total):
            f, k, k2 = rand_nk_instance(rng)
            if not is_nk_morphism(f, perturb_kernel(rng, k), k2):
                rejected += 1
        assert rejected > total // 2


def rand_kernel_map(rng: Random, kind: str):
    """A map and two kernels: a constructed morphism, one with a perturbed
    kernel, a constructed morphism along a random, often non-surjective map
    of possibly coarse spaces, random kernels along such a map, or empty
    images on one side."""
    if kind in ("constructed", "perturbed"):
        f, k, k2 = rand_nk_instance(rng)
        if kind == "perturbed":
            if rng.random() < 0.5:
                k = perturb_kernel(rng, k)
            else:
                k2 = perturb_kernel(rng, k2)
        return f, k, k2
    dom = rand_space(rng, 1, 5, allow_coarse=True)
    cod = rand_space(rng, 1, 4, allow_coarse=True)
    f = rand_measurable_map(rng, dom, cod)
    if kind == "random":
        return f, rand_kernel(rng, dom, max_measures=2), rand_kernel(rng, cod, max_measures=2)
    # only codomain atoms over one domain atom carry mass: unique preimages
    single = [cod.atoms[j][0] for j, over in enumerate(f.preimage_atoms) if len(over) == 1]
    image = {}
    for block in cod.atoms:  # one draw per atom, as a kernel is constant on it
        if kind == "coarse" or rng.random() < 0.3:
            measures = [rand_subprob_on(rng, cod, single) for _ in range(rng.randint(0, 2))]
            image.update(dict.fromkeys(block, measures))
    k2 = Kernel(cod, image)
    k = Kernel(dom, {
        s: [mu for nu in k2(f(s)) for mu in unique_preimages(f, nu)] for s in dom.carrier
    })
    if rng.random() < 0.3:
        k = perturb_kernel(rng, k)
    return (f, k, k2) if rng.random() < 0.8 else (f, Kernel(dom, {}), k2)


class TestAgainstMeasureSetOracle:
    def test_random_kernel_maps(self):
        """Morphism verdicts and sums equal those computed on measure sets
        directly, without the filter portfolios."""
        rng = Random(263)
        seen: Counter = Counter()
        kinds = ("constructed", "perturbed", "coarse", "random", "empty")
        for case in range(3000):
            f, k, k2 = rand_kernel_map(rng, kinds[case % len(kinds)])
            holds = nk_morphism_oracle(f, k, k2)
            assert is_nk_morphism(f, k, k2) == holds, (f, k, k2)
            assert kernel_sum(k, k2) == kernel_sum_oracle(k, k2)
            seen["holds"] += holds
            seen["fails"] += not holds
            seen["not surjective"] += not f.is_surjective
            seen["empty image"] += any(not ms for _, ms in (*k.image, *k2.image))
        assert min(seen.values()) > 500, seen
