"""Spaces, measurable maps, relations, invariant partitions."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from random import Random

import pytest

from effkit import (
    EffFn,
    EffkitError,
    ForeignStateError,
    MeasurableMap,
    MeasureSet,
    NonSymmetricRelationError,
    NotSurjectiveError,
    Relation,
    DirectSum,
    Space,
    SpaceMismatchError,
    SubProb,
    UpperSet,
    contains,
    direct_sum,
    dual,
    equals,
    is_final_surjection,
    kernel_of,
    sigma_r,
)
from helpers import (
    PairRelation,
    atom_map_oracle,
    generated_field,
    map_fault_oracle,
    measurability_oracle,
    pairs,
    rand_measurable_map,
    rand_partition_blocks,
    rand_space,
    rand_surjection,
    relation_from_family,
    sigma_r_blocks_oracle,
    space_fault_oracle,
)

S3 = Space.discrete(["s0", "s1", "s2"])
T2 = Space.discrete(["t0", "t1"])
F3TO2 = MeasurableMap(S3, T2, {"s0": "t0", "s1": "t0", "s2": "t1"})


def blocks(space: Space) -> set[frozenset[str]]:
    return set(space.atom_sets)


class TestSpace:
    def test_discrete_atoms(self):
        assert S3.atoms == (("s0",), ("s1",), ("s2",))
        assert S3.is_discrete

    def test_repr_names_the_atoms_of_a_coarse_space(self):
        coarse = Space(["a", "b", "c"], [["c"], ["b", "a"]])
        assert repr(coarse) == "Space(['a', 'b', 'c'], [['a', 'b'], ['c']])"
        assert eval(repr(coarse)) is coarse

    def test_partition_must_cover(self):
        with pytest.raises(SpaceMismatchError):
            Space(["a", "b"], [["a"]])
        with pytest.raises(SpaceMismatchError):
            Space(["a", "b"], [["a"], ["a", "b"]])
        with pytest.raises(ForeignStateError):
            Space(["a"], [["a", "zz"]])

    def test_duplicate_error_names_the_first_repeated_state(self):
        with pytest.raises(ForeignStateError) as exc:
            Space(["a", "b", "c", "b", "a"])
        assert str(exc.value) == "duplicate state in carrier: 'a'"

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([["a", "a"], ["b", "c"]], "state 'a' appears twice in one atom"),
            ([["a"], ["b", "c", "b"]], "state 'b' appears twice in one atom"),
            ([["a", "b"], ["c", "a"]], "state 'a' appears in two atoms"),
        ],
    )
    def test_a_state_listed_twice_in_the_atoms_is_refused(self, atoms, message):
        with pytest.raises(SpaceMismatchError) as exc:
            Space(["a", "b", "c"], atoms)
        assert str(exc.value) == message

    def test_first_fault_matches_oracle(self):
        """Seeded partitions with empty atoms, foreign states, a state twice
        in one atom or in two atoms, and uncovered states: ``Space`` names
        the fault ``space_fault_oracle`` replays, by type and message."""
        rng = Random(34)
        faults = Counter()
        for _ in range(600):
            carrier = [f"s{i}" for i in range(rng.randint(1, 6))]
            atoms = [list(block) for block in rand_partition_blocks(rng, carrier)]
            for _ in range(rng.randint(0, 3)):
                kind = rng.choice(("empty", "foreign", "again", "other", "drop"))
                block = rng.choice(atoms) if atoms else None
                if kind == "empty" or block is None:
                    atoms.insert(rng.randint(0, len(atoms)), [])
                elif kind == "foreign":
                    block.insert(rng.randint(0, len(block)), f"x{rng.randint(0, 2)}")
                elif kind == "again" and block:
                    block.insert(rng.randint(0, len(block)), rng.choice(block))
                elif kind == "other":
                    block.insert(rng.randint(0, len(block)), rng.choice(carrier))
                elif block:
                    block.remove(rng.choice(block))
            for block in atoms:
                rng.shuffle(block)
            rng.shuffle(atoms)
            expected = space_fault_oracle(carrier, atoms)
            if expected is None:
                space = Space(carrier, atoms)
                assert set(space.atom_sets) == {frozenset(block) for block in atoms}
                faults["none"] += 1
                continue
            with pytest.raises(EffkitError) as exc:
                Space(carrier, atoms)
            assert (type(exc.value), str(exc.value)) == expected, (carrier, atoms)
            faults[expected[1].split(" ")[0] + (" twice" if "twice" in expected[1] else "")] += 1
        assert set(faults) == {"none", "empty", "atom", "state", "state twice", "atoms"}, faults

    def test_atom_union_detection(self):
        sp = Space(["a", "b", "c"], [["a", "b"], ["c"]])
        assert sp.atoms_of_set(["a", "b"]) == (0,)
        assert sp.atoms_of_set(["a"]) is None
        assert sp.atoms_of_set([]) == ()


class TestInterning:
    """One live object per space value; measures and measure sets travel
    by value."""

    def test_equal_values_are_one_object(self):
        sp = Space(["a", "b", "c"], [["c"], ["b", "a"]])
        assert Space(("a", "b", "c"), (("a", "b"), ("c",))) is sp
        assert Space(sp.carrier, sp.atoms) is sp
        assert Space.discrete(["s0", "s1", "s2"]) is S3
        assert Space(["a", "b", "c"]) is not sp
        assert Space(["b", "a", "c"], [["a", "b"], ["c"]]) is not sp

    def test_pickled_measures_compare_by_value(self):
        carrier = ["pickled-p", "pickled-q", "pickled-r"]
        atoms = [["pickled-p"], ["pickled-q", "pickled-r"]]
        space = Space(carrier, atoms)
        half = SubProb.of(space, {"pickled-p": "1/2"})
        blob = pickle.dumps(
            (half, MeasureSet(space, [half, SubProb.of(space, {"pickled-q": "1/4"})]))
        )
        gone = weakref.ref(space)
        del space, half
        gc.collect()
        assert gone() is None
        # the fresh space numbers its measures from 0 again
        fresh = Space(carrier, atoms)
        third = SubProb.of(fresh, {"pickled-q": "1/3"})
        others = MeasureSet(fresh, [third])
        mu, ms = pickle.loads(blob)
        assert mu.space is fresh and ms.space is fresh
        assert mu == SubProb.of(fresh, {"pickled-p": "1/2"}) and mu != third
        assert mu in ms and third not in ms
        assert ms == MeasureSet(fresh, [SubProb.of(fresh, {"pickled-q": "1/4"}), mu])
        assert MeasureSet(fresh, [mu]).issubset(ms)
        assert not others.issubset(ms) and not ms.issubset(others)

    def test_pickled_families_compare_by_value(self):
        """A family's cached mask set and order are not pickled: both are
        rebuilt on the live space, whose ids may differ."""
        carrier = ["family-p", "family-q", "family-r"]
        masses = {"family-p": "1/2", "family-q": "1/4", "family-r": "1"}

        def build(space, order):
            mu = {s: SubProb.of(space, {s: masses[s]}) for s in order}
            pair = MeasureSet(space, [mu["family-q"], mu["family-p"]])
            u = UpperSet(space, [pair, MeasureSet(space, [mu["family-r"]])])
            return u, EffFn(space, {"family-p": u, "family-q": dual(u), "family-r": UpperSet.full(space)})

        space = Space(carrier)
        u, ef = build(space, carrier)
        assert u == u and ef == ef and u.generators and hash(ef)  # fill every cache
        blob = pickle.dumps((u, ef))
        gone = weakref.ref(space)
        del space, u, ef
        gc.collect()
        assert gone() is None
        fresh = Space(carrier)
        # the fresh space numbers the same measures in the reverse order
        want_u, want_ef = build(fresh, carrier[::-1])
        u, ef = pickle.loads(blob)
        assert u.space is fresh and ef.space is fresh
        assert u == want_u and hash(u) == hash(want_u) and equals(u, want_u)
        assert u.generators == want_u.generators
        assert [g.members for g in u.generators] == [g.members for g in want_u.generators]
        assert ef == want_ef and hash(ef) == hash(want_ef)
        assert contains(u, MeasureSet(fresh, [SubProb.of(fresh, {"family-r": "1"})]))

    def test_copies_are_the_canonical_space(self):
        sp = Space(["a", "b", "c"], [["a", "b"], ["c"]])
        assert copy.copy(sp) is sp and copy.deepcopy(sp) is sp
        mu = SubProb.of(sp, {"a": "1/2"})
        ms = MeasureSet(sp, [mu])
        for copied in (copy.copy(mu), copy.deepcopy(mu)):
            assert copied.space is sp and copied == mu
        for copied in (copy.copy(ms), copy.deepcopy(ms)):
            assert copied.space is sp and copied == ms and mu in copied

    def test_threads_building_one_value_get_one_object(self):
        values = [tuple(f"threaded-{i}-{j}" for j in range(6)) for i in range(400)]
        barrier = threading.Barrier(4, timeout=10)
        got: list[list[Space]] = []

        def build():
            barrier.wait()
            got.append([Space(carrier, [carrier[3:], carrier[:3]]) for carrier in values])

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
            assert all(sp is built[0] for sp in built)

    def test_registry_keeps_no_space_alive(self):
        gc.disable()
        try:
            sp = Space(["dropped-a", "dropped-b"], [["dropped-a", "dropped-b"]])
            # fill its measure registry and its cached properties first
            SubProb.of(sp, {"dropped-a": "1/2"})
            sp.atom_sets
            gone = weakref.ref(sp)
            del sp
            assert gone() is None
        finally:
            gc.enable()


class TestMeasurableMap:
    def test_measurability_enforced(self):
        coarse = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        # splitting the glued atom is not measurable toward a discrete codomain
        with pytest.raises(SpaceMismatchError):
            MeasurableMap(coarse, T2, {"s0": "t0", "s1": "t1", "s2": "t1"})
        # constant on atoms is fine
        MeasurableMap(coarse, T2, {"s0": "t0", "s1": "t0", "s2": "t1"})

    def test_totality(self):
        with pytest.raises(ForeignStateError):
            MeasurableMap(S3, T2, {"s0": "t0", "s1": "t0"})

    def test_atom_map_matches_scan_oracle(self):
        """Measurability through the atom map: the same verdict, the same
        lowest straddled codomain atom in the message, and the atom map and
        per-atom preimages the scan implies."""
        rng = Random(431)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            dom = rand_space(rng, 1, 6)
            if rng.random() < 0.7:
                dom = Space(dom.carrier, rand_partition_blocks(rng, list(dom.carrier)))
            cod = rand_space(rng, 1, 5, allow_coarse=True)
            if rng.random() < 0.3:
                table = dict(zip(dom.carrier, rand_measurable_map(rng, dom, cod).images))
            else:
                table = {s: rng.choice(cod.carrier) for s in dom.carrier}
            expected = measurability_oracle(dom, cod, table)
            verdicts[expected is None] += 1
            if expected is not None:
                with pytest.raises(SpaceMismatchError) as exc:
                    MeasurableMap(dom, cod, table)
                assert str(exc.value) == expected
                continue
            f = MeasurableMap(dom, cod, table)
            assert f.atom_map == atom_map_oracle(f)
            for over, block in zip(f.preimage_atoms, cod.atoms):
                assert {s for i in over for s in dom.atoms[i]} == f.preimage(block)
            if f.is_surjective:
                assert is_final_surjection(f).pairing == tuple(
                    (f.preimage(block), frozenset(block)) for block in cod.atoms
                )
        assert min(verdicts.values()) > 500

    def test_first_fault_matches_oracle(self):
        """A table with several faults is refused for the one the check
        order names first: a missing image, then a foreign key or image in
        the table's order, then a straddled atom."""
        rng = Random(437)
        seen: Counter[str] = Counter()
        for _ in range(3000):
            dom = rand_space(rng, 1, 6)
            if rng.random() < 0.7:
                dom = Space(dom.carrier, rand_partition_blocks(rng, list(dom.carrier)))
            cod = rand_space(rng, 1, 5, allow_coarse=True)
            f = rand_measurable_map(rng, dom, cod)
            table = {s: f(s) for s in dom.carrier}
            for k in range(rng.randint(0, 3)):
                fault = rng.choice(["missing", "key", "image", "straddle", "straddle"])
                if fault == "missing" and table:
                    del table[rng.choice(list(table))]
                elif fault == "key":
                    table[f"x{k}"] = rng.choice(cod.carrier)
                elif fault == "image" and table:
                    table[rng.choice(list(table))] = f"zz{k}"
                elif fault == "straddle":
                    wide = [block for block in dom.atoms if len(block) > 1]
                    if wide and len(cod.atoms) > 1:
                        s = rng.choice(rng.choice(wide))
                        away = [b for b in cod.atoms if table.get(s) not in b]
                        table[s] = rng.choice(rng.choice(away))
            items = list(table.items())
            rng.shuffle(items)
            table = dict(items)
            expected = map_fault_oracle(dom, cod, table)
            if expected is None:
                f = MeasurableMap(dom, cod, table)
                assert [f(s) for s in dom.carrier] == [table[s] for s in dom.carrier]
                seen["valid"] += 1
                continue
            with pytest.raises(EffkitError) as exc:
                MeasurableMap(dom, cod, table)
            assert (type(exc.value), str(exc.value)) == expected
            seen[expected[1].split()[0]] += 1  # "map" (missing), "state" (foreign), "not"
        assert len(seen) == 4 and min(seen.values()) > 150, seen

    def test_a_foreign_state_is_refused_by_name(self):
        f = MeasurableMap.identity(Space(["a"]))
        for call in (lambda: f("zz"), lambda: f.image(["a", "zz"])):
            with pytest.raises(ForeignStateError, match="state 'zz' not in carrier"):
                call()

    def test_space_atom_map_matches_scan_oracle(self):
        """``Space.atom_map`` shares the routine: a partition of the same
        carrier coarsens exactly when the identity onto it is measurable."""
        rng = Random(433)
        for _ in range(1000):
            fine = rand_space(rng, 1, 6, allow_coarse=True)
            other = Space(fine.carrier, rand_partition_blocks(rng, list(fine.carrier)))
            identity = {s: s for s in fine.carrier}
            if measurability_oracle(fine, other, identity) is not None:
                assert fine.atom_map(other) is None
            else:
                f = MeasurableMap(fine, other, identity)
                assert fine.atom_map(other) == atom_map_oracle(f) == f.atom_map


class TestSigmaR:
    def test_symmetric_pair_merges(self):
        rel = Relation(S3, [("s0", "s1"), ("s1", "s0")])
        assert blocks(sigma_r(rel)) == {frozenset({"s0", "s1"}), frozenset({"s2"})}

    def test_empty_relation_identity(self):
        rel = Relation(S3, [])
        assert blocks(sigma_r(rel)) == blocks(S3)

    def test_coarse_base_according_to_oracle(self):
        base = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        rel = Relation(base, [("s1", "s2"), ("s2", "s1")])
        expected = sigma_r_blocks_oracle(rel)
        assert expected == {frozenset({"s0", "s1", "s2"})}
        assert blocks(sigma_r(rel)) == expected

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricRelationError):
            sigma_r(Relation(S3, [("s0", "s1")]))

    def test_foreign_state_rejected_at_construction(self):
        with pytest.raises(ForeignStateError):
            Relation(S3, [("s0", "zz")])

    def test_matches_oracle_on_random_relations(self):
        rng = Random(7)
        for _ in range(60):
            space = rand_space(rng, 2, 5, allow_coarse=True)
            pairs = set()
            for _ in range(rng.randint(0, 6)):
                s, t = rng.choice(space.carrier), rng.choice(space.carrier)
                pairs |= {(s, t), (t, s)}
            rel = Relation(space, pairs)
            assert blocks(sigma_r(rel)) == sigma_r_blocks_oracle(rel)

    def test_idempotent_under_coarsening(self):
        rng = Random(11)
        for _ in range(40):
            space = rand_space(rng, 2, 5)
            pairs = set()
            for _ in range(rng.randint(0, 5)):
                s, t = rng.choice(space.carrier), rng.choice(space.carrier)
                pairs |= {(s, t), (t, s)}
            once = sigma_r(Relation(space, pairs))
            again = sigma_r(Relation(once, pairs))
            assert blocks(again) == blocks(once)

    def test_family_vs_generated_field_relation(self):
        # the relation induced by a generating family equals the one induced
        # by its full closure, exhaustively for small carriers
        rng = Random(13)
        for _ in range(50):
            space = rand_space(rng, 2, 5)
            family = [
                frozenset(
                    s for s in space.carrier if rng.random() < 0.5
                )
                for _ in range(rng.randint(0, 4))
            ]
            direct = relation_from_family(space, family)
            closed = relation_from_family(space, generated_field(space, family))
            assert direct == closed


class TestKernelOf:
    def test_basic_fibers(self):
        rel = kernel_of(F3TO2)
        assert ("s0", "s1") in rel and ("s1", "s0") in rel
        assert ("s0", "s2") not in rel
        assert rel.is_equivalence

    def test_identity_map_diagonal(self):
        rel = kernel_of(MeasurableMap.identity(S3))
        assert pairs(rel) == frozenset((s, s) for s in S3.carrier)

    def test_constant_map_full(self):
        one = Space.discrete(["u"])
        const = MeasurableMap(S3, one, {s: "u" for s in S3.carrier})
        assert kernel_of(const) == Relation.full(S3)


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except EffkitError as exc:
        return type(exc), str(exc)


def _rand_relation_input(rng: Random, space: Space):
    """Pairs, or blocks for ``from_partition``, of a random shape: empty,
    sparse, dense, symmetrized, reflexive; blocks that partition, overlap,
    repeat, leave states out or are empty."""
    states = list(space.carrier)
    if rng.random() < 0.5:
        density = rng.choice([0.0, 0.2, 0.5, 1.0])
        pairs = [(s, t) for s in states for t in states if rng.random() < density]
        if rng.random() < 0.4:
            pairs += [(t, s) for s, t in pairs]
        if rng.random() < 0.3:
            pairs += [(s, s) for s in states]
        return "pairs", pairs
    blocks = rand_partition_blocks(rng, states)
    if rng.random() < 0.3:
        blocks.append(rng.sample(states, rng.randint(1, len(states))))
    if rng.random() < 0.2 and len(blocks) > 1:
        blocks.pop(rng.randrange(len(blocks)))
    if rng.random() < 0.2:
        blocks.append([])
    if rng.random() < 0.2:
        blocks.append(blocks[0] + blocks[0])
    return "blocks", blocks


class TestRelationAgainstPairOracle:
    def test_random_relations(self):
        rng = Random(2024)
        shapes = {True: 0, False: 0}
        for _ in range(400):
            space = rand_space(rng, 2, 6, allow_coarse=True)
            kind, data = _rand_relation_input(rng, space)
            if kind == "pairs":
                rel, ref = Relation(space, data), PairRelation(space, data)
            else:
                rel = Relation.from_partition(space, data)
                ref = PairRelation.from_partition(space, data)
            shapes[ref.is_equivalence] += 1
            assert pairs(rel) == ref.pairs
            assert repr(rel) == repr(ref)
            assert rel.is_symmetric == ref.is_symmetric
            assert rel.is_equivalence == ref.is_equivalence
            assert _outcome(rel.classes) == _outcome(ref.classes)
            assert _outcome(lambda: sigma_r(rel)) == _outcome(ref.sigma_r)
            probes = space.carrier + ("zz",)
            for s in probes:
                for t in probes:
                    assert ((s, t) in rel) == ((s, t) in ref)
            same = Relation(space, ref.pairs)
            assert rel == same and hash(rel) == hash(same)
            if ref.pairs:
                fewer = Relation(space, sorted(ref.pairs)[1:])
                assert rel != fewer
        assert min(shapes.values()) > 50

    @pytest.mark.parametrize(
        "build",
        [
            lambda cls: cls(S3, [("s0", "zz")]),
            lambda cls: cls(S3, [("zz", "s0"), ("s1", "s1")]),
            lambda cls: cls.from_partition(S3, [["s0", "zz"], ["s1", "s2"]]),
            lambda cls: cls.from_partition(S3, [["s0"], [], ["zz"]]),
        ],
    )
    def test_foreign_states(self, build):
        got = _outcome(lambda: build(Relation))
        assert got == (ForeignStateError, "state 'zz' not in carrier")
        assert got == _outcome(lambda: build(PairRelation))

    def test_one_block_queries_list_no_pairs(self):
        # a one-block relation of 2000 states holds 4M pairs, hundreds of MB
        # as a frozenset of tuples; its queries must stay within a few MB
        space = Space.discrete([f"s{i}" for i in range(2000)])
        one = Space.discrete(["u"])
        const = MeasurableMap(space, one, {s: "u" for s in space.carrier})
        tracemalloc.start()
        try:
            rel = Relation.from_partition(space, [space.carrier])
            assert rel.is_equivalence and rel.is_symmetric
            assert rel.classes() == (space.carrier,)
            assert ("s0", "s1999") in rel and ("s0", "zz") not in rel
            assert rel == kernel_of(const) and hash(rel) == hash(Relation.full(space))
            assert len(sigma_r(rel).atoms) == 1
            listing = list(space.carrier)
            assert repr(rel) == f"Relation({listing!r} x {listing!r})"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDirectSum:
    def test_discrete_sum(self):
        ds = direct_sum(S3, T2)
        assert len(ds.space.carrier) == 5
        assert len(ds.space.atoms) == 5
        assert ds.left("s0") == "L:s0"
        assert ds.right("t1") == "R:t1"

    def test_singletons(self):
        ds = direct_sum(Space.discrete(["x"]), Space.discrete(["y"]))
        assert ds.space.carrier == ("L:x", "R:y")

    def test_a_sum_takes_all_three_fields(self):
        ds = direct_sum(S3, T2)
        with pytest.raises(TypeError, match="DirectSum takes 3 fields, got 2"):
            DirectSum(ds.space, ds.left)

    def test_coarse_component_atoms(self):
        coarse = Space(["s0", "s1", "s2"], [["s0", "s1"], ["s2"]])
        ds = direct_sum(coarse, T2)
        assert len(ds.space.atoms) == 4
        # every emitted measurable set must trace back measurably to each side
        for block in ds.space.atoms:
            left_part = [s[2:] for s in block if s.startswith("L:")]
            right_part = [s[2:] for s in block if s.startswith("R:")]
            assert coarse.atoms_of_set(left_part) is not None
            assert T2.atoms_of_set(right_part) is not None


class TestFinalSurjection:
    def test_fibers_pair_with_codomain_atoms(self):
        result = is_final_surjection(F3TO2)
        assert result.is_final
        assert set(result.pairing) == {
            (frozenset({"s0", "s1"}), frozenset({"t0"})),
            (frozenset({"s2"}), frozenset({"t1"})),
        }

    def test_identity(self):
        result = is_final_surjection(MeasurableMap.identity(S3))
        assert result.is_final
        assert all(pre == img for pre, img in result.pairing)

    def test_coarse_codomain_not_final(self):
        merged = Space(["t0", "t1"], [["t0", "t1"]])
        f = MeasurableMap(S3, merged, {"s0": "t0", "s1": "t0", "s2": "t1"})
        result = is_final_surjection(f)
        assert not result.is_final
        assert result.pairing == (
            (frozenset({"s0", "s1", "s2"}), frozenset({"t0", "t1"})),
        )

    def test_requires_surjective(self):
        skinny = MeasurableMap(S3, T2, {s: "t0" for s in S3.carrier})
        with pytest.raises(NotSurjectiveError):
            is_final_surjection(skinny)

    def test_block_count_matches_codomain_for_discrete(self):
        rng = Random(17)
        for _ in range(40):
            m = rng.randint(1, 4)
            cod = Space.discrete([f"t{j}" for j in range(m)])
            dom = Space.discrete([f"s{i}" for i in range(rng.randint(m, 6))])
            f = rand_surjection(rng, dom, cod)
            assert len(sigma_r(kernel_of(f)).atoms) == len(cod.carrier)
            assert is_final_surjection(f).is_final
