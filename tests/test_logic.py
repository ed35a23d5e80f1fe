"""Formula syntax, semantics, logical equivalence, distinguishing formulas."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effkit import (
    And,
    Box,
    Diamond,
    EffFn,
    EffkitError,
    FormulaSyntaxError,
    Kernel,
    MAnd,
    MOr,
    MeasureSet,
    Relation,
    Space,
    SpaceMismatchError,
    SubProb,
    Threshold,
    ThresholdOutOfRangeError,
    Top,
    UpperSet,
    distinguish,
    eval_measure,
    eval_state,
    filter_generate,
    format_formula,
    greatest_ef_bisim,
    is_ef_state_bisim,
    is_subsystem,
    logical_equivalence,
    parse_formula,
    sigma_r,
)
from effkit.logic import _Refiner
from helpers import (
    rand_ef,
    rand_kernel,
    rand_space,
    rand_state_formula,
)

S3 = Space.discrete(["s0", "s1", "s2"])
D2 = SubProb.dirac(S3, "s2")
ZERO = SubProb.zero(S3)
K_A = Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]})
P_A = filter_generate(K_A)


class TestParser:
    def test_nesting_bound(self):
        from effkit.logic import _MAX_NESTING

        chain = " & ".join(["T"] * _MAX_NESTING)
        deepest = parse_formula(chain)
        assert format_formula(deepest) == chain
        assert eval_state(P_A, deepest) == frozenset(S3.carrier)
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(chain + " & T")
        assert exc.value.position == len(chain) + 1

    def test_diamond_threshold(self):
        f = parse_formula("<>[T > 1/2]")
        assert f == Diamond(Threshold(Top(), ">", Fraction(1, 2)))

    def test_conjunction(self):
        assert parse_formula("T & T") == And(Top(), Top())

    def test_nested_bracket_grouping(self):
        f = parse_formula("[][ [T<1/3] | [T>2/3] ]")
        assert f == Box(
            MOr(
                Threshold(Top(), "<", Fraction(1, 3)),
                Threshold(Top(), ">", Fraction(2, 3)),
            )
        )

    def test_precedence_amp_tighter_than_pipe(self):
        f = parse_formula("<>[ [T>0] & [T>1/4] | [T<1/8] ]")
        assert isinstance(f, Diamond)
        assert isinstance(f.body, MOr)
        assert isinstance(f.body.left, MAnd)

    def test_modality_binds_tightest(self):
        f = parse_formula("<>[T > 0] & T")
        assert f == And(Diamond(Threshold(Top(), ">", Fraction(0))), Top())

    def test_parens_in_state_and_measure(self):
        f = parse_formula("(T & (T & T))")
        assert f == And(Top(), And(Top(), Top()))
        g = parse_formula("[]( [T>0] & ([T<1/2] | [T>0]) )")
        assert isinstance(g.body, MAnd)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("T &")
        assert exc.value.position == 3
        with pytest.raises(FormulaSyntaxError):
            parse_formula("<>")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("T T")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("[T > 1/2]")  # threshold is not a state formula

    def test_threshold_range_enforced(self):
        with pytest.raises(ThresholdOutOfRangeError):
            parse_formula("<>[T > 1]")
        with pytest.raises(ThresholdOutOfRangeError):
            parse_formula("<>[T < 5/4]")
        parse_formula("<>[T > 0]")
        parse_formula("<>[T < 7/8]")

    def test_threshold_rationals_zero_and_fraction(self):
        f = parse_formula("<>[T < 0]")
        assert f.body.bound == 0

    def test_roundtrip_examples(self):
        for text in (
            "T",
            "T & T",
            "<>[T > 1/2]",
            "[][ [T<1/3] | [T>2/3] ]",
            "T & (T & T)",
            "[]( [T>0] & [T<1/2] )",
        ):
            ast = parse_formula(text)
            printed = format_formula(ast)
            assert parse_formula(printed) == ast
            assert format_formula(parse_formula(printed)) == printed


@st.composite
def formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return rand_state_formula(Random(seed), depth=3)


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_print(self, ast):
        printed = format_formula(ast)
        assert parse_formula(printed) == ast
        assert format_formula(parse_formula(printed)) == printed


class TestEval:
    def test_fixture_diamond(self):
        ext = eval_state(P_A, parse_formula("<>[T > 1/2]"))
        assert ext == frozenset({"s0", "s1"})

    def test_top_full_carrier(self):
        assert eval_state(P_A, Top()) == frozenset(S3.carrier)

    def test_degenerate_full_family_state(self):
        k = Kernel(S3, {"s0": [], "s1": [D2], "s2": [ZERO]})
        p = filter_generate(k)  # s0 carries the full family
        for text in ("<>[T > 1/2]", "<>[T < 1/2]", "<>[ [T>0] & [T<1/8] ]"):
            assert "s0" in eval_state(p, parse_formula(text))
        for text in ("[][T > 1/2]", "[][T < 1/2]"):
            assert "s0" not in eval_state(p, parse_formula(text))

    def test_eval_measure_thresholds(self):
        psi = parse_formula("<>[T > 1/2]").body
        assert eval_measure(P_A, psi, D2)
        assert not eval_measure(P_A, psi, ZERO)
        elsewhere = SubProb.dirac(Space.discrete(["t0", "t1", "t2"]), "t2")
        with pytest.raises(SpaceMismatchError):
            eval_measure(P_A, psi, elsewhere)

    def test_extension_is_atom_union_on_quotient_spaces(self):
        # a portfolio constant on coarser atoms keeps extensions measurable
        coarse = Space(S3.carrier, [["s0", "s1"], ["s2"]])
        mu = SubProb.of(coarse, {"s2": "1"})
        p = EffFn(
            coarse,
            {
                "s0": UpperSet(coarse, (MeasureSet(coarse, [mu]),)),
                "s1": UpperSet(coarse, (MeasureSet(coarse, [mu]),)),
                "s2": UpperSet(coarse, (MeasureSet(coarse, [SubProb.zero(coarse)]),)),
            },
        )
        for depth_text in ("<>[T > 1/2]", "[][T < 1/2]", "T & <>[T > 0]"):
            ext = eval_state(p, parse_formula(depth_text))
            assert coarse.atoms_of_set(ext) is not None


class TestLogicalEquivalence:
    def test_fixture(self):
        assert logical_equivalence(P_A).classes() == (("s0", "s1"), ("s2",))

    def test_constant_portfolio_one_block(self):
        p = EffFn(S3, {s: P_A("s0") for s in S3.carrier})
        assert logical_equivalence(p) == Relation.full(S3)

    def test_coarse_atoms_with_split_dynamics_agree_or_refuse(self):
        # states sharing an atom but moving differently make a portfolio
        # that is not measurable; the logic may refuse it but never answers
        # differently from the relational computation
        rng = Random(4)
        answered = refused = 0
        while answered + refused < 150:
            space = rand_space(rng, 2, 5, allow_coarse=True)
            p = rand_ef(rng, space, max_den=rng.choice((2, 4, 8)))
            if space.is_discrete or is_subsystem(p, space):
                continue
            try:
                rel = logical_equivalence(p)
            except EffkitError:
                refused += 1
                continue
            assert rel == greatest_ef_bisim(p)
            answered += 1
        assert answered >= 100

    def test_matches_greatest_bisim_on_random_efs(self):
        rng = Random(181)
        for _ in range(60):
            space = rand_space(rng, 2, 5)
            p = rand_ef(rng, space)
            assert logical_equivalence(p).pairs == greatest_ef_bisim(p).pairs

    def test_collision_heavy_portfolios_agree_with_both_oracles(self):
        # low-entropy masses maximize accidental agreements, stressing the
        # refinement's tie-breaking and the synthesized-formula path
        from effkit import MeasureSet, SubProb, UpperSet
        from helpers import blockwise_bisim_oracle

        rng = Random(307)
        for _ in range(40):
            space = rand_space(rng, 2, 5)
            pool = [SubProb.zero(space)] + [
                SubProb.dirac(space, s) for s in space.carrier
            ]
            pool.append(SubProb.of(space, {space.carrier[0]: "1/2"}))
            portfolio = {}
            for s in space.carrier:
                gens = [
                    MeasureSet(space, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
                    for _ in range(rng.randint(0, 2))
                ]
                portfolio[s] = UpperSet(space, gens)
            p = EffFn(space, portfolio)
            le = logical_equivalence(p)
            gb = greatest_ef_bisim(p)
            assert le.pairs == gb.pairs
            assert {frozenset(c) for c in gb.classes()} == blockwise_bisim_oracle(p)

    def test_family_invariant_generates_partition_sigma(self):
        rng = Random(191)
        for _ in range(20):
            space = rand_space(rng, 2, 4)
            p = rand_ef(rng, space)
            refiner = _Refiner(p)
            blocks = refiner.refine()
            # extensions generate exactly the final partition's sets: the
            # signature classes of the family equal the blocks
            assert set(map(frozenset, blocks)) == set(
                map(frozenset, refiner.blocks())
            )
            for ext in refiner.family:
                covered = {b for b in blocks if set(b) <= ext}
                assert frozenset().union(*(set(b) for b in covered)) == ext if covered else not ext


class TestSoundness:
    def test_formula_extensions_closed_under_accepted_bisimulations(self):
        rng = Random(193)
        for _ in range(25):
            space = rand_space(rng, 2, 4)
            p = rand_ef(rng, space, max_gens=2, max_measures=2, max_den=4)
            best = greatest_ef_bisim(p)
            blocks = sigma_r(best)
            for _ in range(12):
                phi = rand_state_formula(rng, depth=3)
                ext = eval_state(p, phi)
                assert blocks.atoms_of_set(ext) is not None


class TestStrongMorphismsPreserveFormulas:
    def test_satisfaction_transfers_along_accepted_strong_morphisms(self):
        from effkit import is_strong_morphism
        from helpers import rand_nk_instance

        rng = Random(239)
        for _ in range(20):
            f, k, k2 = rand_nk_instance(rng)
            p, q = filter_generate(k), filter_generate(k2)
            assert is_strong_morphism(f, p, q)
            for _ in range(10):
                phi = rand_state_formula(rng, depth=3)
                source_ext = eval_state(p, phi)
                target_ext = eval_state(q, phi)
                for s in p.space.carrier:
                    assert (s in source_ext) == (f(s) in target_ext)


class TestDistinguish:
    def test_fixture_pair(self):
        result = distinguish(P_A, "s0", "s2")
        assert not result.equivalent
        ext = eval_state(P_A, result.formula)
        assert (result.satisfied_by in ext)
        other = "s0" if result.satisfied_by == "s2" else "s2"
        assert other not in ext

    def test_equivalent_pair(self):
        assert distinguish(P_A, "s0", "s1").equivalent

    def test_same_state(self):
        assert distinguish(P_A, "s2", "s2").equivalent

    def test_random_pairs_confirmed(self):
        rng = Random(197)
        confirmed = 0
        for _ in range(300):
            space = rand_space(rng, 2, 5)
            p = rand_ef(rng, space)
            rel = greatest_ef_bisim(p)
            inequivalent = [
                (s, t)
                for i, s in enumerate(space.carrier)
                for t in space.carrier[i + 1:]
                if (s, t) not in rel
            ]
            if not inequivalent:
                continue
            s, t = inequivalent[rng.randrange(len(inequivalent))]
            result = distinguish(p, s, t)
            assert not result.equivalent
            ext = eval_state(p, result.formula)
            inside = result.satisfied_by
            outside = t if inside == s else s
            assert inside in ext and outside not in ext
            # the synthesized text survives a round trip too
            assert parse_formula(format_formula(result.formula)) == result.formula
            confirmed += 1
        assert confirmed >= 200

    def test_equivalent_pairs_never_split_by_sampled_formulas(self):
        rng = Random(199)
        tried = 0
        for i in range(60):
            space = rand_space(rng, 2, 4)
            # low-entropy portfolios make equivalent pairs common
            p = (
                rand_ef(rng, space, max_gens=1, max_measures=1, max_den=2)
                if i % 2
                else rand_ef(rng, space)
            )
            rel = greatest_ef_bisim(p)
            pairs = [
                (s, t)
                for i, s in enumerate(space.carrier)
                for t in space.carrier[i + 1:]
                if (s, t) in rel
            ]
            if not pairs:
                continue
            tried += 1
            for _ in range(60):
                phi = rand_state_formula(rng, depth=3)
                ext = eval_state(p, phi)
                for s, t in pairs:
                    assert (s in ext) == (t in ext)
        assert tried >= 10
