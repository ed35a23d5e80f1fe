"""Formula syntax, semantics, logical equivalence, distinguishing formulas."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from random import Random

import helpers
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
    InternalInvariantViolation,
    Kernel,
    MAnd,
    MOr,
    MeasureSet,
    NotMeasurableSetError,
    Relation,
    Space,
    SpaceMismatchError,
    StateFormula,
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
    logical_equivalence,
    parse_formula,
    sigma_r,
)
from effkit import logic
from effkit.effectivity import _refine
from effkit.logic import _Evaluator, _Refiner, _tokenize
from helpers import (
    ORACLE_NESTING,
    FamilyRefiner,
    RecursiveEvaluator,
    constant_on_atoms_oracle,
    format_formula_oracle,
    formula_texts,
    parse_formula_oracle,
    parse_formula_recursive,
    rand_ef,
    rand_kernel,
    rand_measure_formula,
    rand_partition_blocks,
    rand_portfolio,
    rand_space,
    rand_state_formula,
    rand_subprob,
    relation_from_family,
)

S3 = Space.discrete(["s0", "s1", "s2"])
D2 = SubProb.dirac(S3, "s2")
ZERO = SubProb.zero(S3)
K_A = Kernel(S3, {"s0": [D2], "s1": [D2], "s2": [ZERO]})
P_A = filter_generate(K_A)


# a moves to b with mass 1, b to a with mass 1/2: below ``<>[T > 3/4]``,
# which holds at a only, each ``<>[. > 1/4]`` or ``[][. > 1/4]`` swaps the
# extension between {a} and {b}.
SWAP_SPACE = Space.discrete(["a", "b"])
SWAP = filter_generate(
    Kernel(
        SWAP_SPACE,
        {"a": [SubProb.dirac(SWAP_SPACE, "b")], "b": [SubProb.of(SWAP_SPACE, {"a": "1/2"})]},
    )
)


class TestParser:
    def test_any_depth_parses_prints_and_evaluates(self):
        """Far past the 100 levels the recursive parser accepted: a
        conjunction chain, modalities, parentheses and brackets, each 3000
        levels deep, and a 20 000-term measure disjunction."""
        n = 3000
        full, fixture = frozenset(S3.carrier), frozenset({"s0", "s1"})
        cases = [
            (" & ".join(["T"] * 20_000), P_A, full),
            ("(" * n + "<>[T > 1/2]" + ")" * n, P_A, fixture),
            ("<>[" + "[ " * n + "[T > 1/2]" + " ]" * n + "]", P_A, fixture),
            ("[][ " + " | ".join(["[T < 1/3]"] * 20_000) + " ]", P_A, frozenset({"s2"})),
            ("<>[" * n + "<>[T > 3/4]" + " > 1/4]" * n, SWAP, frozenset({"a"})),
            ("[][" * (n + 1) + "<>[T > 3/4]" + " > 1/4]" * (n + 1), SWAP, frozenset({"b"})),
        ]
        for text, p, ext in cases:
            f = parse_formula(text)
            printed = format_formula(f)
            assert format_formula(parse_formula(printed)) == printed
            assert eval_state(p, f) == ext

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

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("<>[T > ]", 7, "expected a rational, found ']'"),
            ("<>[T & > 1/2]", 7, "expected a state formula, found '>'"),
            ("<>[ (T & T) < ]", 14, "expected a rational, found ']'"),
            ("<>[T > 1/2", 10, "expected ']', found end of input"),
        ],
    )
    def test_errors_inside_a_threshold_point_at_the_fault(self, text, position, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("T )", 2, "expected end of input, found ')'"),
            ("<>[T", 4, "expected < or > in threshold, found end of input"),
            ("<>[T >", 6, "expected a rational, found end of input"),
            ("T &", 3, "expected a state formula, found end of input"),
            ("[](", 3, "expected a measure formula, found end of input"),
        ],
    )
    def test_end_of_input_is_named_without_quotes(self, text, position, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} (at position {position})"

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


_VOCABULARY = ("T", "&", "|", "<>", "[]", "(", ")", "[", "]", "<", ">", "0", "1/2", "1", "3/2")


def mutated(rng: Random, text: str) -> str:
    """``text`` after up to three single-token deletions, insertions or
    substitutions, tokens separated by spaces."""
    tokens = [tok for _, tok, _ in _tokenize(text)[:-1]]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(tokens) + 1)
        move = rng.randrange(3)
        if move == 1 or i == len(tokens):
            tokens.insert(i, rng.choice(_VOCABULARY))
        elif move == 0:
            del tokens[i]
        else:
            tokens[i] = rng.choice(_VOCABULARY)
    return " ".join(tokens)


class TestAgainstBacktrackingParser:
    def test_random_and_mutated_formulas(self):
        """The same formula wherever the backtracking parser accepts, a
        refusal wherever it refuses, of the same type except where a
        threshold is both out of range and unclosed: the backtracking parser
        checks the range first, ``parse_formula`` the closing ``]``."""
        rng = Random(257)
        seen: Counter = Counter()
        for _ in range(4000):
            text = mutated(rng, format_formula(rand_state_formula(rng, depth=rng.randint(1, 4))))
            outcomes = []
            for parse in (parse_formula, parse_formula_oracle):
                try:
                    outcomes.append(parse(text))
                except (FormulaSyntaxError, ThresholdOutOfRangeError) as exc:
                    outcomes.append(exc)
            new, old = outcomes
            if not isinstance(old, EffkitError):
                assert new == old, text
                seen["accepted"] += 1
                continue
            assert isinstance(new, EffkitError), text
            seen["refused"] += 1
            out_of_range = isinstance(old, ThresholdOutOfRangeError)
            if out_of_range != isinstance(new, ThresholdOutOfRangeError):
                assert out_of_range, text
                assert "expected ']'" in str(new), text
                seen["out of range and unclosed"] += 1
        assert seen["accepted"] > 900 and seen["refused"] > 2000, seen


def parsed_or_refused(parse, text: str):
    try:
        return parse(text)
    except (FormulaSyntaxError, ThresholdOutOfRangeError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestAgainstRecursiveParser:
    def test_random_mutated_and_deep_formulas(self):
        """The same formula, or the same refusal with the same message and
        position, wherever the recursive parser, with its own tokenizer, does
        not hit its nesting cap: random formulas after token mutations,
        random characters, and nestings up to the cap of each construct."""
        rng = Random(4099)
        shapes = ("(", ")", "<>[", "[][", "[ ", " ]", "T & ", " > 1/2]", "[T < 1/3] | ", "& T")
        characters = "T&|<>[]() /0123456789x\t\u00b2\u0661"
        seen: Counter = Counter()
        for i in range(4800):
            if i % 10 == 0:
                pieces = [rng.choice(shapes) * rng.randint(0, ORACLE_NESTING) for _ in range(3)]
                text = pieces[0] + pieces[1] + "T" + pieces[2]
            elif i % 10 == 1:
                text = "".join(rng.choices(characters, k=rng.randint(0, 20)))
            else:
                formula = rand_state_formula(rng, depth=rng.randint(1, 5))
                text = mutated(rng, format_formula(formula))
            old = parsed_or_refused(parse_formula_recursive, text)
            if isinstance(old, tuple) and "nested deeper" in old[1]:
                seen["beyond the cap"] += 1
                continue
            assert parsed_or_refused(parse_formula, text) == old, text
            seen["accepted" if isinstance(old, StateFormula) else "refused"] += 1
        assert seen["accepted"] > 1000 and seen["refused"] > 2000, seen


class TestAgainstRecursiveEvaluator:
    def test_seeded_portfolios_and_formulas(self):
        """The same extension and measure verdict, and as many threshold
        masses weighed, on random portfolios (coarse spaces included) and
        random formulas nesting up to four modalities."""
        rng = Random(3001)
        for _ in range(3000):
            p = rand_ef(rng, rand_space(rng, 2, 4, allow_coarse=True), max_gens=2)
            formula = rand_state_formula(rng, depth=rng.randint(1, 8))
            measure, mu = rand_measure_formula(rng, depth=3), rand_subprob(rng, p.space)
            outcomes = []
            for ev in (_Evaluator(p), RecursiveEvaluator(p)):
                weighed = Counter()
                numerator = ev.numerator

                def counted(mu, f, numerator=numerator, weighed=weighed):
                    weighed["numerator"] += 1
                    return numerator(mu, f)

                ev.numerator = counted
                outcomes.append((ev.state_ext(formula), ev.msat(measure, mu), weighed["numerator"]))
            new, old = outcomes
            assert new == old


@st.composite
def formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return rand_state_formula(Random(seed), depth=3)


class TestPrinter:
    def test_matches_the_recursive_printer(self):
        rng = Random(6151)
        for _ in range(3000):
            f = rand_state_formula(rng, depth=rng.randint(1, 6))
            assert format_formula(f) == format_formula_oracle(f)

    def test_any_depth_formats(self):
        n = 5000
        low, high = Threshold(Top(), "<", Fraction(1, 3)), Threshold(Top(), ">", Fraction(0))
        modal, conj, mixed = Top(), Top(), low
        for _ in range(n):
            modal = Diamond(Threshold(modal, ">", Fraction(1, 2)))
            conj = And(Top(), conj)
            mixed = MOr(high, MAnd(low, mixed))
        assert format_formula(modal) == "<>[" * n + "T" + " > 1/2]" * n
        assert format_formula(conj) == "T & (" * (n - 1) + "T & T" + ")" * (n - 1)
        step = "[T > 0] | [T < 1/3] & "
        assert format_formula(Box(mixed)) == (
            "[][ " + (step + "(") * (n - 1) + step + "[T < 1/3]" + ")" * (n - 1) + " ]"
        )
        small = mixed
        for _ in range(n - 3):
            small = small.right.right
        assert format_formula(Box(small)) == format_formula_oracle(Box(small))

    def test_refuses_a_node_of_the_wrong_level(self):
        for bad in (Diamond(Top()), And(Top(), Threshold(Top(), "<", Fraction(1, 2)))):
            with pytest.raises(TypeError) as exc:
                format_formula(bad)
            with pytest.raises(TypeError) as old:
                format_formula_oracle(bad)
            assert str(exc.value) == str(old.value)


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_print(self, ast):
        printed = format_formula(ast)
        assert parse_formula(printed) == ast
        assert format_formula(parse_formula(printed)) == printed


class TestFuzz:
    @given(formula_texts())
    @settings(max_examples=300)
    def test_parse_returns_a_reprintable_formula_or_refuses(self, text):
        try:
            f = parse_formula(text)
        except (FormulaSyntaxError, ThresholdOutOfRangeError):
            return
        printed = format_formula(f)
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
        # that is not measurable: the constructor refuses it, so neither
        # the logic nor the relational computation ever sees one
        rng = Random(4)
        refused = 0
        while refused < 150:
            space = rand_space(rng, 2, 5, allow_coarse=True)
            max_den = rng.choice((2, 4, 8))
            portfolio = {s: rand_portfolio(rng, space, max_den=max_den) for s in space.carrier}
            if constant_on_atoms_oracle(space, portfolio):
                continue
            with pytest.raises(NotMeasurableSetError):
                EffFn(space, portfolio)
            refused += 1

    def test_matches_greatest_bisim_on_random_efs(self):
        rng = Random(181)
        for _ in range(60):
            space = rand_space(rng, 2, 5)
            p = rand_ef(rng, space)
            assert logical_equivalence(p) == greatest_ef_bisim(p)

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
            assert le == gb
            assert {frozenset(c) for c in gb.classes()} == blockwise_bisim_oracle(p)

    def test_upsets_generate_partition_sigma(self):
        rng = Random(191)
        for _ in range(20):
            space = rand_space(rng, 2, 4)
            p = rand_ef(rng, space)
            refiner = _Refiner(p)
            blocks = set(map(frozenset, refiner.refine()))
            upsets = [ext for _, ext, _ in refiner.upsets]
            # one up-set per block, named by its formula and a union of
            # blocks; the blocks are the signature classes of the up-sets
            assert len(set(upsets)) == len(blocks)
            assert all(eval_state(p, formula) == ext for _, ext, formula in refiner.upsets)
            for ext in upsets:
                assert ext == frozenset().union(*(b for b in blocks if b <= ext))
            classes = Relation(space, relation_from_family(space, upsets)).classes()
            assert set(map(frozenset, classes)) == blocks

    def test_upsets_agree_with_the_intersection_closure(self, monkeypatch):
        """Seeded cross-check against ``FamilyRefiner``, which scans the
        whole intersection closure of the confirmed extensions: the same
        partition, and per inequivalent pair a witness
        with the same satisfier and evaluated extension.  Each run records,
        in the round that splits a pair, the witness ``distinguish``
        returns for it, and checks one up-set per block of the round."""
        hook = {}

        def rounds(*args):
            for class_of, classes in _refine(*args):
                hook["round"](class_of, classes)
                yield class_of, classes

        monkeypatch.setattr(logic, "_refine", rounds)
        monkeypatch.setattr(helpers, "_refine", rounds)

        def run(refiner):
            witnesses = {}

            def record(class_of, classes):
                if type(refiner) is _Refiner:
                    assert len({ext for _, ext, _ in refiner.upsets}) == len(classes)
                for group in classes:
                    for left, right in itertools.combinations(group, 2):
                        for s, t in itertools.product(left, right):
                            s, t = sorted((s, t), key=refiner.index.__getitem__)
                            _, ext, satisfier = refiner._confirmed(s, t, class_of)
                            witnesses[s, t] = ext, satisfier

            hook["round"] = record
            return refiner.refine(), witnesses

        pairs = 0
        for seed in range(3000):
            rng = Random(seed)
            states = [f"s{i}" for i in range(rng.randint(2, 7))]
            if rng.random() < 0.3:
                space = Space(states, rand_partition_blocks(rng, states))
            else:
                space = Space.discrete(states)
            p = rand_ef(rng, space, max_den=rng.choice([2, 4, 8]))
            blocks, witnesses = run(_Refiner(p))
            assert (blocks, witnesses) == run(FamilyRefiner(p)), seed
            pairs += len(witnesses)
            for (s, t), (ext, satisfier) in itertools.islice(witnesses.items(), 1):
                result = distinguish(p, s, t)
                assert (eval_state(p, result.formula), result.satisfied_by) == (ext, satisfier)
        assert pairs > 20000

    def test_a_formula_cutting_a_class_raises(self, monkeypatch):
        space = Space.discrete(["a", "b", "c"])
        full = [MeasureSet(space, [])]
        refiner = _Refiner(EffFn(space, {"a": full, "b": full, "c": []}))
        confirmed = refiner._confirmed

        def cutting(*args):
            # toggling b parts it from a, its class in the first round
            formula, ext, satisfier = confirmed(*args)
            return formula, ext ^ {"b"}, satisfier

        monkeypatch.setattr(refiner, "_confirmed", cutting)
        with pytest.raises(InternalInvariantViolation, match="cuts a signature class"):
            refiner.refine()


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

    def test_deep_witness_evaluates_in_a_fresh_evaluator(self):
        """The 400-state chain's witness nests about 400 modalities; a
        fresh evaluator, which shares no memo with the synthesis, confirms
        it."""
        p = half_chain(400)
        result = distinguish(p, "s0", "s1")
        ext = eval_state(p, result.formula)
        other = "s1" if result.satisfied_by == "s0" else "s0"
        assert result.satisfied_by in ext and other not in ext

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


def half_chain(n: int) -> EffFn:
    """States s0 .. s{n-1}: each but the last moves with mass 1/2 to the
    next, the last has no measure."""
    space = Space.discrete([f"s{i}" for i in range(n)])
    image = {f"s{i}": [SubProb.of(space, {f"s{i + 1}": "1/2"})] for i in range(n - 1)}
    return filter_generate(Kernel(space, image))


class TestIdentityMemos:
    def test_no_formula_node_is_hashed(self, monkeypatch):
        hashed: Counter = Counter()
        for cls in (Top, And, Diamond, Box, MAnd, MOr, Threshold):
            def counted(node, _hash=cls.__hash__):
                hashed[type(node).__name__] += 1
                return _hash(node)

            monkeypatch.setattr(cls, "__hash__", counted)
        assert hash(Top()) is not None and hashed["Top"] == 1
        hashed.clear()
        for n in (10, 20, 40):
            p = half_chain(n)
            assert len(logical_equivalence(p).classes()) == n
            assert not distinguish(p, "s0", "s1").equivalent
        assert not hashed, hashed


class TestNodesAtAnyDepth:
    """``==``, ``hash`` and ``repr`` of formula nodes run on an explicit
    stack, and meet each shared subformula once when comparing and
    hashing."""

    DEPTH = 10_000

    def nested(self, inner: StateFormula) -> StateFormula:
        f = inner
        for _ in range(self.DEPTH):
            f = Diamond(Threshold(f, ">", Fraction(1, 3)))
        return f

    def test_deep_twins_compare_hash_and_print(self):
        a, b = self.nested(Top()), self.nested(Top())
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != self.nested(And(Top(), Top()))
        level = ("Diamond(body=Threshold(state=", ", cmp='>', bound=Fraction(1, 3)))")
        assert repr(a) == level[0] * self.DEPTH + "Top()" + level[1] * self.DEPTH

    def test_shared_subformulas_are_met_once(self):
        a, b = Top(), Top()
        for _ in range(200):  # 2**200 paths from the root
            a, b = And(a, a), And(b, b)
        assert a == b and hash(a) == hash(b)
        assert a != And(a.left, Diamond(Threshold(Top(), "<", Fraction(1, 2))))
