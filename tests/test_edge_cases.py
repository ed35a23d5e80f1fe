"""Degenerate portfolios, single-state spaces, and coarse sigma-algebras
pushed through the whole pipeline."""

from __future__ import annotations

import json
import re
from random import Random

import pytest

from effkit import (
    Cospan,
    EffFn,
    IncompatiblePartitionError,
    Kernel,
    MeasurableMap,
    MeasureSet,
    Space,
    SpaceMismatchError,
    SubProb,
    UpperSet,
    build_span,
    distinguish,
    dual_ef,
    equals,
    eval_state,
    filter_generate,
    format_formula,
    greatest_bisim,
    greatest_ef_bisim,
    is_ef_morphism,
    logical_equivalence,
    parse_formula,
    push_upperset,
    quotient,
    restrict_upperset,
    unique_preimages,
)
from effkit.upperset import filter_of
from effkit.model_io import dumps_canonical, model_from_dict, model_to_dict
from helpers import certified_partition, rand_ef, rand_space


class TestSingleState:
    def test_whole_pipeline(self):
        one = Space.discrete(["x"])
        k = Kernel(one, {"x": [SubProb.dirac(one, "x")]})
        p = filter_generate(k)
        assert greatest_bisim(k).classes() == (("x",),)
        assert logical_equivalence(p).classes() == (("x",),)
        mediator, eta = quotient(p, greatest_ef_bisim(p))
        span = build_span(Cospan(p, p, mediator, eta, eta))
        assert span.w.carrier == ("x|x",)


class TestDegeneratePortfolioPairs:
    TWO = Space.discrete(["a", "b"])

    def _check_split(self, p: EffFn, s: str, t: str):
        result = distinguish(p, s, t)
        assert not result.equivalent
        ext = eval_state(p, result.formula)
        inside = result.satisfied_by
        outside = t if inside == s else s
        assert inside in ext and outside not in ext
        assert parse_formula(format_formula(result.formula)) == result.formula

    def test_full_vs_empty(self):
        p = EffFn(
            self.TWO, {"a": UpperSet.full(self.TWO), "b": UpperSet.empty(self.TWO)}
        )
        self._check_split(p, "a", "b")

    def test_full_vs_ordinary(self):
        p = EffFn(
            self.TWO,
            {
                "a": UpperSet.full(self.TWO),
                "b": UpperSet(
                    self.TWO, (MeasureSet(self.TWO, [SubProb.dirac(self.TWO, "b")]),)
                ),
            },
        )
        self._check_split(p, "a", "b")

    def test_empty_vs_ordinary(self):
        p = EffFn(
            self.TWO,
            {
                "a": UpperSet.empty(self.TWO),
                "b": UpperSet(
                    self.TWO, (MeasureSet(self.TWO, [SubProb.dirac(self.TWO, "b")]),)
                ),
            },
        )
        self._check_split(p, "a", "b")


def constant_per_atom_ef(rng: Random, space: Space) -> EffFn:
    """A portfolio constant on atoms (the t-measurable shape on coarse
    sigma-algebras), with random point masses and zeros."""
    per_atom = {}
    for block in space.atoms:
        gens = []
        for _ in range(rng.randint(0, 2)):
            members = [
                SubProb.zero(space)
                if rng.random() < 0.3
                else SubProb.dirac(space, rng.choice(space.carrier))
                for _ in range(rng.randint(1, 2))
            ]
            gens.append(MeasureSet(space, members))
        per_atom[block] = UpperSet(space, gens)
    return EffFn(
        space, {s: per_atom[space.atoms[space.atom_of(s)]] for s in space.carrier}
    )


class TestCoarseSigmaPipeline:
    def test_logic_quotient_span_and_io(self):
        rng = Random(263)
        for _ in range(100):
            space = rand_space(rng, 1, 5, allow_coarse=True)
            p = constant_per_atom_ef(rng, space)
            le = logical_equivalence(p)
            assert le == greatest_ef_bisim(p)
            assert set(map(frozenset, le.classes())) == certified_partition(p)
            quotiented, eta = quotient(p, greatest_ef_bisim(p))
            assert is_ef_morphism(eta, p, quotiented)
            if p.is_finitely_supported:
                build_span(Cospan(p, p, quotiented, eta, eta))
            doc = dumps_canonical(model_to_dict(p))
            assert model_from_dict(json.loads(doc)) == p

    def test_duality_involution_on_coarse_spaces(self):
        rng = Random(269)
        for _ in range(60):
            space = rand_space(rng, 1, 4, allow_coarse=True)
            p = rand_ef(rng, space)
            twice = dual_ef(dual_ef(p))
            assert all(equals(twice(s), p(s)) for s in space.carrier)


class TestForeignSpaceOnEntry:
    """Each operation checks its argument's space before it reads a single
    measure, so an empty or full input from a foreign space is refused with
    the error a one-measure input gets."""

    TWO = Space.discrete(["a", "b"])
    FOUR = Space.discrete(["x", "y", "z", "w"])
    IDENTITY = MeasurableMap(TWO, TWO, {"a": "a", "b": "b"})

    @staticmethod
    def family(size: str, space: Space) -> UpperSet:
        if size == "empty":
            return UpperSet.empty(space)
        if size == "full":
            return UpperSet.full(space)
        return filter_of(MeasureSet(space, [SubProb.dirac(space, space.carrier[0])]))

    @staticmethod
    def measure(size: str, space: Space) -> SubProb:
        """The zero measure, a Dirac past the identity's domain, or one in it."""
        if size == "empty":
            return SubProb.zero(space)
        return SubProb.dirac(space, space.carrier[-1 if size == "full" else 0])

    @staticmethod
    def measure_set(size: str, space: Space) -> MeasureSet:
        if size == "empty":
            return MeasureSet(space, ())
        states = space.carrier if size == "full" else space.carrier[:1]
        return MeasureSet(space, [SubProb.dirac(space, s) for s in states])

    @pytest.mark.parametrize("size", ["empty", "full", "nonempty"])
    @pytest.mark.parametrize(
        "operation, error, message",
        [
            ("push_upperset", SpaceMismatchError, "measure does not live on the map's domain"),
            ("restrict_upperset", IncompatiblePartitionError, "partitions live on different carriers"),
            ("unique_preimages", SpaceMismatchError, "measure does not live on the map's codomain"),
            ("MeasureSet.union", SpaceMismatchError, "measure set members must share one space"),
        ],
    )
    def test_foreign_space_is_refused_whatever_the_size(self, operation, error, message, size):
        calls = {
            "push_upperset": lambda: push_upperset(self.IDENTITY, self.family(size, self.FOUR)),
            "restrict_upperset": lambda: restrict_upperset(
                self.family(size, self.FOUR), Space(["x"], [["x"]])
            ),
            "unique_preimages": lambda: unique_preimages(self.IDENTITY, self.measure(size, self.FOUR)),
            "MeasureSet.union": lambda: self.measure_set("nonempty", self.TWO).union(
                self.measure_set(size, self.FOUR)
            ),
        }
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            calls[operation]()
