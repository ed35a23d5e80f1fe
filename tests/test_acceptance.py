"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest -s``).  All comparisons are exact rational equality, tolerance 0.
"""

from __future__ import annotations

import json
import time
from random import Random

import pytest

from effkit import (
    Cospan,
    MeasurableMap,
    Relation,
    Space,
    angelize,
    build_span,
    distinguish,
    dual_ef,
    equals,
    eval_state,
    filter_generate,
    format_formula,
    greatest_ef_bisim,
    invariant_measure_transport,
    is_ef_morphism,
    is_ef_state_bisim,
    is_event_bisim,
    is_final_surjection,
    is_nk_morphism,
    is_state_bisim,
    is_strong_morphism,
    is_subsystem,
    kernel_of,
    kernel_sum,
    logical_equivalence,
    parse_formula,
    pushforward,
    quotient,
    restrict,
    sigma_r,
    sum_ef,
)
from effkit.model_io import dumps_canonical, model_from_dict, model_to_dict
from helpers import (
    CertifyingRefiner,
    all_partitions,
    all_symmetric_relations,
    perturb_kernel,
    rand_ef,
    rand_fin_supported_ef,
    rand_kernel,
    rand_nk_instance,
    rand_space,
    rand_state_formula,
    rand_subprob,
    rand_surjection,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def ef_corpus():
    """Criterion 1's corpus: 200 random finitary effectivity functions with
    |S| <= 5, <= 3 generators per state, <= 3 measures per generator,
    denominators <= 8."""
    rng = Random(20240)
    return [
        rand_ef(rng, rand_space(rng, 2, 5), max_gens=3, max_measures=3, max_den=8)
        for _ in range(200)
    ]


def test_criterion_1_hennessy_milner(ef_corpus):
    started = time.monotonic()
    for p in ef_corpus:
        logical = logical_equivalence(p)
        relational = greatest_ef_bisim(p)
        assert logical == relational
        # the certifying refiner backs every split with a formula
        oracle = CertifyingRefiner(p)
        blocks, _ = oracle.run()
        assert set(map(frozenset, blocks)) == set(map(frozenset, logical.classes()))
        for (s, t), (formula, ext, satisfier) in oracle.witnesses:
            assert eval_state(p, formula) == ext and {s, t} & ext == {satisfier}
    elapsed = time.monotonic() - started
    report(1, "hennessy-milner", elapsed < 60.0, f"{len(ef_corpus)} systems in {elapsed:.1f}s")


def test_criterion_2_distinguishing_formulas(ef_corpus):
    rng = Random(20241)
    split_checked = 0
    immune_checked = 0
    for p in ef_corpus:
        rel = greatest_ef_bisim(p)
        carrier = p.space.carrier
        inequivalent = [
            (s, t)
            for i, s in enumerate(carrier)
            for t in carrier[i + 1:]
            if (s, t) not in rel
        ]
        equivalent = [
            (s, t)
            for i, s in enumerate(carrier)
            for t in carrier[i + 1:]
            if (s, t) in rel
        ]
        for s, t in inequivalent:
            result = distinguish(p, s, t)
            assert not result.equivalent
            ext = eval_state(p, result.formula)
            inside = result.satisfied_by
            outside = t if inside == s else s
            assert inside in ext and outside not in ext
            split_checked += 1
        if equivalent:
            for _ in range(500):
                ext = eval_state(p, rand_state_formula(rng, depth=3, max_den=8))
                for s, t in equivalent:
                    assert (s in ext) == (t in ext)
            immune_checked += len(equivalent)
    report(
        2,
        "distinguishing-formulas",
        split_checked > 0 and immune_checked > 0,
        f"{split_checked} pairs split, {immune_checked} pairs immune to 500 probes",
    )


def test_criterion_3_duality_laws():
    rng = Random(20242)
    for _ in range(200):
        space = rand_space(rng, 2, 5)
        kernel = rand_kernel(rng, space)
        demonized, angelic = filter_generate(kernel), angelize(kernel)
        for s in space.carrier:
            assert equals(dual_ef(angelic)(s), demonized(s))
            assert equals(dual_ef(demonized)(s), angelic(s))
        p = rand_ef(rng, space)
        twice = dual_ef(dual_ef(p))
        for s in space.carrier:
            assert equals(twice(s), p(s))
    report(3, "duality-laws", True, "200 kernels and portfolios")


def test_criterion_4_filter_preserves_reflects_bisim():
    rng = Random(20243)
    systems = 0
    for n in (2, 3, 4):
        space = Space.discrete([f"s{i}" for i in range(n)])
        for _ in range(4):
            kernel = rand_kernel(rng, space, max_measures=2, max_den=4)
            portfolio = filter_generate(kernel)
            for rel in all_symmetric_relations(space):
                assert is_state_bisim(kernel, rel) == is_ef_state_bisim(portfolio, rel)
            systems += 1
    report(4, "filter-preserves-reflects", True, f"{systems} kernels, exhaustive relations")


def test_criterion_5_nk_iff_strong():
    rng = Random(20244)
    agreements = 0
    for case in range(100):
        f, k, k2 = rand_nk_instance(rng)
        if case % 2:
            if rng.random() < 0.5:
                k = perturb_kernel(rng, k)
            else:
                k2 = perturb_kernel(rng, k2)
        nk = is_nk_morphism(f, k, k2)
        strong = is_strong_morphism(f, filter_generate(k), filter_generate(k2))
        assert nk == strong
        agreements += 1
    report(5, "nk-iff-strong", agreements == 100, "100 maps, half perturbed")


def test_criterion_6_graph_bisimulations():
    rng = Random(20245)
    for _ in range(100):
        f, k, k2 = rand_nk_instance(rng)
        assert is_nk_morphism(f, k, k2)
        summed_kernel, ds = kernel_sum(k, k2)
        graph = set()
        for s in k.space.carrier:
            graph.add((ds.left(s), ds.right(f(s))))
            graph.add((ds.right(f(s)), ds.left(s)))
        assert is_state_bisim(summed_kernel, Relation(summed_kernel.space, graph))
        p, q = filter_generate(k), filter_generate(k2)
        assert is_strong_morphism(f, p, q)
        summed_ef, ds2 = sum_ef(p, q)
        graph2 = set()
        for s in p.space.carrier:
            graph2.add((ds2.left(s), ds2.right(f(s))))
            graph2.add((ds2.right(f(s)), ds2.left(s)))
        assert is_ef_state_bisim(summed_ef, Relation(summed_ef.space, graph2))
    report(6, "graph-bisimulations", True, "100 morphisms on both sides")


def test_criterion_7_subsystem_chain():
    rng = Random(20246)
    for _ in range(100):
        f, k, _ = rand_nk_instance(rng)
        p = filter_generate(k)
        assert is_subsystem(p, sigma_r(kernel_of(f)))
    for _ in range(100):
        space = rand_space(rng, 2, 4)
        kernel = rand_kernel(rng, space, max_measures=2, max_den=4)
        portfolio = filter_generate(kernel)
        for blocks in all_partitions(space.carrier):
            coarse = Space(space.carrier, blocks)
            if is_subsystem(portfolio, coarse):
                assert is_event_bisim(kernel, coarse)
    for _ in range(100):
        space = rand_space(rng, 2, 5)
        p = rand_fin_supported_ef(rng, space, allow_empty=True)
        partition = Space(space.carrier, greatest_ef_bisim(p).classes())
        assert is_subsystem(p, partition)
    report(7, "subsystem-chain", True, "3 x 100 finitely supported cases")


def test_criterion_8_cospan_to_span():
    rng = Random(20247)
    for _ in range(100):
        space = rand_space(rng, 2, 5)
        p = rand_fin_supported_ef(rng, space, allow_empty=True)
        mediator, eta = quotient(p, greatest_ef_bisim(p))
        span = build_span(Cospan(p, p, mediator, eta, eta))
        assert len(span.w.atoms) == len(mediator.space.atoms)
    report(8, "cospan-to-span", True, "100 canonical cospans, all squares commute")


def test_criterion_9_invariant_measure_infrastructure():
    rng = Random(20248)
    for case in range(100):
        m = rng.randint(1, 4)
        if case % 2:
            cod = Space.discrete([f"t{j}" for j in range(m)])
            dom = Space.discrete([f"s{i}" for i in range(rng.randint(m, 6))])
            f = rand_surjection(rng, dom, cod)
        else:
            cod_states = [f"t{j}" for j in range(m)]
            cod = Space(cod_states, [cod_states[: m - 1] or cod_states, cod_states[m - 1:]]
                        if m > 1 else None)
            flat = Space.discrete([f"s{i}" for i in range(rng.randint(m, 6))])
            assignment = rand_surjection(rng, flat, Space.discrete(cod_states)).mapping
            dom = Space(
                flat.carrier,
                [
                    [s for s in flat.carrier if assignment[s] in set(block)]
                    for block in cod.atoms
                ],
            )
            f = MeasurableMap(dom, cod, assignment)
        result = is_final_surjection(f)
        assert result.is_final
        preimages = [pre for pre, _ in result.pairing]
        assert len(set(preimages)) == len(cod.atoms)

        invariant = sigma_r(kernel_of(f))
        lift = MeasurableMap(invariant, cod, dict(f.assignment))
        nu = rand_subprob(rng, cod)
        assert pushforward(lift, invariant_measure_transport(f, nu)) == nu
        mu0 = rand_subprob(rng, dom)
        assert invariant_measure_transport(f, pushforward(f, mu0)) == restrict(
            mu0, invariant
        )
    report(9, "measure-infrastructure", True, "100 surjections, exact round-trips")


def test_criterion_10_round_trips():
    rng = Random(20249)
    for _ in range(1000):
        ast = rand_state_formula(rng, depth=3, max_den=8)
        first = format_formula(ast)
        again = parse_formula(first)
        assert again == ast
        assert format_formula(again) == first
    # The drawn models are constant on their atoms (their refusal otherwise
    # is pinned by the Kernel and EffFn constructor tests), so every one
    # must come back unchanged.
    for _ in range(1000):
        space = rand_space(rng, 2, 5, allow_coarse=True)
        if rng.random() < 0.5:
            from effkit import Nlmp

            labels = [f"l{j}" for j in range(rng.randint(1, 3))]
            model = Nlmp(space, {a: rand_kernel(rng, space) for a in labels})
        else:
            model = rand_ef(rng, space)
        first = dumps_canonical(model_to_dict(model))
        reparsed = model_from_dict(json.loads(first))
        second = dumps_canonical(model_to_dict(reparsed))
        assert second == first
    report(10, "round-trips", True, "1000 formulas + 1000 models byte-identical")
