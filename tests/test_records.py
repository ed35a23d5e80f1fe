"""Value semantics of every value class of the library.

One instance of each, a twin built the same way and, where the class has a
field, a copy with one field changed: equality, hashing, the exact
``repr``, round trips through ``pickle``, ``copy`` and ``deepcopy``, and
refusal of assignment and deletion.  Spaces and measures are hash-consed,
so a twin or a copy is the value itself."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from effkit import (
    And,
    Box,
    CheckFailure,
    Cospan,
    CospanReport,
    Diamond,
    DirectSum,
    DistinguishResult,
    EffFn,
    FinalSurjection,
    Kernel,
    MAnd,
    MeasurableMap,
    MeasureSet,
    MOr,
    Nlmp,
    Relation,
    Space,
    SpanResult,
    SubProb,
    Threshold,
    Top,
    UpperSet,
    direct_sum,
)

A = Space.discrete(["a"])
S = Space.discrete(["a", "b"])
MU = SubProb.of(S, {"a": "1/2"})
NU = SubProb.of(S, {"b": "1/3"})
P = EffFn(A, {"a": UpperSet.full(A)})
Q = EffFn(A, {"a": UpperSet.empty(A)})
ID = MeasurableMap.identity(A)
T = Threshold(Top(), ">", Fraction(1, 3))
U = Threshold(Top(), "<", Fraction(1, 4))
K = Kernel(S, {"a": [MU], "b": []})
HALF = "SubProb({'a': '1/2'})"

# The expected texts, assembled from pieces of literal text.
A_TEXT = "Space.discrete(['a'])"
S_TEXT = "Space.discrete(['a', 'b'])"
SUM_TEXT = "Space.discrete(['L:a', 'R:a'])"
P_TEXT = f"EffFn(space={A_TEXT}, portfolio=(('a', UpperSet(full)),))"
Q_TEXT = f"EffFn(space={A_TEXT}, portfolio=(('a', UpperSet(empty)),))"
ID_TEXT = f"MeasurableMap(domain={A_TEXT}, codomain={A_TEXT}, assignment=(('a', 'a'),))"
T_TEXT = "Threshold(state=Top(), cmp='>', bound=Fraction(1, 3))"
K_TEXT = f"Kernel(space={S_TEXT}, image=(('a', MeasureSet([{HALF}])), ('b', MeasureSet([]))))"
FAILURE_TEXT = "CheckFailure(check='not_surjective', witness='f misses a')"

# Per class: a builder, a builder with one field changed (None when the
# class has no field), a field, and the exact repr.
CASES = {
    Space: (
        lambda: Space.discrete(["a", "b"]),
        lambda: Space(["a", "b"], [["a", "b"]]),
        "carrier",
        S_TEXT,
    ),
    MeasurableMap: (
        lambda: MeasurableMap(S, S, {"a": "a", "b": "b"}),
        lambda: MeasurableMap(S, S, {"a": "b", "b": "a"}),
        "assignment",
        f"MeasurableMap(domain={S_TEXT}, codomain={S_TEXT}, assignment=(('a', 'a'), ('b', 'b')))",
    ),
    Relation: (
        lambda: Relation(S, [("a", "b")]),
        lambda: Relation(S, [("b", "a")]),
        "related",
        "Relation(['a'] x ['b'])",
    ),
    DirectSum: (
        lambda: direct_sum(A, A),
        lambda: direct_sum(A, Space.discrete(["b"])),
        "left",
        f"DirectSum(space={SUM_TEXT}, "
        f"left=MeasurableMap(domain={A_TEXT}, codomain={SUM_TEXT}, assignment=(('a', 'L:a'),)), "
        f"right=MeasurableMap(domain={A_TEXT}, codomain={SUM_TEXT}, assignment=(('a', 'R:a'),)))",
    ),
    FinalSurjection: (
        lambda: FinalSurjection(True, ((frozenset("a"), frozenset("a")),)),
        lambda: FinalSurjection(False, ((frozenset("a"), frozenset("a")),)),
        "is_final",
        "FinalSurjection(is_final=True, pairing=((frozenset({'a'}), frozenset({'a'})),))",
    ),
    SubProb: (
        lambda: SubProb.of(S, {"a": "1/2"}),
        lambda: SubProb.of(S, {"a": "1/3"}),
        "den",
        HALF,
    ),
    MeasureSet: (
        lambda: MeasureSet(S, [MU]),
        lambda: MeasureSet(S, [NU]),
        "mask",
        f"MeasureSet([{HALF}])",
    ),
    UpperSet: (
        lambda: UpperSet(S, [MeasureSet(S, [MU])]),
        lambda: UpperSet(S, [MeasureSet(S, [NU])]),
        "space",
        f"UpperSet([[{HALF}]])",
    ),
    Kernel: (
        lambda: Kernel(S, {"a": [MU], "b": []}),
        lambda: Kernel(S, {"a": [NU], "b": []}),
        "image",
        K_TEXT,
    ),
    Nlmp: (
        lambda: Nlmp(S, {"x": K}),
        lambda: Nlmp(S, {"y": K}),
        "labels",
        f"Nlmp(space={S_TEXT}, labels=('x',), kernels=(('x', {K_TEXT}),))",
    ),
    EffFn: (
        lambda: EffFn(A, {"a": UpperSet.full(A)}),
        lambda: EffFn(A, {"a": UpperSet.empty(A)}),
        "portfolio",
        P_TEXT,
    ),
    Top: (Top, None, "state", "Top()"),
    And: (
        lambda: And(Top(), Top()),
        lambda: And(Top(), Diamond(T)),
        "left",
        "And(left=Top(), right=Top())",
    ),
    Diamond: (lambda: Diamond(T), lambda: Diamond(U), "body", f"Diamond(body={T_TEXT})"),
    Box: (lambda: Box(T), lambda: Box(U), "body", f"Box(body={T_TEXT})"),
    MAnd: (lambda: MAnd(T, T), lambda: MAnd(T, U), "right", f"MAnd(left={T_TEXT}, right={T_TEXT})"),
    MOr: (lambda: MOr(T, T), lambda: MOr(U, T), "left", f"MOr(left={T_TEXT}, right={T_TEXT})"),
    Threshold: (
        lambda: Threshold(Top(), ">", Fraction(1, 3)),
        lambda: Threshold(Top(), ">", Fraction(1, 4)),
        "bound",
        T_TEXT,
    ),
    DistinguishResult: (
        lambda: DistinguishResult(False, Diamond(T), "a"),
        lambda: DistinguishResult(False, Diamond(T), "b"),
        "formula",
        f"DistinguishResult(equivalent=False, formula=Diamond(body={T_TEXT}), satisfied_by='a')",
    ),
    Cospan: (
        lambda: Cospan(P, Q, P, ID, ID),
        lambda: Cospan(P, P, P, ID, ID),
        "m",
        f"Cospan(p={P_TEXT}, q={Q_TEXT}, m={P_TEXT}, f={ID_TEXT}, g={ID_TEXT})",
    ),
    CheckFailure: (
        lambda: CheckFailure("not_surjective", "f misses a"),
        lambda: CheckFailure("not_surjective", "g misses a"),
        "witness",
        FAILURE_TEXT,
    ),
    CospanReport: (
        lambda: CospanReport(False, (CheckFailure("not_surjective", "f misses a"),)),
        lambda: CospanReport(True, ()),
        "ok",
        f"CospanReport(ok=False, failures=({FAILURE_TEXT},))",
    ),
    SpanResult: (
        lambda: SpanResult(A, P, P, Q, ID, ID),
        lambda: SpanResult(A, Q, P, Q, ID, ID),
        "tau",
        f"SpanResult(w={A_TEXT}, tau={P_TEXT}, p_f={P_TEXT}, q_g={Q_TEXT}, "
        f"pi_s={ID_TEXT}, pi_t={ID_TEXT})",
    ),
}
HASH_CONSED = (Space, SubProb)


def _copies(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


def test_every_value_class_is_pinned():
    assert len(CASES) == 23


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    make, changed, field, text = CASES[cls]
    value, twin = make(), make()
    assert type(value) is cls
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert repr(value) == repr(twin) == text
    if changed is not None:
        other = changed()
        assert type(other) is cls
        assert value != other and not value == other
    for copied in _copies(value):
        assert type(copied) is cls
        assert copied == value and hash(copied) == hash(value) and repr(copied) == text
        assert (copied is value) == (cls in HASH_CONSED)
    assert (twin is value) == (cls in HASH_CONSED)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin and repr(value) == text


def test_a_map_prints_without_its_atom_map_and_copies_with_it():
    f = MeasurableMap(S, S, {"a": "a", "b": "b"})
    assert f.atom_map == (0, 1)
    assert "atom_map" not in repr(f)
    assert [copied.atom_map for copied in _copies(f)] == [(0, 1)] * (pickle.HIGHEST_PROTOCOL + 3)
