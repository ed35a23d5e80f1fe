"""The two-level modal logic over finitary effectivity functions.

State formulas are built from truth and conjunction plus two modalities that
cross into the measure level; measure formulas combine threshold tests on
the mass of state-formula extensions with conjunction and disjunction.
Thresholds use strict comparisons against rationals in ``[0, 1)`` only.

Concrete syntax::

    phi  ::=  T  |  phi & phi  |  <> munit  |  [] munit  |  ( phi )
    psi  ::=  psi & psi  |  psi | psi  |  [ phi < q ]  |  [ phi > q ]
              |  [ psi ]  |  ( psi )

``&`` binds tighter than ``|``; the prefix modalities bind tightest and take
a single measure unit, so composite measure formulas under a modality are
bracketed: ``[][ [T<1/3] | [T>2/3] ]``.  After ``[``, the first token past
any ``(`` decides: ``T``, ``<>`` or ``[]`` opens a threshold, anything else a
group.  A measure formula never starts with those tokens and a state formula
never starts with ``[``, so nothing is read twice and an error is reported
where it occurs.

Logical equivalence runs the signature refinement that also computes the
greatest bisimulation, and keeps next to its partition a conjunction-closed
family of formulas whose extensions generate exactly the partition's sets.
Every split is backed by a synthesized, evaluator-confirmed formula, and no
confirmed formula may cut a signature class of its round.  The procedure is
therefore not independent of the relational computation; the tests keep
an independent pair-pruning oracle to compare both against.
The evaluator's memos are keyed by node identity, so no lookup hashes a
subtree; each entry holds its node, so its id is not reused while it lives.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .effectivity import EffFn, _refine
from .errors import (
    FormulaSyntaxError,
    InternalInvariantViolation,
    SpaceMismatchError,
    ThresholdOutOfRangeError,
)
from .measure import SubProb, _atoms_of
from .space import Relation

__all__ = [
    "StateFormula",
    "MeasureFormula",
    "Top",
    "And",
    "Diamond",
    "Box",
    "MAnd",
    "MOr",
    "Threshold",
    "parse_formula",
    "format_formula",
    "eval_state",
    "eval_measure",
    "logical_equivalence",
    "distinguish",
    "DistinguishResult",
]


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class StateFormula:
    """Base class of state-level formulas."""

    __slots__ = ()


class MeasureFormula:
    """Base class of measure-level formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(StateFormula):
    pass


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Diamond(StateFormula):
    body: MeasureFormula


@dataclass(frozen=True)
class Box(StateFormula):
    body: MeasureFormula


@dataclass(frozen=True)
class MAnd(MeasureFormula):
    left: MeasureFormula
    right: MeasureFormula


@dataclass(frozen=True)
class MOr(MeasureFormula):
    left: MeasureFormula
    right: MeasureFormula


@dataclass(frozen=True)
class Threshold(MeasureFormula):
    state: StateFormula
    cmp: str
    bound: Fraction

    def __post_init__(self):
        if self.cmp not in ("<", ">"):
            raise FormulaSyntaxError(f"comparison must be < or >, got {self.cmp!r}", 0)
        if not isinstance(self.bound, Fraction):
            object.__setattr__(self, "bound", Fraction(self.bound))
        if not (0 <= self.bound < 1):
            raise ThresholdOutOfRangeError(
                f"threshold {self.bound} outside [0, 1)"
            )


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_TOKENS = ("<>", "[]", "&", "|", "(", ")", "[", "]", "<", ">", "T")
_RATIONAL = re.compile(r"[0-9]+(/[0-9]*)?")  # ASCII digits only


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for tok in _TOKENS:
            if text.startswith(tok, i):
                out.append((tok, tok, i))
                i += len(tok)
                matched = True
                break
        if matched:
            continue
        rat = _RATIONAL.match(text, i)
        if rat is not None:
            if rat.group().endswith("/"):
                raise FormulaSyntaxError("missing denominator", rat.end())
            try:
                Fraction(rat.group())
            except (ValueError, ZeroDivisionError) as exc:  # too many digits, zero denominator
                raise FormulaSyntaxError(f"unreadable rational: {exc}", i) from None
            out.append(("RAT", rat.group(), i))
            i = rat.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("EOF", "", n))
    return out


# Deepest accepted nesting, both of brackets and of the syntax tree.
# Parsing, printing, hashing and evaluating recurse at most about four frames
# per level, so every formula the parser accepts stays well under the
# interpreter's default recursion limit of 1000.
_MAX_NESTING = 100


def _shown(tok: tuple[str, str, int]) -> str:
    """A token as an error message names it."""
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


class _Parser:
    """Recursive descent; every parse method returns the formula and the
    height of its syntax tree."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        depth = 0
        for kind, _, pos in self.tokens:
            depth += (kind in ("(", "[")) - (kind in (")", "]"))
            self.nested(depth, pos)

    def nested(self, height: int, pos: int) -> int:
        if height > _MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {_MAX_NESTING} levels", pos)
        return height

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what or repr(kind)}, found {_shown(tok)}", tok[2])
        return tok

    def parse_state(self) -> tuple[StateFormula, int]:
        left, height = self.parse_state_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_state_unit()
            left, height = And(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_state_unit(self) -> tuple[StateFormula, int]:
        kind, _, pos = self.peek()
        if kind == "T":
            self.next()
            return Top(), 1
        if kind in ("<>", "[]"):
            self.next()
            body, h = self.parse_measure_unit()
            return (Diamond if kind == "<>" else Box)(body), self.nested(h + 1, pos)
        if kind == "(":
            self.next()
            inner = self.parse_state()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"expected a state formula, found {_shown(self.peek())}", pos)

    def parse_measure(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_conj()
        while self.peek()[0] == "|":
            pos = self.next()[2]
            right, h = self.parse_measure_conj()
            left, height = MOr(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_conj(self) -> tuple[MeasureFormula, int]:
        left, height = self.parse_measure_unit()
        while self.peek()[0] == "&":
            pos = self.next()[2]
            right, h = self.parse_measure_unit()
            left, height = MAnd(left, right), self.nested(max(height, h) + 1, pos)
        return left, height

    def parse_measure_unit(self) -> tuple[MeasureFormula, int]:
        kind, _, pos = self.peek()
        if kind == "[":
            self.next()
            ahead = self.pos
            while self.tokens[ahead][0] == "(":
                ahead += 1
            if self.tokens[ahead][0] in ("T", "<>", "[]"):  # a state formula opens a threshold
                return self._parse_threshold_tail(pos)
            inner = self.parse_measure()
            self.expect("]")
            return inner
        if kind == "(":
            self.next()
            inner = self.parse_measure()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"expected a measure formula, found {_shown(self.peek())}", pos)

    def _parse_threshold_tail(self, open_pos: int) -> tuple[Threshold, int]:
        state, h = self.parse_state()
        tok = self.next()
        kind, _, pos = tok
        if kind not in ("<", ">"):
            raise FormulaSyntaxError(f"expected < or > in threshold, found {_shown(tok)}", pos)
        rat = self.expect("RAT", "a rational")
        self.expect("]")
        return Threshold(state, kind, Fraction(rat[1])), self.nested(h + 1, open_pos)


def parse_formula(text: str) -> StateFormula:
    """Parse a state formula; raises FormulaSyntaxError / ThresholdOutOfRangeError."""
    parser = _Parser(text)
    formula, _ = parser.parse_state()
    parser.expect("EOF", "end of input")
    return formula


# A binary node's infix, its operands' binding strengths, and the strongest
# context it needs no parentheses in.
_INFIX = {
    And: (" & ", 1, 2, 1),
    MAnd: (" & ", 2, 3, 2),
    MOr: (" | ", 1, 2, 1),
}
_NODES = (Top, Diamond, Box, Threshold, *_INFIX)


def format_formula(f: StateFormula) -> str:
    """Canonical concrete syntax; ``parse_formula`` inverts it exactly.

    Written with an explicit stack of pending pieces, each a string or a
    node with its expected level and its context's binding strength, so
    any depth of nesting formats."""
    out: list[str] = []
    todo: list = [(f, StateFormula, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level, prec = item
        if not isinstance(node, level) or not isinstance(node, _NODES):
            kind = "state" if level is StateFormula else "measure"
            raise TypeError(f"not a {kind} formula: {node!r}")
        if isinstance(node, Top):
            out.append("T")
        elif isinstance(node, (Diamond, Box)):
            out.append("<>" if isinstance(node, Diamond) else "[]")
            if isinstance(node.body, Threshold):
                todo.append((node.body, MeasureFormula, 0))
            else:
                out.append("[ ")
                todo += [" ]", (node.body, MeasureFormula, 0)]
        elif isinstance(node, Threshold):
            out.append("[")
            todo += [f" {node.cmp} {node.bound!s}]", (node.state, StateFormula, 0)]
        else:
            op, left, right, most = next(v for k, v in _INFIX.items() if isinstance(node, k))
            if prec > most:
                out.append("(")
                todo.append(")")
            todo += [(node.right, level, right), op, (node.left, level, left)]
    return "".join(out)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

class _Evaluator:
    """Extension computation with memoization over shared subformulas."""

    def __init__(self, p: EffFn):
        self.p = p
        self._ext: dict[int, tuple[StateFormula, frozenset[str]]] = {}
        self._atoms: dict[int, tuple[StateFormula, tuple[int, ...]]] = {}

    def numerator(self, mu: SubProb, f: StateFormula) -> int:
        """Mass of the extension of ``f`` under ``mu``, over ``mu.den``; the
        extension is checked measurable once."""
        hit = self._atoms.get(id(f))
        if hit is None:
            hit = self._atoms[id(f)] = (f, _atoms_of(self.p.space, self.state_ext(f)))
        num = mu.num
        return sum([num[i] for i in hit[1]])

    def state_ext(self, f: StateFormula) -> frozenset[str]:
        hit = self._ext.get(id(f))
        if hit is not None:
            return hit[1]
        if isinstance(f, Top):
            ext = frozenset(self.p.space.carrier)
        elif isinstance(f, And):
            ext = self.state_ext(f.left) & self.state_ext(f.right)
        elif isinstance(f, Diamond):
            ext = frozenset(
                s
                for s in self.p.space.carrier
                if any(
                    all(self.msat(f.body, mu) for mu in g)
                    for g in self.p(s)
                )
            )
        elif isinstance(f, Box):
            ext = frozenset(
                s
                for s in self.p.space.carrier
                if all(
                    any(self.msat(f.body, mu) for mu in g)
                    for g in self.p(s)
                )
            )
        else:
            raise TypeError(f"not a state formula: {f!r}")
        self._ext[id(f)] = (f, ext)
        return ext

    def msat(self, m: MeasureFormula, mu: SubProb) -> bool:
        if isinstance(m, MAnd):
            return self.msat(m.left, mu) and self.msat(m.right, mu)
        if isinstance(m, MOr):
            return self.msat(m.left, mu) or self.msat(m.right, mu)
        if isinstance(m, Threshold):
            mass = self.numerator(mu, m.state) * m.bound.denominator
            bound = m.bound.numerator * mu.den
            return mass < bound if m.cmp == "<" else mass > bound
        raise TypeError(f"not a measure formula: {m!r}")


def eval_state(p: EffFn, f: StateFormula) -> frozenset[str]:
    """Extension of a state formula.

    A state satisfies a diamond iff some generator of its portfolio consists
    of satisfying measures only; it satisfies a box iff every generator
    contains at least one satisfying measure (the dual portfolio reading).
    """
    return _Evaluator(p).state_ext(f)


def eval_measure(p: EffFn, m: MeasureFormula, mu: SubProb) -> bool:
    """Whether a measure on the portfolio's space satisfies a measure
    formula."""
    if mu.space != p.space:
        raise SpaceMismatchError("measure does not live on the portfolio's space")
    return _Evaluator(p).msat(m, mu)


# ---------------------------------------------------------------------------
# Logical equivalence and distinguishing formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishResult:
    """Outcome of a distinguishing-formula request.

    When the pair is inequivalent, ``formula`` is satisfied by exactly
    ``satisfied_by`` among the two states; the witness orientation follows
    the synthesis, no canonical orientation is imposed.
    """

    equivalent: bool
    formula: StateFormula | None = None
    satisfied_by: str | None = None


_FALSUM = Threshold(Top(), "<", Fraction(0))


class _Refiner:
    """Formula synthesis on top of the signature refinement.

    Keeps a conjunction-closed formula family whose extensions generate
    exactly the refinement's partition.  Each round, every pair of signature
    classes inside a block gets one separating formula, confirmed by the
    evaluator and checked to cut no class of the round before it enters the
    family.  The extensions in ``_ext_key`` order are kept up to date as
    formulas enter.
    """

    def __init__(self, p: EffFn):
        self.p = p
        self.ev = _Evaluator(p)
        self.index = {s: i for i, s in enumerate(p.space.carrier)}
        top = frozenset(p.space.carrier)
        self.family: dict[frozenset[str], StateFormula] = {top: Top()}
        self.order: list[frozenset[str]] = [top]
        self.keys: list[tuple] = [self._ext_key(top)]

    # -- family bookkeeping --------------------------------------------------
    def _ext_key(self, ext: frozenset[str]) -> tuple:
        """Extensions order by size, then by their states' carrier indices."""
        return (len(ext), sorted(map(self.index.__getitem__, ext)))

    def _add(self, formula: StateFormula, ext: frozenset[str]) -> None:
        """Insert a confirmed formula and its meets with the family, which
        keeps an intersection-closed family closed (docs/derivations.md,
        section 12)."""
        if ext in self.family:
            return
        old = list(self.family.items())
        self._insert(ext, formula)
        for e, f in old:
            meet = e & ext
            if meet not in self.family:
                self._insert(meet, And(f, formula))

    def _insert(self, ext: frozenset[str], formula: StateFormula) -> None:
        key = self._ext_key(ext)
        at = bisect(self.keys, key)
        self.keys.insert(at, key)
        self.order.insert(at, ext)
        self.family[ext] = formula

    def refine(self, watch: tuple[str, str] | None = None):
        """Run refinement to the fixed point.

        With ``watch`` set, return the confirmed separating formula for the
        watched pair in the round that splits it, as (formula, satisfier);
        returns None when the fixed point is reached without separating it.
        Without ``watch``, return the final blocks.  A confirmed formula
        that cuts a class of its round is an internal bug; by induction over
        the rounds, no cut means the family's partition is the round's
        classes (docs/derivations.md, section 12).
        """
        space = self.p.space
        for class_of, classes in _refine(space, (self.p,), (space.carrier,)):
            if watch is not None and not any(
                watch[0] in c and watch[1] in c for group in classes for c in group
            ):
                formula, _, satisfier = self._confirmed(*watch, class_of)
                return formula, satisfier
            fresh = [
                self._confirmed(left[0], right[0], class_of)
                for group in classes
                for left, right in itertools.combinations(group, 2)
            ]
            split = [c for group in classes for c in group]
            for formula, ext, _ in fresh:
                if not all(ext.isdisjoint(c) or ext.issuperset(c) for c in split):
                    raise InternalInvariantViolation("a confirmed formula cuts a signature class")
                self._add(formula, ext)
        return None if watch is not None else split

    # -- formula synthesis ---------------------------------------------------
    def _confirmed(self, s: str, t: str, class_of) -> tuple[StateFormula, frozenset[str], str]:
        """Separating formula for two states with different signatures, its
        extension, and the state satisfying it, checked by the evaluator."""
        formula, satisfier = self._synthesize(s, t, class_of)
        ext = self.ev.state_ext(formula)
        refuted = t if satisfier == s else s
        if satisfier not in ext or refuted in ext:
            raise InternalInvariantViolation(
                "synthesized formula failed evaluator confirmation"
            )
        return formula, ext, satisfier

    def _synthesize(self, s: str, t: str, class_of) -> tuple[StateFormula, str]:
        """Separating formula for a failed transfer between ``s`` and ``t``,
        in whichever direction fails.

        Mirrors the completeness argument: pick an unmatched source
        generator, one culprit measure per target generator, and for every
        culprit/source pair a family formula whose mass differs; thresholds
        at the midpoints, oriented toward the culprit, assemble into a box
        over a disjunction of conjunctions satisfied by the target and
        refuted by the source.
        """
        for s, t in ((s, t), (t, s)):
            source, target = self.p(s), self.p(t)
            if target.is_empty and not source.is_empty:
                return Box(_FALSUM), t
            if source.is_full and not target.is_full:
                return Diamond(_FALSUM), s
            for g in source.generators:
                culprits = [
                    next(
                        (nu for nu in h.members if all(class_of(nu) != class_of(mu) for mu in g)),
                        None,
                    )
                    for h in target.generators
                ]
                if None not in culprits:
                    return Box(self._culprit_body(g, culprits)), t
        raise InternalInvariantViolation("synthesis called on a passing transfer")

    def _culprit_body(self, g, culprits) -> MeasureFormula:
        disjuncts = []
        for nu in culprits:
            conj = None
            for mu in g.members:
                phi, a, b = self._separating_test(mu, nu)
                mid = (a + b) / 2
                test = Threshold(phi, "<" if a < b else ">", mid)
                conj = test if conj is None else MAnd(conj, test)
            disjuncts.append(conj)
        body = disjuncts[0]
        for d in disjuncts[1:]:
            body = MOr(body, d)
        return body

    def _separating_test(self, mu: SubProb, nu: SubProb):
        for ext in self.order:
            phi = self.family[ext]
            a = Fraction(self.ev.numerator(nu, phi), nu.den)
            b = Fraction(self.ev.numerator(mu, phi), mu.den)
            if a != b:
                return phi, a, b
        raise InternalInvariantViolation(
            "measures disagree on the partition but on no family extension"
        )


def logical_equivalence(p: EffFn) -> Relation:
    """Partition of states by the formulas they satisfy, as an equivalence.

    Computed by signature refinement with a confirmed formula for every
    split; for finitary portfolios this is the greatest state bisimulation.
    """
    return Relation.from_partition(p.space, _Refiner(p).refine())


def distinguish(p: EffFn, s: str, t: str) -> DistinguishResult:
    """Separating formula for a pair of states, or the equivalence verdict."""
    p.space.index(s)
    p.space.index(t)
    if s == t:
        return DistinguishResult(equivalent=True)
    hit = _Refiner(p).refine(watch=(s, t))
    if hit is None:
        return DistinguishResult(equivalent=True)
    formula, satisfier = hit
    return DistinguishResult(equivalent=False, formula=formula, satisfied_by=satisfier)
