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
greatest bisimulation, and keeps for each block of its partition a formula
for the block's up-set, the meet of the confirmed extensions containing it;
these extensions generate exactly the partition's sets.
Every split is backed by a synthesized, evaluator-confirmed formula, and no
confirmed formula may cut a signature class of its round.  The procedure is
therefore not independent of the relational computation; the tests keep
an independent pair-pruning oracle to compare both against.
The evaluator's memos are keyed by node identity, so no lookup hashes a
subtree; each entry holds its node, so its id is not reused while it lives.
Parsing, printing and evaluation run on explicit stacks, so formulas of any
depth work, in time linear in their nodes (at most one per character).  So
do the structural ``==``, ``hash`` and ``repr`` of nodes, which neither the
CLI nor the evaluator uses.  Nodes are records (``effkit.record``), each
class with its own straight-line constructor.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import reduce
from operator import itemgetter

from .effectivity import EffFn, _refine
from .errors import (
    FormulaSyntaxError,
    InternalInvariantViolation,
    SpaceMismatchError,
    ThresholdOutOfRangeError,
)
from .measure import SubProb, _atoms_of, _numerator_in, _rational_str
from .record import Record
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

class _Node(Record):
    """A formula node.  ``==``, ``hash`` and ``repr`` walk the tree on an
    explicit stack, so formulas of any depth compare, hash and print, each
    shared subformula once for ``==`` and ``hash``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        seen = set()  # the pairs of nodes met; all are alive while this runs
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a.__class__ is not b.__class__:
                return False
            seen.add((id(a), id(b)))
            for x, y in zip(a._values(), b._values()):
                if isinstance(x, _Node):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        """The hash of the node's fields, each subformula read as its hash."""
        hashes: dict[int, int] = {}  # by node id; all are alive while this runs
        todo = [self]
        while todo:
            node = todo[-1]
            values = node._values()
            parts = [v for v in values if isinstance(v, _Node) and id(v) not in hashes]
            if parts:
                todo += parts
                continue
            todo.pop()
            hashes[id(node)] = hash(
                tuple([hashes[id(v)] if isinstance(v, _Node) else v for v in values])
            )
        return hashes[id(self)]

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]  # nodes, and text to print as is
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for i, (name, value) in enumerate(zip(item._fields, item._values())):
                pieces.append(f"{', ' if i else ''}{name}=")
                pieces.append(value if isinstance(value, _Node) else repr(value))
            todo += reversed([*pieces, ")"])
        return "".join(out)


class StateFormula(_Node):
    """Base class of state-level formulas."""

    __slots__ = ()


class MeasureFormula(_Node):
    """Base class of measure-level formulas."""

    __slots__ = ()


# Each node class writes its own constructor, which stores the fields
# through ``_set``, one global lookup per field, as formulas are built by the
# thousand per request; Top's too, so that building any node is one call of
# its own class's ``__init__``, where perfbench's tracer counts formula nodes.
_set = object.__setattr__  # past Record's refusal of assignment


class Top(StateFormula):
    def __init__(self):
        pass


class And(StateFormula):
    left: StateFormula
    right: StateFormula

    def __init__(self, left: StateFormula, right: StateFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Diamond(StateFormula):
    body: MeasureFormula

    def __init__(self, body: MeasureFormula):
        _set(self, "body", body)


class Box(StateFormula):
    body: MeasureFormula

    def __init__(self, body: MeasureFormula):
        _set(self, "body", body)


class MAnd(MeasureFormula):
    left: MeasureFormula
    right: MeasureFormula

    def __init__(self, left: MeasureFormula, right: MeasureFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class MOr(MeasureFormula):
    left: MeasureFormula
    right: MeasureFormula

    def __init__(self, left: MeasureFormula, right: MeasureFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Threshold(MeasureFormula):
    state: StateFormula
    cmp: str
    bound: Fraction

    def __init__(self, state: StateFormula, cmp: str, bound: Fraction):
        if cmp not in ("<", ">"):
            raise FormulaSyntaxError(f"comparison must be < or >, got {cmp!r}", 0)
        if not isinstance(bound, Fraction):
            bound = Fraction(bound)
        if not (0 <= bound < 1):
            raise ThresholdOutOfRangeError(f"threshold {bound} outside [0, 1)")
        _set(self, "state", state)
        _set(self, "cmp", cmp)
        _set(self, "bound", bound)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(<>|\[\]|[&|()\[\]<>T])|[0-9]+(/[0-9]*)?")  # ASCII digits only


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        tok = _TOKEN.match(text, i)
        if tok is None:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        word = tok.group()
        if tok.group(1) is None:  # a rational
            if word.endswith("/"):
                raise FormulaSyntaxError("missing denominator", tok.end())
            try:
                Fraction(word)
            except (ValueError, ZeroDivisionError) as exc:  # too many digits, zero denominator
                raise FormulaSyntaxError(f"unreadable rational: {exc}", i) from None
        out.append((word if tok.group(1) else "RAT", word, i))
        i = tok.end()
    out.append(("EOF", "", n))
    return out


def _unexpected(wanted: str, tok: tuple[str, str, int]) -> FormulaSyntaxError:
    found = "end of input" if tok[0] == "EOF" else repr(tok[1])
    return FormulaSyntaxError(f"expected {wanted}, found {found}", tok[2])


def _expect(tok: tuple[str, str, int], kind: str) -> None:
    if tok[0] != kind:
        raise _unexpected({"EOF": "end of input", "RAT": "a rational"}.get(kind, repr(kind)), tok)


# The grammar's lists: each symbol's separator, the node joining the operands
# read so far with the next one, and the operand's symbol.
_LISTS = {
    "state": ("&", And, "sunit"),
    "measure": ("|", MOr, "conj"),
    "conj": ("&", MAnd, "munit"),
}


def parse_formula(text: str) -> StateFormula:
    """Parse a state formula; raises FormulaSyntaxError / ThresholdOutOfRangeError.

    Recursive descent on an explicit stack of pending goals, so any depth of
    nesting parses.  A goal is a symbol to read (a list of ``_LISTS``, the
    rest of one, ``"sunit"``, ``"munit"``, or the ``"threshold"`` tail after
    its state formula), a node class to build from the formulas read last,
    or a token kind to expect.  Goals are pushed last first.
    """
    tokens = _tokenize(text)
    pos = 0
    done: list = []  # formulas read and not yet built into their parents
    goals: list = ["EOF", "state"]
    while goals:
        goal = goals.pop()
        tok = tokens[pos]
        kind = tok[0]
        if type(goal) is tuple:  # the rest of a list: one more operand per separator
            if kind == goal[0]:
                pos += 1
                goals += (goal, goal[1], goal[2])
        elif goal in _LISTS:
            goals += (_LISTS[goal], _LISTS[goal][2])
        elif goal == "sunit":
            pos += 1
            if kind == "T":
                done.append(Top())
            elif kind in ("<>", "[]"):
                goals += (Diamond if kind == "<>" else Box, "munit")
            elif kind == "(":
                goals += (")", "state")
            else:
                raise _unexpected("a state formula", tok)
        elif goal == "munit":
            pos += 1
            if kind == "[":
                ahead = pos
                while tokens[ahead][0] == "(":
                    ahead += 1
                if tokens[ahead][0] in ("T", "<>", "[]"):  # a state formula opens a threshold
                    goals += ("threshold", "state")
                else:
                    goals += ("]", "measure")
            elif kind == "(":
                goals += (")", "measure")
            else:
                raise _unexpected("a measure formula", tok)
        elif goal == "threshold":
            if kind not in ("<", ">"):
                raise _unexpected("< or > in threshold", tok)
            _expect(tokens[pos + 1], "RAT")
            _expect(tokens[pos + 2], "]")
            done[-1] = Threshold(done[-1], kind, Fraction(tokens[pos + 1][1]))
            pos += 3
        elif goal in (Diamond, Box):
            done[-1] = goal(done[-1])
        elif goal in (And, MAnd, MOr):
            right = done.pop()
            done[-1] = goal(done[-1], right)
        else:
            _expect(tok, goal)
            pos += 1
    return done[0]


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
            bound = _rational_str(node.bound.numerator, node.bound.denominator, "a threshold")
            todo += [f" {node.cmp} {bound}]", (node.state, StateFormula, 0)]
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
    """Extension computation with memoization over shared subformulas, on
    an explicit stack of frames: a frame computing a node yields each part
    whose extension it needs and is resumed with it.  So every part is
    computed where the recursive reading first reaches it, as lazily and in
    the same order, and any depth of nesting evaluates."""

    def __init__(self, p: EffFn):
        self.p = p
        self._ext: dict[int, tuple[StateFormula, frozenset[str]]] = {}
        self._atoms: dict[int, tuple[StateFormula, frozenset[int]]] = {}

    def numerator(self, mu: SubProb, f: StateFormula) -> int:
        """Mass of the extension of ``f`` under ``mu``, over ``mu.den``; the
        extension is checked measurable once."""
        hit = self._atoms.get(id(f))
        if hit is None:
            hit = self._atoms[id(f)] = (f, _atoms_of(self.p.space, self.state_ext(f)))
        return _numerator_in(mu, hit[1])

    def state_ext(self, f: StateFormula) -> frozenset[str]:
        frames = [(f, self._frame(f))]
        ext = None  # what the top frame is resumed with
        while frames:
            node, frame = frames[-1]
            try:
                part = frame.send(ext)
            except StopIteration as finished:
                frames.pop()
                ext = finished.value
                self._ext[id(node)] = (node, ext)
            else:
                frames.append((part, self._frame(part)))
                ext = None
        return ext

    def _frame(self, f: StateFormula):
        """Generator computing the extension of ``f``: it yields each part
        whose extension it needs and returns its own."""
        hit = self._ext.get(id(f))
        if hit is not None:
            return hit[1]
        if isinstance(f, Top):
            return frozenset(self.p.space.carrier)
        if isinstance(f, And):
            left = yield f.left
            right = yield f.right
            return left & right
        if not isinstance(f, (Diamond, Box)):
            raise TypeError(f"not a state formula: {f!r}")
        box = isinstance(f, Box)
        ext = []
        for s in self.p.space.carrier:
            # A box holds iff every generator has a satisfying measure, a
            # diamond iff not every generator has a failing one: both read a
            # generator up to its first measure whose verdict is ``box``.
            every = True
            for g in self.p(s):
                for mu in g:
                    m, undecided = f.body, []
                    while not isinstance(sat := self._decide(m, mu, undecided), bool):
                        yield sat.state
                        m = sat
                    if sat is box:
                        break
                else:
                    every = False
                    break
            if every is box:
                ext.append(s)
        return frozenset(ext)

    def msat(self, m: MeasureFormula, mu: SubProb) -> bool:
        undecided: list = []
        while not isinstance(sat := self._decide(m, mu, undecided), bool):
            self.state_ext(sat.state)
            m = sat
        return sat

    def _decide(self, m: MeasureFormula, mu: SubProb, undecided: list) -> bool | Threshold:
        """Read ``m`` under ``mu`` left to right, with the short circuits of
        ``and``/``or``: ``undecided`` holds the ancestors whose left operand
        is being read.  Returns the verdict of the outermost ancestor, or
        the first threshold reached whose state formula has no known
        extension; called again from that threshold, it resumes."""
        while True:
            while isinstance(m, (MAnd, MOr)):
                undecided.append(m)
                m = m.left
            if not isinstance(m, Threshold):
                raise TypeError(f"not a measure formula: {m!r}")
            if id(m.state) not in self._atoms and id(m.state) not in self._ext:
                return m
            mass = self.numerator(mu, m.state) * m.bound.denominator
            bound = m.bound.numerator * mu.den
            sat = mass < bound if m.cmp == "<" else mass > bound
            while undecided and isinstance(undecided[-1], MOr) is sat:
                undecided.pop()  # decided: false under an and, true under an or
            if not undecided:
                return sat
            m = undecided.pop().right  # the right operand decides its parent


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

class DistinguishResult(Record):
    """Outcome of a distinguishing-formula request.

    When the pair is inequivalent, ``formula`` is satisfied by exactly
    ``satisfied_by`` among the two states; the witness orientation follows
    the synthesis, no canonical orientation is imposed.
    """

    equivalent: bool
    formula: StateFormula | None
    satisfied_by: str | None

    def __init__(
        self, equivalent: bool, formula: StateFormula | None = None, satisfied_by: str | None = None
    ):
        _set(self, "equivalent", equivalent)
        _set(self, "formula", formula)
        _set(self, "satisfied_by", satisfied_by)


_FALSUM = Threshold(Top(), "<", Fraction(0))


class _Refiner:
    """Formula synthesis on top of the signature refinement.

    Keeps, per block of the refinement's partition, the block's up-set (the
    meet of the confirmed extensions containing it) and a formula for it.
    Each round, every pair of signature classes inside a block gets one
    separating formula, confirmed by the evaluator and checked to cut no
    class of the round; each class then meets its block's up-set with the
    round's extensions containing it (docs/derivations.md, section 12).
    ``upsets`` holds the (key, extension, formula) records in key order:
    by size, then by their states' carrier indices.  A record's key is
    computed once, when its up-set is new.
    """

    def __init__(self, p: EffFn):
        self.p = p
        self.ev = _Evaluator(p)
        self.index = {s: i for i, s in enumerate(p.space.carrier)}
        self.upsets = [self._record(frozenset(p.space.carrier), Top())]

    def refine(self, watch: tuple[str, str] | None = None):
        """Run refinement to the fixed point.

        With ``watch`` set, return the confirmed separating formula for the
        watched pair in the round that splits it, as (formula, satisfier);
        returns None when the fixed point is reached without separating it.
        Without ``watch``, return the final blocks.  A confirmed formula
        that cuts a class of its round is an internal bug; by induction over
        the rounds, no cut means the up-sets' partition is the round's
        classes (docs/derivations.md, section 12).
        """
        space = self.p.space
        records = self.upsets  # in the engine's block order
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
            for _, ext, _ in fresh:
                if not all(ext.isdisjoint(c) or ext.issuperset(c) for c in split):
                    raise InternalInvariantViolation("a confirmed formula cuts a signature class")
            records = [
                self._meet(record, c[0], fresh)
                for record, group in zip(records, classes)
                for c in group
            ]
            self.upsets = sorted(records, key=itemgetter(0))
        return None if watch is not None else split

    def _record(self, up: frozenset[str], formula: StateFormula) -> tuple:
        return (len(up), sorted(map(self.index.__getitem__, up))), up, formula

    def _meet(self, record, s: str, fresh) -> tuple:
        """The up-set record of the class of ``s``: its parent block's,
        met with each fresh extension containing the class."""
        _, up, formula = record
        for phi, ext, _ in fresh:
            if s in ext and not ext >= up:
                up, formula = (ext, phi) if ext < up else (up & ext, And(formula, phi))
        return record if up is record[1] else self._record(up, formula)  # a meet is a new set

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
        culprit/source pair an up-set whose mass differs; thresholds
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
        """A disjunction over the culprits of conjunctions over the source
        generator's measures."""
        conjunctions = (reduce(MAnd, (self._test(mu, nu) for mu in g.members)) for nu in culprits)
        return reduce(MOr, conjunctions)

    def _test(self, mu: SubProb, nu: SubProb) -> Threshold:
        """A threshold on the first up-set whose masses under the two
        measures differ, at their midpoint and oriented toward ``nu``; it is
        also the first such set of the confirmed extensions' intersection
        closure in the same order (docs/derivations.md, section 12)."""
        for _, _, phi in self.upsets:
            a = Fraction(self.ev.numerator(nu, phi), nu.den)
            b = Fraction(self.ev.numerator(mu, phi), mu.den)
            if a != b:
                return Threshold(phi, "<" if a < b else ">", (a + b) / 2)
        raise InternalInvariantViolation(
            "measures disagree on the partition but on no up-set"
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
