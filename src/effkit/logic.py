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

Logical equivalence is the greatest bisimulation's partition, by the
logical characterization (docs/derivations.md, section 12).  Formulas are
synthesized only for ``distinguish``, and a round's only once a later round
splits a block: up to the round that splits its pair, every split is backed
by an evaluator-confirmed formula that cuts no class of its round, and each
block keeps a formula for its up-set, the meet of the confirmed extensions
containing it.  An equivalent pair reaches the fixed point with the last
splitting round's formulas unbuilt.  The tests run every round to the fixed
point as an oracle for the partition.
The evaluator and the refiner work on atoms, a set of states being a mask
over atom indices; names appear only in ``eval_state``'s result and in
``distinguish``'s pair and satisfier.
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

from .effectivity import EffFn, _greatest_bisim, _refine
from .errors import (
    FormulaSyntaxError,
    InternalInvariantViolation,
    SpaceMismatchError,
    ThresholdOutOfRangeError,
)
from .measure import SubProb, _numerator_in, _rational_str
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
    """A formula node.  ``==``, ``hash`` and pickling read the table of its
    shapes (``_number``) and ``repr`` prints it, each on an explicit stack,
    so formulas of any depth work; only ``repr`` unfolds shared parts."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        shapes: dict[tuple, tuple[int]] = {}
        return self is other or self._number(shapes) == other._number(shapes)

    def __hash__(self) -> int:
        return hash(self._shapes())

    def __reduce__(self):
        return _rebuild, (self._shapes(),)

    def _shapes(self) -> tuple[tuple, ...]:
        """The node's shapes, in the order ``_number`` meets them."""
        shapes: dict[tuple, tuple[int]] = {}
        self._number(shapes)
        return tuple(shapes)

    def _number(self, shapes: dict[tuple, tuple[int]]) -> tuple[int]:
        """The number of this node's shape, as a 1-tuple.  ``shapes`` numbers
        each shape met by its class and field values, each part read as its
        number, so alike trees get one number.  The walk numbers each
        distinct node once, parts first and right to left; it meets new
        shapes in one order on alike trees, however they share parts, as a
        part it skips is alike to one met before."""
        numbers: dict[int, tuple[int]] = {}  # by node id; all are alive while this runs
        todo = [self]
        while todo:
            node = todo[-1]
            values = node._values()
            parts = [v for v in values if isinstance(v, _Node) and id(v) not in numbers]
            if parts:
                todo += parts
            elif id(todo.pop()) not in numbers:
                values = [numbers[id(v)] if isinstance(v, _Node) else v for v in values]
                numbers[id(node)] = shapes.setdefault((type(node), *values), (len(shapes),))
        return numbers[id(self)]

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


def _rebuild(shapes: tuple[tuple, ...]) -> _Node:
    nodes: list[_Node] = []
    for cls, *values in shapes:
        nodes.append(cls(*[nodes[v[0]] if type(v) is tuple else v for v in values]))
    return nodes[-1]


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
    the same order, and any depth of nesting evaluates.  An extension is a
    mask, bit ``a`` for atom ``a``: a modality reads each atom once."""

    def __init__(self, p: EffFn):
        self.p = p
        self.top = (1 << len(p.portfolio)) - 1
        self._ext: dict[int, tuple[StateFormula, int]] = {}

    def numerator(self, mu: SubProb, f: StateFormula) -> int:
        """Mass of the extension of ``f`` under ``mu``, over ``mu.den``."""
        hit = self._ext.get(id(f))
        return _numerator_in(mu, self.state_ext(f) if hit is None else hit[1])

    def state_ext(self, f: StateFormula) -> int:
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
            return self.top
        if isinstance(f, And):
            left = yield f.left
            right = yield f.right
            return left & right
        if not isinstance(f, (Diamond, Box)):
            raise TypeError(f"not a state formula: {f!r}")
        box = isinstance(f, Box)
        ext = 0
        for a, u in enumerate(self.p.portfolio):
            # A box holds iff every generator has a satisfying measure, a
            # diamond iff not every generator has a failing one: both read a
            # generator up to its first measure whose verdict is ``box``.
            every = True
            for g in u:
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
                ext |= 1 << a
        return ext

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
            if id(m.state) not in self._ext:
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
    ext = _Evaluator(p).state_ext(f)
    return frozenset([s for a, block in enumerate(p.space.atoms) if ext >> a & 1 for s in block])


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


def _least(mask: int) -> int:
    """The least atom of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


class _Refiner:
    """Formula synthesis on top of the signature refinement.

    Keeps, per block of the refinement's partition, the block's up-set (the
    meet of the confirmed extensions containing it, as a mask) and a formula
    for it.  Each round, every pair of signature classes inside a block gets
    one separating formula, confirmed by the evaluator and checked to cut no
    class of the round; each class then meets its block's up-set with the
    round's extensions containing it (docs/derivations.md, section 12).
    ``parts`` holds the engine's blocks as (block id, mask) pairs, a split
    block's classes spliced in where it stood, in the order of their least
    atoms: the refiner owns this order, which the witnesses follow, and the
    engine's order of a split's classes is not read.  ``blocks`` holds
    their (key, extension, formula) records in that order, ``upsets`` in key
    order: by number of states, then by atom indices, which orders them as
    the states' carrier indices would (section 12, step 4).  A key is
    computed once, when its up-set is new.
    """

    def __init__(self, p: EffFn):
        self.p = p
        self.ev = _Evaluator(p)
        self.sizes = [len(block) for block in p.space.atoms]
        self.blocks = self.upsets = [self._record(self.ev.top, Top())]
        self.parts = [(0, self.ev.top)]

    def separate(self, s: str, t: str) -> DistinguishResult:
        """The verdict on ``s`` and ``t``, with the confirmed formula
        separating them in the round that splits them, if one does.

        A round's ``_round`` waits for the next round, as only a later
        round reads its records: it runs first thing there when that round
        splits a block, and is dropped at the engine's fixed point, which
        the pair reaches together (docs/derivations.md, section 12).  So an
        equivalent pair builds no formula for the last splitting round."""
        a, b = self.p.space.atom_of(s), self.p.space.atom_of(t)
        pending = ()
        for class_of, splits, block_of in _refine(self.p.space, (self.p,), [0] * len(self.sizes)):
            if not splits:
                break  # the fixed point: no later round reads the pending one
            if pending:
                self._round(*pending)
            if block_of[a] != block_of[b]:
                formula, _, satisfier = self._confirmed(a, b, class_of)
                satisfier = s if satisfier == a else t
                return DistinguishResult(equivalent=False, formula=formula, satisfied_by=satisfier)
            pending = class_of, splits
        return DistinguishResult(equivalent=True)

    def _classes(self, splits) -> list[tuple[tuple[int, int], ...]]:
        """Per block of ``parts``, its classes in a round with these splits,
        as (block id, mask) pairs in the order of their least atoms."""
        groups = []
        for i, mask in self.parts:
            split = splits.get(i)
            if split is None:
                groups.append(((i, mask),))
                continue
            moved = {j: sum([1 << a for a in atoms]) for j, atoms in split if atoms is not None}
            rest = mask & ~sum(moved.values())
            classes = [(j, moved.get(j, rest)) for j, _ in split]
            groups.append(tuple(sorted(classes, key=lambda c: c[1] & -c[1])))
        return groups

    def _round(self, class_of, splits) -> list[tuple[StateFormula, int, int]]:
        """Confirm a formula per pair of signature classes in a block and
        meet the up-sets with them; returns their (formula, extension,
        satisfier atom).  A formula that cuts a class of its round is a
        bug: by induction over the rounds, no cut means the up-sets'
        partition is the round's classes (docs/derivations.md, section 12)."""
        groups = self._classes(splits)
        fresh = [
            self._confirmed(_least(left), _least(right), class_of)
            for group in groups
            for (_, left), (_, right) in itertools.combinations(group, 2)
        ]
        self.parts = [c for group in groups for c in group]
        for _, ext, _ in fresh:
            if not all(ext & c == 0 or c & ~ext == 0 for _, c in self.parts):
                raise InternalInvariantViolation("a confirmed formula cuts a signature class")
        self.blocks = [
            self._meet(record, _least(c), fresh)
            for record, group in zip(self.blocks, groups)
            for _, c in group
        ]
        self.upsets = sorted(self.blocks, key=itemgetter(0))
        return fresh

    def _record(self, up: int, formula: StateFormula) -> tuple:
        atoms = [a for a in range(len(self.sizes)) if up >> a & 1]
        return (sum([self.sizes[a] for a in atoms]), atoms), up, formula

    def _meet(self, record, a: int, fresh) -> tuple:
        """The up-set record of the class of atom ``a``: its parent
        block's, met with each fresh extension containing the class."""
        _, up, formula = record
        for phi, ext, _ in fresh:
            if ext >> a & 1 and up & ~ext:
                up, formula = (ext, phi) if ext & ~up == 0 else (up & ext, And(formula, phi))
        return record if up == record[1] else self._record(up, formula)

    # -- formula synthesis ---------------------------------------------------
    def _confirmed(self, a: int, b: int, class_of) -> tuple[StateFormula, int, int]:
        """Separating formula for two atoms with different signatures, its
        extension, and the atom satisfying it, checked by the evaluator."""
        formula, satisfier = self._synthesize(a, b, class_of)
        ext = self.ev.state_ext(formula)
        refuted = b if satisfier == a else a
        if not ext >> satisfier & 1 or ext >> refuted & 1:
            raise InternalInvariantViolation(
                "synthesized formula failed evaluator confirmation"
            )
        return formula, ext, satisfier

    def _synthesize(self, a: int, b: int, class_of) -> tuple[StateFormula, int]:
        """Separating formula for a failed transfer between atoms ``a`` and
        ``b``, in whichever direction fails.

        Mirrors the completeness argument: pick an unmatched source
        generator, one culprit measure per target generator, and for every
        culprit/source pair an up-set whose mass differs; thresholds
        at the midpoints, oriented toward the culprit, assemble into a box
        over a disjunction of conjunctions satisfied by the target and
        refuted by the source.
        """
        for a, b in ((a, b), (b, a)):
            source, target = self.p.portfolio[a], self.p.portfolio[b]
            if target.is_empty and not source.is_empty:
                return Box(_FALSUM), b
            if source.is_full and not target.is_full:
                return Diamond(_FALSUM), a
            for g in source.generators:
                culprits = [
                    next(
                        (nu for nu in h.members if all(class_of(nu) != class_of(mu) for mu in g)),
                        None,
                    )
                    for h in target.generators
                ]
                if None not in culprits:
                    return Box(self._culprit_body(g, culprits)), b
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
        for _, up, phi in self.upsets:
            a = Fraction(_numerator_in(nu, up), nu.den)
            b = Fraction(_numerator_in(mu, up), mu.den)
            if a != b:
                return Threshold(phi, "<" if a < b else ">", (a + b) / 2)
        raise InternalInvariantViolation(
            "measures disagree on the partition but on no up-set"
        )


def logical_equivalence(p: EffFn) -> Relation:
    """Partition of states by the formulas they satisfy, as an equivalence:
    for finitary portfolios the greatest state bisimulation, the engine's
    partition (docs/derivations.md, section 12).  No formula is synthesized;
    ``distinguish`` names one for a pair."""
    return _greatest_bisim(p.space, (p,))


def distinguish(p: EffFn, s: str, t: str) -> DistinguishResult:
    """Separating formula for a pair of states, or the equivalence verdict.

    The refinement runs until it splits the pair or reaches its fixed point;
    formulas are built for each round that a later round splits, so an
    equivalent pair costs the refinement plus every splitting round's
    formulas but the last's."""
    p.space.index(s)
    p.space.index(t)
    if s == t:
        return DistinguishResult(equivalent=True)
    return _Refiner(p).separate(s, t)
