"""JSON file formats for models, maps, and partitions.

Rationals travel as strings ("p/q", "0", "1") so no float ever touches a
mass.  A model file holds either a labelled process (kind "nlmp") or an
effectivity function (kind "ef"), and loading it returns the :class:`Nlmp`
or :class:`EffFn` it describes; emission writes ``kind`` from the type of
the value.  Measures are objects mapping a state to its atom's mass,
omitted states carrying mass zero.

Files are read as bytes and decoded as UTF-8 (RFC 8259), whatever the
locale; a file that is not UTF-8 or not JSON, nests too deeply or holds an
integer too long to convert is a located :class:`ModelFormatError`.  A
file's objects decode to tuples of (key, value) pairs, so one that repeats
a key is refused where it is read; a document built in code may hold dicts.
A measure object is read straight to integer numerators over the lcm of its
denominators, each rational string parsed once per load, and handed to the
routine that reduces and interns every measure
(docs/derivations.md, section 13); one that repeats in a file loads as one
:class:`SubProb`, the live measure of its value, and is parsed once per
load.  A model whose states of one atom have different dynamics is not
measurable; the loader reports its constructor's refusal at ``sigma`` (sections 3, 4),
and that of a portfolio leaving a state out at ``effectivity``.

Emission is canonical: states in carrier order, atoms always listed, masses
in lowest terms, so re-parsing an emitted model yields an equal value and
equal inputs emit byte-identical JSON.  :func:`dumps_canonical` writes
exactly the bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
(ASCII only, keys sorted by their raw text, two-space indent).  Given a
model, it is the model writer: it writes the file straight from the value,
rendering each distinct measure's object once (every measure of a model
file sits at one depth, so one text serves all its occurrences) and
joining every kernel image and generator from those texts.
:func:`model_to_dict` is the parse of that text, so the file format has
one definition.  Given a stream, the text goes out in pieces, one per
kernel image or generator, and the stream does its own buffering, so a
large model is never held as one string.  Every text that
can fail, a mass too long to print, is rendered before the first write, so
a refused emit leaves the stream, and the command's stdout, empty.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

from .effectivity import EffFn
from .errors import EffkitError, ForeignStateError, ModelFormatError, NotMeasurableSetError
from .measure import SubProb, _interned, _rational_str
from .nlmp import Kernel, Nlmp
from .space import MeasurableMap, Space
from .upperset import MeasureSet, UpperSet

__all__ = [
    "KINDS",
    "load_model",
    "load_map",
    "load_partition",
    "model_from_dict",
    "model_to_dict",
    "dumps_canonical",
]

# A model file's "kind", by the type of the value it holds.
KINDS: dict[type, str] = {Nlmp: "nlmp", EffFn: "ef"}


def _fail(message: str, file: str | None, location: str) -> ModelFormatError:
    return ModelFormatError(message, file=file, location=location)


def _rational(raw: str) -> tuple[int, int] | None:
    """Numerator and denominator of a rational string, in any terms: ASCII
    digits, then optionally ``/`` and a denominator without a leading zero."""
    p, slash, q = raw.partition("/")
    if not (p.isascii() and p.isdigit()):
        return None
    if slash and not (q.isascii() and q.isdigit() and q[0] != "0"):
        return None
    try:
        return int(p), int(q) if slash else 1
    except ValueError:  # more digits than int() converts
        return None


def _object(raw: Any, file: str | None, where: str) -> Mapping[str, Any] | None:
    """The JSON object ``raw`` at ``where`` as a mapping, the pairs a file's
    object decodes to refused if a key repeats; None if ``raw`` is no object."""
    if not isinstance(raw, tuple):
        return raw if isinstance(raw, Mapping) else None
    table = dict(raw)
    if len(table) < len(raw):
        seen: set[str] = set()
        repeated = next(k for k, _ in raw if k in seen or seen.add(k))
        raise _fail(f"duplicate key {repeated!r}", file, where)
    return table


def _read_measure(
    space: Space, file: str | None, read: dict, rationals: dict, raw: Any, where: str, i: int
) -> SubProb:
    """The measure ``raw`` on ``space``, found at ``where[i]`` in the file:
    its values are parsed, then its states resolved to atoms with integer
    numerators over the lcm of the denominators, which go straight to
    ``measure._interned``, so faults are reported in the order rationals,
    states (a state given twice among them), mass.  ``read`` maps the items
    of each measure object read before in the file to its measure, so a
    repeat is not parsed again (equal measures are one object anyway), and
    ``rationals`` maps each rational string read before to its numerator
    and denominator."""
    key = tuple(raw.items()) if isinstance(raw, dict) else raw  # a file's object is its pairs
    if not isinstance(key, tuple):
        raise _fail(f"a measure must be an object, got {type(raw).__name__}", file, f"{where}[{i}]")
    try:
        mu = read.get(key)
    except TypeError:  # an unhashable value, which the parse reports
        mu = None
    if mu is not None:
        return mu
    den = 1
    parts = []
    for state, value in key:
        pq = None
        if isinstance(value, str):
            pq = rationals.get(value)
            if pq is None:
                pq = rationals[value] = _rational(value)
        if pq is None:
            message = f'rationals must be "p/q", "0" or "1" strings, got {value!r}'
            raise _fail(message, file, f"{where}[{i}].{state}")
        if den % pq[1]:
            den = lcm(den, pq[1])
        parts.append(pq)
    index = space._atom_index
    mass = {}
    for (state, _), (p, q) in zip(key, parts):
        a = index.get(state)
        if a is None:
            raise _fail(f"state {state!r} not in carrier", file, f"{where}[{i}]")
        if a in mass:
            first = next(s for s, _ in key if index[s] == a)
            message = f"states {first!r} and {state!r} lie in one atom; give the atom's mass once"
            if first == state:
                message = f"duplicate key {state!r}"
            raise _fail(message, file, f"{where}[{i}]")
        mass[a] = p * (den // q)
    try:
        mu = read[key] = _interned(space, mass, den)
    except EffkitError as exc:
        raise _fail(str(exc), file, f"{where}[{i}]") from exc
    return mu


def _parse_space(doc: Mapping[str, Any], file: str | None) -> Space:
    states = doc.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise _fail("'states' must be a nonempty list of strings", file, "states")
    if len(set(states)) != len(states):
        raise _fail("duplicate state names", file, "states")
    sigma = doc.get("sigma")
    if sigma is not None and (
        not isinstance(sigma, list)
        or not all(isinstance(b, list) and all(isinstance(s, str) for s in b) for b in sigma)
    ):
        raise _fail("'sigma' must be a list of blocks of state names", file, "sigma")
    try:
        if sigma is None:
            return Space(states)
        return Space(states, sigma)
    except EffkitError as exc:
        raise _fail(str(exc), file, "sigma") from exc


def model_from_dict(doc: Mapping[str, Any] | tuple, file: str | None = None) -> Nlmp | EffFn:
    """The model a JSON document describes, its objects dicts or pairs."""
    doc = _object(doc, file, "$")
    if doc is None:
        raise _fail("model file must hold a JSON object", file, "$")
    kind = doc.get("kind")
    if kind not in KINDS.values():
        raise _fail("'kind' must be \"nlmp\" or \"ef\"", file, "kind")
    space = _parse_space(doc, file)
    read_measure = partial(_read_measure, space, file, {}, {})
    if kind == "nlmp":
        labels = doc.get("labels")
        if not isinstance(labels, list) or not all(isinstance(a, str) for a in labels):
            raise _fail("'labels' must be a list of strings", file, "labels")
        if len(set(labels)) != len(labels):
            raise _fail("duplicate label names", file, "labels")
        kernels_doc = _object(doc.get("kernels"), file, "kernels")
        if kernels_doc is None or set(kernels_doc) != set(labels):
            raise _fail("'kernels' must map every label to a kernel", file, "kernels")
        kernels = {}
        for label in labels:
            per_state = _object(kernels_doc[label], file, f"kernels.{label}")
            if per_state is None:
                raise _fail("a kernel must map states to measure lists", file, f"kernels.{label}")
            image = {}
            for state, measures in per_state.items():
                if state not in space._index:
                    raise _fail(f"unknown state {state!r}", file, f"kernels.{label}.{state}")
                if not isinstance(measures, list):
                    raise _fail("kernel entries must be lists of measures", file, f"kernels.{label}.{state}")
                where = f"kernels.{label}.{state}"
                image[state] = [read_measure(m, where, i) for i, m in enumerate(measures)]
            try:
                kernels[label] = Kernel(space, image)
            except NotMeasurableSetError as exc:
                head, _, rule = str(exc).rpartition("; ")
                raise _fail(f"{head} under label {label!r}; {rule}", file, "sigma") from exc
        return Nlmp(space, kernels)

    eff_doc = _object(doc.get("effectivity"), file, "effectivity")
    if eff_doc is None:
        raise _fail("'effectivity' must map states to generator lists", file, "effectivity")
    portfolio = {}
    for state, gens in eff_doc.items():
        if state not in space._index:
            raise _fail(f"unknown state {state!r}", file, f"effectivity.{state}")
        if not isinstance(gens, list):
            raise _fail("portfolio entries must be lists of generators", file, f"effectivity.{state}")
        parsed = []
        for i, gen in enumerate(gens):
            if not isinstance(gen, list):
                raise _fail("a generator must be a list of measures", file, f"effectivity.{state}[{i}]")
            where = f"effectivity.{state}[{i}]"
            parsed.append(
                MeasureSet(space, [read_measure(m, where, j) for j, m in enumerate(gen)])
            )
        portfolio[state] = UpperSet(space, parsed)
    try:
        return EffFn(space, portfolio)
    except ForeignStateError as exc:  # a state left out
        raise _fail(str(exc), file, "effectivity") from exc
    except NotMeasurableSetError as exc:
        raise _fail(str(exc), file, "sigma") from exc


def _read_json(path: str | Path) -> Any:
    file = str(path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read file: {exc}", file=file) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ModelFormatError(
            f"invalid UTF-8: {exc.reason} at byte {exc.start}", file=file, location=f"line {line}"
        ) from exc
    try:
        return json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON: {exc.msg}", file=file, location=f"line {exc.lineno}"
        ) from exc
    except RecursionError:
        raise ModelFormatError("invalid JSON: nested too deeply", file=file, location="$") from None
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ModelFormatError("invalid JSON: integer too long", file=file, location="$") from exc


def load_model(path: str | Path) -> Nlmp | EffFn:
    return model_from_dict(_read_json(path), file=str(path))


def load_partition(path: str | Path, space: Space) -> Space:
    """A partition file is a JSON array of blocks of state names; the result
    is the carrier of ``space`` under the listed partition."""
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(
        isinstance(b, list) and all(isinstance(s, str) for s in b) for b in doc
    ):
        raise ModelFormatError(
            "partition file must hold a list of blocks of state names", file=str(path), location="$"
        )
    try:
        return Space(space.carrier, doc)
    except EffkitError as exc:
        raise ModelFormatError(str(exc), file=str(path), location="$") from exc


def load_map(path: str | Path, domain: Space, codomain: Space) -> MeasurableMap:
    """A map file carries a 'map' object (and, informationally, the paths of
    its endpoint models)."""
    file = str(path)
    doc = _object(_read_json(path), file, "$")
    table = None if doc is None else _object(doc.get("map"), file, "map")
    if table is None:
        raise _fail("map file must hold an object with a 'map' entry", file, "map")
    for k, v in table.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise _fail("map entries must be state-to-state strings", file, f"map.{k}")
    try:
        return MeasurableMap(domain, codomain, table)
    except EffkitError as exc:
        raise _fail(str(exc), file, "map") from exc


# An emitted model holds every measure at one depth, so a measure's JSON
# object is one text wherever it occurs: its keys 10 spaces in, its closing
# brace 8 in, and the list that holds it closes 6 in.
_IN4, _IN6, _IN8, _IN10 = ("\n" + " " * n for n in (4, 6, 8, 10))
_SEP8 = "," + _IN8


def model_to_dict(model: Nlmp | EffFn) -> dict[str, Any]:
    """The model as a JSON document: the parse of its canonical text."""
    return json.loads(dumps_canonical(model))


def dumps_canonical(doc: Any, out: TextIO | None = None) -> str | None:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, for an
    ``Nlmp`` or ``EffFn`` (written as its model file) or a document of dicts
    with string keys, lists, tuples, strings, ints, booleans and ``None``.
    Returns the text, or writes it to ``out`` (a model in pieces, one per
    kernel image or generator) and returns ``None``; every part that can
    fail is rendered before the first write."""
    if isinstance(doc, (Nlmp, EffFn)):
        pieces: Iterable[str] = _model_pieces(doc)
    else:
        chunks: list[str] = []
        _emit(doc, "\n", chunks)
        chunks.append("\n")
        pieces = ["".join(chunks)]
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)
    return None


def _model_pieces(model: Nlmp | EffFn) -> Iterator[str]:
    """The canonical text of ``model`` in pieces, keys in the order of their
    raw names.  Each distinct measure is rendered once, before the first
    piece, and every measure list is joined from those texts; an ``EffFn``
    yields one piece per generator."""
    space = model.space
    rest: dict[str, Any] = {
        "kind": KINDS[type(model)],
        "sigma": [list(block) for block in space.atoms],
        "states": list(space.carrier),
    }
    states = sorted((s, space.atom_of(s)) for s in space.carrier)
    if isinstance(model, Nlmp):
        rest["labels"] = list(model.labels)
        images = dict(model.kernels)
        texts = _measure_texts(space, [ms for k in images.values() for ms in k.image])
        yield '{\n  "kernels": {'
        sep = _IN4
        for label in sorted(images):
            image = [_set_text(ms, texts) for ms in images[label].image]
            yield f"{sep}{_quote(label)}: {{"
            inner = _IN6
            for s, a in states:
                yield f"{inner}{_quote(s)}: {image[a]}"
                inner = "," + _IN6
            yield _IN4 + "}" if states else "}"
            sep = "," + _IN4
        yield "\n  }" if images else "}"
    else:
        portfolio = model.portfolio
        texts = _measure_texts(space, [g for family in portfolio for g in family])
        yield '{\n  "effectivity": {'
        sep = _IN4
        for s, a in states:
            gens = portfolio[a].generators
            yield f"{sep}{_quote(s)}: ["
            inner = _IN6
            for g in gens:
                yield inner + _set_text(g, texts)
                inner = "," + _IN6
            yield _IN4 + "]" if gens else "]"
            sep = "," + _IN4
        yield "\n  }" if states else "}"
    chunks = []
    for key in sorted(rest):
        chunks.append(f',\n  "{key}": ')
        _emit(rest[key], "\n  ", chunks)
    chunks.append("\n}\n")
    yield "".join(chunks)


def _measure_texts(space: Space, sets: list[MeasureSet]) -> dict[SubProb, str]:
    """Each distinct member of ``sets`` (measure sets on ``space``) rendered
    once by ``_measure_text``."""
    names = [block[0] for block in space.atoms]
    order = sorted(range(len(names)), key=names.__getitem__)
    keys = [f"{_IN10}{_quote(names[a])}: " for a in order]
    rank = [0] * len(order)
    for r, a in enumerate(order):
        rank[a] = r
    return {mu: _measure_text(mu, keys, rank) for mu in set().union(*sets)}


def _measure_text(mu: SubProb, keys: list[str], rank: list[int]) -> str:
    """``mu``'s JSON object as a model file holds it: per support atom, the
    atom's first state and its mass in lowest terms.  Atom ``a``'s key text
    is ``keys[rank[a]]``, ranked by the raw name, the order of ``sort_keys``."""
    if not mu.atoms:
        return "{}"
    den = mu.den
    items = sorted([(rank[a], n) for a, n in zip(mu.atoms, mu.nums)])
    body = ",".join([f'{keys[r]}"{_rational_str(n, den, "a mass")}"' for r, n in items])
    return f"{{{body}{_IN8}}}"


def _set_text(ms: MeasureSet, texts: dict[SubProb, str]) -> str:
    """The JSON list of ``ms``'s members in canonical order, as a model file
    holds a kernel's image or a generator."""
    members = ms.members
    if not members:
        return "[]"
    return f"[{_IN8}{_SEP8.join([texts[mu] for mu in members])}{_IN6}]"


def _emit(obj: Any, newline: str, chunks: list[str]) -> None:
    """Append ``obj`` to ``chunks`` as indented JSON whose closing bracket
    follows ``newline``.  A module-level function, so a call leaves no cycle
    of closures for the garbage collector."""
    if isinstance(obj, str):
        chunks.append(_quote(obj))
    elif obj is None:
        chunks.append("null")
    elif obj is True:
        chunks.append("true")
    elif obj is False:
        chunks.append("false")
    elif isinstance(obj, int):
        chunks.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            chunks.append(f"{sep}{_quote(key)}: ")
            _emit(obj[key], inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            chunks.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            chunks.append(sep)
            _emit(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
