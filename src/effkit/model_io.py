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
measure object is read straight to integer numerators over the lcm of its
denominators, each rational string parsed once per load, and handed to the
routine that reduces and interns every measure
(docs/derivations.md, section 13); one that repeats in a file loads as one
:class:`SubProb`, the live measure of its value, and is parsed once per
load.  A model whose states of one atom have different dynamics is not
measurable; the loader reports its constructor's refusal at ``sigma`` (sections 3, 4).

Emission is canonical: states in carrier order, atoms always listed, masses
in lowest terms, so re-parsing an emitted model yields an equal value and
equal inputs emit byte-identical JSON.  :func:`dumps_canonical` writes
exactly the bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
(ASCII only, keys sorted, two-space indent).
"""

from __future__ import annotations

import json
import re
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from pathlib import Path
from typing import Any, Mapping

from .effectivity import EffFn
from .errors import EffkitError, ModelFormatError, NotMeasurableSetError
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

_RATIONAL = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")

# A model file's "kind", by the type of the value it holds.
KINDS: dict[type, str] = {Nlmp: "nlmp", EffFn: "ef"}


def _fail(message: str, file: str | None, location: str) -> ModelFormatError:
    return ModelFormatError(message, file=file, location=location)


def _rational(raw: str) -> tuple[int, int] | None:
    """Numerator and denominator of a rational string, in any terms."""
    match = _RATIONAL.fullmatch(raw)
    try:
        return None if match is None else (int(match[1]), int(match[2] or 1))
    except ValueError:  # more digits than int() converts
        return None


def _read_measure(
    space: Space, file: str | None, read: dict, rationals: dict, raw: Any, where: str, i: int
) -> SubProb:
    """The measure ``raw`` on ``space``, found at ``where[i]`` in the file:
    its values are parsed, then its states resolved to atoms with integer
    numerators over the lcm of the denominators, which go straight to
    ``measure._interned``, so faults are reported in the order rationals,
    states, mass.  ``read`` maps the items of each measure object
    read before in the file to its measure, so a repeat is not parsed again
    (equal measures are one object anyway), and ``rationals`` maps each
    rational string read before to its numerator and denominator."""
    if not isinstance(raw, dict):
        raise _fail(f"a measure must be an object, got {type(raw).__name__}", file, f"{where}[{i}]")
    key = tuple(raw.items())
    try:
        mu = read.get(key)
    except TypeError:  # an unhashable value, which the parse reports
        mu = None
    if mu is not None:
        return mu
    den = 1
    parts = []
    for state, value in raw.items():
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
    for state, (p, q) in zip(raw, parts):
        a = index.get(state)
        if a is None:
            raise _fail(f"state {state!r} not in carrier", file, f"{where}[{i}]")
        if a in mass:
            first = next(s for s in raw if index[s] == a)
            message = f"states {first!r} and {state!r} lie in one atom; give the atom's mass once"
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


def model_from_dict(doc: Mapping[str, Any], file: str | None = None) -> Nlmp | EffFn:
    if not isinstance(doc, Mapping):
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
        kernels_doc = doc.get("kernels")
        if not isinstance(kernels_doc, dict) or set(kernels_doc) != set(labels):
            raise _fail("'kernels' must map every label to a kernel", file, "kernels")
        kernels = {}
        for label in labels:
            per_state = kernels_doc[label]
            if not isinstance(per_state, dict):
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

    eff_doc = doc.get("effectivity")
    if not isinstance(eff_doc, dict):
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
    missing = [s for s in space.carrier if s not in portfolio]
    if missing:
        raise _fail(f"portfolio missing states {missing}", file, "effectivity")
    try:
        return EffFn(space, portfolio)
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
        return json.loads(text)
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
    doc = _read_json(path)
    if not isinstance(doc, Mapping) or not isinstance(doc.get("map"), dict):
        raise ModelFormatError(
            "map file must hold an object with a 'map' entry", file=str(path), location="map"
        )
    table = doc["map"]
    for k, v in table.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ModelFormatError(
                "map entries must be state-to-state strings", file=str(path), location=f"map.{k}"
            )
    try:
        return MeasurableMap(domain, codomain, table)
    except EffkitError as exc:
        raise ModelFormatError(str(exc), file=str(path), location="map") from exc


def _measure_to_dict(mu: SubProb) -> dict[str, str]:
    atoms = mu.space.atoms
    return {atoms[a][0]: _rational_str(n, mu.den, "a mass") for a, n in zip(mu.atoms, mu.nums)}


def _measures_to_list(
    ms: MeasureSet, emitted: dict[SubProb, dict[str, str]]
) -> list[dict[str, str]]:
    """The members in canonical order, each measure's dict built once per
    ``emitted`` table."""
    out = []
    for mu in ms.members:
        doc = emitted.get(mu)
        if doc is None:
            doc = emitted[mu] = _measure_to_dict(mu)
        out.append(doc)
    return out


def model_to_dict(model: Nlmp | EffFn) -> dict[str, Any]:
    """The model as a JSON document.  A measure that occurs several times
    is one dict, shared by its occurrences and built once per call."""
    emitted: dict[SubProb, dict[str, str]] = {}
    doc: dict[str, Any] = {
        "kind": KINDS[type(model)],
        "states": list(model.space.carrier),
        "sigma": [list(block) for block in model.space.atoms],
    }
    if isinstance(model, Nlmp):
        doc["labels"] = list(model.labels)
        doc["kernels"] = {
            label: {s: _measures_to_list(k(s), emitted) for s in model.space.carrier}
            for label, k in model.kernels
        }
    else:
        doc["effectivity"] = {
            s: [_measures_to_list(g, emitted) for g in model(s).generators]
            for s in model.space.carrier
        }
    return doc


def dumps_canonical(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, for documents
    of dicts with string keys, lists, tuples, strings, ints, booleans and
    ``None``."""
    chunks: list[str] = []
    _emit(doc, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


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
