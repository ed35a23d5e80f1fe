"""Command-line front end.

Every decision procedure of the library is exposed as a subcommand working
on JSON model, map, and partition files.  A handler reads its operands
through one helper per operand kind (``_ef``, ``_nlmp``, ``_kernel``,
``_pair``), checks every argument, and only then computes; a state or a
formula the library refuses is reported at the argument that gave it
(``_located``).  Exit codes: 0
for success or a positive answer, 1 for a well-formed negative answer (not
bisimilar, not a morphism, distinguishable, not a congruence, invalid
cospan), 2 for input errors.  Stdout carries the result (JSON by default,
``--format text`` for a line-based rendering); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Any

from . import effectivity as ef_ops
from . import logic as logic_ops
from . import nlmp as nlmp_ops
from .cospan import Cospan, CospanVerificationError, build_span
from .effectivity import EffFn
from .errors import (
    EffkitError,
    ModelFormatError,
    NotACongruenceError,
    NotSurjectiveError,
)
from .model_io import (
    KINDS,
    dumps_canonical,
    load_map,
    load_model,
    load_partition,
    model_to_dict,
)
from .nlmp import Nlmp
from .space import Relation, direct_sum


# Unicode's control characters (category Cc) and its line and paragraph
# separators (Zl, Zp), among them every character ``str.splitlines`` breaks
# a line at.
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


class _UsageError(EffkitError):
    """A command line the parser refuses: a missing or unknown argument, an
    unknown subcommand or an unknown option value."""

    location = "argv"


class _Parser(argparse.ArgumentParser):
    """Raises a refused command line as a :class:`_UsageError`, which ``run``
    reports like any input error; ``--help`` still prints and exits."""

    def error(self, message: str):
        raise _UsageError(message)


def _located(location: str, read, *args):
    """``read(*args)``, its input error reported at the command-line
    argument ``location``."""
    try:
        return read(*args)
    except EffkitError as exc:
        exc.location = location
        raise


def _nlmp(args) -> Nlmp:
    model = load_model(args.model)
    if not isinstance(model, Nlmp):
        raise ModelFormatError("this command needs an 'nlmp' model", file=args.model, location="kind")
    return model


def _kernel(args, nlmp: Nlmp) -> nlmp_ops.Kernel:
    """The kernel of ``nlmp``, read from ``args.model``, that ``--label``
    picks; without it, the kernel of the model's one label."""
    if args.label is None and len(nlmp.labels) != 1:
        message = "several labels; pick one with --label" if nlmp.labels else "no labels"
        raise ModelFormatError(f"model has {message}", file=args.model, location="labels")
    label = nlmp.labels[0] if args.label is None else args.label
    if label not in nlmp.labels:
        raise ModelFormatError(f"unknown label {label!r}", file=args.model, location="labels")
    return nlmp.kernel(label)


def _ef(args) -> EffFn:
    """An effectivity function from the model ``args.model``: an 'nlmp' model
    label-wise through the principal-filter embedding, an 'ef' model as is."""
    model = load_model(args.model)
    if isinstance(model, Nlmp):
        return nlmp_ops.filter_generate(_kernel(args, model))
    if args.label is not None:
        raise ModelFormatError("--label applies to 'nlmp' models", file=args.model, location="--label")
    return model


def _pair(args):
    """The models ``args.a`` and ``args.b`` of one kind, and the ``--map``
    between them if any; 'nlmp' models need one label set and no ``--strong``."""
    a = load_model(args.a)
    b = load_model(args.b)
    if type(a) is not type(b):
        raise ModelFormatError("both models must have the same kind", file=args.b, location="kind")
    mapping = load_map(args.map, a.space, b.space) if "map" in args else None
    if isinstance(a, Nlmp):
        if getattr(args, "strong", False):
            raise ModelFormatError("--strong applies to 'ef' models", file=args.a, location="kind")
        if set(a.labels) != set(b.labels):
            raise ModelFormatError("label sets differ", file=args.b, location="labels")
    return a, b, mapping


def cmd_validate(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    return 0, {
        "valid": True,
        "kind": KINDS[type(model)],
        "states": len(model.space.carrier),
        "atoms": len(model.space.atoms),
    }


def _pair_states(space, text: str) -> tuple[str, str]:
    """The states ``s, t`` of ``--pairs s,t``, split at the one comma that
    leaves two carrier states; state names may hold commas."""
    known = space._index
    longest = max(map(len, known), default=0)  # neither part of a cut is longer
    window = range(max(len(text) - longest - 1, 0), min(longest, len(text) - 1) + 1)
    cuts = [i for i in window if text[i] == "," and text[:i] in known and text[i + 1:] in known]
    if len(cuts) > 1:
        message = f"--pairs is ambiguous: {len(cuts)} of its commas split it into two states"
        raise ModelFormatError(message, location="--pairs")
    if cuts:
        return text[: cuts[0]], text[cuts[0] + 1:]
    try:
        s, t = text.split(",")
    except ValueError:
        raise ModelFormatError("--pairs wants 's,t'", location="--pairs") from None
    _located("--pairs", space.index, s)
    _located("--pairs", space.index, t)
    return s, t


def cmd_bisim(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    if args.pairs:
        s, t = _pair_states(model.space, args.pairs)
    if isinstance(model, Nlmp):
        rel = nlmp_ops.greatest_bisim(model)
    else:
        rel = ef_ops.greatest_ef_bisim(model)
    payload: dict[str, Any] = {"partition": [list(block) for block in rel.classes()]}
    if not args.pairs:
        return 0, payload
    bisimilar = (s, t) in rel
    payload["query"] = {"s": s, "t": t, "bisimilar": bisimilar}
    return (0 if bisimilar else 1), payload


def cmd_event_bisim(args) -> tuple[int, dict[str, Any]]:
    nlmp = _nlmp(args)
    coarser = load_partition(args.partition, nlmp.space)
    holds = nlmp_ops.is_event_bisim(nlmp, coarser)
    return (0 if holds else 1), {"holds": holds}


def cmd_subsystem(args) -> tuple[int, dict[str, Any]]:
    ef = _ef(args)
    coarser = load_partition(args.partition, ef.space)
    holds = ef_ops.is_subsystem(ef, coarser)
    return (0 if holds else 1), {"holds": holds}


def cmd_eval(args) -> tuple[int, dict[str, Any]]:
    ef = _ef(args)
    formula = _located("--formula", logic_ops.parse_formula, args.formula)
    if args.state is not None:
        _located("--state", ef.space.index, args.state)
    extension = logic_ops.eval_state(ef, formula)
    payload: dict[str, Any] = {
        "formula": logic_ops.format_formula(formula),
        "states": [s for s in ef.space.carrier if s in extension],
    }
    if args.state is None:
        return 0, payload
    satisfied = args.state in extension
    payload["query"] = {"state": args.state, "satisfied": satisfied}
    return (0 if satisfied else 1), payload


def cmd_lequiv(args) -> tuple[int, dict[str, Any]]:
    rel = logic_ops.logical_equivalence(_ef(args))
    return 0, {"partition": [list(block) for block in rel.classes()]}


def cmd_distinguish(args) -> tuple[int, dict[str, Any]]:
    ef = _ef(args)
    _located("s", ef.space.index, args.s)
    _located("t", ef.space.index, args.t)
    result = logic_ops.distinguish(ef, args.s, args.t)
    if result.equivalent:
        return 0, {"equivalent": True}
    return 1, {
        "equivalent": False,
        "formula": logic_ops.format_formula(result.formula),
        "satisfied_by": result.satisfied_by,
    }


def cmd_morphism(args) -> tuple[int, dict[str, Any]]:
    a, b, mapping = _pair(args)
    if isinstance(a, Nlmp):
        holds = all(
            nlmp_ops.is_nk_morphism(mapping, a.kernel(label), b.kernel(label))
            for label in a.labels
        )
    elif not args.strong:
        holds = ef_ops.is_ef_morphism(mapping, a, b)
    else:
        try:
            holds = ef_ops.is_strong_morphism(mapping, a, b)
        except NotSurjectiveError:
            return 1, {"holds": False, "strong": True, "reason": "not_surjective"}
    return (0 if holds else 1), {"holds": holds, "strong": args.strong}


def cmd_dual(args) -> tuple[int, Any]:
    return 0, ef_ops.dual_ef(_ef(args))


def cmd_demonize(args) -> tuple[int, Any]:
    return 0, nlmp_ops.filter_generate(_kernel(args, _nlmp(args)))


def cmd_angelize(args) -> tuple[int, Any]:
    return 0, nlmp_ops.angelize(_kernel(args, _nlmp(args)))


def cmd_sum(args) -> tuple[int, Any]:
    a, b, _ = _pair(args)
    if isinstance(a, EffFn):
        summed, _ = ef_ops.sum_ef(a, b)
        return 0, summed
    kernels = {}
    for label in a.labels:
        kernels[label], _ = nlmp_ops.direct_sum(a.kernel(label), b.kernel(label))
    return 0, Nlmp(direct_sum(a.space, b.space).space, kernels)


def cmd_quotient(args) -> tuple[int, Any]:
    ef = _ef(args)
    blocks = load_partition(args.partition, ef.space)
    alpha = Relation.from_partition(ef.space, blocks.atoms)
    try:
        quotiented, _ = ef_ops.quotient(ef, alpha)
    except NotACongruenceError as exc:
        return 1, {
            "holds": False,
            "reason": "not_a_congruence",
            "witness": list(exc.witness) if exc.witness else None,
        }
    return 0, quotiented


def cmd_span(args) -> tuple[int, dict[str, Any]]:
    paths = (args.p, args.q, args.m)
    models = {path: load_model(path) for path in dict.fromkeys(paths)}  # each file read once
    for path in paths:
        if not isinstance(models[path], EffFn):
            raise ModelFormatError("span needs 'ef' models", file=path, location="kind")
    p, q, m = (models[path] for path in paths)
    f = load_map(args.f, p.space, m.space)
    g = f if args.g == args.f and q.space is p.space else load_map(args.g, q.space, m.space)
    try:
        span = build_span(Cospan(p, q, m, f, g))
    except CospanVerificationError as exc:
        return 1, {
            "valid": False,
            "failures": [
                {"check": c.check, "witness": c.witness} for c in exc.report.failures
            ],
        }
    return 0, {
        "valid": True,
        "w": {
            "states": list(span.w.carrier),
            "sigma": [list(block) for block in span.w.atoms],
        },
        "squares": "commute",
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="effkit", description="finite-state stochastic nondeterminism toolkit")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    labelled = []

    def add(name, handler, help_text, *positionals, label=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for positional in positionals:
            p.add_argument(positional)
        if label:
            labelled.append(p)
        return p

    add("validate", cmd_validate, "check a model file against its schema", "model")
    p = add("bisim", cmd_bisim, "greatest state bisimulation of a model", "model")
    p.add_argument("--pairs", help="s,t: also ask whether the pair is bisimilar")
    p = add("event-bisim", cmd_event_bisim, "test a partition as an event bisimulation", "model")
    p.add_argument("--partition", required=True)
    p = add("subsystem", cmd_subsystem, "test a partition as a subsystem", "model", label=True)
    p.add_argument("--partition", required=True)
    p = add("eval", cmd_eval, "evaluate a formula", "model", label=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state")
    add("lequiv", cmd_lequiv, "logical-equivalence partition", "model", label=True)
    add("distinguish", cmd_distinguish, "distinguishing formula for a pair", "model", "s", "t",
        label=True)
    p = add("morphism", cmd_morphism, "test a map as a (strong) morphism", "a", "b")
    p.add_argument("--map", required=True)
    p.add_argument("--strong", action="store_true")
    add("dual", cmd_dual, "dual portfolio model", "model", label=True)
    add("demonize", cmd_demonize, "principal-filter portfolio of a kernel", "model", label=True)
    add("angelize", cmd_angelize, "singleton-filter portfolio of a kernel", "model", label=True)
    add("sum", cmd_sum, "direct sum of two models", "a", "b")
    p = add("quotient", cmd_quotient, "quotient by a congruence partition", "model", label=True)
    p.add_argument("--partition", required=True)
    p = add("span", cmd_span, "verify a cospan and build its span", "p", "q", "m")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    # after each subcommand's own options, where its --help lists it
    for p in labelled:
        p.add_argument("--label")
    return parser


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = build_parser().parse_args(argv)
        code, payload = args.handler(args)
        if args.format == "json":
            dumps_canonical(payload, out)
        else:
            out.write(_text(payload))
    except EffkitError as exc:
        diagnostic = {
            "error": {
                "file": getattr(exc, "file", None),
                "location": getattr(exc, "location", None),
                "message": str(exc),
            }
        }
        dumps_canonical(diagnostic, err)
        return 2
    return code


def _text(payload: Any) -> str:
    """The ``--format text`` rendering: one ``key: value`` line per
    top-level key in key order.  Strings and integers print as they are,
    but a string holding a control character or a line or paragraph
    separator, which could break or forge a line, prints as JSON, as do
    booleans, null, lists and objects."""
    if isinstance(payload, (Nlmp, EffFn)):
        payload = model_to_dict(payload)
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if value is None or isinstance(value, (bool, dict, list)) or (
            isinstance(value, str) and _CONTROL.search(value)
        ):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
