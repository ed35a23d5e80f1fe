"""Command-line front end.

Every decision procedure of the library is exposed as a subcommand working
on JSON model, map, and partition files.  Exit codes: 0 for success or a
positive answer, 1 for a well-formed negative answer (not bisimilar, not a
morphism, distinguishable, not a congruence, invalid cospan), 2 for input
errors.  Stdout carries the result (JSON by default, ``--format text`` for
a line-based rendering); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
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

HELP = "finite-state stochastic nondeterminism toolkit"


class _UsageError(EffkitError):
    """A command line the parser refuses: a missing or unknown argument, an
    unknown subcommand or an unknown option value."""

    location = "argv"


class _Parser(argparse.ArgumentParser):
    """Raises a refused command line as a :class:`_UsageError`, which ``run``
    reports like any input error; ``--help`` still prints and exits."""

    def error(self, message: str):
        raise _UsageError(message)


def _partition_payload(rel: Relation) -> list[list[str]]:
    return [list(block) for block in rel.classes()]


def _require_ef(model: Nlmp | EffFn, label: str | None, where: str) -> EffFn:
    """An effectivity function from a model: 'ef' models directly, with no
    label; 'nlmp' models label-wise through the principal-filter embedding."""
    if isinstance(model, EffFn):
        if label is not None:
            raise ModelFormatError("--label applies to 'nlmp' models", file=where, location="--label")
        return model
    return nlmp_ops.filter_generate(model.kernel(_pick_label(model, label, where)))


def _require_nlmp(model: Nlmp | EffFn, where: str) -> Nlmp:
    if not isinstance(model, Nlmp):
        raise ModelFormatError("this command needs an 'nlmp' model", file=where, location="kind")
    return model


def _load_pair(args) -> tuple[Nlmp | EffFn, Nlmp | EffFn]:
    """The models ``args.a`` and ``args.b``, refused unless of one kind."""
    a = load_model(args.a)
    b = load_model(args.b)
    if type(a) is not type(b):
        raise ModelFormatError("both models must have the same kind", file=args.b, location="kind")
    return a, b


def _same_labels(a: Nlmp, b: Nlmp, where: str) -> None:
    if set(a.labels) != set(b.labels):
        raise ModelFormatError("label sets differ", file=where, location="labels")


def cmd_validate(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    return 0, {
        "valid": True,
        "kind": KINDS[type(model)],
        "states": len(model.space.carrier),
        "atoms": len(model.space.atoms),
    }


def cmd_bisim(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    if isinstance(model, Nlmp):
        rel = nlmp_ops.greatest_bisim(model)
    else:
        rel = ef_ops.greatest_ef_bisim(model)
    payload: dict[str, Any] = {"partition": _partition_payload(rel)}
    if args.pairs:
        try:
            s, t = args.pairs.split(",")
        except ValueError:
            raise ModelFormatError("--pairs wants 's,t'", location="--pairs") from None
        model.space.index(s)
        model.space.index(t)
        bisimilar = (s, t) in rel
        payload["query"] = {"s": s, "t": t, "bisimilar": bisimilar}
        return (0 if bisimilar else 1), payload
    return 0, payload


def cmd_event_bisim(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    nlmp = _require_nlmp(model, args.model)
    coarser = load_partition(args.partition, model.space)
    holds = nlmp_ops.is_event_bisim(nlmp, coarser)
    return (0 if holds else 1), {"holds": holds}


def cmd_subsystem(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    coarser = load_partition(args.partition, model.space)
    holds = ef_ops.is_subsystem(ef, coarser)
    return (0 if holds else 1), {"holds": holds}


def cmd_eval(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    formula = logic_ops.parse_formula(args.formula)
    extension = logic_ops.eval_state(ef, formula)
    ordered = [s for s in model.space.carrier if s in extension]
    payload: dict[str, Any] = {
        "formula": logic_ops.format_formula(formula),
        "states": ordered,
    }
    if args.state is not None:
        model.space.index(args.state)
        satisfied = args.state in extension
        payload["query"] = {"state": args.state, "satisfied": satisfied}
        return (0 if satisfied else 1), payload
    return 0, payload


def cmd_lequiv(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    rel = logic_ops.logical_equivalence(ef)
    return 0, {"partition": _partition_payload(rel)}


def cmd_distinguish(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    result = logic_ops.distinguish(ef, args.s, args.t)
    if result.equivalent:
        return 0, {"equivalent": True}
    return 1, {
        "equivalent": False,
        "formula": logic_ops.format_formula(result.formula),
        "satisfied_by": result.satisfied_by,
    }


def cmd_morphism(args) -> tuple[int, dict[str, Any]]:
    a, b = _load_pair(args)
    mapping = load_map(args.map, a.space, b.space)
    if isinstance(a, Nlmp):
        if args.strong:
            raise ModelFormatError(
                "--strong applies to 'ef' models", file=args.a, location="kind"
            )
        _same_labels(a, b, args.b)
        holds = all(
            nlmp_ops.is_nk_morphism(mapping, a.kernel(label), b.kernel(label))
            for label in a.labels
        )
        return (0 if holds else 1), {"holds": holds, "strong": False}
    if args.strong:
        try:
            holds = ef_ops.is_strong_morphism(mapping, a, b)
        except NotSurjectiveError:
            return 1, {"holds": False, "strong": True, "reason": "not_surjective"}
        return (0 if holds else 1), {"holds": holds, "strong": True}
    holds = ef_ops.is_ef_morphism(mapping, a, b)
    return (0 if holds else 1), {"holds": holds, "strong": False}


def cmd_dual(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    return 0, model_to_dict(ef_ops.dual_ef(ef))


def cmd_demonize(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    nlmp = _require_nlmp(model, args.model)
    return 0, model_to_dict(_require_ef(nlmp, args.label, args.model))


def cmd_angelize(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    nlmp = _require_nlmp(model, args.model)
    label = _pick_label(nlmp, args.label, args.model)
    return 0, model_to_dict(nlmp_ops.angelize(nlmp.kernel(label)))


def _pick_label(nlmp: Nlmp, label: str | None, where: str) -> str:
    if label is None:
        if len(nlmp.labels) != 1:
            message = "several labels; pick one with --label" if nlmp.labels else "no labels"
            raise ModelFormatError(f"model has {message}", file=where, location="labels")
        return nlmp.labels[0]
    if label not in nlmp.labels:
        raise ModelFormatError(f"unknown label {label!r}", file=where, location="labels")
    return label


def cmd_sum(args) -> tuple[int, dict[str, Any]]:
    a, b = _load_pair(args)
    if isinstance(a, EffFn):
        summed, _ = ef_ops.sum_ef(a, b)
        return 0, model_to_dict(summed)
    _same_labels(a, b, args.b)
    kernels = {}
    for label in a.labels:
        kernels[label], _ = nlmp_ops.direct_sum(a.kernel(label), b.kernel(label))
    return 0, model_to_dict(Nlmp(direct_sum(a.space, b.space).space, kernels))


def cmd_quotient(args) -> tuple[int, dict[str, Any]]:
    model = load_model(args.model)
    ef = _require_ef(model, args.label, args.model)
    blocks = load_partition(args.partition, model.space)
    alpha = Relation.from_partition(model.space, blocks.atoms)
    try:
        quotiented, _ = ef_ops.quotient(ef, alpha)
    except NotACongruenceError as exc:
        return 1, {
            "holds": False,
            "reason": "not_a_congruence",
            "witness": list(exc.witness) if exc.witness else None,
        }
    return 0, model_to_dict(quotiented)


def cmd_span(args) -> tuple[int, dict[str, Any]]:
    p = load_model(args.p)
    q = load_model(args.q)
    m = load_model(args.m)
    for model, path in ((p, args.p), (q, args.q), (m, args.m)):
        if not isinstance(model, EffFn):
            raise ModelFormatError("span needs 'ef' models", file=path, location="kind")
    f = load_map(args.f, p.space, m.space)
    g = load_map(args.g, q.space, m.space)
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


def _render_text(payload: dict[str, Any], out) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        out.write(f"{key}: {value}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="effkit", description=HELP)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check a model file against its schema")
    p.add_argument("model")

    p = add("bisim", cmd_bisim, "greatest state bisimulation of a model")
    p.add_argument("model")
    p.add_argument("--pairs", help="s,t: also ask whether the pair is bisimilar")

    p = add("event-bisim", cmd_event_bisim, "test a partition as an event bisimulation")
    p.add_argument("model")
    p.add_argument("--partition", required=True)

    p = add("subsystem", cmd_subsystem, "test a partition as a subsystem")
    p.add_argument("model")
    p.add_argument("--partition", required=True)
    p.add_argument("--label")

    p = add("eval", cmd_eval, "evaluate a formula")
    p.add_argument("model")
    p.add_argument("--formula", required=True)
    p.add_argument("--state")
    p.add_argument("--label")

    p = add("lequiv", cmd_lequiv, "logical-equivalence partition")
    p.add_argument("model")
    p.add_argument("--label")

    p = add("distinguish", cmd_distinguish, "distinguishing formula for a pair")
    p.add_argument("model")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--label")

    p = add("morphism", cmd_morphism, "test a map as a (strong) morphism")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--map", required=True)
    p.add_argument("--strong", action="store_true")

    p = add("dual", cmd_dual, "dual portfolio model")
    p.add_argument("model")
    p.add_argument("--label")

    p = add("demonize", cmd_demonize, "principal-filter portfolio of a kernel")
    p.add_argument("model")
    p.add_argument("--label")

    p = add("angelize", cmd_angelize, "singleton-filter portfolio of a kernel")
    p.add_argument("model")
    p.add_argument("--label")

    p = add("sum", cmd_sum, "direct sum of two models")
    p.add_argument("a")
    p.add_argument("b")

    p = add("quotient", cmd_quotient, "quotient by a congruence partition")
    p.add_argument("model")
    p.add_argument("--partition", required=True)
    p.add_argument("--label")

    p = add("span", cmd_span, "verify a cospan and build its span")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("m")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    return parser


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = build_parser().parse_args(argv)
        code, payload = args.handler(args)
    except EffkitError as exc:
        diagnostic = {
            "error": {
                "file": getattr(exc, "file", None),
                "location": getattr(exc, "location", None),
                "message": str(exc),
            }
        }
        err.write(dumps_canonical(diagnostic))
        return 2
    if args.format == "json":
        out.write(dumps_canonical(payload))
    else:
        _render_text(payload, out)
    return code


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
