"""Spans around the calls into effkit's modules, recorded from outside.

``Tracer.install`` wraps every public function of every ``effkit`` module,
and the ``__init__`` of every public class, at every binding: a function
imported into another module (``from .measure import restrict`` in nlmp,
effectivity and logic, ``load_model`` in cli) is replaced there too.  Each
call records a span (name, start, end, parent).  After each request the
spans are folded into per-module self time (a span's duration minus that of
its children), inclusive times of selected functions, and call counts, and
then dropped, so memory stays bounded by one request's spans.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter

MODULES = (
    "cli", "model_io", "space", "measure", "upperset", "nlmp", "effectivity", "logic", "cospan"
)

# Inclusive time of these functions (outermost call only), by metric.
INCLUSIVE = {
    "model_io.load_s": ("model_io.load_model", "model_io.load_map", "model_io.load_partition"),
    "model_io.emit_s": ("model_io.model_to_dict", "model_io.dumps_canonical"),
    "upperset.dual_s": ("upperset.dual",),
    "nlmp.greatest_bisim_s": ("nlmp.greatest_bisim",),
    "effectivity.greatest_ef_bisim_s": ("effectivity.greatest_ef_bisim",),
    "logic.parse_s": ("logic.parse_formula",),
    "logic.eval_s": ("logic.eval_state", "logic.eval_measure"),
    "logic.lequiv_s": ("logic.logical_equivalence",),
    "logic.distinguish_s": ("logic.distinguish",),
    "cospan.verify_s": ("cospan.verify_cospan",),
    "cospan.build_span_s": ("cospan.build_span",),
}

# Counts of calls (constructor calls for classes), by metric.
CALLS = {
    "space.sigma_r_calls": ("space.sigma_r",),
    "measure.subprob_new": ("measure.SubProb",),
    "measure.restrict_calls": ("measure.restrict",),
    "measure.pushforward_calls": ("measure.pushforward",),
    "measure.evaluate_calls": ("measure.evaluate",),
    "upperset.measureset_new": ("upperset.MeasureSet",),
    "upperset.upperset_new": ("upperset.UpperSet",),
    "upperset.dual_calls": ("upperset.dual",),
    "logic.formula_nodes": tuple(
        f"logic.{c}" for c in ("Top", "And", "Diamond", "Box", "MAnd", "MOr", "Threshold")
    ),
}

# A refinement round is one child span of these kinds directly under the
# fixed-point function: sigma_r for the relational loops, the Space of the
# current blocks for the logic's refiner.
ROUNDS = {
    "nlmp.rounds": ("space.sigma_r", ("nlmp.greatest_bisim",)),
    "effectivity.rounds": ("space.sigma_r", ("effectivity.greatest_ef_bisim",)),
    "logic.rounds": ("space.Space", ("logic.logical_equivalence", "logic.distinguish")),
}


# Amounts read off a call's arguments or result, by span name.
AFTER = {
    "space.Relation": ("space.relation_pairs", lambda args, result: len(args[0].pairs)),
    "upperset.dual": ("upperset.dual_generators_out", lambda args, result: len(result.generators)),
}


def _public(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or (
            inspect.isclass(obj)
            and not issubclass(obj, BaseException)
            and "__init__" in vars(obj)
        ):
            out.append((name, obj))
    return out


class Tracer:
    """Records spans while installed; folds them after every request."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.self_s: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        root = importlib.import_module("effkit")
        modules = [root] + [
            importlib.import_module(f"effkit.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in _public(module):
                span = f"{short}.{name}"
                if inspect.isclass(obj):
                    self._patch(obj, "__init__", self._wrap(span, vars(obj)["__init__"]))
                else:
                    wrappers[id(obj)] = self._wrap(span, obj)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        metric, amount = AFTER.get(name, (None, None))

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            stack.append(index)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()
            if metric is not None:
                counts[metric] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per request ---------------------------------------------------------
    def begin(self) -> None:
        self.spans.clear()
        del self.stack[1:]

    def end(self, elapsed: float) -> None:
        """Fold the finished request's spans into the totals."""
        self.request_s += elapsed
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, parent, start, stop = span
            self.self_s[name.partition(".")[0]] += stop - start - child[index]
            self.counts[f"call:{name}"] += 1
            for metric, group in INCLUSIVE.items():
                if name in group and not self._inside(parent, group):
                    self.inclusive[metric] += stop - start
            for metric, (kind, parents) in ROUNDS.items():
                if name == kind and parent >= 0 and (spans[parent] or ("",))[0] in parents:
                    self.counts[metric] += 1

    def _inside(self, index: int, group) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span is None:
                return False
            if span[0] in group:
                return True
            index = span[1]
        return False

    # -- results -------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Exact counters so far: calls, rounds and the AFTER amounts."""
        out = {
            metric: sum(self.counts[f"call:{n}"] for n in names) for metric, names in CALLS.items()
        }
        out.update({metric: self.counts[metric] for metric in ROUNDS})
        out.update({metric: self.counts[metric] for metric, _ in AFTER.values()})
        return out

    def times(self) -> dict[str, float]:
        """Self time per module and inclusive time of selected functions."""
        out = {f"{m}.self_s": self.self_s[m] for m in MODULES}
        out.update({metric: self.inclusive[metric] for metric in INCLUSIVE})
        out["trace.unattributed_s"] = self.request_s - sum(self.self_s.values())
        return out
