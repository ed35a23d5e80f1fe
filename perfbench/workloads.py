"""The three workloads: seeded request lists with an answer check on every
request.

A workload is a list of *tasks*.  A task is a short chain of CLI requests on
generated files: the first asks the question, the later ones check its
answer against a different procedure (``bisim`` against ``lequiv``, a
``distinguish`` witness against ``eval --state``, ``dual`` against a second
``dual``).  Expected answers are planted by construction (see gen.py) or
computed by oracle.py; none comes from the request under test.  A request
whose check fails aborts the rest of its task.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import gen
import oracle

# A request slower than this fails; it is never dropped or shrunk.
BUDGET_S = 20.0


class Mismatch(Exception):
    """A request's output disagrees with the expected answer."""


class TaskAborted(Exception):
    """A request of the task failed; the rest of the task is skipped."""


class BudgetExceeded(BaseException):
    """Raised by the interval timer inside an over-budget request.  A
    BaseException, so that no ``except Exception`` in the program absorbs it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


class Client:
    """Closed-loop client: one request at a time, each timed around
    ``effkit.cli.run`` and checked afterwards."""

    def __init__(self, run: Callable, workdir: Path):
        self.run = run
        self.workdir = workdir
        self.tracer = None  # a spans.Tracer during traced passes
        # (moment sent, seconds taken) of each request, by its place
        self.latencies: dict[tuple[int, int], list[tuple[float, float]]] = {}
        self.task = 0  # index of the running task, set by the caller
        self._sent = 0  # requests sent so far by the running task
        self.failures: Counter = Counter()
        self.bytes_in = 0
        self.bytes_out = 0
        self.deadline = float("inf")
        signal.signal(signal.SIGALRM, _on_alarm)

    def start(self, task: int) -> None:
        """Mark the start of a task; its requests are keyed by their place
        in it, so that a request's latencies from several passes line up."""
        self.task, self._sent = task, 0

    def write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def request(
        self,
        argv: list[str],
        code: int | tuple[int, ...] = 0,
        check: Callable[[int, dict], None] | None = None,
        save: str | None = None,
    ) -> dict:
        """Send one request and check it.  ``code`` is the expected exit
        code (or codes); ``check`` gets the code and the parsed stdout (or,
        for exit 2, the stderr diagnostic).  ``save`` writes stdout to a file
        of that name for later requests.  Returns the parsed output."""
        codes = code if isinstance(code, tuple) else (code,)
        out, err = io.StringIO(), io.StringIO()
        budget = min(BUDGET_S, self.deadline - time.perf_counter())
        if self.tracer:
            self.tracer.begin()
        failure = None
        signal.setitimer(signal.ITIMER_REAL, max(budget, 0.001))
        start = time.perf_counter()
        try:
            got = self.run(argv, out, err)
        except BudgetExceeded:
            got, failure = None, f"over the {BUDGET_S:g} s request budget"
        except SystemExit as exc:
            got, failure = None, f"exited via SystemExit({exc.code})"
        except Exception as exc:  # recorded as a failed request
            got, failure = None, f"uncaught {type(exc).__name__}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self.tracer:
            self.tracer.end(elapsed)
        self.latencies.setdefault((self.task, self._sent), []).append((start, elapsed))
        self._sent += 1
        self.bytes_in += sum(os.path.getsize(a) for a in argv if a.startswith(str(self.workdir)))
        text = out.getvalue()
        self.bytes_out += len(text) + len(err.getvalue())
        payload: dict = {}
        if failure is None:
            try:
                expect(got in codes, f"exit {got}, expected {'/'.join(map(str, codes))}")
                payload = json.loads(err.getvalue() if got == 2 else text)
                if got == 2:
                    diag = payload.get("error", {})
                    expect(
                        set(diag) == {"file", "location", "message"},
                        "exit 2 without a structured diagnostic",
                    )
                if check is not None:
                    check(got, payload)
            except (Mismatch, ValueError, KeyError, TypeError, AttributeError) as exc:
                failure = f"wrong answer: {exc}"
        if failure is not None:
            name = f"{argv[0]}: {failure}"
            self.failures[name] += 1
            raise TaskAborted(name)
        if save is not None:
            (self.workdir / save).write_text(text)
        return payload


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _model_is(expected: tuple) -> Callable[[int, dict], None]:
    def check(code: int, payload: dict) -> None:
        expect(oracle.normalize(payload) == expected, "model differs from the expected one")

    return check


def _partition_is(expected: frozenset) -> Callable[[int, dict], None]:
    def check(code: int, payload: dict) -> None:
        expect(oracle.partition(payload) == expected, "partition differs from the planted one")

    return check


def _holds(value: bool) -> Callable[[int, dict], None]:
    def check(code: int, payload: dict) -> None:
        expect(payload["holds"] is value, f"holds is {payload['holds']}, expected {value}")

    return check


def _bisimilar(value: bool) -> Callable[[int, dict], None]:
    def check(code: int, p: dict) -> None:
        expect(p["query"]["bisimilar"] is value, "wrong --pairs answer")

    return check


def _merge_two(rng: random.Random, classes: list[list[str]]) -> list[list[str]]:
    """The partition with two random classes merged, as its last block."""
    i, j = rng.sample(range(len(classes)), 2)
    return [b for n, b in enumerate(classes) if n not in (i, j)] + [classes[i] + classes[j]]


def _witness(c: Client, path: str, s: str, t: str, label: list[str]) -> None:
    """``distinguish`` a pair known to be inequivalent, then confirm the
    witness with ``eval --state`` on both states."""
    def named(code, p):
        expect(p["satisfied_by"] in (s, t), "witness names neither state")

    payload = c.request(["distinguish", path, s, t, *label], code=1, check=named)
    formula, by = payload["formula"], payload["satisfied_by"]
    for state in (s, t):
        sat = state == by

        def check(code, p, sat=sat):
            expect(p["query"]["satisfied"] is sat, "witness not confirmed by eval")

        c.request(
            ["eval", path, "--formula", formula, "--state", state, *label],
            code=0 if sat else 1,
            check=check,
        )


def _pairs(rng: random.Random, planted: gen.Planted) -> tuple[tuple[str, str], tuple[str, str]]:
    """A pair inside one planted class (the largest) and a pair across two."""
    block = max(planted.classes, key=len)
    same = tuple(rng.sample(block, 2)) if len(block) > 1 else (block[0], block[0])
    a, b = rng.sample(planted.classes, 2)
    return same, (rng.choice(a), rng.choice(b))


def _span_check(planted: gen.Planted, other: gen.Planted | None = None):
    other = other or planted
    groups: dict[int, set[str]] = {}
    for s, i in planted.class_of.items():
        for t, j in other.class_of.items():
            if i == j:
                groups.setdefault(i, set()).add(f"{s}|{t}")

    def check(code: int, p: dict) -> None:
        expect(p["valid"] is True, "span refused on a valid cospan")
        expect(set(p["w"]["states"]) == set().union(*groups.values()), "wrong pullback states")
        expect(oracle.blocks(p["w"]["sigma"]) == oracle.blocks(groups.values()), "wrong atoms")

    return check


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def _refine_task(c: Client, rng: random.Random, name: str, planted: gen.Planted, **opts):
    path = c.write(f"{name}.json", planted.doc)
    expected = oracle.blocks(planted.classes)
    label = ["--label", "a"] if len(planted.doc.get("labels", ())) > 1 else []
    same, diff = _pairs(rng, planted)
    span = None
    if opts.get("span"):
        mediator = c.write(f"{name}.classes.json", planted.class_doc)
        eta = c.write(f"{name}.eta.json", planted.class_map())
        span = (mediator, eta)
    dual_norm = oracle.dual(oracle.normalize(planted.doc)) if opts.get("dual") else None

    def task(c: Client) -> None:
        c.request(["bisim", path], check=_partition_is(expected))
        if opts.get("deep"):
            # lequiv and distinguish grow too steeply to run at this depth.
            c.request(["bisim", path, "--pairs", ",".join(diff)], code=1, check=_bisimilar(False))
            return
        c.request(["lequiv", path, *label], check=_partition_is(expected))
        if opts.get("same"):
            c.request(["bisim", path, "--pairs", ",".join(same)], code=0, check=_bisimilar(True))
        else:
            c.request(["bisim", path, "--pairs", ",".join(diff)], code=1, check=_bisimilar(False))
        _witness(c, path, *diff, label)
        if dual_norm is not None:
            # The dual has the same logic with <> and [] swapped, hence the
            # same bisimulation.
            c.request(["dual", path], check=_model_is(dual_norm), save=f"{name}.dual.json")
            dualled = str(c.workdir / f"{name}.dual.json")
            c.request(["bisim", dualled], check=_partition_is(expected))
        if span is not None:
            # The planted classes as a cospan onto the class-level model.
            mediator, eta = span
            c.request(
                ["span", path, path, mediator, "--f", eta, "--g", eta], check=_span_check(planted)
            )

    return task


def refine(c: Client, seed: int) -> list:
    rng = random.Random(seed)
    tasks = [
        _refine_task(c, rng, "deep-n", gen.chain(rng, 14, 2, "nlmp"), deep=True),
        _refine_task(c, rng, "deep-e", gen.chain(rng, 10, 2, "ef"), deep=True),
    ]
    for i in range(2):
        same = i == 0  # which pair bisim --pairs asks about
        tasks.append(_refine_task(c, rng, f"chain-n{i}", gen.chain(rng, 9, 2, "nlmp"), same=same))
        tasks.append(_refine_task(c, rng, f"chain-e{i}", gen.chain(rng, 8, 2, "ef"), same=same))
        fs = gen.planted_ef(rng, 6, generators=1)
        tasks.append(_refine_task(c, rng, f"fs{i}", fs, span=True, same=same))
    for i in range(3):
        same = i != 1
        nlmp = gen.planted_nlmp(rng, 6, labels=3, measures=3)
        tasks.append(_refine_task(c, rng, f"nlmp{i}", nlmp, same=same))
        tasks.append(_refine_task(c, rng, f"ef{i}", gen.planted_ef(rng, 6), dual=True, same=same))
        nlmp = gen.planted_nlmp(rng, 5, labels=2, atom_sizes=(1, 2))
        tasks.append(_refine_task(c, rng, f"coarse-n{i}", nlmp, same=not same))
        ef = gen.planted_ef(rng, 4, atom_sizes=(1, 2))
        tasks.append(_refine_task(c, rng, f"coarse-e{i}", ef, same=not same))
    order = rng.sample(range(len(tasks)), len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------


def _dual_task(c: Client, rng: random.Random, name: str, doc: dict):
    path = c.write(f"{name}.json", doc)
    norm = oracle.normalize(doc)
    psi = gen.depth_one(rng)
    box = oracle.extension(norm, ("box", psi))
    unit = gen.render(("dia", psi))[2:]

    def task(c: Client) -> None:
        c.request(["dual", path], check=_model_is(oracle.dual(norm)), save=f"{name}.dual.json")
        dualled = str(c.workdir / f"{name}.dual.json")
        c.request(["dual", dualled], check=_model_is(norm))  # the dual is an involution
        # [] on a portfolio is <> on its dual (for measure formulas that
        # only test masses of T).
        for path_, text in ((path, "[]" + unit), (dualled, "<>" + unit)):

            def check(code, p):
                expect(set(p["states"]) == box, "modal duality violated")

            c.request(["eval", path_, "--formula", text], check=check)

    return task


def _kernel_task(c: Client, name: str, planted: gen.Planted):
    path = c.write(f"{name}.json", planted.doc)
    norm = oracle.normalize(planted.doc)
    demonized = oracle.demonize(norm, "a")

    def task(c: Client) -> None:
        c.request(["demonize", path], check=_model_is(demonized))
        c.request(
            ["angelize", path], check=_model_is(oracle.angelize(norm, "a")), save=f"{name}.ang.json"
        )
        # dual . angelize = demonize
        c.request(["dual", str(c.workdir / f"{name}.ang.json")], check=_model_is(demonized))

    return task


def _sum_task(c: Client, name: str, a: dict, b: dict):
    pa, pb = c.write(f"{name}.a.json", a), c.write(f"{name}.b.json", b)
    expected = oracle.tagged_sum(oracle.normalize(a), oracle.normalize(b))

    def task(c: Client) -> None:
        c.request(["sum", pa, pb], check=_model_is(expected))

    return task


def _quotient_task(c: Client, rng: random.Random, name: str, planted: gen.Planted, span: bool):
    path = c.write(f"{name}.json", planted.doc)
    part = c.write(f"{name}.part.json", planted.classes)
    expected = oracle.normalize(planted.quotient_doc())
    merged = _merge_two(rng, planted.classes)
    bad = c.write(f"{name}.bad.json", merged)
    eta = c.write(f"{name}.eta.json", planted.class_map(planted.least_names()))

    def refused(code, p):
        s, t = p["witness"]
        expect(p["reason"] == "not_a_congruence", "wrong refusal reason")
        expect(
            planted.class_of[s] != planted.class_of[t] and {s, t} <= set(merged[-1]),
            "witness pair does not show the failure",
        )

    def task(c: Client) -> None:
        c.request(
            ["quotient", path, "--partition", part],
            check=_model_is(expected),
            save=f"{name}.q.json",
        )
        c.request(["quotient", path, "--partition", bad], code=1, check=refused)
        if span:
            # A congruence quotient is the mediator of a cospan of the model
            # with itself.
            q = str(c.workdir / f"{name}.q.json")
            c.request(["span", path, path, q, "--f", eta, "--g", eta], check=_span_check(planted))

    return task


def _strong_task(c: Client, rng: random.Random, name: str, doc: dict):
    path = c.write(f"{name}.json", doc)
    copy, table = gen.renamed_copy(rng, doc)
    twin = c.write(f"{name}.twin.json", copy)
    broken = c.write(f"{name}.broken.json", gen.perturbed(rng, copy))
    ren = c.write(f"{name}.ren.json", table)

    def task(c: Client) -> None:
        c.request(["morphism", path, twin, "--map", ren, "--strong"], check=_holds(True))
        c.request(["morphism", path, broken, "--map", ren, "--strong"], code=1, check=_holds(False))

    return task


def portfolio(c: Client, seed: int) -> list:
    rng = random.Random(seed)
    tasks = []
    # Two 4x3 instances put the 90th percentile inside a run of requests of
    # one cost, where the seed cannot move it.
    for i, (k, m) in enumerate(((4, 3), (4, 3), (5, 2), (6, 2), (7, 2), (3, 3), (4, 2))):
        tasks.append(_dual_task(c, rng, f"disjoint{i}", gen.disjoint_portfolio(rng, k, m)))
    for i in range(8):
        doc = gen.overlapping_portfolio(rng, 6, pool=6, generators=4, width=2)
        tasks.append(_dual_task(c, rng, f"overlap{i}", doc))
    for i in range(6):
        tasks.append(_kernel_task(c, f"kernel{i}", gen.planted_nlmp(rng, 8, measures=3)))
    for i in range(3):
        a, b = gen.planted_ef(rng, 6, generators=3), gen.planted_ef(rng, 5, generators=3)
        tasks.append(_sum_task(c, f"sum-e{i}", a.doc, b.doc))
        a, b = gen.planted_nlmp(rng, 6, labels=2), gen.planted_nlmp(rng, 5, labels=2)
        tasks.append(_sum_task(c, f"sum-n{i}", a.doc, b.doc))
        wide = gen.planted_ef(rng, 8, generators=3)
        tasks.append(_quotient_task(c, rng, f"quot{i}", wide, span=False))
        fs = gen.planted_ef(rng, 6, generators=1, width=3)
        tasks.append(_quotient_task(c, rng, f"quot-fs{i}", fs, span=True))
        doc = gen.overlapping_portfolio(rng, 6, pool=6, generators=4, width=2)
        tasks.append(_strong_task(c, rng, f"strong{i}", doc))
    order = rng.sample(range(len(tasks)), len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _validate_task(c: Client, name: str, doc: dict):
    path = c.write(f"{name}.json", doc)
    atoms = len(doc.get("sigma") or doc["states"])

    def check(code, p):
        expect(
            (p["valid"], p["kind"], p["states"], p["atoms"])
            == (True, doc["kind"], len(doc["states"]), atoms),
            "wrong validation summary",
        )

    def task(c: Client) -> None:
        c.request(["validate", path], check=check)

    return task


def _eval_task(c: Client, rng: random.Random, path: str, norm: tuple, depth: int):
    f = gen.formula(rng, depth)
    text = gen.render(f)
    ext = oracle.extension(norm, f)
    state = rng.choice(norm[1])

    def check(code, p):
        expect(set(p["states"]) == ext, "wrong extension")
        expect(p["query"]["satisfied"] is (state in ext), "wrong --state answer")

    def task(c: Client) -> None:
        argv = ["eval", path, "--formula", text, "--state", state]
        c.request(argv, code=0 if state in ext else 1, check=check)

    return task


def _query_model_tasks(c: Client, rng: random.Random, name: str, planted: gen.Planted) -> list:
    path = c.write(f"{name}.json", planted.doc)
    norm = oracle.normalize(planted.doc)
    tasks = [_validate_task(c, f"{name}.v", planted.doc)]
    tasks += [_eval_task(c, rng, path, norm, depth=2) for _ in range(4)]
    same, diff = _pairs(rng, planted)

    def equivalent(code, p):
        expect(p["equivalent"], "clones told apart")

    def task(c: Client) -> None:
        c.request(["distinguish", path, *same], check=equivalent)
        _witness(c, path, *diff, [])

    tasks.append(task)
    part = c.write(f"{name}.part.json", planted.classes)
    bad = c.write(f"{name}.merged.json", _merge_two(rng, planted.classes))
    command = "event-bisim" if planted.doc["kind"] == "nlmp" else "subsystem"

    def partitions(c: Client) -> None:
        c.request([command, path, "--partition", part], check=_holds(True))
        c.request([command, path, "--partition", bad], code=1, check=_holds(False))

    tasks.append(partitions)
    return tasks


def _morphism_tasks(c: Client, rng: random.Random, name: str, planted: gen.Planted) -> list:
    path = c.write(f"{name}.json", planted.doc)
    classes = c.write(f"{name}.classes.json", planted.class_doc)
    broken = c.write(f"{name}.broken.json", gen.perturbed(rng, planted.class_doc))
    eta = c.write(f"{name}.eta.json", planted.class_map())

    def morphism(c: Client) -> None:
        c.request(["morphism", path, classes, "--map", eta], check=_holds(True))
        c.request(["morphism", path, broken, "--map", eta], code=1, check=_holds(False))

    return [morphism]


def _nk_morphism_task(c: Client, rng: random.Random, name: str, doc: dict):
    path = c.write(f"{name}.json", doc)
    copy, table = gen.renamed_copy(rng, doc)
    twin, ren = c.write(f"{name}.twin.json", copy), c.write(f"{name}.ren.json", table)

    def task(c: Client) -> None:
        c.request(["morphism", path, twin, "--map", ren], check=_holds(True))

    return task


def _span_tasks(c: Client, rng: random.Random, name: str, planted: gen.Planted) -> list:
    """A valid cospan of two finitely supported models onto their class-level
    model, and one whose mediator has a state no leg reaches."""
    copy, table = gen.renamed_copy(rng, planted.doc)
    twin = gen.Planted(copy, planted.classes, planted.class_doc)
    twin.class_of = {table["map"][s]: i for s, i in planted.class_of.items()}
    p, q = c.write(f"{name}.p.json", planted.doc), c.write(f"{name}.q.json", copy)
    m = c.write(f"{name}.m.json", planted.class_doc)
    f = c.write(f"{name}.f.json", planted.class_map())
    g = c.write(f"{name}.g.json", twin.class_map())
    wider = dict(planted.class_doc)
    wider["states"] = wider["states"] + ["cx"]
    wider["effectivity"] = {**wider["effectivity"], "cx": [[{}]]}
    m2 = c.write(f"{name}.m2.json", wider)

    def refused(code, p):
        expect(p["valid"] is False, "span accepted a non-surjective cospan")
        expect(any(x["check"] == "not_surjective" for x in p["failures"]), "wrong failure")

    def task(c: Client) -> None:
        c.request(["span", p, q, m, "--f", f, "--g", g], check=_span_check(planted, twin))
        c.request(["span", p, q, m2, "--f", f, "--g", g], code=1, check=refused)

    return [task]


def _malformed_tasks(c: Client, planted: gen.Planted) -> list:
    """Inputs the CLI must refuse with exit 2 and a structured diagnostic."""
    path = c.write("mal.model.json", planted.doc)
    bad_rational = json.loads(json.dumps(planted.doc))
    state = next(iter(bad_rational["effectivity"]))
    bad_rational["effectivity"][state] = [[{state: "0.5"}]]
    p_rat = c.write("mal.rational.json", bad_rational)

    def rational(c: Client) -> None:
        c.request(["validate", p_rat], code=2)

    def unknown(c: Client) -> None:
        c.request(["eval", path, "--formula", "T", "--state", "nosuch"], code=2)

    return [rational, unknown]


def defect_probes(c: Client, seed: int) -> dict[str, Callable]:
    """A task in the shape of each known defect of ROADMAP item 4, by the
    defect's name.  They are sent once per run, apart from the workload, so
    that a run reports whether each defect still shows without counting it
    as a failed request of the workload."""
    rng = random.Random(seed)
    planted = gen.planted_ef(rng, 6)
    path = c.write("defect.model.json", planted.doc)
    p_coarse = c.write("defect.coarse.json", gen.defect_coarse(rng, 4))
    deep_tree, deep_text = gen.nested_diamonds(400)
    deep_ext = oracle.extension(oracle.normalize(planted.doc), deep_tree)
    who = rng.choice(planted.states)

    def deep_answer(code, p):
        # Once nesting this deep is supported, the answer must be right.
        if code != 2:
            expect(set(p["states"]) == deep_ext, "wrong extension of the nested formula")

    def coarse(c: Client) -> None:
        c.request(["validate", p_coarse], code=2)

    def deep(c: Client) -> None:
        argv = ["eval", path, "--formula", deep_text, "--state", who]
        c.request(argv, code=(0, 1, 2), check=deep_answer)

    return {
        "4a (a coarse atom whose states have different dynamics is accepted)": coarse,
        "4b (400 nested modalities overflow the recursion limit)": deep,
    }


def query(c: Client, seed: int) -> list:
    rng = random.Random(seed)
    tasks: list = []
    for i in range(4):
        tasks += _query_model_tasks(c, rng, f"qe{i}", gen.planted_ef(rng, 6))
        tasks += _query_model_tasks(c, rng, f"qn{i}", gen.planted_nlmp(rng, 6))
        tasks += _morphism_tasks(c, rng, f"qm{i}", gen.planted_ef(rng, 6))
        tasks.append(_nk_morphism_task(c, rng, f"qk{i}", gen.planted_nlmp(rng, 6, labels=2).doc))
        tasks += _span_tasks(c, rng, f"qs{i}", gen.planted_ef(rng, 5, generators=1))
        tasks.append(_validate_task(c, f"qc{i}", gen.planted_nlmp(rng, 6, atom_sizes=(1, 2)).doc))
    tasks += _malformed_tasks(c, gen.planted_ef(rng, 6))
    order = rng.sample(range(len(tasks)), len(tasks))
    return [tasks[i] for i in order]


WORKLOADS = {"refine": refine, "portfolio": portfolio, "query": query}
