"""Record the effkit command's answers to one pass of the benchmark's
requests, then replay them on other checkouts to show that exit codes,
stdout and stderr stay byte-identical.

Usage, from the root of a checkout:

    python3 tools/replay.py record DIR
    python3 tools/replay.py compare DIR CHECKOUT [CHECKOUT ...]

``record`` runs one pass of each workload of ``perfbench/workloads.py``
(refine, portfolio, query) at each of the seeds 1, 2, 5 and 7, and the
workloads' known-defect probes at each seed, in process through this
checkout's ``effkit.cli.run``.  Then it sends a fixed deep set, where
refinement runs up to 60 rounds (the workloads never run more than 14):
``bisim``, ``bisim --pairs``, ``lequiv``, ``distinguish`` and ``eval
--state`` of its witness on both states, for one pair on each of the NLMP
and ef 2-clone 1/2-chains at n = 60, the ring at n = 60 and the harder
ring at n = 50; ``event-bisim`` and ``subsystem`` (per label) on a
two-label ring at n = 60, under the partition by parity, which label a
splits and label b does not, and under its greatest bisimulation, and
``subsystem`` on the ef chain under its levels with two levels merged;
``span`` on a one-block cospan at n = 30 (900 pairs over one mediator
state) and on a cospan whose mediator has a two-state atom; and on that
coarse cospan's models, as ef models and read as NLMPs, ``morphism
--strong`` (ef) and ``morphism`` (NLMP) along both legs and along the
mediator's identity, and ``subsystem`` and ``event-bisim`` on its coarse
right side under a partition that splits its two-state atom (exit 2) and
under one that merges atoms.  It saves
under DIR, which must be new or empty, every input file as each request
read it (``files/``, by content hash) and, per request, its argv, exit
code, stdout and stderr (``requests.json``).

``compare`` replays the recording on each CHECKOUT in a subprocess of its
own that imports that checkout's ``src/effkit``.  The requests are sent in
the recorded order with the same argv, and each request's input files are
first restored to the bytes it read when recorded.  The argv name those
files by their absolute paths under DIR, and diagnostics print these paths,
so a replay must use the recorded files.  It reports, per checkout, how
many requests of each subcommand have an exit code, stdout or stderr that
differs from the recording, and the first such request of each subcommand.
Exit status: 0 when every checkout matches on every request, 1 otherwise.

``perfbench/`` is imported read-only; no bytecode is written there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 5, 7)
WORKLOADS = ("refine", "portfolio", "query")


def _ring(n: int) -> dict:
    """The ring: state i with one measure, 1/4 on the next state and 1/4,
    or 1/8 unless 3 divides i, on the seventh next."""
    states = [f"s{i}" for i in range(n)]
    kernel = {
        s: [{states[(i + 1) % n]: "1/4", states[(i + 7) % n]: "1/8" if i % 3 else "1/4"}]
        for i, s in enumerate(states)
    }
    return {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}


def _harder_ring(n: int) -> dict:
    """The harder ring: state i with one measure, (1 + i mod 3)/4 on the
    next state."""
    states = [f"s{i}" for i in range(n)]
    kernel = {s: [{states[(i + 1) % n]: f"{1 + i % 3}/4"}] for i, s in enumerate(states)}
    return {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}


def _two_label_ring(n: int) -> dict:
    """The ring under label a; under label b, state i puts 1/2 on state
    i + 2, so b splits no block of states of one parity, while a splits
    both (n even)."""
    doc = _ring(n)
    states = doc["states"]
    doc["labels"] = ["a", "b"]
    doc["kernels"]["b"] = {s: [{states[(i + 2) % n]: "1/2"}] for i, s in enumerate(states)}
    return doc


def _one_block_cospan(n: int) -> dict:
    """A cospan's files as documents: an n-state portfolio whose states
    each hold one measure of mass 1/2 on a random state, twice, over the one
    state of its quotient by its greatest bisimulation."""
    rng = random.Random(n)
    states = [f"s{i}" for i in range(n)]
    p = {s: [[{states[rng.randrange(n)]: "1/2"}]] for s in states}
    leg = {"map": {s: "m" for s in states}}
    return {
        "p": {"kind": "ef", "states": states, "effectivity": p},
        "m": {"kind": "ef", "states": ["m"], "effectivity": {"m": [[{"m": "1/2"}]]}},
        "f": leg,
        "g": leg,
    }


def _coarse_cospan() -> dict:
    """A cospan's files as documents: the mediator has the atom {u0, u1};
    the left side is discrete, the right side has the atom {t0, t1} over
    it."""
    return {
        "p": {
            "kind": "ef",
            "states": ["p0", "p1", "p2", "p3", "p4"],
            "effectivity": {
                "p0": [[{"p3": "1/2"}]],
                "p1": [[{"p3": "1/4", "p4": "1/4"}]],
                "p2": [[{"p4": "1/2"}]],
                "p3": [[{"p0": "1/3", "p4": "1/3"}]],
                "p4": [[{"p1": "1/6", "p2": "1/6", "p3": "1/3"}]],
            },
        },
        "q": {
            "kind": "ef",
            "states": ["t0", "t1", "t2", "t3"],
            "sigma": [["t0", "t1"], ["t2"], ["t3"]],
            "effectivity": {
                "t0": [[{"t2": "1/2"}]],
                "t1": [[{"t2": "1/2"}]],
                "t2": [[{"t0": "1/3", "t3": "1/3"}]],
                "t3": [[{"t1": "1/3", "t2": "1/6", "t3": "1/6"}]],
            },
        },
        "m": {
            "kind": "ef",
            "states": ["u0", "u1", "v"],
            "sigma": [["u0", "u1"], ["v"]],
            "effectivity": {
                "u0": [[{"v": "1/2"}]],
                "u1": [[{"v": "1/2"}]],
                "v": [[{"u0": "1/3", "v": "1/3"}]],
            },
        },
        "f": {"map": {"p0": "u0", "p1": "u1", "p2": "u1", "p3": "v", "p4": "v"}},
        "g": {"map": {"t0": "u0", "t1": "u1", "t2": "v", "t3": "v"}},
    }


def _as_nlmp(doc: dict) -> dict:
    """An ef document whose states each hold one generator, read as a
    one-label NLMP with that generator's measures."""
    kernel = {s: gens[0] for s, gens in doc["effectivity"].items()}
    nlmp = {k: v for k, v in doc.items() if k != "effectivity"}
    return {**nlmp, "kind": "nlmp", "labels": ["a"], "kernels": {"a": kernel}}


def _deep_set(workdir: Path, send) -> None:
    """The deep set's requests through ``send(argv)``, which returns the
    answer.  Each model is asked about its first state and one more: on the
    chains a state of the second level, which parts from the first in the
    next-to-last round; on the rings the fourth state.  Then the one-round
    tests, whose partitions are read off the ``bisim`` answers, ``span``
    on each cospan, the one-block one with its left side as both sides,
    and the requests on the coarse cospan's models."""
    import gen

    workdir.mkdir(parents=True)
    models = {  # name: (model, index of the second state of the pair)
        "chain-n": (gen.chain(random.Random(1), 60, 2, "nlmp").doc, 2),
        "chain-e": (gen.chain(random.Random(1), 60, 2, "ef").doc, 2),
        "ring": (_ring(60), 3),
        "harder-ring": (_harder_ring(50), 3),
    }
    partitions = {}  # name: the partition of its bisim answer
    for name, (doc, other) in models.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = str(path)
        s, t = doc["states"][0], doc["states"][other]
        partitions[name] = json.loads(send(["bisim", model])["out"])["partition"]
        send(["bisim", model, "--pairs", f"{s},{t}"])
        send(["lequiv", model])
        answer = send(["distinguish", model, s, t])
        formula = json.loads(answer["out"]).get("formula") if answer["code"] == 1 else None
        if formula is not None:
            for state in (s, t):
                send(["eval", model, "--formula", formula, "--state", state])
    ring = workdir / "two-label-ring.json"
    doc = _two_label_ring(60)
    ring.write_text(json.dumps(doc), encoding="utf-8")
    greatest = json.loads(send(["bisim", str(ring)])["out"])["partition"]
    levels = partitions["chain-e"]
    merged = [*levels[:29], levels[29] + levels[30], *levels[31:]]
    parity = [doc["states"][r::2] for r in (0, 1)]
    for name, blocks in (("parity", parity), ("greatest", greatest), ("merged", merged)):
        path = workdir / f"{name}.partition.json"
        path.write_text(json.dumps(blocks), encoding="utf-8")
        if name == "merged":
            send(["subsystem", str(workdir / "chain-e.json"), "--partition", str(path)])
            continue
        send(["event-bisim", str(ring), "--partition", str(path)])
        for label in "ab":
            send(["subsystem", str(ring), "--label", label, "--partition", str(path)])
    for name, docs in (("one-block", _one_block_cospan(30)), ("coarse", _coarse_cospan())):
        paths = {}
        for part, doc in docs.items():
            paths[part] = workdir / f"{name}.{part}.json"
            paths[part].write_text(json.dumps(doc), encoding="utf-8")
        p, q, m, f, g = (str(paths.get(part, paths["p"])) for part in "pqmfg")
        send(["span", p, q, m, "--f", f, "--g", g])
    ef = {part: str(workdir / f"coarse.{part}.json") for part in "pqmfg"}
    nlmp = {}
    for part in "pqm":
        doc = json.loads(Path(ef[part]).read_text(encoding="utf-8"))
        nlmp[part] = str(workdir / f"coarse.{part}.nlmp.json")
        Path(nlmp[part]).write_text(json.dumps(_as_nlmp(doc)), encoding="utf-8")
    ef["id"] = str(workdir / "coarse.id.json")
    Path(ef["id"]).write_text(json.dumps({"map": {s: s for s in ("u0", "u1", "v")}}), "utf-8")
    for side, leg in (("p", "f"), ("q", "g"), ("m", "id")):
        send(["morphism", ef[side], ef["m"], "--map", ef[leg], "--strong"])
        send(["morphism", nlmp[side], nlmp["m"], "--map", ef[leg]])
    splits, merges = [["t0"], ["t1", "t2"], ["t3"]], [["t0", "t1"], ["t2", "t3"]]
    for name, blocks in (("splits", splits), ("merges", merges)):
        path = workdir / f"coarse.{name}.partition.json"
        path.write_text(json.dumps(blocks), encoding="utf-8")
        send(["subsystem", ef["q"], "--partition", str(path)])
        send(["event-bisim", nlmp["q"], "--partition", str(path)])


def _import_cli(checkout: Path):
    """``effkit.cli`` from ``checkout/src``, refused if another copy loads."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    from effkit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"effkit was imported from {cli.__file__}, not from {src}")
    return cli


def _send(run, argv: list[str]) -> dict:
    """One request through ``run``: its exit code, stdout and stderr, or the
    exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run(argv, out, err)
    except Exception as exc:  # an answer to compare like any other
        code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def _around(recorded: str, replayed: str) -> tuple[str, str]:
    """Both texts, from 60 characters before their first difference to 60
    after it."""
    pairs = enumerate(zip(recorded, replayed))
    at = next((i for i, (x, y) in pairs if x != y), min(len(recorded), len(replayed)))
    start = max(at - 60, 0)
    return recorded[start : at + 60], replayed[start : at + 60]


def record(directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        print(f"error: {directory} is not empty", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cli = _import_cli(ROOT)
    blobs = directory / "files"
    blobs.mkdir()
    requests: list[dict] = []
    read: dict[str, str] = {}  # input path -> hash of the bytes it held when last read

    def recorder(argv: list[str], out, err) -> int:
        files = {}
        for arg in argv:
            path = Path(arg)
            if arg.startswith(str(directory)) and path.is_file():
                data = path.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if read.get(arg) != digest:
                    (blobs / digest).write_bytes(data)
                    read[arg] = files[arg] = digest
        answer = _send(cli.run, argv)
        requests.append({"argv": argv, "files": files, **answer})
        out.write(answer["out"])
        err.write(answer["err"])
        if not isinstance(answer["code"], int):
            raise RuntimeError(answer["code"])
        return answer["code"]

    failed = 0
    for seed in SEEDS:
        for name in WORKLOADS:
            workdir = directory / "work" / f"{name}-{seed}"
            workdir.mkdir(parents=True)
            client = workloads.Client(recorder, workdir)
            sent = len(requests)
            tasks = workloads.WORKLOADS[name](client, seed)
            if name == "query":
                tasks += workloads.defect_probes(client, seed).values()
            for index, task in enumerate(tasks):
                client.start(index)
                try:
                    task(client)
                except workloads.TaskAborted:
                    pass
            failed += sum(client.failures.values())
            print(f"{name} seed {seed}: {len(requests) - sent} requests")
    sent = len(requests)

    def send(argv: list[str]) -> dict:
        recorder(argv, io.StringIO(), io.StringIO())
        return requests[-1]

    _deep_set(directory / "work" / "deep", send)
    print(f"deep set: {len(requests) - sent} requests")
    (directory / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
    print(f"recorded {len(requests)} requests under {directory}; {failed} failed their checks")
    return 0


def _difference(number: int, req: dict, got: dict) -> list[str]:
    """The lines reporting how request ``number``'s replayed answer ``got``
    differs from its recording ``req``; none when it does not."""
    lines = []
    for key in ("code", "out", "err"):
        recorded, replayed = req[key], got[key]
        if recorded != replayed:
            lines.append(f"request {number} differs in {key}: {' '.join(req['argv'])}")
            if isinstance(recorded, str) and isinstance(replayed, str):
                recorded, replayed = _around(recorded, replayed)
            lines.append(f"  recorded: {recorded!r}")
            lines.append(f"  replayed: {replayed!r}")
    return lines


def replay(directory: Path, checkout: Path) -> int:
    """Replay the recording on ``checkout`` in this process; print, per
    subcommand, the number of differing requests and the first difference,
    or the number of identical requests."""
    cli = _import_cli(checkout)
    requests = json.loads((directory / "requests.json").read_text(encoding="utf-8"))
    differing: dict[str, int] = {}  # per subcommand, in order of first difference
    first: dict[str, list[str]] = {}
    for number, req in enumerate(requests):
        for path, digest in req["files"].items():
            Path(path).write_bytes((directory / "files" / digest).read_bytes())
        lines = _difference(number, req, _send(cli.run, req["argv"]))
        if lines:
            name = req["argv"][0]
            differing[name] = differing.get(name, 0) + 1
            first.setdefault(name, lines)
    if not differing:
        print(f"all {len(requests)} requests identical")
        return 0
    print(f"{sum(differing.values())} of {len(requests)} requests differ")
    for name, count in differing.items():
        print(f"{name}: {count} differ; the first:")
        print("\n".join(first[name]))
    return 1


def compare(directory: Path, checkouts: list[Path]) -> int:
    status = 0
    for checkout in checkouts:
        argv = [sys.executable, __file__, "replay", str(directory), str(checkout)]
        done = subprocess.run(argv, capture_output=True, text=True)
        print(f"{checkout}: {(done.stdout + done.stderr).strip()}")
        status = max(status, min(done.returncode, 1))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="record the effkit command's answers to the benchmark's requests and replay them"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record", help="record one pass of every workload").add_argument("dir")
    p = sub.add_parser("compare", help="replay a recording on each checkout")
    p.add_argument("dir")
    p.add_argument("checkouts", nargs="+")
    p = sub.add_parser("replay", help="replay a recording in this process (used by compare)")
    p.add_argument("dir")
    p.add_argument("checkout")
    args = parser.parse_args(argv)
    directory = Path(args.dir).resolve()
    if args.command == "record":
        return record(directory)
    if args.command == "compare":
        return compare(directory, [Path(c).resolve() for c in args.checkouts])
    return replay(directory, Path(args.checkout).resolve())


if __name__ == "__main__":
    sys.exit(main())
