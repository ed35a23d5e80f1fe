"""Tests of the benchmark itself: seeded inputs, answer checks, counters.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from effkit import cli  # noqa: E402


def _files(directory: Path, workload: str, seed: int) -> dict[str, bytes]:
    directory.mkdir()
    workloads.WORKLOADS[workload](workloads.Client(None, directory), seed)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    first = _files(tmp_path / "a", workload, 7)
    assert first == _files(tmp_path / "b", workload, 7)
    assert first != _files(tmp_path / "c", workload, 8)


def test_generators_do_not_import_effkit():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen, oracle, workloads; "
        "sys.exit(any(m.split('.')[0] == 'effkit' for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-I", "-c", code]).returncode == 0


# ---------------------------------------------------------------------------
# Every answer check catches a wrong answer
# ---------------------------------------------------------------------------


def _wrong(code: int, out: str, err: str) -> tuple[int, str, str]:
    """A plausible but wrong answer in place of a correct one."""
    if code == 2:
        return 0, "{}\n", ""
    p = json.loads(out)
    if "query" in p:
        key = "bisimilar" if "bisimilar" in p["query"] else "satisfied"
        p["query"][key] = not p["query"][key]
        code = 1 - code
    elif "partition" in p:
        blocks = p["partition"]
        if len(blocks) > 1:
            blocks.append(blocks.pop(0) + blocks.pop(0))
        else:
            blocks[:] = [blocks[0][:1], blocks[0][1:]]
    elif "holds" in p:
        p["holds"] = not p["holds"]
        code = 1 - code
    elif "equivalent" in p:
        p, code = ({"equivalent": True}, 0) if code else ({"equivalent": False, "formula": "T"}, 1)
    elif "w" in p:
        p["w"]["states"].pop()
    elif "valid" in p and "kind" in p:
        p["states"] += 1
    elif "valid" in p:
        p, code = {"valid": True, "w": {"states": [], "sigma": []}}, 0
    elif "effectivity" in p:
        table = p["effectivity"]
        state = next((s for s in p["states"] if table[s]), None)
        if state is None:
            table[p["states"][0]] = [[]]
        else:
            table[state].pop()
    elif "kernels" in p:
        table = next(iter(p["kernels"].values()))
        state = next((s for s in p["states"] if table[s]), p["states"][0])
        table[state] = table[state][1:] if table[state] else [{}]
    else:
        p["states"] = p["states"][1:] if p["states"] else ["nosuch"]
    return code, json.dumps(p), ""


def _record(client: workloads.Client, task) -> list:
    """Run a task for real, logging every request's outcome."""
    log: list = []

    def run(argv, out, err):
        o, e = io.StringIO(), io.StringIO()
        try:
            code = cli.run(argv, o, e)
        except Exception as exc:
            log.append(exc)
            raise
        log.append((code, o.getvalue(), e.getvalue()))
        out.write(o.getvalue())
        err.write(e.getvalue())
        return code

    client.run = run
    try:
        task(client)
    except workloads.TaskAborted:
        pass
    return log


def _replay(client: workloads.Client, task, log: list, at: int) -> int:
    """Replay a logged task with a wrong answer at request ``at``; return
    how many requests it sent before giving up."""
    sent = []

    def run(argv, out, err):
        sent.append(argv)
        code, o, e = log[len(sent) - 1]
        if len(sent) - 1 == at:
            code, o, e = _wrong(code, o, e)
        out.write(o)
        err.write(e)
        return code

    client.run = run
    with pytest.raises(workloads.TaskAborted):
        task(client)
    return len(sent)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_check_catches_a_wrong_answer(tmp_path, workload):
    client = workloads.Client(None, tmp_path)
    replayer = workloads.Client(None, tmp_path)
    tasks = workloads.WORKLOADS[workload](client, 3)
    checked = 0
    for task in tasks:
        log = _record(client, task)
        for at in range(len(log)):
            assert _replay(replayer, task, log, at) == at + 1
            checked += 1
    assert checked > len(tasks)
    assert not client.failures


def test_defect_probes_name_each_defect(tmp_path):
    client = workloads.Client(lambda a, o, e: cli.run(a, o, e), tmp_path)
    lines = bench.probe_defects(client, 3)
    assert [line.split()[1] for line in lines] == ["4a", "4b"]
    assert not client.failures and not client.latencies


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def _traced_counters(tmp_path: Path, workload: str) -> dict:
    client = workloads.Client(lambda a, o, e: cli.run(a, o, e), tmp_path)
    tasks = workloads.WORKLOADS[workload](client, 5)
    tracer = spans.Tracer()
    tracer.install()
    client.tracer = tracer
    try:
        bench.run_passes(client, tasks, 0, float("inf"))
    finally:
        tracer.uninstall()
    return tracer.counters()


@pytest.mark.parametrize("workload", ["portfolio", "query"])
def test_two_traced_runs_count_the_same(tmp_path, workload):
    original = cli.run
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _traced_counters(tmp_path / "a", workload)
    assert first == _traced_counters(tmp_path / "b", workload)
    assert first["upperset.measureset_new"] > 0
    assert cli.run is original


def test_results_name_the_metrics_of_benchmark_json(capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "query", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert bench.main(argv) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared[key]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1"]
    done = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode != 0
    assert done.stdout == ""
