"""effkit benchmark: CLI request latency and throughput, with a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refine|portfolio|query \\
        --seed N --seconds S --trace 0|1

One closed-loop client (one process, one thread) sends the workload's
requests to ``effkit.cli.run(argv, out, err)`` in process, the same path as
the ``effkit`` command, and sends the next request only after the previous
one has returned and its answer has been checked.  Requests are timed around
``cli.run``; the checks between them are not.  The run goes over the
workload's request list in whole passes until ``--seconds`` have gone by.
The interpreter's cold start is measured apart, between passes, as
``setup_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs two
untraced passes, then traced passes, and prints the per-layer metrics (see
spans.py).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REFERENCE_S, Calibration  # noqa: E402

# Wall-clock limit of one run, set-up included: no new request starts later.
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 9
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s")

# Inclusive times of functions that some workload never calls (dual on
# query, the fixed points on portfolio and query, distinguish on portfolio).
# They are printed, but kept out of the JSON result: a time that is zero on
# every run of a workload would read as a constant.  Their call counts and
# the owning modules' self times are in the result.
PRINT_ONLY = (
    "upperset.dual_s",
    "nlmp.greatest_bisim_s",
    "effectivity.greatest_ef_bisim_s",
    "logic.lequiv_s",
    "logic.distinguish_s",
)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


class ColdStarts:
    """Cold starts of a fresh interpreter that runs until effkit.cli is
    imported.  Samples are taken between passes, so that they spread over
    the run like the requests do; one unmeasured start first compiles the
    bytecode caches."""

    def __init__(self):
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import effkit.cli"
        self.argv = [sys.executable, "-I", "-c", code]
        self.times: list[tuple[float, float]] = []  # (moment, seconds)
        subprocess.run(self.argv, cwd=ROOT, check=True)
        self.last = time.perf_counter()

    def sample(self, count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(self.argv, cwd=ROOT, check=True)
            self.last = time.perf_counter()
            self.times.append((start, self.last - start))


def run_passes(
    client: workloads.Client,
    tasks: list,
    seconds: float,
    limit: float,
    between=None,
    calibration: Calibration | None = None,
) -> int:
    """Whole passes over ``tasks`` until ``seconds`` have gone by (at least
    one), calling ``between`` after each and ticking ``calibration`` before
    each task; no task starts after the wall-clock ``limit``.  Returns the
    number of completed passes."""
    start = time.perf_counter()
    passes = 0
    while True:
        for index, task in enumerate(tasks):
            if time.perf_counter() > limit:
                return passes
            if calibration is not None:
                calibration.tick()
            client.start(index)
            try:
                task(client)
            except workloads.TaskAborted:
                pass
        passes += 1
        if between is not None:
            between()
        if time.perf_counter() - start >= seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = time.perf_counter() + HARD_LIMIT_S

    if not (SRC / "effkit" / "cli.py").is_file():
        print(f"error: no effkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from effkit import cli

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        client = workloads.Client(lambda a, o, e: cli.run(a, o, e), workdir)
        tasks = workloads.WORKLOADS[args.workload](client, args.seed)
        client.deadline = limit
        measure = traced_run if args.trace else timed_run
        passes, metrics, notes = measure(client, tasks, args.seconds, limit)
        defects = probe_defects(client, args.seed) if args.workload == "query" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(times) for times in client.latencies.values())
    failed = sum(client.failures.values())
    print(f"effkit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g}")
    print(
        f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  commit {_commit()}  "
        "client: closed loop, 1 process, 1 thread, in-process cli.run"
    )
    print(
        f"{attempted} requests: {len(client.latencies)} distinct, {passes} "
        f"{'traced ' if args.trace else ''}passes of {len(tasks)} tasks; {failed} failed"
    )
    for name, count in sorted(client.failures.items()):
        print(f"  failed x{count}: {name}")
    if defects is not None:
        print("known defects, probed once apart from the workload and not counted in it:")
        for name in defects:
            print(f"  {name}")
    if not args.trace:
        metrics = {name: metrics[name] for name in END_TO_END}
        print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} requests)")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


def probe_defects(client: workloads.Client, seed: int) -> list[str]:
    """Send the known-defect probes (workloads.defect_probes) once, untimed,
    and return a line for each: the failure it still shows, or that it
    passes."""
    probes = workloads.Client(client.run, client.workdir)
    probes.deadline = time.perf_counter() + 10
    lines = []
    for index, (defect, task) in enumerate(workloads.defect_probes(probes, seed).items()):
        probes.start(index)
        try:
            task(probes)
            lines.append(f"defect {defect}: fixed, its probe passes")
        except workloads.TaskAborted as failure:
            lines.append(f"defect {defect}: still fails, {failure}")
    return lines


def timed_run(client: workloads.Client, tasks: list, seconds: float, limit: float):
    """Passes until ``seconds`` have gone by, with cold starts and
    calibrations in between; returns the passes, the end-to-end metrics
    and lines to print."""
    calibration = Calibration(every=0.5)
    cold = ColdStarts()
    calibration.tick(force=True)
    cold.sample(SETUP_SAMPLES // 3)
    spacing = seconds / SETUP_SAMPLES

    def between() -> None:
        if time.perf_counter() - cold.last >= spacing:
            calibration.tick()
            cold.sample(1)

    passes = run_passes(client, tasks, seconds, limit, between, calibration)
    cold.sample(max(0, SETUP_SAMPLES - len(cold.times)))
    calibration.tick(force=True)

    # Timings are scaled to the reference speed (speed.py); a request's
    # latency is the median over the passes that sent it.
    latency = [
        statistics.median(took * calibration.scale(moment) for moment, took in times)
        for times in client.latencies.values()
    ]
    setup = [took * calibration.scale(moment) for moment, took in cold.times]
    metrics = {
        "ops_per_s": (len(latency) / sum(latency), "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latency, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = [took for times in client.latencies.values() for _, took in times]
    notes = [
        f"latency samples {len(latency)}, each the median of up to {passes} passes",
        f"unscaled, all {len(raw)} samples: p50 {statistics.median(raw) * 1e3:.6g} ms, "
        f"p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.6g} ms",
        f"setup samples {len(setup)}",
        f"calibration: {len(calibration.took)} runs of {min(calibration.took) * 1e3:.4g} to "
        f"{max(calibration.took) * 1e3:.4g} ms, timings scaled to {REFERENCE_S * 1e3:g} ms",
    ]
    return passes, metrics, notes


def traced_run(client: workloads.Client, tasks: list, seconds: float, limit: float):
    """Two untraced passes, then traced passes (at least one) until
    ``seconds`` have gone by since the first untraced one; returns the
    traced passes, the per-layer metrics and lines to print.  Counters are
    those of the first traced pass; times are means per traced pass,
    unscaled."""
    calibration = Calibration(every=0.5)
    calibration.tick(force=True)
    start = time.perf_counter()
    for _ in range(2):
        run_passes(client, tasks, 0, limit, calibration=calibration)
    untraced = {key: len(times) for key, times in client.latencies.items()}
    tracer = Tracer()
    tracer.install()
    client.tracer = tracer
    try:
        bytes_in, bytes_out = client.bytes_in, client.bytes_out
        passes = run_passes(client, tasks, 0, limit, calibration=calibration)
        counters = {name: (value, "count") for name, value in tracer.counters().items()}
        counters["model_io.bytes_in"] = (client.bytes_in - bytes_in, "bytes")
        counters["model_io.bytes_out"] = (client.bytes_out - bytes_out, "bytes")
        while time.perf_counter() - start < seconds and time.perf_counter() < limit:
            passes += run_passes(client, tasks, 0, limit, calibration=calibration)
    finally:
        tracer.uninstall()
        client.tracer = None
    calibration.tick(force=True)

    def cost(times) -> float:
        return statistics.median(took * calibration.scale(moment) for moment, took in times)

    out = {name: (value / passes, "s") for name, value in tracer.times().items()}
    out.update(counters)
    out["trace.pass_s"] = (tracer.request_s / passes, "s")
    # Scaled median latency traced over untraced, summed over the requests.
    both = [
        (times, untraced[key])
        for key, times in client.latencies.items()
        if len(times) > untraced.get(key, 0) > 0
    ]
    ratio = sum(cost(times[n:]) for times, n in both) / sum(cost(times[:n]) for times, n in both)
    out["trace.overhead_ratio"] = (ratio, "ratio")
    notes = [f"{name} {out[name][0]:.6g} {out.pop(name)[1]}" for name in PRINT_ONLY]
    return passes, out, notes


if __name__ == "__main__":
    sys.exit(main())
