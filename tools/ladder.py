"""Time the effkit command on a ladder of growing models, one subprocess per
case, on this checkout and optionally on another in alternation.

Usage, from the root of a checkout:

    python3 tools/ladder.py OUT [--against CHECKOUT] [--repeat N]
                            [--budget SECONDS] [--smallest]

The rows, each a shape, the sizes n it is built at and the subcommands run
on it:

* ``chain-nlmp`` and ``chain-ef``: the NLMP and ef 1/2-chains,
  ``perfbench/gen.chain(Random(1), n, 1, kind)``, at n = 320, 1280 and
  2560; ``bisim``, and ``lequiv`` on the ef chain;
* ``ring`` and ``harder-ring``: the rings of ``tools/replay.py`` at
  n = 10000; ``bisim``;
* ``hub``: ``replay.hub``, the 1/2-chain with a state spreading its mass
  over every chain state, at n = 1000, 2000 and 4000; ``bisim``;
* ``wide-family``: ``replay.wide_family``, the ef 1/2-chain with a state of
  n generators, at n = 250, 500, 1000, 2000 and 4000; ``lequiv``;
* ``wide-family-2``: ``replay.wide_family_2``, the same model with a clone
  of that state, at n = 250, 500, 1000 and 2000; ``lequiv``;
* ``span``: ``replay._one_block_cospan``, an n-state portfolio P over the
  one state of its quotient M by the legs F and G, at n = 300 and 1000;
  ``span P P M --f F --g G``, whose pullback has n² states.

``--smallest`` keeps each row's smallest size.  Each row's files are
written once, to a temporary directory.  Each case runs ``python -m
effkit.cli SUBCOMMAND FILES...`` in a subprocess of its own that imports
the checkout's ``src/effkit``, ``--repeat`` times (default 3), and records
per run its wall time, interpreter start included, the child's peak RSS
(``ru_maxrss``), its exit code, and the size and SHA-256 of its stdout.  A
run still going after ``--budget`` seconds (default 60) is killed and
recorded as ``"timeout"``.  With ``--against``, each repeat runs the case
on this checkout and on CHECKOUT, the order swapped every repeat.

OUT gets one JSON object: the machine, the checkouts by role (``change``,
and ``against`` when given), and per case its row, subcommand, n, the runs
per role, the median wall time per role over the runs that finished, and
whether every finished run of every role printed the same stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from replay import _harder_ring, _one_block_cospan, _ring, hub, wide_family, wide_family_2  # noqa: E402


def _model(build):
    """A row's files from a builder of its one model, named ``model``."""
    return lambda n: {"model": build(n)}


BISIM, LEQUIV = ("bisim", "model"), ("lequiv", "model")
SPAN = ("span", "p", "p", "m", "--f", "f", "--g", "g")  # the one-block cospan's q is its p

ROWS = {  # name: (build(n) -> {file name: document}, sizes, argvs naming the files)
    "chain-nlmp": (_model(lambda n: gen.chain(random.Random(1), n, 1, "nlmp").doc), (320, 1280, 2560), (BISIM,)),
    "chain-ef": (_model(lambda n: gen.chain(random.Random(1), n, 1, "ef").doc), (320, 1280, 2560), (BISIM, LEQUIV)),
    "ring": (_model(_ring), (10_000,), (BISIM,)),
    "harder-ring": (_model(_harder_ring), (10_000,), (BISIM,)),
    "hub": (_model(hub), (1000, 2000, 4000), (BISIM,)),
    "wide-family": (_model(wide_family), (250, 500, 1000, 2000, 4000), (LEQUIV,)),
    "wide-family-2": (_model(wide_family_2), (250, 500, 1000, 2000), (LEQUIV,)),
    "span": (_one_block_cospan, (300, 1000), (SPAN,)),
}


# Run in a small process of its own, ``python -S -c _RUNNER BUDGET ARGV...``:
# spawns ARGV with stderr discarded, kills it after BUDGET seconds, and
# prints its wall time, peak RSS in KiB and exit code to stderr.  A child's
# peak RSS starts at its spawner's RSS, so the ladder, which holds the
# models, does not spawn the timed command itself.
_RUNNER = """
import os, signal, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
def stop(*_):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended as the alarm went off
        pass
signal.signal(signal.SIGALRM, stop)
signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1]))
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def run_case(checkout: Path, argv: list[str], budget: float, workdir: Path) -> dict | str:
    """One run of the effkit command with ``argv`` on ``checkout``: its
    wall time, peak RSS, exit code and stdout, or ``"timeout"``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out_path = workdir / "stdout"
    command = [sys.executable, "-m", "effkit.cli", *argv]
    with open(out_path, "wb") as out:
        done = subprocess.run([sys.executable, "-S", "-c", _RUNNER, str(budget), *command],
                              stdout=out, stderr=subprocess.PIPE, env=env, cwd=workdir, check=True)
    wall, rss, code = done.stderr.split()
    if float(wall) >= budget:
        return "timeout"
    data = out_path.read_bytes()
    return {
        "wall_s": round(float(wall), 4),
        "peak_rss_mb": round(int(rss) / 1024, 1),
        "exit": int(code),
        "stdout_bytes": len(data),
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
    }


def ladder(checkouts: dict[str, Path], smallest: bool, repeat: int, budget: float) -> list[dict]:
    cases = []
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        workdir = Path(tmp)
        for row, (build, sizes, commands) in ROWS.items():
            for n in sizes[:1] if smallest else sizes:
                paths = {}
                for name, doc in build(n).items():
                    paths[name] = str(workdir / f"{row}-{n}.{name}.json")
                    Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
                for command, *args in commands:
                    argv = [command, *(paths.get(arg, arg) for arg in args)]
                    runs: dict[str, list] = {role: [] for role in checkouts}
                    for r in range(repeat):
                        order = list(checkouts) if r % 2 == 0 else list(checkouts)[::-1]
                        for role in order:
                            runs[role].append(run_case(checkouts[role], argv, budget, workdir))
                    done = {role: [run for run in role_runs if run != "timeout"] for role, role_runs in runs.items()}
                    median = {
                        role: statistics.median([run["wall_s"] for run in finished]) if finished else "timeout"
                        for role, finished in done.items()
                    }
                    case = {
                        "row": row,
                        "command": command,
                        "n": n,
                        "median_wall_s": median,
                        "same_stdout": len({run["stdout_sha256"] for runs in done.values() for run in runs}) <= 1,
                        "runs": runs,
                    }
                    print(f"{row:13} {command:7} n={n:<6} " + "  ".join(
                        f"{role} {value if value == 'timeout' else f'{value:.3f} s'}"
                        for role, value in median.items()
                    ) + ("" if case["same_stdout"] else "  STDOUT DIFFERS"), flush=True)
                    cases.append(case)
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--against", help="a second checkout, run in alternation with this one")
    parser.add_argument("--repeat", type=int, default=3, help="runs per case and checkout")
    parser.add_argument("--budget", type=float, default=60.0, help="seconds before a run is killed")
    parser.add_argument("--smallest", action="store_true", help="only each row's smallest size")
    args = parser.parse_args(argv)
    checkouts = {"change": ROOT}
    if args.against:
        checkouts["against"] = Path(args.against).resolve()
    cases = ladder(checkouts, args.smallest, args.repeat, args.budget)
    result = {
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "checkouts": {role: str(path) for role, path in checkouts.items()},
        "repeat": args.repeat,
        "budget_s": args.budget,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
