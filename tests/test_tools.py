"""``tools/replay.py``: replaying a hand-made recording."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

from effkit.cli import run

ROOT = Path(__file__).resolve().parents[1]
MODEL = {
    "kind": "ef",
    "states": ["s0", "s1", "s2"],
    "effectivity": {"s0": [[{"s2": "1"}]], "s1": [[{"s2": "1"}]], "s2": [[{}]]},
}


def replay(directory: Path, requests: list[dict]) -> tuple[int, str]:
    (directory / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
    argv = [sys.executable, str(ROOT / "tools" / "replay.py"), "replay", str(directory), str(ROOT)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout + done.stderr


def test_replay_reports_every_differing_request(tmp_path):
    data = json.dumps(MODEL).encode()
    digest = hashlib.sha256(data).hexdigest()
    (tmp_path / "files").mkdir()
    (tmp_path / "files" / digest).write_bytes(data)
    model = tmp_path / "m.json"
    requests = []
    for argv in (["validate", str(model)], ["lequiv", str(model)]):
        model.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        answer = {"code": code, "out": out.getvalue(), "err": err.getvalue()}
        requests.append({"argv": argv, "files": {str(model): digest}, **answer})
    model.write_text("changed since it was recorded")

    assert replay(tmp_path, requests) == (0, "all 2 requests identical\n")

    requests[0]["code"] = 3
    requests[1]["out"] = requests[1]["out"].replace("s2", "s9")
    code, text = replay(tmp_path, requests)
    lines = text.splitlines()
    assert code == 1
    assert lines[0] == "2 of 2 requests differ"
    assert lines[1:3] == ["validate: 1 differ; the first:", f"request 0 differs in code: validate {model}"]
    assert lines[5:7] == ["lequiv: 1 differ; the first:", f"request 1 differs in out: lequiv {model}"]
    assert len(lines) == 9
