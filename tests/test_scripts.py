"""The experiment scripts still run and reach their expected verdicts.

Both run as subprocesses from the repository root, with ``src`` on the
import path, so a change to a report or to the constructor that breaks a
script fails here.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_theorem_suite_verdicts_as_expected():
    proc = _run("scripts/run_theorem_suite.py", "--m", "60")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all verdicts as expected" in proc.stdout


def test_density_experiment_certifies_every_run_from_the_start(tmp_path):
    proc = _run("scripts/run_density_experiment.py", "--T", "2000", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"\(6 certified runs, T=2000,", proc.stdout), proc.stdout
    logs = sorted(tmp_path.glob("log_*.json"))
    assert len(logs) == 6
    for path in logs:
        log = json.loads(path.read_text(encoding="utf-8"))
        assert log["certified"], path.name
        # small sums aside, the whole of [0, W] is certified
        assert log["n0"] <= 2 * log["target_ell"], path.name
