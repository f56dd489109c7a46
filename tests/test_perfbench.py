"""The benchmark harness still imports sumrep and its reference checks pass.

Both scripts run as subprocesses from the repository root, as the
benchmark runs them, so a change that breaks a name the harness uses, or
an output the reference recomputes, fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selfcheck_passes():
    proc = _run("perfbench/selfcheck.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _assert_pass_correct(workload: str) -> None:
    """One untraced pass of the workload; every operation matches the reference."""
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "0",
                "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout


def test_certify_dense_pass_is_correct():
    _assert_pass_correct("certify-dense")


def test_certify_sparse_pass_is_correct():
    # theorem, premise and sumset at h=2, plus construct and density
    _assert_pass_correct("certify-sparse")
