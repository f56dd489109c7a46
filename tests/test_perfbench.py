"""The benchmark harness still imports sumrep and its reference checks pass.

Both scripts run as subprocesses from the repository root, as the
benchmark runs them, so a change that breaks a name the harness uses, or
an output the reference recomputes, fails here first.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from sumrep import cli

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


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_counts_every_bound_row(tmp_path):
    """The bench's ``verify.bound_checks`` counter reads ``len(result.checks)``
    of the traced ``verify_counting_bound``: it must equal the rows of the
    report, so a rename or a change of the rows' shape cannot zero it."""
    set_path = tmp_path / "range50.txt"
    set_path.write_text("".join(f"{i}\n" for i in range(51)))
    out = tmp_path / "report.json"
    tracer = _tracer()
    tracer.install()
    try:
        code = cli.main(["theorem", "--id", "T1", "--set", str(set_path), "--mode", "prefix:50",
                         "--format", "json", "--no-meta", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    rows = len(json.loads(out.read_text())["bounds"]["checks"]["x"])
    totals = tracer.totals()
    assert rows == 49
    assert totals["verify.bound_checks"] == rows
    assert totals["verify.verify_counting_bound.calls"] == 1


def test_tracer_counts_rep_table_cells(tmp_path):
    """``repcount.rep_table.cells`` binds the traced call's ``A`` and ``h`` by
    name and reads ``result.hi``: h * #(elements <= hi) * (hi + 1) cells."""
    set_path = tmp_path / "range10.txt"
    set_path.write_text("".join(f"{i}\n" for i in range(11)))
    tracer = _tracer()
    tracer.install()
    try:
        code = cli.main(["rep", "--h", "2", "--window", "0:20", "--mode", "prefix:20",
                         "--set", str(set_path), "--out", str(tmp_path / "table.txt")])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals()
    assert totals["repcount.rep_table.calls"] == 1
    assert totals["repcount.rep_table.cells"] == 2 * 11 * 21
