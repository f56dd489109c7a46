"""Golden bytes: exit code, stdout, stderr and written files of ``cli.main``.

Each case runs one command with ``--no-meta`` on one of the small fixed
sets and compares every byte with ``tests/golden/<case>.txt``.  A change
that alters any output byte must rewrite the golden files on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from sumrep.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

SETS = {
    "dense": range(31),
    "sidon": [0, 1, 3, 7, 12, 20],
    "mixed": [0, 1, 2, 3, 5, 8, 9, 13, 16, 21, 27, 34, 40],
    "thousand": range(1000),
    "seed-at-w": [0, 1, 100],  # max = W = floor(201/2): its first insert reaches past W
}

# a log that density cases read: written by this construct call first
LOG = ["construct", "--ell", "2", "--T", "200", "--strategy", "balanced", "--log-out", "{log}"]


def _formats(stem, argv, formats):
    return {f"{stem}.{fmt}": [*argv, "--format", fmt] for fmt in formats}


CASES = {
    **_formats("theorem-t1", ["theorem", "--id", "T1", "--h", "2", "--mode", "prefix:30",
                              "--set", "dense"], ("json", "text", "csv")),
    **_formats("theorem-t2", ["theorem", "--id", "T2", "--ell", "3", "--mode", "prefix:30",
                              "--set", "dense"], ("json", "text", "csv")),
    **_formats("theorem-t3", ["theorem", "--id", "T3", "--h", "3", "--ell", "2", "--s", "16",
                              "--mode", "prefix:30", "--set", "dense"], ("json", "text", "csv")),
    **_formats("theorem-t1-fail", ["theorem", "--id", "T1", "--set", "sidon"],
               ("json", "text", "csv")),
    **_formats("theorem-t2-mixed", ["theorem", "--id", "T2", "--ell", "2", "--set", "mixed"],
               ("json", "text", "csv")),
    **_formats("theorem-t1-mixed", ["theorem", "--id", "T1", "--mode", "prefix:40",
                                    "--set", "mixed"], ("json", "text", "csv")),
    **_formats("theorem-t3-mixed", ["theorem", "--id", "T3", "--h", "3", "--ell", "2",
                                    "--s", "2", "--mode", "prefix:40", "--x-max", "100",
                                    "--set", "mixed"], ("json", "text")),
    **_formats("premise", ["premise", "--h", "2", "--ell", "3", "--mode", "prefix:30",
                           "--set", "dense"], ("json", "text", "csv")),
    **_formats("premise-none", ["premise", "--h", "2", "--ell", "2", "--set", "sidon"],
               ("json", "text")),
    **_formats("premise-n0", ["premise", "--h", "2", "--ell", "2", "--n0", "10",
                              "--set", "mixed"], ("json", "text")),
    **_formats("bhs-sidon", ["bhs", "--h", "2", "--s", "1", "--set", "sidon"],
               ("json", "text", "csv")),
    **_formats("bhs-mixed", ["bhs", "--h", "2", "--s", "2", "--mode", "prefix:40",
                             "--set", "mixed"], ("json", "text")),
    **_formats("rep-n", ["rep", "--h", "3", "--n", "20", "--set", "mixed"],
               ("json", "text", "csv")),
    **_formats("rep-window", ["rep", "--h", "2", "--window", "0:40", "--set", "mixed"],
               ("json", "text", "csv")),
    **_formats("rep-window-cut", ["rep", "--h", "2", "--window", "10:50", "--mode", "prefix:30",
                                  "--set", "dense"], ("json", "text", "csv")),
    # counts near 1.29e18, between 2^53 and 2^64
    **_formats("rep-window-h9", ["rep", "--h", "9", "--window", "4490:4500",
                                 "--set", "thousand"], ("json", "text", "csv")),
    **_formats("sumset", ["sumset", "--h", "2", "--set", "mixed"], ("json", "text")),
    **_formats("blocks", ["blocks", "--h", "2", "--set", "mixed"], ("json", "text")),
    **_formats("construct", LOG, ("json", "text")),
    **_formats("construct-ell3", ["construct", "--ell", "3", "--T", "120", "--log-out", "{log}"],
               ("json", "text")),
    **_formats("construct-largest-odd", ["construct", "--ell", "2", "--T", "201",
                                         "--strategy", "largest-new", "--seed-set", "seed-at-w",
                                         "--log-out", "{log}"], ("json", "text")),
    **_formats("density", ["density", "--log", "{log}"], ("json", "text", "csv")),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render(case, workdir):
    """The case's exit code, stdout, stderr and written log, as one text."""
    workdir = pathlib.Path(workdir)
    for name, values in SETS.items():
        (workdir / f"{name}.txt").write_text("".join(f"{a}\n" for a in values))
    log = workdir / "log.json"
    argv = CASES[case]
    if argv[0] == "density":
        assert _run([part.format(log=log) for part in LOG] + ["--no-meta"])[0] == 0
    argv = [str(workdir / f"{part}.txt") if prev in ("--set", "--seed-set")
            else part.format(log=log) for prev, part in zip([None, *argv], argv)]
    code, out, err = _run([*argv, "--no-meta"])
    text = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    if argv[0] == "construct":
        text += f"--- log\n{log.read_text()}\n"
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert render(case, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / f"{case}.txt").write_text(render(case, workdir))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
