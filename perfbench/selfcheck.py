#!/usr/bin/env python3
"""Checks of the benchmark itself, on each workload's small warm-up input.

    python3 perfbench/selfcheck.py

* every metric name uses only [A-Za-z0-9_.-], and BENCHMARK.json lists
  exactly the metrics run.py prints, with the same units;
* a traced pass leaves every name bound in sumrep's modules as it was;
* an output with one count altered fails its check, so a run counts it
  as failed and ok_frac drops below 1.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import sumrep.cli  # noqa: E402
import sumrep.construct  # noqa: E402
import sumrep.intset  # noqa: E402
import sumrep.repcount  # noqa: E402
import sumrep.verify  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = (sumrep.cli, sumrep.construct, sumrep.intset, sumrep.repcount, sumrep.verify)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bindings() -> dict:
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def _bump_json(path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _bump_table(doc):
    doc["counts"][len(doc["counts"]) // 2][1] += 1


def _bump_count(doc):
    doc["count"] += 1


def _bump_checked(doc):
    doc["checked_count"] += 1


def _bump_row(doc):
    doc["rows"][-1]["Ax"] += 1


# workload -> (operation label prefix, edit applied to its JSON output)
TAMPER = {
    "certify-sparse": [("premise", _bump_checked), ("density.ell2.", _bump_row)],
    "certify-dense": [("rep.table", _bump_table), ("rep.n", _bump_count)],
}


def check_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"{key}: BENCHMARK.json and run.py disagree: "
                            f"{sorted(set(listed.items()) ^ set(units.items()))}")
        problems += [f"bad metric name {n!r}" for n in listed if not NAME.fullmatch(n)]
    return problems


def _check_tamper(name: str, work, prefix: str, edit) -> list[str]:
    """Alter one count in the output of the operations labelled ``prefix``."""
    real_main = sumrep.cli.main
    targets = [op for op in work.ops if op.label.startswith(prefix)]

    def tampering_main(argv):
        rc = real_main(argv)
        for op in targets:
            if op.argv == argv:
                _bump_json(op.outputs[-1], edit)
        return rc

    sumrep.cli.main = tampering_main
    try:
        runner = run.Runner(work)
        runner.run_pass()
    finally:
        sumrep.cli.main = real_main
    if not targets or not runner.failures:
        return [f"{name}: an altered count in {prefix!r} output was not caught"]
    return []


def check_workload(name: str, work_dir) -> list[str]:
    problems = []
    work = workloads.build(name, 0, work_dir, small=True)

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = run.Runner(work)
        runner.run_pass()
    finally:
        tracer.uninstall()
    after = _bindings()
    if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append(f"{name}: module bindings changed by a traced pass")
    if runner.failures:
        problems.append(f"{name}: clean pass failed: {runner.failures}")
    if not tracer.spans:
        problems.append(f"{name}: traced pass recorded no spans")

    for prefix, edit in TAMPER[name]:
        problems += _check_tamper(name, work, prefix, edit)
    return problems


def main() -> int:
    root = run.WORK / f"selfcheck-pid{os.getpid()}"
    try:
        problems = check_names()
        for name in workloads.BUILDERS:
            problems += check_workload(name, root / name)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
