#!/usr/bin/env python3
"""sumrep benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``certify-sparse`` and ``certify-dense`` (see
``workloads.py``).  Run from any directory; the package is imported
from ``src/`` next to this directory, in this process, and every
operation is a call to ``sumrep.cli.main`` with output written to files.

Load is one client in a closed loop: operations run back to back, one
pass over the workload's operation list at a time, until the timed
operations add up to ``--seconds`` (at least one pass).  Every operation
is checked after it returns, outside the timed region.

``--trace 0`` prints the end-to-end metrics:

  wall_s       median over passes of the pass's timed seconds
  sums_per_s   sums the pass decides exactly (``# window_total``) / wall_s
  setup_s      importing sumrep, plus the median of three rounds of input
               generation, set-file writing and a warm-up that runs every
               operation once on a small input from the same generator
  peak_rss_mb  peak resident memory of this process
  ok_frac      1 - failed/attempted; an operation fails when it raises,
               exits with the wrong code or its output fails its check
               (the failure fraction itself is usually 0, which a
               regression bound cannot be a share of)

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (per traced pass) plus ``trace.overhead_frac``; it
writes the spans to ``perfbench/.work``.  ``selfcheck.py`` checks the
benchmark itself.

The thread cap is never set: the package's default is recorded instead.
The last stdout line is the result object; ``#`` lines before it give
the inputs and the environment.  Exit code 2 means the benchmark could
not run (no sources, or the reference could not certify itself).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

END_TO_END = {  # name -> unit
    "wall_s": "s", "sums_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}
SETUP_REPEATS = 3

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc only
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except AttributeError:
    _malloc_trim = None


def release_heap() -> None:
    """Start an operation from the heap a fresh ``sumrep`` process would have.

    Without this the peak depends on which worker thread's malloc arena
    still holds memory freed by an earlier operation: 400 to 780 MB on
    certify-dense for one and the same input (2-vCPU x86 VM, glibc).
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, per traced pass.

    Which end-to-end metric each should move, and where:
      repcount.rep_table.*        wall_s on certify-sparse (numpy sweep) and
                                  certify-dense (big-int sweep)
      repcount.rep_count.*        wall_s and peak_rss_mb on certify-dense
      repcount.sumset.s           certify-sparse (regression guard)
      verify.min_threshold/check_premise    wall_s on certify-sparse
      verify.is_bhs, block_growth_check, distinct_tops, witness_certificate
                                  wall_s and peak_rss_mb on certify-dense
      verify.verify_counting_bound, bound_checks, run_theorem.self_s
                                  wall_s on certify-sparse
      construct.*                 wall_s on certify-sparse
      intset.*                    certify-sparse
      cli.*                       wall_s on certify-sparse
    """
    units = {}
    for name in ("rep_table", "rep_count", "sumset"):
        units[f"repcount.{name}.s"] = "s"
    units["repcount.rep_table.calls"] = "count"
    units["repcount.rep_table.cells"] = "count"
    units["repcount.rep_count.calls"] = "count"
    for name in ("min_threshold", "check_premise", "is_bhs", "block_growth_check",
                 "distinct_tops", "witness_certificate", "verify_counting_bound", "run_theorem"):
        units[f"verify.{name}.s"] = "s"
    units["verify.block_growth_check.self_s"] = "s"
    units["verify.run_theorem.self_s"] = "s"
    units["verify.distinct_tops.calls"] = "count"
    units["verify.witness_certificate.calls"] = "count"
    units["verify.bound_checks"] = "count"
    units["verify.bound_value.calls"] = "count"
    for name in ("greedy_repair", "density_report"):
        units[f"construct.{name}.s"] = "s"
    units["construct.greedy_repair.self_s"] = "s"
    for ell in (2, 3):
        for strategy in ("smallest-new", "largest-new", "balanced"):
            units[f"construct.additions.ell{ell}.{strategy}"] = "count"
            units[f"construct.failures.ell{ell}.{strategy}"] = "count"
            units[f"construct.certified_frac.ell{ell}.{strategy}"] = "frac"
    units["intset.load_set.s"] = "s"
    units["intset.blocks.s"] = "s"
    units["intset.counting.calls"] = "count"
    units["cli.main.s"] = "s"
    units["cli.main.self_s"] = "s"
    units["cli.out_bytes"] = "bytes"
    units["trace.overhead_frac"] = "frac"
    return units


def environment(sumrep) -> dict:
    import numpy

    from sumrep import runtime

    git_rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        git_rev = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    resolve = getattr(runtime, "resolve_thread_cap", None)
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sumrep": getattr(sumrep, "__version__", None),
        "nproc": os.cpu_count(),
        "thread_cap": resolve() if resolve else None,
        "SUMREP_THREADS": os.environ.get("SUMREP_THREADS"),
    }


def _digest(op) -> str:
    h = hashlib.sha256()
    for path in op.outputs:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs passes over one workload and keeps per-operation outcomes."""

    def __init__(self, work) -> None:
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.verified: set[tuple[str, int | None, str]] = set()

    def run_pass(self, check: bool = True) -> tuple[dict[str, float], int]:
        """One pass; returns (timed seconds per operation, bytes written)."""
        cli = sys.modules["sumrep.cli"]
        times, written = {}, 0
        for op in self.work.ops:
            release_heap()
            error = None
            start = perf_counter()
            try:
                rc = cli.main(op.argv)
            except Exception as exc:  # an operation that raises is a failed operation
                rc, error = None, f"{type(exc).__name__}: {exc}"
            times[op.label] = perf_counter() - start
            written += sum(p.stat().st_size for p in op.outputs if p.is_file())
            if check:
                self.attempted += 1
                reason = error or self._check(op, rc)
                if reason:
                    self.failures.append(f"{op.label}: {reason}")
        return times, written

    def _check(self, op, rc) -> str | None:
        key = (op.label, rc, _digest(op))
        if key in self.verified:  # byte-identical to an output that passed
            return None
        try:
            reason = op.check(rc)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable result ({type(exc).__name__}: {exc})"
        if reason is None:
            self.verified.add(key)
        return reason


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sumrep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumrep" / "cli.py").is_file():
        print(f"perfbench: no sumrep sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import sumrep
    import sumrep.cli  # noqa: F401
    import_s = perf_counter() - start

    import reference
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        # Set-up: generation, set files and a warm-up of every operation on
        # a small input from the same generator, repeated; the median counts.
        setups = []
        for i in range(SETUP_REPEATS):
            start = perf_counter()
            work = workloads.build(args.workload, args.seed, run_dir / f"full{i}")
            warm = workloads.build(args.workload, args.seed, run_dir / f"warm{i}", small=True)
            Runner(warm).run_pass(check=False)
            setups.append(perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        runner = Runner(work)
        tracer = tracing.Tracer()
        plain, traced, written, op_times = [], [], [], {}
        measured = 0.0
        while measured < args.seconds or not plain or (args.trace and not traced):
            use_trace = bool(args.trace) and len(traced) < len(plain)
            if use_trace:
                tracer.install()
                try:
                    times, nbytes = runner.run_pass()
                finally:
                    tracer.uninstall()
                traced.append(sum(times.values()))
                written.append(nbytes)
            else:
                times, _ = runner.run_pass()
                plain.append(sum(times.values()))
                for label, seconds in times.items():
                    op_times.setdefault(label, []).append(seconds)
            measured += sum(times.values())
    except reference.ReferenceFailure as exc:
        print(f"perfbench: reference failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(sumrep)
    wall_s = statistics.median(plain)
    attempted, failed = runner.attempted, len(runner.failures)
    if args.trace:
        units = per_layer_units()
        totals = tracer.totals()
        values = {name: totals.get(name, 0) / len(traced) for name in units}
        values.update({k: v for k, v in work.facts.items() if k in units})
        values["cli.out_bytes"] = statistics.mean(written)
        values["trace.overhead_frac"] = statistics.median(traced) / wall_s - 1
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"env": env, "workload": args.workload,
                                          "seed": args.seed, "passes": len(traced),
                                          "spans": tracer.span_records()}))
    else:
        units = END_TO_END
        values = {
            "wall_s": wall_s,
            "sums_per_s": work.window_total / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / attempted,
        }

    for item in work.inputs:
        print("# input", json.dumps(item))
    print("# window_total", work.window_total)
    print("# setup", json.dumps({"import_s": round(import_s, 4),
                                 "repeats_s": [round(t, 4) for t in setups]}))
    print("# env", json.dumps(env))
    print("# passes", json.dumps({"plain": [round(t, 4) for t in plain],
                                  "traced": [round(t, 4) for t in traced]}))
    print("# op_median_s", json.dumps({k: round(statistics.median(v), 4)
                                       for k, v in op_times.items()}))
    if args.trace:
        print("# note repcount.rep_table.cells is computed from each call as "
              "h * #(elements <= hi) * (hi + 1), not measured")
    for reason in runner.failures[:20]:
        print("# failed", reason)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
