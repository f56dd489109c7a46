"""Seeded workloads: generated inputs, CLI operations and their checks.

Each workload turns a seed into set files and a fixed list of operations,
each an argument vector for ``sumrep.cli.main``.  Every operation carries
a check that reads only the files the operation wrote, recomputes the
answer with ``reference`` (never with sumrep's counting code) and returns
None when the answer is right, or the reason it is wrong.  Checks read
only the fields they verify, so added report fields or a schema version
bump do not count as failures.

Why these two workloads:

* ``certify-sparse`` -- h=2: T1, T2, premise and sumset on a seeded
  half-dense set, whose bound checks and multi-megabyte JSON reports
  dominate, plus the greedy density study (construct and density for
  ell 2 and 3 and every strategy), whose scan, insert and h=2
  re-certification sweep are about a third of the pass.
* ``certify-dense`` -- h=3 on a dense prefix long enough that block 5's
  witness target 3*a_5* lies inside the window, so distinct tops and the
  big-integer table sweep (C(|A|+8, 9) > 2^64) dominate.

The density study was a workload of its own.  It was dropped as one:
on a shared 2-vCPU x86 VM its pure computation moved by about 1.5x with
the host's speed phases (against about 1.3x for the other two, which
also wait on worker threads), and the spread of its medians over ten
seeds reached 0.33.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import reference

STRATEGIES = ("smallest-new", "largest-new", "balanced")
U64_MAX = 2**64 - 1


@dataclass
class Op:
    label: str
    argv: list[str]
    window: int  # sums whose count this operation decides exactly
    check: Callable[[int | None], str | None]
    outputs: tuple[Path, ...]


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[dict]
    facts: dict[str, float] = field(default_factory=dict)  # filled in by checks

    @property
    def window_total(self) -> int:
        return sum(op.window for op in self.ops)


def _write_set(path: Path, values) -> None:
    path.write_text("".join(f"{a}\n" for a in values), encoding="utf-8")


def _input(label: str, size: int, window: int, h: int) -> dict:
    return {"op": label, "|A|": size, "window": window, "h": h,
            "multiset_total_exceeds_u64": math.comb(size + h - 1, h) > U64_MAX}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# greedy construction


def _construct_check(work: Workload, tag: str, ell: int, horizon: int, seed_set, log: Path):
    def check(rc):
        doc = _read_json(log)
        final, n0, w = doc["final"], doc["n0"], doc["watermark"]
        added = {e for e, _ in doc["additions"]}
        if sorted(set(seed_set) | added) != final:
            return "final set is not the seed set plus the logged additions"
        if not 0 < w <= horizon:
            return f"watermark {w} outside (0, {horizon}]"
        r = reference.counts([a for a in final if a <= w], 2, w)
        expect = reference.threshold(r, ell, w)
        if n0 != expect:
            return f"n0={n0}, expected {expect}"
        if doc["certified"] != (expect is not None):
            return f"certified={doc['certified']} with n0={expect}"
        if rc != (0 if doc["certified"] else 1):
            return f"exit code {rc}"
        if expect is not None:
            short = (r[expect:] >= 1) & (r[expect:] < ell)
            if short.any():
                return f"sum {expect + int(np.argmax(short))} has fewer than {ell} representations"
        work.facts[f"construct.additions.{tag}"] = len(doc["additions"])
        work.facts[f"construct.failures.{tag}"] = len(doc["failures"])
        certified_frac = (w - expect) / w if expect is not None else 0.0
        work.facts[f"construct.certified_frac.{tag}"] = certified_frac
        return None

    return check


def _density_check(ell: int, log: Path, out: Path):
    def check(rc):
        doc = _read_json(log)
        if not doc["certified"]:
            return None if rc == 2 else f"exit code {rc} on an uncertified log"
        if rc != 0:
            return f"exit code {rc}"
        rep = _read_json(out)
        final, horizon = doc["final"], doc["horizon"]
        k0 = reference.anchor_block(final, 2, doc["n0"])
        if rep["k0"] != k0:
            return f"k0={rep['k0']}, expected {k0}"
        positives = [a for a in final if a >= 1]
        rows = rep["rows"]
        if not rows or rows[-1]["x"] != horizon:
            return "rows do not end at the horizon"
        for row in rows:
            x = row["x"]
            count = bisect_right(positives, x)
            if ell == 2:
                bound = math.log(x) / math.log(2) - k0
            else:
                bound = (ell - 1) * math.log(x) / math.log(2) - (ell - 1) * (k0 + 1)
            if row["Ax"] != count or not _close(row["lower_bound"], bound):
                return f"row x={x}: A(x)={row['Ax']} bound={row['lower_bound']}"
        if not _close(rep["final_ratio"], rows[-1]["Ax"] / math.log(horizon) ** 2):
            return "final ratio"
        return None

    return check


def _density_ops(work: Workload, rng: random.Random, horizon: int, work_dir: Path) -> None:
    """Greedy construction and density report for ell 2 and 3, every strategy."""
    w = horizon // 2
    for ell in (2, 3):
        # {0..ell-1} plus one element just below the watermark: elements
        # among the small sums change the greedy set's size up to fourfold
        # from seed to seed, which would make the cost the seed's, not the code's.
        seed_set = list(range(ell)) + [rng.randrange(w - w // 64, w + 1)]
        seed_file = work_dir / f"seed-ell{ell}.txt"
        _write_set(seed_file, seed_set)
        for strategy in STRATEGIES:
            tag = f"ell{ell}.{strategy}"
            log, out, dens = (work_dir / f"{kind}-{tag}.json"
                              for kind in ("log", "construct", "density"))
            work.ops.append(Op(
                f"construct.{tag}",
                ["construct", "--ell", str(ell), "--T", str(horizon), "--strategy", strategy,
                 "--seed-set", str(seed_file), "--log-out", str(log), "--out", str(out)],
                w + 1, _construct_check(work, tag, ell, horizon, seed_set, log), (log, out)))
            work.ops.append(Op(
                f"density.{tag}",
                ["density", "--log", str(log), "--format", "json", "--no-meta", "--out", str(dens)],
                0, _density_check(ell, log, dens), (dens,)))
        work.inputs.append(_input(f"construct.ell{ell}", len(seed_set), w + 1, 2))


# ---------------------------------------------------------------------------
# workloads


def _theorem_check(expect: Callable[[], dict], out: Path):
    def check(rc):
        want = expect()
        doc = _read_json(out)
        verdict = doc["verdict"] in ("pass", True)
        if verdict != want["verdict"] or rc != (0 if want["verdict"] else 1):
            return f"verdict {doc['verdict']} exit {rc}, expected {want['verdict']}"
        if doc["n0"] != want["n0"] or doc["k0"] != want["k0"]:
            return f"n0={doc['n0']} k0={doc['k0']}, expected {want['n0']} {want['k0']}"
        return None

    return check


def _theorem_op(label, values, theorem_id, h, ell, s, bound, set_file, out, window):
    argv = ["theorem", "--id", theorem_id, "--h", str(h), "--mode", f"prefix:{bound}",
            "--set", str(set_file), "--format", "json", "--no-meta", "--out", str(out)]
    if theorem_id != "T1":
        argv += ["--ell", str(ell)]
    if s is not None:
        argv += ["--s", str(s)]
    expect = cache(lambda: reference.theorem(values, theorem_id, h, ell, s, bound))
    return Op(label, argv, window, _theorem_check(expect, out), (out,))


def certify_sparse(seed: int, work_dir: Path, small: bool) -> Workload:
    m = 400 if small else 10_000
    rng = random.Random(f"certify-sparse:{seed}")
    values = [0, 1, 2, 3] + [x for x in range(4, m) if rng.random() < 0.5] + [m]
    set_file = work_dir / "sparse.txt"
    _write_set(set_file, values)
    work = Workload([], [])
    out = {name: work_dir / f"{name}.json" for name in ("t1", "t2", "premise", "sumset")}
    r2 = cache(lambda: reference.counts(values, 2, 2 * m))

    def premise_check(rc):
        doc = _read_json(out["premise"])
        n0 = reference.threshold(r2()[: m + 1], 3, m)
        if n0 is None:
            return None if rc == 1 and doc["min_threshold"] is None else f"exit code {rc}"
        checked = int(np.count_nonzero(r2()[n0 : m + 1]))
        if rc != 0 or doc["n0"] != n0 or doc["holds"] is not True:
            return f"n0={doc['n0']} holds={doc['holds']} exit {rc}, expected n0={n0}"
        if doc["checked_count"] != checked:
            return f"checked_count={doc['checked_count']}, expected {checked}"
        return None

    def sumset_check(rc):
        elements = np.nonzero(r2())[0].tolist()
        return None if rc == 0 and _read_json(out["sumset"])["elements"] == elements else "sumset"

    work.ops = [
        _theorem_op("theorem.T1", values, "T1", 2, 2, None, m, set_file, out["t1"], m + 1),
        _theorem_op("theorem.T2", values, "T2", 2, 3, None, m, set_file, out["t2"], m + 1),
        Op("premise", ["premise", "--h", "2", "--ell", "3", "--mode", f"prefix:{m}",
                       "--set", str(set_file), "--format", "json", "--no-meta",
                       "--out", str(out["premise"])], m + 1, premise_check, (out["premise"],)),
        Op("sumset", ["sumset", "--h", "2", "--set", str(set_file), "--format", "json",
                      "--no-meta", "--out", str(out["sumset"])], 2 * m + 1, sumset_check,
           (out["sumset"],)),
    ]
    work.inputs = [_input("theorem/premise", len(values), m + 1, 2),
                   _input("sumset", len(values), 2 * m + 1, 2)]
    _density_ops(work, rng, 400 if small else 10_000, work_dir)
    return work


def certify_dense(seed: int, work_dir: Path, small: bool) -> Workload:
    # 728 = 3^6 - 1: every a_5* <= 242 puts 3*a_5* <= 726 inside prefix:728.
    m = 120 if small else 728
    table_h = 9
    rng = random.Random(f"certify-dense:{seed}")
    values = list(range(20)) + [x for x in range(20, m + 1) if rng.random() < 0.9]
    queries = sorted(rng.sample(range(m // 2, m + 1), 3))
    s = int(reference.counts(values, 2, m).max())  # least s making A a B_{2,s} set
    set_file = work_dir / "dense.txt"
    _write_set(set_file, values)
    work = Workload([], [])
    r3 = cache(lambda: reference.counts(values, 3, m))
    mode = ["--mode", f"prefix:{m}", "--set", str(set_file), "--format", "json", "--no-meta"]

    table_out = work_dir / "table.json"

    def table_check(rc):
        counts = _read_json(table_out)["counts"]
        if rc != 0 or [n for n, _ in counts] != list(range(m + 1)):
            return f"exit code {rc} or table window"
        for p in reference.PRIMES:
            want = reference.residues(values, table_h, m, p)
            got = np.array([c % p for _, c in counts], dtype=np.int64)
            if not np.array_equal(got, want):
                return f"table count at n={int(np.argmax(got != want))} is wrong mod {p}"
        return None

    def query_op(n: int) -> Op:
        out = work_dir / f"rep-{n}.json"

        def check(rc):
            got = _read_json(out)["count"]
            return None if rc == 0 and got == int(r3()[n]) else f"r({n})={got}, exit {rc}"

        return Op(f"rep.n{n}", ["rep", "--h", "3", "--n", str(n), *mode, "--out", str(out)],
                  1, check, (out,))

    work.ops = [
        _theorem_op("theorem.T1", values, "T1", 3, 2, None, m, set_file,
                    work_dir / "t1.json", m + 1),
        # T3 decides r_3 for its premise and r_2 for its B_{2,s} premise.
        _theorem_op("theorem.T3", values, "T3", 3, 2, s, m, set_file,
                    work_dir / "t3.json", 2 * (m + 1)),
        Op("rep.table", ["rep", "--h", str(table_h), "--window", f"0:{m}", *mode,
                         "--out", str(table_out)], m + 1, table_check, (table_out,)),
        *(query_op(n) for n in queries),
    ]
    work.inputs = [_input("theorem", len(values), m + 1, 3),
                   _input("rep.table", len(values), m + 1, table_h),
                   _input("rep.n", len(values), 1, 3)]
    return work


BUILDERS = {"certify-sparse": certify_sparse, "certify-dense": certify_dense}


def build(name: str, seed: int, work_dir: Path, small: bool = False) -> Workload:
    work_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work_dir, small)
