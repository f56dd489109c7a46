"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Randomized corpora use fixed seeds so every run checks the same instances.
"""

import math
import random
import time

import pytest

from sumrep.cli import main
from sumrep.construct import density_report, greedy_repair
from sumrep.intset import blocks, counting, from_values
from sumrep.repcount import rep_count, rep_count_naive, rep_table
from sumrep.verify import (
    Mode,
    check_premise,
    distinct_tops,
    is_bhs,
    run_theorem,
    verify_counting_bound,
)

RANGE50 = from_values(range(51))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_c01_oracle_equivalence():
    rng = random.Random(101)
    started = time.monotonic()
    checked = 0
    for _ in range(500):
        A = from_values(rng.sample(range(41), rng.randint(1, 7)))
        h = rng.choice((2, 3, 4))
        for n in range(h * A.max_element + 1):
            assert rep_count(A, h, n) == rep_count_naive(A, h, n), (list(A), h, n)
            checked += 1
    elapsed = time.monotonic() - started
    _verdict(
        1,
        elapsed < 60,
        f"rep_count == rep_count_naive on 500 random sets "
        f"({checked} values, {elapsed:.1f}s < 60s)",
    )


def test_c02_multiset_sum_identity():
    rng = random.Random(202)
    for _ in range(200):
        A = from_values(rng.sample(range(80), rng.randint(1, 12)))
        h = rng.choice((2, 3, 4, 5))
        expected = math.comb(len(A) + h - 1, h)
        assert rep_table(A, h).total() == expected, (list(A), h)
    _verdict(2, True, "sum of counts equals C(|A|+h-1, h) on 200 random sets")


def test_c03_theorem1_end_to_end():
    started = time.monotonic()
    report = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50))
    elapsed = time.monotonic() - started

    assert report.verdict
    assert report.n0 == 2 and report.k0 == 1 and report.w0 == 1
    k_max = report.k_max
    witnesses = report.witnesses()
    assert sorted(witnesses) == list(range(1, k_max + 1))
    for w in witnesses.values():
        w.validate(RANGE50, 2)
    assert all(c.margin > 0 for c in report.bound_checks.checks)

    # the proof-line inequality at each power 2^t <= 50, both halves
    t, power = 1, 2
    while power <= 50:
        x = min(2 * power - 1, 50)
        assert counting(RANGE50, x) >= counting(RANGE50, power) >= t - (report.k0 - 1)
        t, power = t + 1, 2 * power
    assert [p.t for p in report.power_checks] == [1, 2, 3, 4, 5]
    assert all(p.ok for p in report.power_checks)

    again = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50))
    assert again.to_json() == report.to_json()

    _verdict(
        3,
        elapsed < 1.0,
        f"T1 on {{0..50}}: n0=2 k0=1 w0=1, witnesses k=1..{k_max}, "
        f"margins > 0, power line verified ({elapsed:.2f}s < 1s)",
    )


def test_c04_theorem2_end_to_end():
    started = time.monotonic()
    report = run_theorem(RANGE50, "T2", ell=3, mode=Mode.prefix(50))
    elapsed = time.monotonic() - started

    assert report.verdict
    assert report.w0 == (3 - 1) * (report.k0 + 1) == 6
    for entry in report.block_checks.entries:
        if entry.k >= report.k0 + 1:
            assert entry.required == 2
            assert entry.size >= 2
    _verdict(
        4,
        elapsed < 1.0,
        f"T2 on {{0..50}}: w0=6, |A_k| >= 2 for verified k >= k0+1 "
        f"({elapsed:.2f}s < 1s)",
    )


def test_c05_theorem3_pigeonhole():
    rng = random.Random(505)
    exercised = 0
    for _ in range(200):
        A = from_values(rng.sample(range(81), rng.randint(2, 30)))
        h = rng.choice((3, 4))
        s = rep_table(A, h - 1).max_count()
        if s == 0:
            continue
        assert is_bhs(A, h - 1, s).holds
        for k, members in blocks(A, h):
            target = h * members.max_element
            ell = rep_count(A, h, target)
            if ell < 2:
                continue
            exercised += 1
            tops = distinct_tops(A, h, target)
            need = -(-(ell - 1) // s)
            assert len(tops) >= need, (list(A), h, k, target, ell, s)

    # deterministic instance with tool-computed parameters
    A20 = from_values(range(21))
    mode = Mode.prefix(20)
    s = rep_table(A20, 2).max_count()
    assert s == 11
    assert is_bhs(A20, 2, s, mode).holds
    n0 = check_premise(A20, 3, 2, None, mode).n0
    table = rep_table(A20, 3, window=(0, 20))
    ell = min(c for n, c in table.items() if c >= 1 and n >= n0)
    assert ell == 2
    for k, members in blocks(A20, 3):
        target = 3 * members.max_element
        if target > 20:
            continue
        tops = distinct_tops(A20, 3, target, mode)
        assert tops.elements == (3, 4, 5, 6)
        assert len(tops) >= -(-(ell - 1) // s)
    report = run_theorem(A20, "T3", h=3, ell=ell, s=s, mode=mode)
    assert report.verdict

    _verdict(
        5,
        exercised > 0,
        f"pigeonhole held on all {exercised} exercised corpus instances; "
        f"deterministic {{0..20}} instance: s=11, ell=2, tops(6)={{3,4,5,6}}",
    )


def test_c06_sidon_bhs():
    sidon = from_values([0, 1, 3, 7])
    assert is_bhs(sidon, 2, 1).holds
    near = from_values([0, 1, 3, 4])
    rejected = is_bhs(near, 2, 1)
    assert not rejected.holds
    assert rejected.violations == ((4, 2),)
    assert is_bhs(near, 2, 2).holds
    _verdict(6, True, "{0,1,3,7} certified B_{2,1}; {0,1,3,4} rejected with (4,2), certified B_{2,2}")


def test_c07_invariance_suite():
    rng = random.Random(707)
    for _ in range(100):
        A = from_values(rng.sample(range(41), rng.randint(1, 7)))
        h = rng.choice((2, 3, 4))
        c = rng.randint(0, 12)
        d = rng.randint(1, 6)
        shifted = from_values(a + c for a in A)
        scaled = from_values(a * d for a in A)
        for n in range(h * A.max_element + 1):
            base = rep_count(A, h, n)
            assert rep_count(shifted, h, n + h * c) == base
            assert rep_count(scaled, h, d * n) == base
    for _ in range(100):
        sup = rng.sample(range(41), rng.randint(2, 8))
        B = from_values(sup)
        A = from_values(rng.sample(sup, rng.randint(1, len(sup))))
        h = rng.choice((2, 3))
        for n in range(h * B.max_element + 1):
            assert rep_count(A, h, n) <= rep_count(B, h, n)
    _verdict(7, True, "translation/dilation on 100 instances, monotonicity on 100 subset pairs")


def test_c08_candidate_point_equivalence():
    rng = random.Random(808)
    agreements = 0
    for _ in range(100):
        A = from_values(rng.sample(range(70), rng.randint(1, 10)))
        k0 = rng.randint(1, 3)
        x_max = rng.randint(2, 70)
        fast = verify_counting_bound(A, "T1", 2, 2, None, k0, x_max)
        slow = verify_counting_bound(A, "T1", 2, 2, None, k0, x_max, exhaustive=True)
        assert fast.all_ok == slow.all_ok
        agreements += 1
    _verdict(8, True, f"candidate-set verdict matched exhaustive verdict on {agreements} instances")


def test_c09_constructor_soundness():
    started = time.monotonic()
    log = greedy_repair(2, 10**5)
    assert log.certified
    premise = check_premise(log.final_set, 2, 2, log.n0, Mode.prefix(log.watermark))
    assert premise.holds
    report = run_theorem(log.final_set, "T1", h=2, mode=Mode.prefix(log.watermark))
    assert report.verdict
    density = density_report(log)
    last = density.rows[-1]
    assert last.x == 10**5
    assert last.count > last.lower_bound  # theorem-backed, hard
    elapsed = time.monotonic() - started
    _verdict(
        9,
        elapsed < 300,
        f"greedy ell=2 T=1e5: certified on [{log.n0}, {log.watermark}], T1 passes, "
        f"A(T)={last.count} > bound={last.lower_bound:.2f}, "
        f"A(T)/(log T)^2={density.final_ratio:.1f} ({elapsed:.0f}s < 300s)",
    )


def test_c10_thread_cap_determinism(monkeypatch, capsys, tmp_path):
    reports = {
        run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50)).to_json() for _ in range(3)
    }
    set_file = tmp_path / "range50.txt"
    set_file.write_text("".join(f"{a}\n" for a in RANGE50))
    common = ["--h", "2", "--mode", "prefix:50", "--set", str(set_file), "--no-meta"]
    theorem_argv = ["theorem", "--id", "T1", *common, "--format", "json"]
    table_argv = ["rep", "--window", "0:50", *common, "--format", "csv"]
    outputs, tables = set(), set()
    for cap in ("1", "2", "8"):
        monkeypatch.setenv("SUMREP_THREADS", cap)
        assert main(theorem_argv) == 0
        outputs.add(capsys.readouterr().out)
        assert main(table_argv) == 0
        tables.add(capsys.readouterr().out)
    assert len(tables) == 1
    assert len(reports) == 1
    assert len(outputs) == 1
    _verdict(10, True, "run_theorem byte-identical across runs; CLI rep csv table and "
                       "theorem output byte-identical under SUMREP_THREADS 1, 2, 8")
