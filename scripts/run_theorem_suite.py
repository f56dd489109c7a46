#!/usr/bin/env python3
"""Run the three growth-theorem harnesses over a portfolio of instances.

Positive instances are dense prefixes {0..m} (every large enough sum has
many representations); negative controls are Sidon-style sets whose premise
must fail.  Prints one verdict line per run; --json dumps full reports.

Usage: python scripts/run_theorem_suite.py [--m 200] [--json reports.json]
"""

import argparse
import sys

from sumrep.intset import from_values
from sumrep.jsonfmt import dumps
from sumrep.repcount import rep_table
from sumrep.verify import Mode, run_theorem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=200,
                        help="largest dense prefix {0..m} to verify")
    parser.add_argument("--json", default=None, help="write full reports here")
    args = parser.parse_args(argv)

    runs = []
    for m in (50, args.m):
        A = from_values(range(m + 1))
        mode = Mode.prefix(m)
        runs.append((f"T1 h=2 {{0..{m}}}", run_theorem(A, "T1", h=2, mode=mode)))
        runs.append((f"T1 h=3 {{0..{m}}}", run_theorem(A, "T1", h=3, mode=mode)))
        runs.append((f"T2 ell=3 {{0..{m}}}", run_theorem(A, "T2", ell=3, mode=mode)))
        runs.append((f"T2 ell=4 {{0..{m}}}", run_theorem(A, "T2", ell=4, mode=mode)))
        s = rep_table(A, 2).max_count()
        runs.append(
            (f"T3 h=3 s={s} {{0..{m}}}",
             run_theorem(A, "T3", h=3, ell=2, s=s, mode=mode))
        )

    sidon = from_values([0, 1, 3, 7, 12, 20])
    runs.append(("T1 h=2 sidon-like (control)", run_theorem(sidon, "T1", h=2)))

    failures = 0
    for name, report in runs:
        status = "PASS" if report.verdict else f"FAIL at {report.first_failure}"
        print(f"{name:36s} n0={report.n0!s:>5} k0={report.k0!s:>4} "
              f"w0={report.w0!s:>6} k_max={report.k_max!s:>4}  {status}")
        expected_fail = "control" in name
        if report.verdict == expected_fail:
            failures += 1

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dumps({name: r.to_dict() for name, r in runs}))
        print(f"wrote {args.json}")

    if failures:
        print(f"{failures} run(s) had unexpected verdicts")
        return 1
    print("all verdicts as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
