#!/usr/bin/env python3
"""Density study: how dense do greedy many-representation sets get?

Runs the greedy repair constructor across strategies and target counts,
certifies each run, and writes per-run density CSVs plus a summary table
comparing A(T) against the guaranteed logarithmic lower bound and the
(log T)^2 reference curve.

Only ``balanced`` tells much about density.  With W = T/2 and ell = 2,
``smallest-new`` ends at {0, ..., W/2 + 1} and ``largest-new`` at
{0, 1, 2} and the odd numbers up to W; for every ell both keep about W/2
elements, so their ratio to (log T)^2 only reflects A(T) ~ T/4.

Usage: python scripts/run_density_experiment.py [--T 100000] [--out-dir results]
"""

import argparse
import math
import sys
from pathlib import Path

from sumrep.construct import STRATEGIES, density_report, greedy_repair
from sumrep.intset import from_values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=100_000, help="construction horizon")
    parser.add_argument("--ells", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--strategies", nargs="+", default=list(STRATEGIES),
                        choices=STRATEGIES)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for ell in args.ells:
        seed = from_values(range(ell))  # {0..ell-1} keeps small sums repairable
        for strategy in args.strategies:
            log = greedy_repair(ell, args.T, strategy, seed)
            tag = f"ell{ell}_{strategy}"
            log.save(out_dir / f"log_{tag}.json")
            if not log.certified:
                print(f"{tag}: NOT CERTIFIED (failures at "
                      f"{[n for n, _ in log.failures][:5]}...)")
                continue
            report = density_report(log)
            report.to_csv(out_dir / f"density_{tag}.csv")
            last = report.rows[-1]
            rows.append((tag, len(log.final_set), log.watermark, last.count,
                         last.lower_bound, report.final_ratio))
            print(f"{tag}: |A|={len(log.final_set)} certified=[{log.n0},{log.watermark}] "
                  f"A(T)={last.count} bound={last.lower_bound:.2f} "
                  f"A(T)/(log T)^2={report.final_ratio:.2f}")

    summary = out_dir / "summary.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("run,set_size,watermark,A_T,lower_bound,ratio_to_log_sq\n")
        for tag, size, wm, count, bound, ratio in rows:
            fh.write(f"{tag},{size},{wm},{count},{bound!r},{ratio!r}\n")
    print(f"\nwrote {summary} ({len(rows)} certified runs, T={args.T}, "
          f"(log T)^2={math.log(args.T) ** 2:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
