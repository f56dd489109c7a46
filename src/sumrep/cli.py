"""Command-line front end.

Exit codes: 0 = verdict pass / computation done, 1 = mathematically
negative verdict, 2 = usage or input error, 3 = internal error (the
computation ran out of memory or recursion depth).  Structured (json)
output is byte-stable for identical configurations once timestamps are
suppressed with --no-meta.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from itertools import chain

from . import construct as construct_mod
from . import jsonfmt
from . import verify as verify_mod
from .errors import SumrepError, WindowError
from .intset import blocks, from_values, load_set
from .repcount import one_cell_cheaper, rep_count, rep_table, sumset
from .selftest import run_selftest

PASS, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _fmt(value: float) -> str:
    """Floats in text reports carry 12 significant digits."""
    return f"{value:.12g}"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, doc: dict) -> None:
    if not args.no_meta:
        doc["meta"] = {"timestamp": datetime.now(timezone.utc).isoformat()}
    _emit(args, jsonfmt.dumps(doc))


def _mode(args) -> verify_mod.Mode:
    return verify_mod.Mode.parse(args.mode)


def _common(sub: argparse.ArgumentParser, with_set: bool = True,
            with_mode: bool = False) -> argparse.Action:
    """Add the shared options; returns the --format action, whose choices a
    command with a CSV form extends."""
    fmt = sub.add_argument("--format", choices=("text", "json"), default="text",
                           help="output format (json is the structured report)")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--no-meta", action="store_true",
                     help="omit timestamps from structured output")
    if with_set:
        sub.add_argument("--set", required=True, dest="set_path",
                         help="set file: one nonnegative integer per line, '#' comments")
    if with_mode:
        sub.add_argument("--mode", default="complete",
                         help="'complete' or 'prefix:M' (M = completeness bound)")
    return fmt


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="sumrep",
        description="Exact h-fold representation counts, B_{h,s} checks, and "
                    "growth-bound certificates for integer sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sumset", help="compute the h-fold sumset")
    _common(p)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)

    p = subs.add_parser("rep", help="representation count at one n, or a table")
    _common(p, with_mode=True).choices += ("csv",)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--window", default=None, help="LO:HI table window")

    p = subs.add_parser("bhs", help="check the B_{h,s} property")
    _common(p, with_mode=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = subs.add_parser("premise", help="check r(n) >= ell on [n0, bound], or find least n0")
    _common(p, with_mode=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n0", type=int, default=None,
                   help="threshold; omitted = find the least passing threshold")

    p = subs.add_parser("theorem", help="run a full growth-theorem harness")
    _common(p, with_mode=True).choices += ("csv",)
    p.add_argument("--id", required=True, choices=verify_mod.THEOREM_IDS, dest="theorem_id")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--x-max", type=int, default=None, dest="x_max")

    p = subs.add_parser("blocks", help="base-h block decomposition")
    _common(p)
    p.add_argument("--h", type=int, required=True)

    p = subs.add_parser("construct", help="greedy repair construction")
    _common(p, with_set=False)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--T", type=int, required=True, dest="horizon")
    p.add_argument("--strategy", choices=construct_mod.STRATEGIES, default="smallest-new")
    p.add_argument("--seed-set", default=None, help="seed set file (default {0,1})")
    p.add_argument("--log-out", default=None, help="write the construction log (json) here")

    p = subs.add_parser("density", help="density table for a certified construction log")
    _common(p, with_set=False).choices += ("csv",)
    p.add_argument("--log", required=True, help="construction log written by 'construct'")

    p = subs.add_parser("selftest", help="randomized oracle-equivalence suite")
    _common(p, with_set=False)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_sumset(args) -> int:
    A = load_set(args.set_path)
    result = sumset(A, args.h, args.cap)
    if args.format == "json":
        _emit_json(args, {
            "schema_version": 1,
            "command": "sumset",
            "h": args.h,
            "cap": args.cap,
            "elements": list(result.elements),
        })
    else:
        _emit(args, "\n".join(str(a) for a in result.elements) if result else "")
    return PASS


def _cmd_rep(args) -> int:
    A = load_set(args.set_path)
    mode = _mode(args)
    if (args.n is None) == (args.window is None):
        raise SumrepError("rep takes exactly one of --n or --window")
    bound = mode.exactness_bound(A, args.h)
    if args.n is not None:
        if args.format == "csv":
            raise SumrepError("rep --n has no csv form; use --window N:N for a table")
        if mode.kind == "prefix" and args.n > bound:
            raise WindowError(f"n={args.n} exceeds the exactness bound {bound}")
        if one_cell_cheaper(A, args.h, args.n):
            count = rep_table(A, args.h, window=(args.n, args.n)).count(args.n)
        else:
            count = rep_count(A, args.h, args.n)
        if args.format == "json":
            _emit_json(args, {
                "schema_version": 1,
                "command": "rep",
                "h": args.h,
                "n": args.n,
                "count": count,
            })
        else:
            _emit(args, f"r={count}")
        return PASS
    try:
        lo, hi = (int(part) for part in args.window.split(":"))
    except ValueError:
        raise SumrepError(f"bad --window {args.window!r}; expected LO:HI") from None
    cut = mode.kind == "prefix" and hi > bound
    if cut:
        if lo > bound:
            raise WindowError(f"window {lo}:{hi} starts past the exactness bound {bound}")
        hi = bound
    table = rep_table(A, args.h, window=(lo, hi))
    trimmed = cut or table.trimmed
    if args.format == "json":
        _emit_json(args, {
            "schema_version": 1,
            "command": "rep",
            "h": args.h,
            "window": [table.lo, table.hi],
            "exactness_bound": bound,
            "trimmed": trimmed,
            "counts": jsonfmt.IntRows(tuple(chain.from_iterable(table.items())), 2),
        })
    elif args.format == "csv":
        rows = (f"{n},{c}" for n, c in table.items())
        _emit(args, "\n".join([f"# h={args.h} |A|={len(A)} exactness_bound={bound}",
                               "n,count", *rows]))
    else:
        lines = [f"{n} {c}" for n, c in table.items()]
        if trimmed:
            lines.insert(0, f"# window trimmed to [{table.lo}, {table.hi}]")
        _emit(args, "\n".join(lines))
    return PASS


def _cmd_bhs(args) -> int:
    A = load_set(args.set_path)
    report = verify_mod.is_bhs(A, args.h, args.s, _mode(args))
    if args.format == "json":
        doc = {"schema_version": 1, "command": "bhs"}
        doc.update(report.to_dict())
        _emit_json(args, doc)
    else:
        lines = [f"B_{{{args.h},{args.s}}}: {'true' if report.holds else 'false'}"]
        for n, c in report.violations:
            lines.append(f"violation: r({n}) = {c}")
        _emit(args, "\n".join(lines))
    return PASS if report.holds else FAIL


def _cmd_premise(args) -> int:
    A = load_set(args.set_path)
    mode = _mode(args)
    report = verify_mod.check_premise(A, args.h, args.ell, args.n0, mode)
    if args.n0 is None and not report.holds:
        if args.format == "json":
            _emit_json(args, {
                "schema_version": 1, "command": "premise",
                "h": args.h, "ell": args.ell, "mode": mode.label(),
                "min_threshold": None,
            })
        else:
            _emit(args, "no threshold: the window's top sum violates")
        return FAIL
    if args.format == "json":
        doc = {"schema_version": 1, "command": "premise", "mode": mode.label()}
        doc.update(report.to_dict())
        _emit_json(args, doc)
    else:
        lines = [
            f"premise r_{{A,{args.h}}}(n) >= {args.ell} on "
            f"[{report.n0}, {report.window_hi}]: {'holds' if report.holds else 'fails'}"
            f" ({report.checked_count} sums checked)"
        ]
        for n, c in report.violations[:20]:
            lines.append(f"violation: r({n}) = {c}")
        if len(report.violations) > 20:
            lines.append(f"... {len(report.violations) - 20} more violations")
        _emit(args, "\n".join(lines))
    return PASS if report.holds else FAIL


def _cmd_theorem(args) -> int:
    A = load_set(args.set_path)
    mode = _mode(args)
    report = verify_mod.run_theorem(
        A, args.theorem_id, h=args.h, ell=args.ell, s=args.s, mode=mode, x_max=args.x_max
    )
    if args.format == "json":
        _emit_json(args, report.to_dict())
    elif args.format == "csv":
        _emit(args, report.bound_csv())
    else:
        lines = [
            f"theorem {report.theorem_id} [{mode.label()}]: "
            f"{'PASS' if report.verdict else 'FAIL'}",
            f"  parameters: h={report.h} ell={report.ell}"
            + (f" s={report.s}" if report.s is not None else ""),
            f"  n0={report.n0} k0={report.k0} w0={report.w0}",
        ]
        if report.bhs_premise is not None:
            lines.append(
                f"  B_{{{report.h - 1},{report.s}}} premise: "
                f"{'holds' if report.bhs_premise.holds else 'fails'}"
            )
        if report.block_checks is not None and report.k_max is not None:
            lines.append(f"  blocks verified: k={report.k0}..{report.k_max + 1} "
                         f"(witness targets within window up to k={report.k_max})")
            for e in report.block_checks.entries:
                mark = "ok" if e.ok else "FAIL"
                lines.append(
                    f"    k={e.k} [{e.interval_lo},{e.interval_hi}] size={e.size} "
                    f"required={e.required} {mark}"
                )
        if report.bound_checks is not None:
            b = report.bound_checks
            i = b.margin.index(min(b.margin))  # the first minimal margin
            lines.append(
                f"  bound checks: {len(b.x)} candidates up to x={report.x_max}, "
                f"worst margin {_fmt(b.margin[i])} at x={b.x[i]} (bound {_fmt(b.bound[i])})"
            )
        for p in report.power_checks:
            lines.append(
                f"  A({p.power}) = {p.count} >= {p.required}: {'ok' if p.ok else 'FAIL'}"
            )
        if report.first_failure:
            lines.append(f"  first failure: {report.first_failure}")
        _emit(args, "\n".join(lines))
    return PASS if report.verdict else FAIL


def _cmd_blocks(args) -> int:
    A = load_set(args.set_path)
    decomposition = blocks(A, args.h)
    if args.format == "json":
        _emit_json(args, {
            "schema_version": 1,
            "command": "blocks",
            "base": decomposition.base,
            "zero_excluded": decomposition.zero_excluded,
            "blocks": [
                {"k": k, "members": list(members.elements)}
                for k, members in decomposition
            ],
        })
    else:
        lines = [
            f"k={k} [{args.h ** (k - 1)},{args.h ** k}): "
            + " ".join(str(a) for a in members)
            for k, members in decomposition
        ]
        if decomposition.zero_excluded:
            lines.append("# zero excluded from blocks")
        _emit(args, "\n".join(lines) if lines else "# empty decomposition")
    return PASS


def _cmd_construct(args) -> int:
    seed = load_set(args.seed_set) if args.seed_set else from_values([0, 1])
    log = construct_mod.greedy_repair(args.ell, args.horizon, args.strategy, seed)
    if args.log_out:
        log.save(args.log_out)
    if args.format == "json":
        _emit_json(args, log.to_dict())
    else:
        lines = [
            f"greedy ell={log.target_ell} T={log.horizon} strategy={log.strategy}",
            f"  additions: {len(log.additions)}, final size: {len(log.final_set)}",
            f"  watermark: {log.watermark}, certified: "
            + ("yes" if log.certified else "no")
            + (f" (n0={log.n0}, {log.checked_count} sums)" if log.certified else ""),
            f"  certified fraction (W-n0)/W: {_fmt(log.certified_frac)}",
        ]
        if log.failures:
            lines.append(f"  unreachable sums: {[n for n, _ in log.failures]}")
        _emit(args, "\n".join(lines))
    return PASS if log.certified else FAIL


def _cmd_density(args) -> int:
    log = construct_mod.ConstructionLog.load(args.log)
    report = construct_mod.density_report(log)
    if args.format == "json":
        _emit_json(args, report.to_dict())
    elif args.format == "csv":
        _emit(args, report.csv_text())
    else:
        lines = [f"x={r.x} A(x)={r.count} bound={_fmt(r.lower_bound)} "
                 f"(log x)^2={_fmt(r.log_sq_ref)}" for r in report.rows]
        lines.append(f"A(T)/(log T)^2 = {_fmt(report.final_ratio)}")
        lines.append(f"certified fraction (W-n0)/W = {_fmt(report.certified_frac)}")
        _emit(args, "\n".join(lines))
    return PASS


def _cmd_selftest(args) -> int:
    lines: list[str] = []
    ok = run_selftest(trials=args.trials, seed=args.seed, emit=lines.append)
    if args.format == "json":
        _emit_json(args, {
            "schema_version": 1,
            "command": "selftest",
            "trials": args.trials,
            "seed": args.seed,
            "ok": ok,
            "log": lines,
        })
    else:
        _emit(args, "\n".join(lines))
    return PASS if ok else FAIL


_COMMANDS = {
    "sumset": _cmd_sumset,
    "rep": _cmd_rep,
    "bhs": _cmd_bhs,
    "premise": _cmd_premise,
    "theorem": _cmd_theorem,
    "blocks": _cmd_blocks,
    "construct": _cmd_construct,
    "density": _cmd_density,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return _COMMANDS[args.command](args)
    except (SumrepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (MemoryError, RecursionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
