"""Greedy construction of dense-enough prefixes with many representations.

``greedy_repair`` scans pair sums n = 0, 1, ... of an evolving set A and,
whenever n is a sum of two elements but has fewer than ``ell``
representations, inserts new elements of the form n - a until the count
reaches ell.  Repair partners a are restricted to a <= n/2, so every
inserted element is >= n/2.  Only sums up to the watermark W = floor(T/2)
of a run with horizon T are repaired.  Counts only grow, so a repaired sum
stays repaired; a sum the scan passed with no representation can gain its
first one from a later insertion, so the scan is followed by repair passes
over the short sums until one finds none.

After the repairs the result is re-certified from scratch through the
verification layer (least threshold + premise check on [n0, W]); the
construction's incremental bookkeeping is never trusted for the verdict.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import os
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from . import jsonfmt
from .errors import CertificateError, ParameterError, SumrepError
from .intset import IntegerSet, counting, ensure_memory, from_values
from .verify import Mode, _bound_holds, _bound_terms, _bound_values, check_premise, compute_k0

# whether each successive repair takes the smallest new element
_SIDES = {"smallest-new": (True,), "largest-new": (False,), "balanced": (True, False)}
STRATEGIES = tuple(_SIDES)


def _integer(v: object) -> int:
    """v as an int; a float or a numeric string is refused, never truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise TypeError(f"expected an integer, got {v!r}") from None


@dataclass(frozen=True)
class ConstructionLog:
    """Full trace of one greedy run, including its certification status."""

    target_ell: int
    horizon: int
    strategy: str
    seed_set: IntegerSet
    additions: tuple[tuple[int, int], ...]  # (element added, trigger sum n)
    failures: tuple[tuple[int, int], ...]  # (n, count reached) left deficient
    watermark: int
    final_set: IntegerSet
    certified: bool
    n0: int | None
    checked_count: int
    density_curve: tuple[tuple[int, int], ...]  # (x, A(x))

    @property
    def certified_frac(self) -> float:
        """(W - n0)/W, the certified share of the watermark window; 0 when
        uncertified (a certified run has a sum >= n0 in [0, W], so W >= 1)."""
        return (self.watermark - self.n0) / self.watermark if self.certified else 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "target_ell": self.target_ell,
            "horizon": self.horizon,
            "strategy": self.strategy,
            "seed": list(self.seed_set.elements),
            "additions": [list(a) for a in self.additions],
            "failures": [list(f) for f in self.failures],
            "watermark": self.watermark,
            "final": list(self.final_set.elements),
            "certified": self.certified,
            "n0": self.n0,
            "checked_count": self.checked_count,
            "certified_frac": self.certified_frac,
            "density_curve": [list(p) for p in self.density_curve],
        }

    def to_json(self) -> str:
        return jsonfmt.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ConstructionLog":
        """Rebuild a log, refusing one whose fields contradict each other
        (TypeError/ValueError), so nothing downstream divides by a zero
        watermark or reads an empty density curve."""
        log = cls(
            target_ell=_integer(doc["target_ell"]),
            horizon=_integer(doc["horizon"]),
            strategy=doc["strategy"],
            seed_set=from_values(doc["seed"]),
            additions=tuple((_integer(e), _integer(n)) for e, n in doc["additions"]),
            failures=tuple((_integer(n), _integer(c)) for n, c in doc["failures"]),
            watermark=_integer(doc["watermark"]),
            final_set=from_values(doc["final"]),
            certified=doc["certified"],
            n0=None if doc["n0"] is None else _integer(doc["n0"]),
            checked_count=_integer(doc["checked_count"]),
            density_curve=tuple((_integer(x), _integer(c)) for x, c in doc["density_curve"]),
        )
        if not isinstance(log.certified, bool):
            raise TypeError(f"certified must be true or false, got {log.certified!r}")
        if log.watermark != log.horizon // 2:
            raise ValueError(f"watermark {log.watermark} is not floor(horizon/2) for "
                             f"horizon {log.horizon}")
        if log.certified and not (log.watermark >= 1 and log.n0 is not None
                                  and 0 <= log.n0 <= log.watermark):
            raise ValueError(f"a certified log needs watermark >= 1 and 0 <= n0 <= watermark, "
                             f"got watermark={log.watermark}, n0={log.n0}")
        if not log.density_curve or log.density_curve[-1][0] != log.horizon:
            raise ValueError(f"density_curve must end at the horizon {log.horizon}")
        return log

    @classmethod
    def from_json(cls, text: str | bytes) -> "ConstructionLog":
        """Parse a log; a document that is not one raises SumrepError."""
        try:
            return cls.from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise SumrepError(f"malformed construction log: {type(exc).__name__}: {exc}") from None

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ConstructionLog":
        with open(path, "rb") as fh:  # json decodes the bytes, so bad UTF-8 is malformed too
            return cls.from_json(fh.read())


def _checkpoints(horizon: int) -> list[int]:
    xs = []
    x = 1
    while x < horizon:
        xs.append(x)
        x *= 2
    xs.append(horizon)
    return xs


def greedy_repair(
    ell: int,
    horizon: int,
    strategy: str = "smallest-new",
    seed: IntegerSet | None = None,
) -> ConstructionLog:
    """Grow a set so that every certified pair sum has >= ell representations.

    Deficient sums n <= W = floor(horizon/2) are repaired in increasing
    order, first in one scan, then in passes over every sum with
    0 < count < ell until a pass finds none; a repair inserts the strategy's
    choice of e = n - a with a in A, a <= n/2, e not yet in A:

      * ``smallest-new``: least such e (partner just below n/2);
      * ``largest-new``: greatest such e (partner near 0, e close to n);
      * ``balanced``: alternate between the two choices per repair attempt.

    Sums whose repair candidates run out are logged as failures, not
    retried, and left to the certification threshold.  The returned log is
    certified when the independent premise re-check passes on [n0, W] and
    checks at least one sum there.  Every element and every sum read is
    <= W, so the 0/1 membership row and the pair counts take 2*(W + 1)
    int64 cells, about 8*horizon bytes.
    """
    if ell < 2:
        raise ParameterError(f"ell must be >= 2, got {ell}")
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if seed is None:
        seed = from_values([0, 1])
    if not seed:
        raise ParameterError("seed set must be nonempty")
    if horizon < 2 * seed.max_element:
        raise ParameterError(
            f"horizon {horizon} below 2*max(seed) = {2 * seed.max_element}"
        )

    watermark = horizon // 2
    ensure_memory(16 * (watermark + 1), "greedy_repair")
    # Every element is <= W (the seed by the horizon check, a repair
    # n - a with n <= W), and only counts at n <= W are ever read, so both
    # rows stop at W.
    members: set[int] = set()
    ordered: list[int] = []
    present = np.zeros(watermark + 1, dtype=np.int64)
    counts = np.zeros(watermark + 1, dtype=np.int64)
    additions: list[tuple[int, int]] = []
    failures: list[tuple[int, int]] = []
    sides = itertools.cycle(_SIDES[strategy])

    def candidate(n: int, want_small_e: bool) -> int | None:
        """Partner-constrained new element for n, or None when exhausted.

        Scans members a <= n/2 (descending for the smallest new e,
        ascending for the largest); every scanned member with n - a
        already present is one existing representation, so the scan visits
        at most ell members before finding a hole or running out.
        """
        half = n // 2
        hi = bisect_right(ordered, half)
        rng = range(hi - 1, -1, -1) if want_small_e else range(hi)
        for i in rng:
            a = ordered[i]
            if (n - a) not in members:
                return n - a
        return None

    def insert(e: int) -> None:
        # counts[a + e] += 1 for every a in A + {e} with a + e <= W; the
        # pair {e, e} is counted once
        present[e] = 1
        counts[e:] += present[: watermark + 1 - e]
        members.add(e)
        insort(ordered, e)

    def repair(n: int) -> None:
        while counts[n] < ell:
            e = candidate(n, next(sides))
            if e is None:
                failures.append((n, int(counts[n])))
                return
            insert(e)
            additions.append((e, n))

    for a in seed.elements:
        insert(a)
    # the first pass scans every sum; a sum it passed at count 0 may have
    # gained a short count since, so each later pass takes the short sums
    # not yet failed (counts only grow, so each is still nonzero)
    todo = range(watermark + 1)
    while todo:
        for n in todo:
            if counts[n]:
                repair(n)
        failed = {n for n, _ in failures}
        todo = [n for n in np.flatnonzero((counts > 0) & (counts < ell)).tolist()
                if n not in failed]

    final = IntegerSet(tuple(ordered))
    report = check_premise(final, 2, ell, None, Mode.prefix(watermark))
    # a premise that checked no sum certifies nothing
    certified = report.holds and report.checked_count > 0
    n0 = report.n0 if certified else None
    checked = report.checked_count if certified else 0

    curve = tuple((x, counting(final, x)) for x in _checkpoints(horizon))
    return ConstructionLog(
        target_ell=ell,
        horizon=horizon,
        strategy=strategy,
        seed_set=seed,
        additions=tuple(additions),
        failures=tuple(failures),
        watermark=watermark,
        final_set=final,
        certified=certified,
        n0=n0,
        checked_count=checked,
        density_curve=curve,
    )


@dataclass(frozen=True)
class DensityRow:
    x: int
    count: int
    lower_bound: float
    log_sq_ref: float

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "Ax": self.count,
            "lower_bound": self.lower_bound,
            "log_sq_ref": self.log_sq_ref,
        }


@dataclass(frozen=True)
class DensityReport:
    theorem_id: str
    k0: int
    rows: tuple[DensityRow, ...]
    final_ratio: float  # A(T) / (log T)^2, reported without any threshold
    certified_frac: float  # (W - n0)/W of the construction

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "theorem": self.theorem_id,
            "k0": self.k0,
            "rows": [r.to_dict() for r in self.rows],
            "final_ratio": self.final_ratio,
            "certified_frac": self.certified_frac,
        }

    def csv_text(self) -> str:
        out = io.StringIO()
        out.write("x,Ax,lower_bound,log_sq_ref\n")
        for r in self.rows:
            out.write(f"{r.x},{r.count},{r.lower_bound!r},{r.log_sq_ref!r}\n")
        return out.getvalue()

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())


def density_report(log: ConstructionLog) -> DensityReport:
    """Density of a certified construction against its guaranteed bound.

    Rows pair A(x) with the applicable logarithmic lower bound (the ell=2
    chain bound, or the ell>=3 pair-sum bound) and the (log x)^2 reference
    curve.  At x = horizon the bound A(x) >= bound(x) must hold, decided
    exactly; a violation means the construction or the verifier is broken,
    so it raises.
    """
    if not log.certified or log.n0 is None:
        raise ParameterError("density_report requires a certified construction log")
    theorem_id = "T1" if log.target_ell == 2 else "T2"
    k0 = compute_k0(log.final_set, 2, log.n0)
    terms = _bound_terms(theorem_id, 2, log.target_ell, None, k0)
    curve = [(x, count) for x, count in log.density_curve if x >= 2]
    bounds = _bound_values(terms, [x for x, _ in curve]).tolist()
    rows = tuple(
        DensityRow(x=x, count=count, lower_bound=bound, log_sq_ref=math.log(x) ** 2)
        for (x, count), bound in zip(curve, bounds)
    )
    last = rows[-1]
    if last.x == log.horizon and not _bound_holds(terms, last.count, last.x):
        raise CertificateError(
            f"certified construction violates its lower bound at x={last.x}: "
            f"A(x)={last.count} < {last.lower_bound}"
        )
    ratio = last.count / (math.log(last.x) ** 2)
    return DensityReport(theorem_id=theorem_id, k0=k0, rows=rows, final_ratio=ratio,
                         certified_frac=log.certified_frac)
