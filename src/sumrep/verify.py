"""Premise checks, growth certificates, and counting-bound verification.

Everything here is finite and exact: a verdict never claims anything about
an infinite set, only about the declared exactness window of the prefix at
hand.  The three theorem harnesses (T1, T2, T3) share one skeleton:

  1. find the least threshold n0 so that every sum in [n0, bound] has at
     least ell representations (the premise);
  2. anchor k0 at the block of the smallest element a0 with h*a0 >= n0;
  3. walk blocks k0..K_max, certifying for each block that the maximal
     element's h-fold sum has enough distinct non-diagonal top summands,
     all landing in the next block (witness certificates);
  4. check the counting function against the theorem's logarithmic lower
     bound up to x_max, in integers: den*A(h^t) + num >= coef*(t+1) on the
     power ladder, and den*A(x) + num >= min{e : h**e >= x**coef} at each
     step end x = a-1, A(x) read off the sorted elements.  Floats are only reported.

T3 additionally requires the set to be B_{h-1,s}; its premise is checked
with h-fold counts and its per-block requirement via the pigeonhole
ceil((ell-1)/s).  Certificates are re-validated independently of the
search that produced them.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import jsonfmt
from .errors import (
    CertificateError,
    ParameterError,
    PrefixTooShortError,
    WindowError,
)
from .intset import IntegerSet, block_of, blocks, counting, from_values
from .repcount import _sweep, rep_table

SCHEMA_VERSION = 3

THEOREM_IDS = ("T1", "T2", "T3")


# ---------------------------------------------------------------------------
# exactness modes


@dataclass(frozen=True)
class Mode:
    """Exactness declaration for a finite set, and the only place that
    knows up to where its counts hold.

    ``complete``: the set is the whole set; counts are exact up to h*max(A).
    ``prefix(M)``: the set contains every element of the true set up to M
    (caller's assertion); counts over the prefix are exact for n <= M,
    because every summand of such an n is itself <= M, hence visible in the
    prefix.  A count table may extend past that bound; its cells beyond it
    are not trustworthy for the underlying set.
    """

    kind: str
    bound: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("complete", "prefix"):
            raise ParameterError(f"unknown mode {self.kind!r}")
        if self.kind == "prefix":
            if self.bound is None or self.bound < 0:
                raise ParameterError("prefix mode requires a completeness bound M >= 0")
        elif self.bound is not None:
            raise ParameterError("complete mode takes no bound")

    @classmethod
    def complete(cls) -> "Mode":
        return cls("complete")

    @classmethod
    def prefix(cls, bound: int) -> "Mode":
        return cls("prefix", bound)

    @classmethod
    def parse(cls, text: str) -> "Mode":
        if text == "complete":
            return cls.complete()
        if text.startswith("prefix:"):
            try:
                return cls.prefix(int(text.split(":", 1)[1]))
            except ValueError:
                raise ParameterError(f"bad prefix bound in mode {text!r}") from None
        raise ParameterError(f"mode must be 'complete' or 'prefix:M', got {text!r}")

    def label(self) -> str:
        return "complete" if self.kind == "complete" else f"prefix:{self.bound}"

    def exactness_bound(self, A: IntegerSet, h: int) -> int:
        if self.kind == "prefix":
            return self.bound  # type: ignore[return-value]
        return h * A.max_element if A.elements else 0


# ---------------------------------------------------------------------------
# B_{h,s} and premise checks


@dataclass(frozen=True)
class BhsReport:
    """Result of an r_{A,h}(n) <= s scan over the exactness window."""

    h: int
    s: int
    window_lo: int
    window_hi: int
    holds: bool
    violations: tuple[tuple[int, int], ...]
    checked_count: int

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "s": self.s,
            "window": [self.window_lo, self.window_hi],
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
            "checked_count": self.checked_count,
        }


def is_bhs(A: IntegerSet, h: int, s: int, mode: Mode = Mode.complete()) -> BhsReport:
    """Check r_{A,h}(n) <= s for every n in hA within the exactness window.

    The Sidon check is is_bhs(A, 2, 1, complete).
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    bound = mode.exactness_bound(A, h)
    row = rep_table(A, h, window=(0, bound)).row
    over = np.flatnonzero(row > s)
    violations = tuple(zip(over.tolist(), row[over].tolist()))
    return BhsReport(
        h=h,
        s=s,
        window_lo=0,
        window_hi=bound,
        holds=not violations,
        violations=violations,
        checked_count=int(np.count_nonzero(row)),
    )


@dataclass(frozen=True)
class PremiseReport:
    """Result of checking r_{A,h}(n) >= ell for all sums in [n0, bound]."""

    h: int
    ell: int
    n0: int
    window_lo: int
    window_hi: int
    holds: bool
    violations: tuple[tuple[int, int], ...]
    checked_count: int

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "ell": self.ell,
            "n0": self.n0,
            "window": [self.window_lo, self.window_hi],
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
            "checked_count": self.checked_count,
        }


def check_premise(
    A: IntegerSet, h: int, ell: int, n0: int | None = None, mode: Mode = Mode.complete()
) -> PremiseReport:
    """Verify r_{A,h}(n) >= ell for every n in hA with n0 <= n <= bound.

    ``n0=None`` checks from the least passing threshold, read off the same
    table; when no nonempty suffix of the window passes, the report is the
    failing check from n0 = 0.
    """
    if ell < 2:
        raise ParameterError(f"ell must be >= 2, got {ell}")
    if n0 is not None and n0 < 0:
        raise ParameterError(f"n0 must be >= 0, got {n0}")
    bound = mode.exactness_bound(A, h)
    row = rep_table(A, h, window=(0, bound)).row
    short = np.flatnonzero((row >= 1) & (row < ell))
    if n0 is None:
        # just past the last short sum, unless that is the window's top
        n0 = int(short[-1]) + 1 if short.size and short[-1] < bound else 0
    if n0 > bound:
        raise WindowError(f"window empty: n0={n0} exceeds exactness bound {bound}")
    short = short[np.searchsorted(short, n0):]
    return PremiseReport(
        h=h,
        ell=ell,
        n0=n0,
        window_lo=n0,
        window_hi=bound,
        holds=not short.size,
        violations=tuple(zip(short.tolist(), row[short].tolist())),
        checked_count=int(np.count_nonzero(row[n0:])),
    )


def compute_k0(A: IntegerSet, h: int, n0: int) -> int:
    """Block index of the smallest positive a0 in A with h*a0 >= n0."""
    if h < 2:
        raise ParameterError(f"h must be >= 2, got {h}")
    if n0 < 0:
        raise ParameterError(f"n0 must be >= 0, got {n0}")
    need = max(1, -(-n0 // h))  # ceil(n0/h), and at least 1 (0 has no block)
    idx = bisect_left(A.elements, need)
    if idx == len(A.elements):
        raise PrefixTooShortError(f"prefix too short for threshold: no a with {h}*a >= {n0}")
    return block_of(A.elements[idx], h)


# ---------------------------------------------------------------------------
# witnesses and distinct tops


@dataclass(frozen=True)
class Witness:
    """A non-diagonal representation of h*a_k* whose top summand lies in
    block k+1, certifying that block k+1 is nonempty."""

    k: int
    a_star: int
    target: int
    representation: tuple[int, ...]
    top_element: int
    top_block: int

    def validate(self, A: IntegerSet, h: int) -> None:
        """Independent re-validation; raises CertificateError on any defect."""
        rep = self.representation
        if len(rep) != h:
            raise CertificateError(f"witness at k={self.k}: representation is not an {h}-tuple")
        if any(a not in A for a in rep):
            raise CertificateError(f"witness at k={self.k}: summand not in the set")
        if any(rep[i] > rep[i + 1] for i in range(len(rep) - 1)):
            raise CertificateError(f"witness at k={self.k}: not nondecreasing")
        if sum(rep) != self.target or self.target != h * self.a_star:
            raise CertificateError(f"witness at k={self.k}: sum mismatch")
        if not rep[0] < rep[-1]:
            raise CertificateError(f"witness at k={self.k}: diagonal representation")
        if rep[-1] != self.top_element:
            raise CertificateError(f"witness at k={self.k}: top element mismatch")
        if not (self.a_star < self.top_element < h ** (self.k + 1)):
            raise CertificateError(f"witness at k={self.k}: top element out of range")
        if self.top_block != self.k + 1 or block_of(self.top_element, h) != self.k + 1:
            raise CertificateError(f"witness at k={self.k}: top element not in block k+1")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "a_star": self.a_star,
            "target": self.target,
            "representation": list(self.representation),
            "top_element": self.top_element,
            "top_block": self.top_block,
        }


def _lex_completion(
    A: IntegerSet, limit: int, size: int, total: int, forbid_all_limit: bool
) -> tuple[int, ...] | None:
    """Lexicographically least nondecreasing tuple of `size` elements of A,
    each <= limit, summing to `total`; the all-`limit` tuple may be excluded."""
    els = A.elements[: bisect_right(A.elements, limit)]
    if not els and size > 0:
        return None
    if size == 1:
        if total in A and total <= limit and not (forbid_all_limit and total == limit):
            return (total,)
        return None

    def dfs(min_idx: int, left: int, s: int, all_limit: bool) -> tuple[int, ...] | None:
        if left == 0:
            if s != 0 or (forbid_all_limit and all_limit):
                return None
            return ()
        for idx in range(min_idx, len(els)):
            a = els[idx]
            if a * left > s:
                break
            if s - a > (left - 1) * limit:
                continue
            rest = dfs(idx, left - 1, s - a, all_limit and a == limit)
            if rest is not None:
                return (a,) + rest
        return None

    return dfs(0, size, total, True)


def _witness(A: IntegerSet, h: int, k: int, a_star: int, top: int) -> Witness:
    """The re-validated witness for block k with the given distinct top of
    h*a_star: the top's lexicographically least completion.  A distinct top
    always has a completion, and excluding the all-top tuple keeps it
    non-diagonal."""
    target = h * a_star
    rep = _lex_completion(A, top, h - 1, target - top, forbid_all_limit=(h * top == target))
    witness = Witness(
        k=k,
        a_star=a_star,
        target=target,
        representation=rep + (top,),
        top_element=top,
        top_block=block_of(top, h),
    )
    witness.validate(A, h)
    return witness


def distinct_tops(
    A: IntegerSet, h: int, n: int, mode: Mode = Mode.complete()
) -> IntegerSet:
    """Top summands over all non-diagonal representations of n.

    A top b qualifies when some nondecreasing representation of n has
    maximum exactly b and minimum strictly below b.
    """
    if h < 2:
        raise ParameterError(f"h must be >= 2, got {h}")
    if n < 0:
        return from_values([])
    bound = mode.exactness_bound(A, h)
    if n > bound:
        raise WindowError(f"n={n} exceeds the exactness bound {bound}")

    if h == 2:
        # pairs (a, n-a) with a < n-a, both in A
        tops = []
        half = (n - 1) // 2
        for a in A.elements[: bisect_right(A.elements, half)]:
            if (n - a) in A:
                tops.append(n - a)
        return from_values(tops)

    # After the sweep takes in b, rows[h-1][n-b] counts the completions of
    # b by h-1 summands <= b; the all-b one is the diagonal representation.
    tops = []

    def visit(b: int, rows) -> None:
        if h * b >= n and int(rows[h - 1][n - b]) > (h * b == n):
            tops.append(b)

    _sweep(A.elements, h - 1, n, visit)
    return from_values(tops)


# ---------------------------------------------------------------------------
# block growth


@dataclass(frozen=True)
class BlockCheck:
    """One row of the per-block growth table.

    Rows k0+1 .. K_max+1 are certified by the witness/tops of the previous
    row; the row at k0 is anchored by the threshold element a0.
    """

    k: int
    interval_lo: int
    interval_hi: int
    size: int
    required: int
    size_ok: bool
    a_star: int | None = None
    target: int | None = None
    witness: Witness | None = None
    tops: tuple[int, ...] | None = None
    tops_required: int | None = None
    tops_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.size_ok and (self.tops_ok is not False)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "interval": [self.interval_lo, self.interval_hi],
            "size": self.size,
            "required": self.required,
            "size_ok": self.size_ok,
            "a_star": self.a_star,
            "target": self.target,
            "witness": self.witness.to_dict() if self.witness else None,
            "tops": list(self.tops) if self.tops is not None else None,
            "tops_required": self.tops_required,
            "tops_ok": self.tops_ok,
        }


@dataclass(frozen=True)
class BlockGrowthResult:
    entries: tuple[BlockCheck, ...]
    k_max: int | None
    unverifiable: tuple[tuple[int, int], ...]  # (k, visible size) beyond the window
    ok: bool

    def to_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "entries": [e.to_dict() for e in self.entries],
            "unverifiable": [list(u) for u in self.unverifiable],
            "ok": self.ok,
        }


def _block_requirement(ell: int, s: int | None) -> int:
    if s is None:
        return ell - 1
    return -(-(ell - 1) // s)  # ceil((ell-1)/s)


def block_growth_check(
    A: IntegerSet,
    h: int,
    ell: int,
    s: int | None,
    k0: int,
    mode: Mode = Mode.complete(),
) -> BlockGrowthResult:
    """Per-block size requirements with propagation certificates.

    Block k0 must be nonempty; each later verified block k needs
    ell-1 elements (or ceil((ell-1)/s) when a multiplicity cap s is in
    force).  K_max is the largest k whose target h*a_k* stays inside the
    exactness window; the row at K_max+1 is certified by K_max's tops, and
    nonempty blocks beyond that are reported unverifiable, never failed.
    Each in-window row's witness is read off its distinct tops: the least
    top and its lexicographically least completion, a re-validated
    non-diagonal representation of h*a_k* with its top in block k+1.  A
    row with no distinct top has no witness; the premise then fails at
    n = h*a_k*.
    """
    if ell < 2:
        raise ParameterError(f"ell must be >= 2, got {ell}")
    if s is not None and s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    bound = mode.exactness_bound(A, h)
    decomposition = blocks(A, h)
    sizes = decomposition.block_sizes()
    maxima = {k: members.max_element for k, members in decomposition}

    k_max = None
    for k in sorted(maxima):
        if k >= k0 and h * maxima[k] <= bound:
            k_max = k
    if k_max is None:
        unverifiable = tuple((k, sizes[k]) for k in sorted(sizes) if k >= k0)
        return BlockGrowthResult(entries=(), k_max=None, unverifiable=unverifiable, ok=True)

    requirement = _block_requirement(ell, s)

    entries = []
    for k in range(k0, k_max + 2):
        size = sizes.get(k, 0)
        required = 1 if k == k0 else requirement
        a_star = maxima.get(k)
        in_window = a_star is not None and h * a_star <= bound
        witness = tops = tops_required = tops_ok = None
        if in_window:  # so k <= k_max
            tops = distinct_tops(A, h, h * a_star, mode).elements
            if tops:
                witness = _witness(A, h, k, a_star, tops[0])
            tops_required = requirement
            # a top b of h*a_k* is in A with a_k* < b < h^(k+1), so in block k+1
            tops_ok = len(tops) >= requirement
        entries.append(
            BlockCheck(
                k=k,
                interval_lo=h ** (k - 1),
                interval_hi=h**k - 1,
                size=size,
                required=required,
                size_ok=size >= required,
                a_star=a_star,
                target=h * a_star if in_window else None,
                witness=witness,
                tops=tops,
                tops_required=tops_required,
                tops_ok=tops_ok,
            )
        )

    unverifiable = tuple((k, sizes[k]) for k in sorted(sizes) if k > k_max + 1)
    ok = all(e.ok for e in entries)
    return BlockGrowthResult(
        entries=tuple(entries),
        k_max=k_max,
        unverifiable=unverifiable,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# bounds


def _normalize_params(
    theorem_id: str, h: int | None, ell: int | None, s: int | None
) -> tuple[int, int, int | None]:
    if theorem_id not in THEOREM_IDS:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    if theorem_id == "T1":
        h = 2 if h is None else h
        ell = 2 if ell is None else ell
        if ell != 2:
            raise ParameterError("T1 uses ell=2 (coefficient 1)")
        if s is not None:
            raise ParameterError("T1 takes no multiplicity cap s")
    elif theorem_id == "T2":
        h = 2 if h is None else h
        if h != 2:
            raise ParameterError("T2 requires h=2")
        if ell is None or ell < 2:
            raise ParameterError("T2 requires ell >= 2")
        if s is not None:
            raise ParameterError("T2 takes no multiplicity cap s")
    else:
        h = 2 if h is None else h
        if ell is None or ell < 2:
            raise ParameterError("T3 requires ell >= 2")
        if s is None or s < 1:
            raise ParameterError("T3 requires a multiplicity cap s >= 1")
    if h < 2:
        raise ParameterError(f"h must be >= 2, got {h}")
    return h, ell, s


def _bound_terms(
    theorem_id: str, h: int | None, ell: int | None, s: int | None, k0: int
) -> tuple[int, int, int, int]:
    """(h, coef, den, num) of the conclusion A(x) >= (coef*log_h(x) - num)/den:
    T1 (h, 1, 1, k0), T2 (2, ell-1, 1, (ell-1)(k0+1)), T3 (h, ell-1, s,
    (ell-1)(k0+1)).  s*w0 is always an integer, so no fraction is needed."""
    h, ell, s = _normalize_params(theorem_id, h, ell, s)
    if theorem_id == "T1":
        return h, 1, 1, k0
    return h, ell - 1, s if theorem_id == "T3" else 1, (ell - 1) * (k0 + 1)


def _exponents(h: int, coef: int, xs: Iterable[int]) -> Iterator[int]:
    """For ascending xs, the least e with h**e >= x**coef, each in turn: the
    exponents never decrease, so one running power of h serves them all."""
    e, power = 0, 1
    for x in xs:
        target = x**coef
        while power < target:
            e, power = e + 1, power * h
        yield e


def _bound_holds(terms: tuple[int, int, int, int], count: int, x: int) -> bool:
    """Exactly A(x) >= bound(x) for A(x) = count: den*count + num >= e, the
    least e with h**e >= x**coef."""
    h, coef, den, num = terms
    return den * count + num >= next(_exponents(h, coef, (x,)))


def _bound_float(terms: tuple[int, int, int, int], x: int) -> float:
    h, coef, den, num = terms
    return coef * math.log(x) / (den * math.log(h)) - num / den


class BoundCheck(NamedTuple):
    """A(x) = count against the bound at x: ``holds`` is the exact verdict,
    ``bound`` the double-precision value, reported only."""

    x: int
    count: int
    bound: float
    holds: bool

    @property
    def margin(self) -> float:
        return self.count - self.bound

    @property
    def status(self) -> str:
        return "pass" if self.holds else "fail"


@dataclass(frozen=True)
class BoundResult:
    x_max: int
    exhaustive: bool
    checks: tuple[BoundCheck, ...]
    all_ok: bool

    def to_dict(self) -> dict:
        """The checks as one table: equal-length columns, row i in entry i."""
        checks = self.checks
        return {
            "x_max": self.x_max,
            "exhaustive": self.exhaustive,
            "checks": {
                "x": [c.x for c in checks],
                "count": [c.count for c in checks],
                "bound": [c.bound for c in checks],
                "margin": [c.margin for c in checks],
                "status": [c.status for c in checks],
            },
            "all_ok": self.all_ok,
        }


def verify_counting_bound(
    A: IntegerSet,
    theorem_id: str,
    h: int,
    ell: int,
    s: int | None,
    k0: int,
    x_max: int,
    exhaustive: bool = False,
) -> BoundResult:
    """Check A(x) >= bound(x) for every integer x in [h, x_max].

    A(x) only jumps at elements of A while the bound increases, so the
    default checks the step ends h <= a-1 < x_max (A(a-1) is the number of
    positive elements below a) and x_max; ``exhaustive=True`` checks every
    integer (their equivalence is itself a tested property).  Each status
    is exact; bound and margin are double-precision values, reported only.
    """
    terms = _bound_terms(theorem_id, h, ell, s, k0)
    h, coef, den, num = terms
    if x_max < h:
        raise WindowError(f"x_max={x_max} below x >= h = {h}")
    if exhaustive:
        xs = range(h, x_max + 1)
        counts = [counting(A, x) for x in xs]
    else:
        els = A.elements
        first, lo, hi = bisect_right(els, 0), bisect_left(els, h + 1), bisect_right(els, x_max)
        xs = [a - 1 for a in els[lo:hi]] + [x_max]
        counts = [*range(lo - first, hi - first), counting(A, x_max)]
    checks = tuple(
        BoundCheck(x, count, _bound_float(terms, x), den * count + num >= e)
        for x, count, e in zip(xs, counts, _exponents(h, coef, xs))
    )
    all_ok = all(c.holds for c in checks)
    return BoundResult(x_max=x_max, exhaustive=exhaustive, checks=checks, all_ok=all_ok)


# ---------------------------------------------------------------------------
# full theorem harness


@dataclass(frozen=True)
class PowerCheck:
    """The step-count inequality A(h^t) >= bound(h^(t+1)): the conclusion
    on all of [h^t, h^(t+1)) with A read at the left end."""

    t: int
    power: int
    count: int
    required: Fraction
    ok: bool

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "power": self.power,
            "count": self.count,
            "required": str(self.required),
            "required_float": float(self.required),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    h: int
    ell: int
    s: int | None
    mode: Mode
    premise_counts: str  # which fold the premise was checked with
    n0: int | None
    k0: int | None
    w0: Fraction | None
    premise: PremiseReport | None
    bhs_premise: BhsReport | None
    block_checks: BlockGrowthResult | None
    bound_checks: BoundResult | None
    power_checks: tuple[PowerCheck, ...]
    x_max: int | None
    verdict: bool
    first_failure: str | None

    def __bool__(self) -> bool:
        return self.verdict

    @property
    def k_max(self) -> int | None:
        return self.block_checks.k_max if self.block_checks else None

    def witnesses(self) -> dict[int, Witness]:
        if not self.block_checks:
            return {}
        return {e.k: e.witness for e in self.block_checks.entries if e.witness}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "theorem": self.theorem_id,
            "parameters": {"h": self.h, "ell": self.ell, "s": self.s},
            "mode": self.mode.label(),
            "premise_counts": self.premise_counts,
            "n0": self.n0,
            "k0": self.k0,
            "w0": str(self.w0) if self.w0 is not None else None,
            "w0_float": float(self.w0) if self.w0 is not None else None,
            "premise": self.premise.to_dict() if self.premise else None,
            "bhs_premise": self.bhs_premise.to_dict() if self.bhs_premise else None,
            "blocks": self.block_checks.to_dict() if self.block_checks else None,
            "bounds": self.bound_checks.to_dict() if self.bound_checks else None,
            "powers": [p.to_dict() for p in self.power_checks],
            "x_max": self.x_max,
            "verdict": "pass" if self.verdict else "fail",
            "first_failure": self.first_failure,
        }

    def to_json(self) -> str:
        return jsonfmt.dumps(self.to_dict())

    def bound_csv(self) -> str:
        out = io.StringIO()
        out.write("x,Ax,bound\n")
        if self.bound_checks:
            for c in self.bound_checks.checks:
                out.write(f"{c.x},{c.count},{c.bound!r}\n")
        return out.getvalue()


def run_theorem(
    A: IntegerSet,
    theorem_id: str,
    h: int | None = None,
    ell: int | None = None,
    s: int | None = None,
    mode: Mode = Mode.complete(),
    x_max: int | None = None,
) -> TheoremReport:
    """End-to-end harness: premise, anchor, block growth, counting bounds.

    The verdict is pass only when the premise holds on the window and every
    conclusion check passes.  T3 additionally requires the B_{h-1,s}
    premise and checks the per-block pigeonhole; its premise is checked
    with h-fold counts.  A premise holding on a window with no sum of hA
    raises WindowError, so that a fail stays a mathematical "no".
    """
    h, ell, s = _normalize_params(theorem_id, h, ell, s)
    if x_max is not None and x_max < h:
        # rejected up front, so that exit 1 stays a mathematical "no"
        raise WindowError(f"x_max={x_max} below x >= h = {h}")
    bound = mode.exactness_bound(A, h)

    failures: list[str] = []

    premise = check_premise(A, h, ell, None, mode)
    if premise.holds:
        n0 = premise.n0
        k0 = compute_k0(A, h, n0)
        if not premise.checked_count:
            raise WindowError(f"premise window [{n0}, {bound}] ({mode.label()}) holds no "
                              f"sum of {h}A; the theorem checks nothing")
        _, coef, den, num = _bound_terms(theorem_id, h, ell, s, k0)
        w0 = Fraction(num, den)
    else:
        failures.append("premise")
        n0 = k0 = w0 = None

    bhs_report = None
    if theorem_id == "T3":
        bhs_report = is_bhs(A, h - 1, s, mode)
        if not bhs_report.holds:
            failures.append("bhs_premise")

    growth = None
    bounds = None
    powers: tuple[PowerCheck, ...] = ()
    effective_x_max = None
    if k0 is not None:
        growth = block_growth_check(A, h, ell, s, k0, mode)
        if not growth.ok:
            failures.append("blocks")

        effective_x_max = x_max
        if effective_x_max is None:
            default_max = bound if mode.kind == "prefix" else (A.max_element or 0)
            effective_x_max = default_max if default_max >= h else None
        if effective_x_max is not None:
            bounds = verify_counting_bound(A, theorem_id, h, ell, s, k0, effective_x_max)
            if not bounds.all_ok:
                failures.append("bounds")

            # at x = h^(t+1) the exponent of x**coef is exactly coef*(t+1)
            checks = []
            t, power = 1, h
            while power <= effective_x_max:
                count = counting(A, power)
                required = Fraction(coef * (t + 1) - num, den)
                checks.append(PowerCheck(t, power, count, required, count >= required))
                t, power = t + 1, power * h
            powers = tuple(checks)
            if not all(p.ok for p in powers):
                failures.append("powers")

    return TheoremReport(
        theorem_id=theorem_id,
        h=h,
        ell=ell,
        s=s,
        mode=mode,
        premise_counts=f"{h}-fold",
        n0=n0,
        k0=k0,
        w0=w0,
        premise=premise,
        bhs_premise=bhs_report,
        block_checks=growth,
        bound_checks=bounds,
        power_checks=powers,
        x_max=effective_x_max,
        verdict=not failures,
        first_failure=failures[0] if failures else None,
    )
