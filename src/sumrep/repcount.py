"""Exact h-fold sumsets and representation counts.

``rep_count`` counts nondecreasing h-tuples over A summing to n (multiset
count).  Three independent routes exist on purpose:

  * ``rep_count_naive``: exhaustive recursive enumeration, the correctness
    oracle for everything else;
  * ``rep_count``: memoized recursion on the number of summands left, fast
    for single n and the only route whose cost does not grow with max(A);
  * ``rep_table``: one sweep over the sorted elements that fills a whole
    window at once, O(|A| * h * window).

The sweep keeps one unsigned 64-bit row per number of summands.  Every
cell it keeps is bounded by some h-fold count in the window, so it checks
each add for wrap-around and raises ``CountOverflowError`` exactly when a
count in the window exceeds 64 bits; the check is skipped when the
multiset total C(#elements + h - 1, h) fits, since then no cell can wrap.

A table built from a prefix of a larger set is exact for all n up to the
prefix completeness bound M: every summand of such an n is itself <= M,
hence visible in the prefix.  ``exactness_bound`` records that window.
"""

from __future__ import annotations

import io
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CountOverflowError, ParameterError, WindowError
from .intset import U64_MAX, IntegerSet, ensure_headroom, ensure_memory, from_values


def rep_count_naive(A: IntegerSet, h: int, n: int) -> int:
    """Count nondecreasing h-tuples summing to n by exhaustive recursion.

    Correctness oracle; intended for small inputs (|A| <= ~12, h <= ~5).
    Prefixes whose partial sum already exceeds n are dropped — safe because
    all elements are nonnegative.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if n < 0:
        return 0
    els = A.elements

    def go(i: int, left: int, acc: int) -> int:
        if acc > n:
            return 0
        if left == 0:
            return 1 if acc == n else 0
        total = 0
        for t in range(i, len(els)):
            total += go(t, left - 1, acc + els[t])
        return total

    return go(0, h, 0)


def rep_count(A: IntegerSet, h: int, n: int) -> int:
    """Exact r_{A,h}(n): nondecreasing h-tuples over A summing to n.

    Recursion depth is at most h: each level picks the index of the
    smallest remaining summand.  Each (summands left, sum) pair is solved
    once, for every starting index at once (suffix sums), in O(|A|) steps;
    there are at most h*n such pairs and at most |A|^(h-2) per level, so
    huge elements on a sparse set cost nothing extra.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if n < 0 or not A.elements:
        return 0
    els = A.elements
    top = els[-1]
    memo: dict[tuple[int, int], tuple[int, list[int]]] = {}

    def go(i: int, left: int, s: int) -> int:
        """Nondecreasing `left`-tuples over els[i:] summing to s."""
        if left == 1:
            return 1 if s >= els[i] and s in A else 0
        found = memo.get((left, s))
        if found is None:
            # smallest summand els[t]: the other left-1 are in [els[t], top]
            lo = bisect_left(els, s - (left - 1) * top)
            hi = bisect_right(els, s // left)
            tail = [0] * (max(hi - lo, 0) + 1)
            for t in range(hi - 1, lo - 1, -1):
                tail[t - lo] = tail[t - lo + 1] + go(t, left - 1, s - els[t])
            found = memo[(left, s)] = (lo, tail)
        lo, tail = found
        k = max(i, lo) - lo
        return tail[k] if k < len(tail) else 0

    return go(0, h, n)


def _sweep(
    elements: Sequence[int],
    h: int,
    hi: int,
    visit: Callable[[int, list[np.ndarray]], None] | None = None,
) -> list[np.ndarray]:
    """Multiset counts by number of summands, one element at a time.

    Returns rows[0..h] with rows[j][t] = the number of j-multisets of the
    elements <= hi summing to t; ``visit(a, rows)`` sees the rows after each
    element a, when they count multisets of the elements <= a.  Row j stops
    at hi - (h-j)*min(A): no count on [0, hi] reads past it, and padding
    with h-j copies of min(A) bounds every kept cell by an h-fold count on
    [0, hi].  Hence an add wraps exactly when some r_h(n), n <= hi, exceeds
    64 bits, and that raises CountOverflowError.
    """
    stop = bisect_right(elements, hi)
    least = elements[0] if stop else 0
    sizes = [max(0, hi - (h - j) * least + 1) for j in range(h + 1)]
    ensure_memory(sum(sizes) * np.dtype(np.uint64).itemsize, f"the {h}-fold sweep to {hi}")
    rows = [np.zeros(size, dtype=np.uint64) for size in sizes]
    if rows[0].size:
        rows[0][0] = 1
    checked = math.comb(stop + h - 1, h) > U64_MAX
    for a in elements[:stop]:
        for j in range(1, h + 1):
            row = rows[j]
            width = row.size - a
            if width <= 0:
                continue
            head, add = row[a:], rows[j - 1][:width]
            if checked and np.any(add > ~head):
                raise CountOverflowError(
                    f"a {h}-fold representation count on [0, {hi}] exceeds "
                    f"the unsigned 64-bit range"
                )
            head += add
        if visit is not None:
            visit(a, rows)
    return rows


@dataclass(frozen=True)
class RepTable:
    """Exact r_{A,h}(n) on the window [lo, hi], with exactness metadata.

    ``exactness_bound`` is the largest n whose count is trustworthy for the
    underlying (possibly infinite) set; the table may extend beyond it.
    ``trimmed`` flags a requested window cut back to [0, h*max(A)].
    """

    base_set: IntegerSet
    h: int
    lo: int
    hi: int
    values: tuple[int, ...]
    exactness_bound: int
    trimmed: bool

    def count(self, n: int) -> int:
        if not (self.lo <= n <= self.hi):
            raise WindowError(f"n={n} outside table window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def in_sumset(self, n: int) -> bool:
        return self.count(n) >= 1

    def items(self) -> Iterator[tuple[int, int]]:
        for i, c in enumerate(self.values):
            yield self.lo + i, c

    def support(self) -> tuple[int, ...]:
        """All n in the window with a positive count (members of hA)."""
        return tuple(n for n, c in self.items() if c >= 1)

    def total(self) -> int:
        return sum(self.values)

    def max_count(self) -> int:
        return max(self.values) if self.values else 0

    def csv_text(self) -> str:
        out = io.StringIO()
        out.write(
            f"# h={self.h} |A|={len(self.base_set)} "
            f"exactness_bound={self.exactness_bound}\n"
        )
        out.write("n,count\n")
        for n, c in self.items():
            out.write(f"{n},{c}\n")
        return out.getvalue()

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())


def rep_table(
    A: IntegerSet,
    h: int,
    window: tuple[int, int] | None = None,
    prefix_bound: int | None = None,
) -> RepTable:
    """Batch-compute r_{A,h}(n) for every n in the window.

    ``prefix_bound=M`` asserts that A contains every element of the true
    set up to M; counts are then exact for all n <= M.  Without it the set
    is treated as complete and the exactness bound is h*max(A).

    Counts come from one checked 64-bit sweep; a count above 2^64 - 1 in
    the window raises CountOverflowError.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    ensure_headroom(A, h, "rep_table")
    full = h * A.max_element if A.elements else 0
    if window is None:
        window = (0, full)
    lo, hi = window
    if lo > hi:
        raise WindowError(f"empty window [{lo}, {hi}]")
    trimmed = False
    if lo < 0:
        lo, trimmed = 0, True
    if hi > full:
        hi, trimmed = full, True
    if lo > hi:
        raise WindowError(
            f"window {window[0]}:{window[1]} lies outside [0, h*max(A)] = [0, {full}]; "
            f"every count outside that range is 0"
        )
    if prefix_bound is not None:
        if prefix_bound < 0:
            raise ParameterError(f"prefix bound must be >= 0, got {prefix_bound}")
        bound = prefix_bound
    else:
        bound = full

    values = tuple(_sweep(A.elements, h, hi)[h][lo : hi + 1].tolist())
    return RepTable(
        base_set=A,
        h=h,
        lo=lo,
        hi=hi,
        values=values,
        exactness_bound=bound,
        trimmed=trimmed,
    )


def _mask_to_elements(mask: int, limit: int) -> tuple[int, ...]:
    """Set bit positions of mask up to limit, via byte unpacking."""
    if mask == 0 or limit < 0:
        return ()
    nbytes = limit // 8 + 1
    mask &= (1 << (limit + 1)) - 1
    raw = mask.to_bytes(nbytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return tuple(int(i) for i in np.nonzero(bits)[0])


def sumset(A: IntegerSet, h: int, cap: int | None = None) -> IntegerSet:
    """The h-fold sumset {n <= cap : n is a sum of h elements of A}.

    cap defaults to h*max(A), the largest possible sum.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if not A.elements:
        return from_values([])
    ensure_headroom(A, h, "sumset")
    full = h * A.elements[-1]
    ensure_memory(full // 8, "sumset")
    if cap is None:
        cap = full
    if cap < 0:
        raise ParameterError(f"cap must be >= 0, got {cap}")
    cap = min(cap, full)

    mask = 0
    for a in A.elements:
        mask |= 1 << a
    reach = mask
    for _ in range(h - 1):
        layer = 0
        for a in A.elements:
            layer |= reach << a
        reach = layer
    return IntegerSet(_mask_to_elements(reach, cap))
