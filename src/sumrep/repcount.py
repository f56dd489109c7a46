"""Exact h-fold sumsets and representation counts.

``rep_count`` counts nondecreasing h-tuples over A summing to n (multiset
count).  Independent routes exist on purpose:

  * ``rep_count_naive``: exhaustive recursive enumeration, the correctness
    oracle for everything else;
  * ``rep_count``: a memo over (summands left, sum) without recursion, fast
    for single n and the only route whose cost does not grow with max(A);
  * ``rep_table``: a whole window at once, from a certified float FFT,
    O(h^2 * W log W), when that estimate is below the sweep's and the FFT
    can prove its row exact, and otherwise from one checked sweep over the
    sorted elements, O(|A| * h * W).

No count on [0, hi] can exceed ``_cell_bound``: the multiset total
C(k+h-1, h) of the k elements <= hi, or C(hi+h-1, h-1), the number of
ordered h-tuples of nonnegative integers summing to hi, whichever is less.
The FFT route (``_fft_row``) applies the Newton identity for multisets and
returns a row only with a certificate of exactness, which starts with that
bound below 2^53; it never decides a verdict the sweep would not.  The
sweep keeps one unsigned 64-bit row per number of summands.  Every cell it
keeps is bounded by some h-fold count in the window, so it checks each add
for wrap-around and raises ``CountOverflowError`` exactly when a count in
the window exceeds 64 bits; the check is skipped when the bound fits in
64 bits, since then no cell can wrap.

``rep --n`` reads the one-cell table ``rep_table(A, h, (n, n))`` when
``one_cell_cheaper`` finds it exact, within memory and estimated cheaper
than the memo's step bound, and calls ``rep_count`` otherwise.

These routes only count over the set they are given.  Up to where a count
also holds for the underlying (possibly infinite) set is declared by
``verify.Mode``, not here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CountOverflowError, ParameterError, WindowError
from .intset import U64_MAX, IntegerSet, ensure_headroom, ensure_memory


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

    Each (summands left, sum) state is solved once, for every index of the
    smallest summand at once (suffix sums), in O(|A|) steps.  The states are
    gathered from h summands down to 2 and solved from 2 up, so nothing
    recurses; there are at most h*n states and at most |A|^(h-2) per level,
    so huge elements on a sparse set cost nothing extra.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if n < 0 or not A.elements:
        return 0
    els = A.elements
    top = els[-1]

    def starts(left: int, s: int) -> range:
        # smallest summand els[t]: the other left-1 are in [els[t], top]
        return range(bisect_left(els, s - (left - 1) * top), bisect_right(els, s // left))

    levels = [{n}]  # levels[h - left]: the sums that `left` summands must reach
    for left in range(h, 2, -1):
        levels.append({s - els[t] for s in levels[-1] for t in starts(left, s)})
    members = A.members
    memo: dict[int, tuple[int, list[int]]] = {}  # sum -> (first start, suffix counts)
    for left in range(2, h + 1):
        below, memo = memo, {}
        for s in levels.pop():
            span = starts(left, s)
            acc, tail = 0, [0]
            for t in reversed(span):
                rest = s - els[t]
                if left == 2:  # rest >= els[t], since els[t] <= s/2
                    acc += rest in members
                elif rest in below:
                    lo, counts = below[rest]
                    k = t - lo if t > lo else 0
                    if k < len(counts):
                        acc += counts[k]
                tail.append(acc)
            tail.reverse()
            memo[s] = (span.start, tail)
    return memo[n][1][0] if h > 1 else int(n in members)


def _cell_bound(k: int, h: int, hi: int) -> int:
    """A bound on every count the table routes keep for the window [0, hi].

    k is the number of elements <= hi.  A kept count of 1 <= j <= h summands
    counts j-multisets of those elements summing to some t <= hi.  So it is
    at most the multiset total C(k+j-1, j) <= C(k+h-1, h), and at most the
    number C(t+j-1, j-1) <= C(hi+h-1, h-1) of ordered j-tuples of
    nonnegative integers summing to t, which grows with t and j.
    """
    return min(math.comb(k + h - 1, h), math.comb(hi + h - 1, h - 1))


def _table_work(k: int, h: int, hi: int) -> tuple[int, int]:
    """(FFT work, sweep cells) of an h-fold row to hi over k elements <= hi.

    The FFT's work is h(h-1)/2 spectrum products of N/2 + 1 cells plus 2h
    transforms of size N = the next power of two above 2*hi + 1; the
    sweep's is k*h*(hi + 1) cells.
    """
    size = 1 << (2 * hi + 1).bit_length()
    fft_work = h * (h - 1) // 2 * (size // 2 + 1) + 2 * h * size * (size.bit_length() - 1)
    return fft_work, k * h * (hi + 1)


def _memo_steps(k: int, h: int, n: int) -> int:
    """A bound on ``rep_count``'s steps for r_h(n) over k elements <= n.

    The level of `left` summands holds at most min(n+1, k^(h-left)) sums,
    each solved in at most k steps, for left = 2..h.
    """
    steps, level = 0, 1
    for _ in range(h - 1):
        steps += level * k
        level = min(n + 1, level * k)
    return steps


def one_cell_cheaper(A: IntegerSet, h: int, n: int) -> bool:
    """True when ``rep_table(A, h, (n, n))`` gives r_{A,h}(n) exactly and is
    estimated cheaper than ``rep_count(A, h, n)``.

    That needs 0 <= n <= h*max(A) within 64 bits, ``_cell_bound`` within
    64 bits (so no count is refused), a table estimate (the cheaper of the
    FFT's work and the sweep's cells) below the memo's step bound, one
    numpy cell against one Python step, and the sweep's rows within memory.
    """
    if not A.elements or not 0 <= n <= h * A.max_element <= U64_MAX:
        return False
    k = bisect_right(A.elements, n)
    if min(_table_work(k, h, n)) >= _memo_steps(k, h, n):
        return False
    nbytes = (h + 1) * (n + 1) * np.dtype(np.uint64).itemsize  # at least the sweep's rows
    try:
        ensure_memory(nbytes, f"the {h}-fold sweep to {n}")
    except ParameterError:
        return False
    return _cell_bound(k, h, n) <= U64_MAX


def _sweep(elements: Sequence[int], h: int, hi: int) -> list[np.ndarray]:
    """Multiset counts by number of summands, one element at a time.

    Returns rows[0..h] with rows[j][t] = the number of j-multisets of the
    elements <= hi summing to t.  Row j stops at hi - (h-j)*min(A): no
    count on [0, hi] reads past it, and padding with h-j copies of min(A)
    bounds every kept cell by an h-fold count on [0, hi].  Hence an add
    wraps exactly when some r_h(n), n <= hi, exceeds 64 bits, and that
    raises CountOverflowError.  Each add is checked only when
    ``_cell_bound`` passes 64 bits; otherwise no cell can wrap.
    """
    stop = bisect_right(elements, hi)
    least = elements[0] if stop else 0
    sizes = [max(0, hi - (h - j) * least + 1) for j in range(h + 1)]
    ensure_memory(sum(sizes) * np.dtype(np.uint64).itemsize, f"the {h}-fold sweep to {hi}")
    rows = [np.zeros(size, dtype=np.uint64) for size in sizes]
    if rows[0].size:
        rows[0][0] = 1
    checked = _cell_bound(stop, h, hi) > U64_MAX
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
    return rows


_EPS = 2.0**-53  # unit roundoff of float64
_BETA = 2.0**-52  # error allowed in each precomputed root of unity
_EXACT = 2**53  # float64 and int64 hold every integer below this


def _fft_error_constant(n: int, j: int) -> float:
    """(1+eps)^(3n+j-1) (1+eps*sqrt 5)^(3n+1) (1+beta)^(3n) - 1."""
    return math.expm1(
        (3 * n + j - 1) * math.log1p(_EPS)
        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
        + 3 * n * math.log1p(_BETA)
    )


def _fft_row(elements: Sequence[int], h: int, hi: int) -> np.ndarray | None:
    """r_h(0..hi) as a uint64 row from a float FFT, or None when uncertified.

    With P_k(x) = sum_{a <= hi} x^(k*a) and H_0 = 1, the Newton identity
    j*H_j = sum_{k=1..j} P_k * H_{j-k} (the MSET construction of Flajolet &
    Sedgewick, Analytic Combinatorics, Sec. I.2) makes H_j(x) count the
    j-multisets of the elements by their sum, and r_h = H_h.  Each step sums
    its products in the frequency domain, takes one inverse transform of
    size N = 2^n, the next power of two above 2*hi + 1 (so no product
    wraps), and rounds.  The row is returned only when all of these hold:

      * ``_cell_bound(k, h, hi)`` < 2^53 for the k elements <= hi.  Every
        H_j(t), j <= h and t <= hi, counts j-multisets of those elements
        summing to t, so each is at most that bound and exact in float64
        and int64;
      * the a-priori error of each step, c_j * sum_k |P_k|_2 |H_{j-k}|_2,
        is below 1/4, with c_j = (1+eps)^(3n+j-1) (1+eps*sqrt 5)^(3n+1)
        (1+beta)^(3n) - 1, eps = 2^-53 and beta = 2^-52 the allowed error
        of a root of unity.  This is the bound of Percival, Math. Comp. 72
        (2003), Thm. 5.1, on |z' - z|_inf for one FFT product z = x*y,
        applied to each term by linearity, times (1+eps)^(j-1) for the
        j - 1 spectrum additions.  By Cauchy-Schwarz the same norm sum
        bounds every exact j*H_j(t), which a bound below 1/4 keeps far
        below 2^53;
      * every raw value lies within 1/4 of an integer;
      * every rounded Newton sum is divisible by j;
      * on a full window (hi >= h*max(A)) the row sums to C(|A|+h-1, h).

    Percival's bound is proved for the radix-2 FFT; numpy's pocketfft mixes
    radices with error of the same O(eps log N) order, and the last three
    checks reject a transform that breaks it.  Declining costs two binomials
    when the bound is too large, and nothing is allocated when the
    transforms would not fit in physical memory.
    """
    stop = bisect_right(elements, hi)
    if _cell_bound(stop, h, hi) >= _EXACT:
        return None
    size = 1 << (2 * hi + 1).bit_length()
    try:
        ensure_memory((2 * h + 2) * (size // 2 + 1) * 16, f"the {h}-fold FFT to {hi}")
    except ParameterError:
        return None
    base = np.array(elements[:stop], dtype=np.int64)
    spectra, norms = [None], [None]  # P_k's spectrum and |P_k|_2, from k = 1
    for k in range(1, h + 1):
        picked = bisect_right(elements, hi // k, 0, stop)
        poly = np.zeros(hi + 1)
        poly[k * base[:picked]] = 1.0
        spectra.append(np.fft.rfft(poly, size))
        norms.append(math.sqrt(picked))
        if k == 1:
            row = poly  # H_1 = P_1
    n = size.bit_length() - 1
    h_spectra, h_norms = [None, spectra[1]], [1.0, norms[1]]
    for j in range(2, h + 1):
        terms = sum(norms[k] * h_norms[j - k] for k in range(1, j + 1))
        if _fft_error_constant(n, j) * terms >= 0.25:
            return None
        total = spectra[j].copy()  # P_j * H_0
        for k in range(1, j):
            total += spectra[k] * h_spectra[j - k]
        raw = np.fft.irfft(total, size)[: hi + 1]
        whole = np.rint(raw)
        if np.any(np.abs(raw - whole) >= 0.25):
            return None
        sums = whole.astype(np.int64)
        if np.any(sums % j):
            return None
        row = (sums // j).astype(np.float64)
        h_norms.append(math.sqrt(float(np.dot(row, row))))
        if j < h:
            h_spectra.append(np.fft.rfft(row, size))
    row = row.astype(np.uint64)
    if elements and hi >= h * elements[-1]:
        if sum(row.tolist()) != math.comb(len(elements) + h - 1, h):
            return None
    return row


@dataclass(frozen=True, eq=False)
class RepTable:
    """r_{A,h}(n) over the set A on the window [lo, hi].

    ``row`` holds the counts as one read-only uint64 array, row[i] being
    r(lo + i).  ``trimmed`` flags a requested window cut back to
    [0, h*max(A)].
    """

    lo: int
    hi: int
    row: np.ndarray
    trimmed: bool

    def count(self, n: int) -> int:
        if not (self.lo <= n <= self.hi):
            raise WindowError(f"n={n} outside table window [{self.lo}, {self.hi}]")
        return int(self.row[n - self.lo])

    def items(self) -> Iterator[tuple[int, int]]:
        return enumerate(self.row.tolist(), start=self.lo)

    def total(self) -> int:
        return sum(self.row.tolist())  # Python ints: a total can pass 2^64

    def max_count(self) -> int:
        return int(self.row.max()) if self.row.size else 0


def rep_table(A: IntegerSet, h: int, window: tuple[int, int] | None = None) -> RepTable:
    """Batch-compute r_{A,h}(n) for every n in the window (default [0, h*max(A)]).

    Counts come from the certified FFT when its work estimate is below the
    sweep's cells (``_table_work``) and the FFT certifies its row.
    Otherwise they come from one checked 64-bit sweep, where a count above
    2^64 - 1 in the window raises CountOverflowError.
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
    fft_work, cells = _table_work(bisect_right(A.elements, hi), h, hi)
    row = _fft_row(A.elements, h, hi) if fft_work < cells else None
    if row is None:
        row = _sweep(A.elements, h, hi)[h]
    row = row[lo : hi + 1]
    row.flags.writeable = False
    return RepTable(lo=lo, hi=hi, row=row, trimmed=trimmed)


def sumset(A: IntegerSet, h: int, cap: int | None = None) -> IntegerSet:
    """The h-fold sumset {n <= cap : n is a sum of h elements of A}.

    cap defaults to h*max(A), the largest possible sum.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    if not A.elements:
        return IntegerSet(())
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
    # the set bits of reach up to cap, via byte unpacking
    raw = (reach & ((1 << (cap + 1)) - 1)).to_bytes(cap // 8 + 1, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return IntegerSet(tuple(np.flatnonzero(bits).tolist()))
