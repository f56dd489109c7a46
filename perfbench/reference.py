"""Exact reference answers computed without sumrep's counting code.

Representation counts come from the cycle-index (Newton) identity for
multisets: with P_k(x) = sum_{a in A} x^(k*a) and H_0 = 1,

    j * H_j = sum_{k=1..j} P_k * H_{j-k},

and r_{A,h}(n) is the coefficient of x^n in H_h.  Products are taken by
float FFT and rounded; every rounding is checked, so a count is either
exact or the reference raises.  Tables too large for floats are compared
modulo two primes instead, with direct integer convolution.

The theorem expectations re-derive n0, k0 and the verdict of the T1-T3
harnesses from these counts and from the set itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PRIMES = (8388593, 8388587)  # < 2^23: a product of two residues stays < 2^46
_EXACT_LIMIT = 2**50


class ReferenceFailure(RuntimeError):
    """The reference could not produce an answer it can vouch for."""


def _powers(values, k: int, hi: int, dtype) -> np.ndarray:
    """Coefficients of P_k(x) = sum_a x^(k*a), truncated to degree hi."""
    p = np.zeros(hi + 1, dtype=dtype)
    for a in values:
        if k * a <= hi:
            p[k * a] += 1
    return p


def _fft_mul(a: np.ndarray, b: np.ndarray, hi: int) -> np.ndarray:
    size = 1 << (2 * hi + 1).bit_length()
    prod = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[: hi + 1]
    rounded = np.rint(prod)
    if rounded.size and float(np.max(np.abs(prod - rounded))) >= 0.25:
        raise ReferenceFailure("FFT product is not within 1/4 of an integer")
    return rounded


def counts(values, h: int, hi: int) -> np.ndarray:
    """Exact r_{A,h}(n) for n in [0, hi] as an int64 array."""
    if hi < 0:
        return np.zeros(0, dtype=np.int64)
    powers = [None] + [_powers(values, k, hi, np.float64) for k in range(1, h + 1)]
    H = [np.zeros(hi + 1)]
    H[0][0] = 1.0
    for j in range(1, h + 1):
        total = np.zeros(hi + 1)
        for k in range(1, j + 1):
            total += _fft_mul(powers[k], H[j - k], hi)
        if float(np.max(total)) >= _EXACT_LIMIT:
            raise ReferenceFailure(f"counts for h={j} leave the exact float range")
        whole = total.astype(np.int64)
        if np.any(whole % j):
            raise ReferenceFailure(f"Newton identity gave a non-multiple of {j}")
        H.append((whole // j).astype(np.float64))
    return H[h].astype(np.int64)


def residues(values, h: int, hi: int, p: int) -> np.ndarray:
    """r_{A,h}(n) mod p for n in [0, hi], by exact integer convolution."""
    if (hi + 1) * (p - 1) ** 2 >= 2**63:
        raise ReferenceFailure("window too long for int64 modular convolution")
    powers = [None] + [_powers(values, k, hi, np.int64) % p for k in range(1, h + 1)]
    H = [np.zeros(hi + 1, dtype=np.int64)]
    H[0][0] = 1
    for j in range(1, h + 1):
        total = np.zeros(hi + 1, dtype=np.int64)
        for k in range(1, j + 1):
            total = (total + np.convolve(powers[k], H[j - k])[: hi + 1] % p) % p
        H.append(total * pow(j, -1, p) % p)
    return H[h]


# ---------------------------------------------------------------------------
# threshold, blocks, tops


def threshold(r: np.ndarray, ell: int, bound: int) -> int | None:
    """Least n0 with r(n) >= ell for every n in [n0, bound] that is a sum;
    None when the sum at the top of the window already falls short."""
    short = np.nonzero((r[: bound + 1] >= 1) & (r[: bound + 1] < ell))[0]
    if short.size == 0:
        return 0
    worst = int(short[-1])
    return None if worst >= bound else worst + 1


def block_index(a: int, h: int) -> int:
    """k with h^(k-1) <= a < h^k, for a >= 1."""
    k, p = 1, h
    while a >= p:
        k, p = k + 1, p * h
    return k


def anchor_block(values, h: int, n0: int) -> int | None:
    """Block of the least positive element a with h*a >= n0."""
    need = max(1, -(-n0 // h))
    candidates = [a for a in values if a >= need]
    return block_index(min(candidates), h) if candidates else None


def top_count(members: np.ndarray, h: int, n: int) -> int:
    """Number of distinct tops b over non-diagonal representations of n
    (max summand b, min summand < b) as h-multisets of the set."""
    elements = np.nonzero(members)[0]
    if h == 2:
        low = elements[2 * elements < n]
        return int(np.count_nonzero(members[n - low])) if low.size else 0
    if h != 3:
        raise ReferenceFailure(f"tops are implemented for h in (2, 3), not {h}")
    tops = 0
    for b in elements[3 * elements >= n]:
        b = int(b)
        if b > n:
            break
        t = n - b  # c1 + c2 = t with c1 <= c2 <= b and c1 < b
        lo, hi = max(0, t - b), min(t // 2, b - 1)
        if lo > hi:
            continue
        c1 = elements[(elements >= lo) & (elements <= hi)]
        if c1.size and np.any(members[t - c1]):
            tops += 1
    return tops


# ---------------------------------------------------------------------------
# theorem expectations


def _offset(theorem_id: str, ell: int, s: int | None, k0: int) -> Fraction:
    """w0 of the conclusion: T1 k0, T2 (ell-1)(k0+1), T3 (ell-1)(k0+1)/s."""
    if theorem_id == "T1":
        return Fraction(k0)
    return Fraction((ell - 1) * (k0 + 1), s if theorem_id == "T3" else 1)


def _power_requirement(theorem_id: str, ell: int, s: int | None, k0: int, t: int) -> Fraction:
    """Least A(h^t) the block counts imply."""
    if theorem_id == "T1":
        return Fraction(t - (k0 - 1))
    return Fraction((ell - 1) * (t - k0), s if theorem_id == "T3" else 1)


def _slope(theorem_id: str, h: int, ell: int, s: int | None) -> float:
    """Coefficient of log(x) in the conclusion's lower bound."""
    if theorem_id == "T1":
        return 1 / math.log(h)
    if theorem_id == "T2":
        return (ell - 1) / math.log(2)
    return (ell - 1) / (s * math.log(h))


def theorem(values, theorem_id: str, h: int, ell: int, s: int | None, bound: int) -> dict:
    """Expected verdict, n0 and k0 of one harness run in prefix mode."""
    values = sorted(set(values))
    members = np.zeros(max(values[-1], bound) + 1, dtype=bool)
    members[values] = True
    r = counts(values, h, bound)
    n0 = threshold(r, ell, bound)
    expect = {"n0": n0, "k0": None, "verdict": False}
    if n0 is None:
        return expect
    k0 = anchor_block(values, h, n0)
    if k0 is None:
        raise ReferenceFailure(f"no element a with {h}*a >= n0={n0}: the input cannot anchor k0")
    expect["k0"] = k0
    ok = True
    if theorem_id == "T3":
        ok &= int(counts(values, h - 1, bound).max()) <= s

    requirement = ell - 1 if s is None else -(-(ell - 1) // s)
    sizes: dict[int, int] = {}
    maxima: dict[int, int] = {}
    for a in values:
        if a >= 1:
            k = block_index(a, h)
            sizes[k] = sizes.get(k, 0) + 1
            maxima[k] = a
    in_window = [k for k in maxima if k >= k0 and h * maxima[k] <= bound]
    if in_window:
        k_max = max(in_window)
        for k in range(k0, k_max + 2):
            ok &= sizes.get(k, 0) >= (1 if k == k0 else requirement)
            if k <= k_max and k in maxima:
                ok &= top_count(members[: bound + 1], h, h * maxima[k]) >= max(1, requirement)

    if bound >= h:
        positive = members[: bound + 1].copy()
        positive[0] = False
        A_x = np.cumsum(positive)[h:]  # A(x) for x = h..bound
        lower = _slope(theorem_id, h, ell, s) * np.log(np.arange(h, bound + 1))
        ok &= bool(np.all(A_x - (lower - float(_offset(theorem_id, ell, s, k0))) >= -1e-9))
        t, power = 1, h
        while power <= bound:
            ok &= int(A_x[power - h]) >= _power_requirement(theorem_id, ell, s, k0, t)
            t, power = t + 1, power * h
    expect["verdict"] = bool(ok)
    return expect
