"""Randomized self-check of the counting engine against its oracle."""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from .intset import from_values
from .repcount import _fft_row, _sweep, rep_count, rep_count_naive, rep_table


def run_selftest(
    trials: int = 60, seed: int = 0, emit: Callable[[str], None] = print
) -> bool:
    """Exhaustively compare the counting routes on random small sets (the
    FFT must certify rows this small), including both routes of ``rep --n``
    (the memo and the one-cell table) at every n, and check the multiset
    totality identity.  True when everything agrees."""
    rng = random.Random(seed)
    ok = True

    for trial in range(trials):
        size = rng.randint(1, 7)
        A = from_values(rng.sample(range(41), size))
        h = rng.choice([2, 3, 4])
        hi = h * A.max_element
        table = rep_table(A, h)
        fft = _fft_row(A.elements, h, hi)
        if fft is None or not np.array_equal(fft, _sweep(A.elements, h, hi)[h]):
            ok = False
            emit(f"FAIL fft trial={trial} A={list(A)} h={h}: "
                 + ("not certified" if fft is None else "row differs from the sweep"))
        for n in range(hi + 1):
            naive = rep_count_naive(A, h, n)
            fast = rep_count(A, h, n)
            batch = table.count(n)
            cell = rep_table(A, h, (n, n)).count(n)  # rep --n's other route
            if not (naive == fast == batch == cell):
                ok = False
                emit(
                    f"FAIL oracle trial={trial} A={list(A)} h={h} n={n}: "
                    f"naive={naive} fast={fast} table={batch} cell={cell}"
                )
                break

    for trial in range(trials):
        size = rng.randint(1, 10)
        A = from_values(rng.sample(range(61), size))
        h = rng.choice([2, 3, 4, 5])
        expected = math.comb(len(A) + h - 1, h)
        total = rep_table(A, h).total()
        if total != expected:
            ok = False
            emit(
                f"FAIL totality trial={trial} A={list(A)} h={h}: "
                f"sum={total} expected={expected}"
            )

    emit("selftest: " + ("all checks passed" if ok else "FAILURES detected"))
    return ok
