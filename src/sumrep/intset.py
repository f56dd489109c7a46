"""Canonical finite integer sets, the counting function, and base-h blocks.

An IntegerSet is the canonical (sorted, deduplicated) form of a finite set
of nonnegative integers, usually a prefix of a larger set.  Blocks chop the
positive elements into the intervals [h^(k-1), h^k); zero never belongs to
a block and is never counted by ``counting``.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    NegativeElementError,
    ParameterError,
    RangeOverflowError,
    SetFileError,
)

U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class IntegerSet:
    """Strictly increasing tuple of nonnegative 64-bit integers."""

    elements: tuple[int, ...]
    _members: frozenset = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self) -> None:
        prev = -1
        for a in self.elements:
            if a < 0:
                raise NegativeElementError(f"negative element {a}")
            if a > U64_MAX:
                raise RangeOverflowError(f"element {a} exceeds the 64-bit range")
            if a <= prev:
                raise ParameterError("elements must be strictly increasing")
            prev = a
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __contains__(self, x: object) -> bool:
        return x in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    @property
    def max_element(self) -> int | None:
        return self.elements[-1] if self.elements else None

    @property
    def contains_zero(self) -> bool:
        return bool(self.elements) and self.elements[0] == 0

    def restrict(self, lo: int, hi: int) -> "IntegerSet":
        """Subset with lo <= a <= hi (canonical order preserved)."""
        i = bisect_left(self.elements, lo)
        j = bisect_right(self.elements, hi)
        return IntegerSet(self.elements[i:j])


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of the positive elements into base-h blocks.

    Only nonempty blocks are stored, as (k, members) pairs in increasing k;
    block k holds the elements in [h^(k-1), h^k).
    """

    base: int
    entries: tuple[tuple[int, IntegerSet], ...]
    zero_excluded: bool

    def __iter__(self) -> Iterator[tuple[int, IntegerSet]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def block_sizes(self) -> dict[int, int]:
        return {k: len(members) for k, members in self.entries}


def from_values(values: Iterable[int]) -> IntegerSet:
    """Canonicalize an arbitrary finite iterable of nonnegative integers.

    Order is irrelevant and duplicates collapse; any negative value is
    rejected naming the offending value.
    """
    seen = set()
    for v in values:
        v = int(v)
        if v < 0:
            raise NegativeElementError(f"negative element {v}")
        seen.add(v)
    return IntegerSet(tuple(sorted(seen)))


def counting(A: IntegerSet, x: int) -> int:
    """Number of positive elements of A that do not exceed x (zero excluded)."""
    if x < 1:
        return 0
    els = A.elements
    return bisect_right(els, x) - bisect_right(els, 0)


def block_of(a: int, h: int) -> int:
    """The unique k with h^(k-1) <= a < h^k.  Zero belongs to no block."""
    if h < 2:
        raise ParameterError(f"base h must be >= 2, got {h}")
    if a < 1:
        raise ParameterError(f"element {a} belongs to no block (must be >= 1)")
    k = 1
    p = 1
    while not (p <= a < p * h):
        p *= h
        k += 1
    return k


def blocks(A: IntegerSet, h: int) -> BlockDecomposition:
    """Decompose A \\ {0} into nonempty base-h blocks, in increasing k."""
    if h < 2:
        raise ParameterError(f"base h must be >= 2, got {h}")
    entries: list[tuple[int, IntegerSet]] = []
    cur_k = 1
    lo, hi = 1, h
    bucket: list[int] = []
    for a in A.elements:
        if a == 0:
            continue
        while a >= hi:
            if bucket:
                entries.append((cur_k, IntegerSet(tuple(bucket))))
                bucket = []
            lo, hi = hi, hi * h
            cur_k += 1
        bucket.append(a)
    if bucket:
        entries.append((cur_k, IntegerSet(tuple(bucket))))
    return BlockDecomposition(base=h, entries=tuple(entries), zero_excluded=A.contains_zero)


def ensure_headroom(A: IntegerSet, h: int, operation: str) -> None:
    """Fail loudly when h * max(A) would leave the unsigned 64-bit range."""
    m = A.max_element
    if m is not None and h * m > U64_MAX:
        raise RangeOverflowError(
            f"{operation}: h*max(A) = {h}*{m} exceeds the 64-bit range"
        )


def ensure_memory(nbytes: int, operation: str) -> None:
    """Refuse, as bad input, an operation needing about nbytes of memory when
    that exceeds physical memory, before anything is allocated."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return
    if nbytes > physical:
        raise ParameterError(
            f"{operation}: needs about {nbytes} bytes, more than the "
            f"{physical} bytes of physical memory"
        )


def parse_set_text(text: str) -> IntegerSet:
    """Parse the plain-text set format: one integer per line, '#' comments."""
    values: list[int] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            v = int(line)
        except ValueError:
            raise SetFileError(f"line {i}: not an integer: {line!r}", i) from None
        if v < 0:
            raise SetFileError(f"line {i}: negative element {v}", i)
        values.append(v)
    return from_values(values)


def load_set(path: str | os.PathLike) -> IntegerSet:
    """Load a set file (one nonnegative decimal integer per line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SetFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_set_text(text)


def save_set(A: IntegerSet, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in A.elements:
            fh.write(f"{a}\n")
