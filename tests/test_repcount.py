import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiset_sum_counts
from sumrep.errors import CountOverflowError, ParameterError, RangeOverflowError, WindowError
from sumrep.intset import U64_MAX, from_values
from sumrep.repcount import _fft_row, _sweep, rep_count, rep_count_naive, rep_table, sumset

tiny_sets = st.frozensets(st.integers(0, 40), min_size=1, max_size=7)


class TestSumset:
    def test_examples(self):
        assert sumset(from_values([0, 1]), 2).elements == (0, 1, 2)
        assert sumset(from_values([1, 3]), 3).elements == (3, 5, 7, 9)
        assert sumset(from_values([]), 2).elements == ()

    def test_cap(self):
        assert sumset(from_values([1, 3]), 3, cap=6).elements == (3, 5)

    def test_h1_is_identity(self):
        A = from_values([0, 4, 9])
        assert sumset(A, 1) == A

    def test_headroom_checked(self):
        with pytest.raises(RangeOverflowError):
            sumset(from_values([2**63]), 3)

    @given(tiny_sets, st.integers(1, 4))
    def test_membership_matches_oracle(self, values, h):
        A = from_values(values)
        expected = tuple(sorted(multiset_sum_counts(values, h)))
        assert sumset(A, h).elements == expected


class TestRepCount:
    def test_examples(self):
        assert rep_count(from_values([1, 2, 3]), 2, 4) == 2
        assert rep_count(from_values([0]), 5, 0) == 1
        assert rep_count(from_values([0, 1, 2, 3]), 3, 6) == 3

    def test_naive_examples(self):
        assert rep_count_naive(from_values([1, 2, 3]), 2, 4) == 2
        assert rep_count_naive(from_values([1, 2, 3]), 2, 7) == 0
        assert rep_count_naive(from_values([5]), 2, 10) == 1

    def test_out_of_range(self):
        A = from_values([1, 2])
        assert rep_count(A, 2, -1) == 0
        assert rep_count(A, 2, 5) == 0
        assert rep_count(from_values([]), 3, 0) == 0

    def test_h_validation(self):
        with pytest.raises(ParameterError):
            rep_count(from_values([1]), 0, 1)
        with pytest.raises(ParameterError):
            rep_count_naive(from_values([1]), 0, 1)

    def test_recursion_depth_bounded_by_h(self):
        # one frame per element would exceed the interpreter's recursion limit
        assert rep_count(from_values(range(3001)), 3, 3000) == 751501

    @pytest.mark.parametrize("h", [1200, 5000])
    def test_no_recursion_past_the_interpreter_limit(self, h):
        # h summands of {0, 5} reach 5j in one way (j fives) and nothing else
        A = from_values([0, 5])
        assert [rep_count(A, h, n) for n in (5, 7, 10, 5 * h, 5 * h + 5)] == [1, 0, 1, 1, 0]

    def test_huge_elements_on_sparse_set(self):
        A = from_values([0] + [2**k for k in range(61)])
        assert rep_count(A, 2, 2**60) == 2  # 0 + 2^60 and 2^59 + 2^59
        assert rep_count(A, 3, 2**60 + 2**59 + 1) == 1
        assert rep_count(A, 3, 3 * 2**60 + 1) == 0

    @settings(max_examples=60)
    @given(tiny_sets, st.integers(2, 4))
    def test_three_routes_agree(self, values, h):
        A = from_values(values)
        table = rep_table(A, h)
        for n in range(h * A.max_element + 1):
            naive = rep_count_naive(A, h, n)
            assert rep_count(A, h, n) == naive
            assert table.count(n) == naive

    @given(tiny_sets, st.integers(1, 4))
    def test_membership_iff_positive_count(self, values, h):
        A = from_values(values)
        in_sumset = set(sumset(A, h))
        for n in range(h * A.max_element + 1):
            assert (rep_count(A, h, n) >= 1) == (n in in_sumset)

    @given(tiny_sets, st.integers(2, 4), st.data())
    def test_monotone_under_subsets(self, values, h, data):
        B = from_values(values)
        sub = data.draw(st.frozensets(st.sampled_from(sorted(values)), min_size=1))
        A = from_values(sub)
        for n in range(h * B.max_element + 1):
            assert rep_count(A, h, n) <= rep_count(B, h, n)

    @given(tiny_sets, st.integers(2, 4), st.integers(0, 15))
    def test_translation_invariance(self, values, h, c):
        A = from_values(values)
        shifted = from_values(a + c for a in values)
        for n in range(h * A.max_element + 1):
            assert rep_count(shifted, h, n + h * c) == rep_count(A, h, n)

    @given(tiny_sets, st.integers(2, 4), st.integers(1, 9))
    def test_dilation_invariance(self, values, h, d):
        A = from_values(values)
        scaled = from_values(a * d for a in values)
        for n in range(h * A.max_element + 1):
            assert rep_count(scaled, h, d * n) == rep_count(A, h, n)


class TestRepTable:
    def test_window_example(self):
        t = rep_table(from_values([1, 2, 3]), 2, window=(2, 6))
        assert dict(t.items()) == {2: 1, 3: 1, 4: 2, 5: 1, 6: 1}

    def test_totality_example(self):
        t = rep_table(from_values([0, 1, 2]), 2, window=(0, 4))
        assert dict(t.items()) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        assert t.total() == math.comb(4, 2)

    def test_complete_bound_defaults(self):
        t = rep_table(from_values([1, 5]), 2)
        assert (t.lo, t.hi) == (0, 10)

    def test_window_trimmed_with_flag(self):
        t = rep_table(from_values([1, 2]), 2, window=(0, 50))
        assert t.hi == 4
        assert t.trimmed

    def test_empty_window_rejected(self):
        with pytest.raises(WindowError):
            rep_table(from_values([1, 2]), 2, window=(5, 3))

    @pytest.mark.parametrize("window", [(5, 9), (100, 200), (-5, -1)])
    def test_window_outside_the_sums_rejected(self, window):
        with pytest.raises(WindowError, match=r"outside \[0, h\*max\(A\)\] = \[0, 4\]"):
            rep_table(from_values([1, 2]), 2, window=window)

    def test_table_past_physical_memory_refused(self):
        # 2^61 + 1 cells per row: refused before any array is allocated.
        # The FFT declines its own estimate silently, so the refusal the
        # caller sees is the sweep's.
        assert _fft_row((0, 2**60), 2, 2**61) is None
        with pytest.raises(ParameterError, match=r"2-fold sweep to \d+: needs about"):
            rep_table(from_values([0, 2**60]), 2)
        with pytest.raises(ParameterError, match="sumset: needs about"):
            sumset(from_values([0, 2**60]), 2)

    def test_row_is_read_only_uint64(self):
        t = rep_table(from_values([1, 2, 3]), 2, window=(3, 5))
        assert t.row.dtype == np.uint64
        assert t.row.tolist() == [1, 2, 1]
        assert list(t.items()) == [(3, 1), (4, 2), (5, 1)]
        assert type(t.count(4)) is int and type(t.max_count()) is int
        with pytest.raises(ValueError):
            t.row[0] = 7

    def test_count_outside_window(self):
        t = rep_table(from_values([1, 2]), 2, window=(2, 4))
        with pytest.raises(WindowError):
            t.count(1)

    def test_support(self):
        t = rep_table(from_values([1, 3]), 2)
        assert [n for n, c in t.items() if c] == [2, 4, 6]

    @given(st.frozensets(st.integers(0, 60), min_size=1, max_size=10), st.integers(2, 5))
    def test_total_is_multiset_count(self, values, h):
        A = from_values(values)
        assert rep_table(A, h).total() == math.comb(len(A) + h - 1, h)

    def test_empty_set(self):
        t = rep_table(from_values([]), 3)
        assert dict(t.items()) == {0: 0}


class TestFftRoute:
    @settings(max_examples=150)
    @given(st.frozensets(st.integers(0, 200), max_size=14), st.integers(2, 6),
           st.integers(0, 1300))
    def test_equals_sweep(self, values, h, hi):
        elements = tuple(sorted(values))
        row = _fft_row(elements, h, hi)
        assert row is not None and row.dtype == np.uint64
        assert np.array_equal(row, _sweep(elements, h, hi)[h])

    @settings(max_examples=40)
    @given(st.frozensets(st.integers(0, 30), min_size=1, max_size=8), st.integers(2, 6))
    def test_equals_oracle(self, values, h):
        A = from_values(values)
        hi = h * A.max_element
        row = _fft_row(A.elements, h, hi)
        assert row.tolist() == [rep_count_naive(A, h, n) for n in range(hi + 1)]

    # +0.3 breaks the rounding check, +1 the divisibility by j = 2, and +2
    # passes both but breaks the total of the full window; the set is large
    # enough that rep_table tries the FFT before its sweep answers
    @pytest.mark.parametrize("shift", [0.3, 1.0, 2.0])
    def test_tampered_transform_declines(self, monkeypatch, shift):
        A = from_values(range(0, 600, 3))
        expected = _sweep(A.elements, 2, 1194)[2].tolist()
        real = np.fft.irfft
        calls = []

        def tampered(*args, **kwargs):
            calls.append(1)
            out = real(*args, **kwargs)
            out[50] += shift
            return out

        monkeypatch.setattr(np.fft, "irfft", tampered)
        assert _fft_row(A.elements, 2, 1194) is None
        calls.clear()
        assert rep_table(A, 2).row.tolist() == expected
        assert calls

    def test_total_past_2_53_declines_before_any_transform(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no spectrum may be computed")

        monkeypatch.setattr(np.fft, "rfft", forbidden)
        assert math.comb(700 + 9 - 1, 9) >= 2**53
        assert _fft_row(tuple(range(700)), 9, 6291) is None

    def test_error_bound_declines(self, monkeypatch):
        # the multiset total fits in 53 bits, but at a late step the norm
        # sum times the error constant reaches 1/4: the FFT stops before
        # that step's inverse transform, though every rounding so far held
        errors = []
        real = np.fft.irfft

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            errors.append(float(np.max(np.abs(out - np.rint(out)))))
            return out

        monkeypatch.setattr(np.fft, "irfft", recording)
        assert math.comb(40 + 20 - 1, 20) < 2**53
        assert _fft_row(tuple(range(40)), 20, 780) is None
        assert 0 < len(errors) < 20 - 1 and max(errors) < 0.25

    def test_large_h_on_tiny_set_sweeps(self, monkeypatch):
        # Theta(h^2) spectrum products against 2 * 5000 * 6 sweep cells
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep is cheaper here")

        monkeypatch.setattr(np.fft, "rfft", forbidden)
        table = rep_table(from_values([0, 5]), 5000, (5, 5))
        assert table.row.tolist() == [1]


def _partition_counts(limit):
    """Independent oracle: partition numbers by the pentagonal recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def _partitions_at_most(parts, limit):
    """Independent oracle: partitions of n <= limit into at most `parts`
    parts, by p_k(n) = p_{k-1}(n) + p_k(n-k) in Python integers."""
    p = [1] + [0] * limit
    for k in range(1, parts + 1):
        for n in range(k, limit + 1):
            p[n] += p[n - k]
    return p


class TestArbitraryPrecisionPath:
    def test_partition_numbers_on_python_path(self):
        # h = n with 0 in A makes r_{A,h}(n) the partition number p(n);
        # C(|A|+h-1, h) overflows u64 here, forcing the exact big-int sweep.
        n = 40
        A = from_values(range(n + 1))
        table = rep_table(A, n, window=(0, n))
        expected = _partition_counts(n)
        assert table.row.tolist() == expected

    def test_first_count_past_u64_raises(self):
        # with 0 in A and n <= max(A), r_{A,h}(n) counts partitions of n
        # into at most h parts
        h = 20
        expected = _partitions_at_most(h, 700)
        first = next(n for n, c in enumerate(expected) if c > U64_MAX)
        A = from_values(range(first + 1))
        below = rep_table(A, h, window=(0, first - 1))
        assert below.row.tolist() == expected[:first]
        with pytest.raises(CountOverflowError):
            rep_table(A, h, window=(0, first))

    def test_row_bound_prevents_false_overflow(self):
        # some 11-fold counts on [0, 26400] exceed 64 bits, but no 11-fold
        # sum above 24200 can be completed to a 12-fold sum in the window
        t = rep_table(from_values(range(2200, 4400)), 12, window=(0, 26400))
        assert t.count(26400) == 1
        assert t.total() == 1
