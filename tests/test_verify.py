import json
import math
import re
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiset_tops
from sumrep.errors import (
    CertificateError,
    ParameterError,
    PrefixTooShortError,
    WindowError,
)
from sumrep.intset import block_of, blocks, counting, from_values
from sumrep.repcount import rep_count, rep_table
from sumrep.verify import (
    Mode,
    _bound_holds,
    _bound_terms,
    _exponents,
    block_growth_check,
    check_premise,
    compute_k0,
    distinct_tops,
    is_bhs,
    run_theorem,
    verify_counting_bound,
)

RANGE50 = from_values(range(51))
SIDON = from_values([0, 1, 3, 7])
# (theorem_id, h, ell, s) over T1, T2 and T3 terms
THEOREMS = st.one_of(
    st.tuples(st.just("T1"), st.integers(2, 4), st.just(2), st.none()),
    st.tuples(st.just("T2"), st.just(2), st.integers(2, 4), st.none()),
    st.tuples(st.just("T3"), st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
)


class TestMode:
    def test_parse(self):
        assert Mode.parse("complete") == Mode.complete()
        assert Mode.parse("prefix:50") == Mode.prefix(50)

    def test_parse_errors(self):
        for bad in ("prefix", "prefix:x", "full", "prefix:-1"):
            with pytest.raises(ParameterError):
                Mode.parse(bad)

    def test_exactness_bounds(self):
        assert Mode.complete().exactness_bound(RANGE50, 2) == 100
        assert Mode.prefix(50).exactness_bound(RANGE50, 2) == 50
        assert Mode.complete().exactness_bound(from_values([]), 3) == 0


class TestIsBhs:
    def test_sidon_certified(self):
        report = is_bhs(SIDON, 2, 1)
        assert report.holds
        assert report.violations == ()
        assert report.checked_count == 10  # all pairwise sums distinct

    def test_rejection_with_violation(self):
        report = is_bhs(from_values([0, 1, 3, 4]), 2, 1)
        assert not report.holds
        assert report.violations == ((4, 2),)

    def test_s2_certifies(self):
        assert is_bhs(from_values([0, 1, 3, 4]), 2, 2).holds

    def test_prefix_window_restricts(self):
        # {0..50} is wildly non-Sidon, but no n <= 3 has two representations
        report = is_bhs(RANGE50, 2, 1, Mode.prefix(1))
        assert report.holds

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            is_bhs(SIDON, 2, 0)
        with pytest.raises(ParameterError):
            is_bhs(SIDON, 0, 1)


class TestCheckPremise:
    def test_prefix_holds(self):
        report = check_premise(RANGE50, 2, 2, 2, Mode.prefix(50))
        assert report.holds
        assert report.checked_count == 49  # n = 2..50 all in 2A

    def test_complete_fails_at_top(self):
        report = check_premise(RANGE50, 2, 2, 2, Mode.complete())
        assert not report.holds
        assert (99, 1) in report.violations
        assert (100, 1) in report.violations

    def test_sidon_fails(self):
        report = check_premise(SIDON, 2, 2, 0, Mode.complete())
        assert not report.holds
        assert len(report.violations) == 10

    def test_window_empty(self):
        with pytest.raises(WindowError, match="window empty"):
            check_premise(RANGE50, 2, 2, 51, Mode.prefix(50))

    def test_ell_validation(self):
        with pytest.raises(ParameterError):
            check_premise(RANGE50, 2, 1, 0)


class TestMinThreshold:
    """The least threshold is check_premise's n0 when its report holds."""

    def test_ell2(self):
        report = check_premise(RANGE50, 2, 2, None, Mode.prefix(50))
        assert report.holds and report.n0 == 2

    def test_ell3(self):
        report = check_premise(RANGE50, 2, 3, None, Mode.prefix(50))
        assert report.holds and report.n0 == 4

    def test_sidon_none(self):
        assert not check_premise(SIDON, 2, 2, None, Mode.complete()).holds

    def test_no_violations_gives_zero(self):
        # every sum of {0, 1, 2} has two representations except 0, 1;
        # with ell=2 on a window past them the threshold is their successor
        report = check_premise(from_values([0, 1, 2]), 2, 2, None, Mode.prefix(2))
        assert report.holds and report.n0 == 2

    def test_found_threshold_passes(self):
        for ell in (2, 3, 4):
            n0 = check_premise(RANGE50, 2, ell, None, Mode.prefix(50)).n0
            assert check_premise(RANGE50, 2, ell, n0, Mode.prefix(50)).holds
            if n0 > 0:
                report = check_premise(RANGE50, 2, ell, n0 - 1, Mode.prefix(50))
                assert not report.holds


class TestComputeK0:
    def test_example(self):
        assert compute_k0(RANGE50, 2, 10) == 3  # a0 = 5 in [4, 8)

    def test_singleton(self):
        assert compute_k0(from_values([1]), 2, 2) == 1

    def test_prefix_too_short(self):
        with pytest.raises(PrefixTooShortError, match="prefix too short"):
            compute_k0(from_values([0]), 2, 1)

    def test_zero_threshold_skips_zero(self):
        # 0 satisfies h*0 >= 0 but belongs to no block
        assert compute_k0(from_values([0, 4]), 2, 0) == 3


def growth_rows(A, h, mode=Mode.complete(), k0=1):
    """Rows by block of the ell=2 growth table anchored at block k0."""
    return {e.k: e for e in block_growth_check(A, h, 2, None, k0, mode).entries}


class TestWitnessCertificate:
    """Witnesses are read off the rows of block_growth_check."""

    def test_h2_example(self):
        w = growth_rows(RANGE50, 2, Mode.prefix(50))[3].witness
        assert w.a_star == 7
        assert w.target == 14
        assert w.representation == (6, 8)
        assert w.top_element == 8
        assert w.top_block == 4
        w.validate(RANGE50, 2)

    def test_h3_blocks_use_base_h(self):
        # base-3 blocks: block 2 = [3, 9), so a_2* = 8 and the target is 24
        w = growth_rows(RANGE50, 3, Mode.prefix(50))[2].witness
        assert w.a_star == 8
        assert w.target == 24
        assert w.representation == (6, 9, 9)
        assert w.top_element == 9
        assert block_of(w.top_element, 3) == 3
        w.validate(RANGE50, 3)

    def test_diagonal_only_fails(self):
        row = growth_rows(SIDON, 2)[2]  # 6 = 3+3 only, diagonal
        assert row.target == 6
        assert row.witness is None and row.tops == ()
        assert not row.ok

    def test_beyond_window_rejected(self):
        growth = block_growth_check(RANGE50, 2, 2, None, 1, Mode.prefix(50))
        assert growth.k_max == 4  # 2*a_5* = 62 > 50
        assert growth.entries[-1].k == 5
        assert growth.entries[-1].target is None and growth.entries[-1].witness is None
        assert (6, 19) in growth.unverifiable  # 2*50 > 50

    def test_empty_block(self):
        row = growth_rows(from_values([1, 9]), 2)[2]
        assert row.size == 0 and row.a_star is None and row.witness is None
        assert not row.size_ok

    def test_validation_rejects_tampering(self):
        w = growth_rows(RANGE50, 2, Mode.prefix(50))[3].witness
        with pytest.raises(CertificateError):  # diagonal
            replace(w, representation=(7, 7)).validate(RANGE50, 2)
        with pytest.raises(CertificateError):  # top element mismatch
            replace(w, representation=(5, 9)).validate(RANGE50, 2)
        with pytest.raises(CertificateError):  # wrong sum
            replace(w, representation=(5, 8)).validate(RANGE50, 2)
        with pytest.raises(CertificateError):  # block index mismatch
            replace(w, top_block=5).validate(RANGE50, 2)
        with pytest.raises(CertificateError):  # summand outside the set
            w.validate(from_values([7, 8]), 2)

    @settings(max_examples=40)
    @given(st.integers(5, 80), st.integers(2, 3))
    def test_succeeds_on_every_block_of_dense_prefixes(self, m, h):
        A = from_values(range(m + 1))
        mode = Mode.prefix(m)
        premise = check_premise(A, h, 2, None, mode)
        assert premise.holds
        k0 = compute_k0(A, h, premise.n0)
        rows = growth_rows(A, h, mode, k0)
        bound = mode.exactness_bound(A, h)
        for k, members in blocks(A, h):
            if k < k0 or h * members.max_element > bound:
                continue
            w = rows[k].witness
            w.validate(A, h)
            assert w.top_block == k + 1

    @settings(max_examples=150)
    @given(st.sets(st.integers(0, 40), min_size=1, max_size=10), st.integers(2, 4))
    def test_least_top_and_completion_oracle(self, values, h):
        A = from_values(values)
        decomposition = blocks(A, h)
        if not len(decomposition):
            return
        # complete mode: every block's target is in the window, so each has a row
        rows = growth_rows(A, h, k0=decomposition.entries[0][0])
        for k, members in decomposition:
            target = h * members.max_element
            reps = [t for t in combinations_with_replacement(sorted(values), h)
                    if sum(t) == target and t[0] < t[-1]]
            if not reps:
                assert rows[k].witness is None
                continue
            w = rows[k].witness
            w.validate(A, h)
            top = min(t[-1] for t in reps)
            assert w.top_element == top
            assert w.representation == min(t for t in reps if t[-1] == top)


class TestDistinctTops:
    def test_examples(self):
        assert distinct_tops(from_values([0, 1, 2, 3]), 3, 6).elements == (3,)
        assert distinct_tops(RANGE50, 2, 14, Mode.prefix(50)).elements == tuple(range(8, 15))
        assert distinct_tops(SIDON, 2, 6).elements == ()

    def test_window_guard(self):
        with pytest.raises(WindowError):
            distinct_tops(RANGE50, 2, 51, Mode.prefix(50))

    @settings(max_examples=60)
    @given(
        st.frozensets(st.integers(0, 30), min_size=1, max_size=8),
        st.integers(2, 4),
        st.integers(0, 90),
    )
    def test_matches_enumeration_oracle(self, values, h, n):
        A = from_values(values)
        got = set(distinct_tops(A, h, min(n, h * A.max_element)))
        assert got == multiset_tops(values, h, min(n, h * A.max_element))


def bound_at(theorem_id, h, ell, s, k0, x):
    """The reported bound value at x, read off the x_max row of the table."""
    row = verify_counting_bound(RANGE50, theorem_id, h, ell, s, k0, x).checks[-1]
    assert row.x == x
    return row.bound


class TestBoundValue:
    def test_t1_exact_power(self):
        assert bound_at("T1", 2, 2, None, 1, 16) == pytest.approx(3.0, abs=1e-12)

    def test_t2(self):
        assert bound_at("T2", 2, 3, None, 2, 1024) == pytest.approx(14.0, abs=1e-12)

    def test_t3(self):
        assert bound_at("T3", 3, 4, 2, 1, 27) == pytest.approx(1.5, abs=1e-12)

    def test_w0_formulas(self):
        def w0(*params):
            _, _, den, num = _bound_terms(*params)
            return Fraction(num, den)

        assert w0("T1", 2, 2, None, 5) == 5
        assert w0("T2", 2, 3, None, 2) == 6
        assert w0("T3", 3, 4, 2, 1) == Fraction(3)
        assert w0("T3", 3, 2, 11, 1) == Fraction(2, 11)
        # run_theorem reports the same offset at its anchor: n0=2, k0=1
        report = run_theorem(RANGE50, "T3", h=3, ell=2, s=11, mode=Mode.prefix(50))
        assert (report.k0, report.w0) == (1, Fraction(2, 11))

    def test_parameter_consistency(self):
        with pytest.raises(ParameterError):
            _bound_terms("T1", 2, 3, None, 1)  # T1 is the ell=2 bound
        with pytest.raises(ParameterError):
            _bound_terms("T2", 3, 3, None, 1)  # T2 requires h=2
        with pytest.raises(ParameterError):
            _bound_terms("T3", 2, 3, None, 1)  # T3 needs s
        with pytest.raises(WindowError, match="below x >= h"):
            bound_at("T1", 2, 2, None, 1, 1)  # x below h
        with pytest.raises(ParameterError):
            _bound_terms("T9", 2, 2, None, 1)


class TestVerifyCountingBound:
    def test_dense_prefix_passes_everywhere(self):
        result = verify_counting_bound(RANGE50, "T1", 2, 2, None, 1, 50)
        assert result.all_ok
        assert all(c.status == "pass" for c in result.checks)
        assert all(c.margin > 0 for c in result.checks)

    def test_powers_of_two(self):
        A = from_values([1, 2, 4, 8, 16])
        result = verify_counting_bound(A, "T1", 2, 2, None, 1, 16)
        assert result.all_ok
        at15 = next(c for c in result.checks if c.x == 15)
        assert at15.count == 4
        assert at15.bound == pytest.approx(math.log(15) / math.log(2) - 1, abs=1e-12)

    def test_trivial_singleton(self):
        result = verify_counting_bound(from_values([1]), "T1", 2, 2, None, 1, 2)
        assert result.all_ok
        assert result.checks[-1].count == 1

    def test_equality_passes(self):
        # A(16) = 3 meets the T1 bound log2(16) - 1 = 3 exactly
        A = from_values([1, 2, 3, 17])
        result = verify_counting_bound(A, "T1", 2, 2, None, 1, 16)
        at16 = result.checks[-1]
        assert (at16.x, at16.count, at16.bound) == (16, 3, 3.0)
        assert at16.status == "pass" and result.all_ok
        assert not verify_counting_bound(from_values([1, 2, 17]), "T1", 2, 2, None, 1, 16).all_ok

    def test_failure_detected(self):
        # {1, 64}: A(63) = 1 but the T1 bound at x=63 is ~4.98
        result = verify_counting_bound(from_values([1, 64]), "T1", 2, 2, None, 1, 64)
        assert not result.all_ok
        failing = [c for c in result.checks if c.status == "fail"]
        assert failing and failing[0].x == 63

    def test_x_max_below_h(self):
        with pytest.raises(WindowError):
            verify_counting_bound(RANGE50, "T1", 2, 2, None, 1, 1)

    @settings(max_examples=200)
    @given(
        st.frozensets(st.integers(0, 90), min_size=1, max_size=14),
        THEOREMS,
        st.integers(1, 3),
        st.integers(0, 90),
    )
    def test_candidate_set_equals_exhaustive(self, values, theorem, k0, extra):
        """The step rows read off the sorted elements are the exhaustive
        table's rows at the same x."""
        theorem_id, h, ell, s = theorem
        A = from_values(values)
        x_max = h + extra
        fast = verify_counting_bound(A, theorem_id, h, ell, s, k0, x_max)
        slow = verify_counting_bound(A, theorem_id, h, ell, s, k0, x_max, exhaustive=True)
        at = {c.x: c for c in slow.checks}
        for c in fast.checks:
            assert c == at[c.x]
        # A is constant on each step while the bound grows, so a pass at the
        # step's right end passes the whole step
        ends = [c.x for c in fast.checks]
        for c in slow.checks:
            end = at[ends[bisect_left(ends, c.x)]]
            assert c.count == end.count
            assert c.holds or not end.holds
        assert fast.all_ok == slow.all_ok

    def test_failing_step_passes_at_its_left_end(self):
        # {1, 64}: A(x) = 1 on [2, 63]; the T1 bound is 0 at x=2, ~4.98 at x=63
        slow = verify_counting_bound(from_values([1, 64]), "T1", 2, 2, None, 1, 64,
                                     exhaustive=True)
        at = {c.x: c for c in slow.checks}
        assert at[2].holds and not at[63].holds


class TestExponents:
    """The integer walk against the big-int oracle: the least e with
    h**e >= x**coef."""

    @staticmethod
    def oracle(h, coef, x):
        e = 0
        while h**e < x**coef:
            e += 1
        return e

    @settings(max_examples=300)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.lists(
            st.one_of(
                st.integers(1, 10**6),
                st.builds(lambda t, d: 4**t + d, st.integers(0, 40), st.integers(-1, 1)),
                st.builds(lambda t, d: 3**t + d, st.integers(0, 40), st.integers(-1, 1)),
                st.just(10**30),
            ),
            max_size=30,
        ),
    )
    def test_matches_big_int_oracle(self, h, coef, values):
        xs = sorted(v for v in values if v >= 1)
        assert list(_exponents(h, coef, xs)) == [self.oracle(h, coef, x) for x in xs]

    def test_exact_powers_and_neighbours(self):
        xs = [2**10 - 1, 2**10, 2**10 + 1, 10**30]
        assert list(_exponents(2, 1, xs)) == [10, 10, 11, 100]
        assert list(_exponents(2, 3, xs)) == [30, 30, 31, 299]


class TestBoundHolds:
    """The exact predicate against a direct big-int oracle."""

    @settings(max_examples=400)
    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 12),
        st.integers(0, 40),
        st.one_of(
            st.tuples(st.integers(1, 14), st.integers(-1, 1)),  # on and next to h^t
            st.tuples(st.just(0), st.integers(1, 5000)),
        ),
    )
    def test_matches_big_int_oracle(self, h, coef, den, num, count, point):
        t, offset = point
        x = h**t + offset if t else offset
        expected = h ** (den * count + num) >= x**coef
        assert _bound_holds((h, coef, den, num), count, x) == expected

    def test_exact_powers(self):
        # 3^2 = 9 against 3^2: equality holds; one less fails
        assert _bound_holds((3, 2, 1, 0), 2, 3)
        assert not _bound_holds((3, 2, 1, 0), 1, 3)
        assert _bound_holds((2, 1, 1, 0), 10, 1024)
        assert not _bound_holds((2, 1, 1, 0), 10, 1025)


class TestBlockGrowthCheck:
    def test_dense_t1(self):
        result = block_growth_check(RANGE50, 2, 2, None, 1, Mode.prefix(50))
        assert result.k_max == 4
        assert [e.k for e in result.entries] == [1, 2, 3, 4, 5]
        assert all(e.ok for e in result.entries)
        assert result.ok

    def test_dense_t2_requirements(self):
        result = block_growth_check(RANGE50, 2, 3, None, 2, Mode.prefix(50))
        rows = {e.k: e for e in result.entries}
        assert rows[2].required == 1
        for k in (3, 4, 5):
            assert rows[k].required == 2
            assert rows[k].size >= 2
        assert result.ok

    def test_unverifiable_blocks_reported_not_failed(self):
        result = block_growth_check(RANGE50, 2, 2, None, 1, Mode.prefix(20))
        assert result.k_max == 3  # 2*a_3* = 14 <= 20 < 2*a_4* = 30
        assert all(k > result.k_max + 1 for k, _ in result.unverifiable)
        assert result.ok

    def test_broken_chain_fails(self):
        # block 3 ([4, 8)) empty although the premise would ask for growth
        A = from_values([0, 1, 2, 3, 8, 9])
        result = block_growth_check(A, 2, 2, None, 1, Mode.prefix(9))
        rows = {e.k: e for e in result.entries}
        assert not rows[3].size_ok
        assert not result.ok

    @settings(max_examples=150)
    @given(st.frozensets(st.integers(0, 60), min_size=1, max_size=12), st.integers(2, 4))
    def test_every_distinct_top_lies_in_the_next_block(self, values, h):
        """a_k* < b <= h*a_k* < h^(k+1) for a top b in A: the tops check needs
        no block test of its own."""
        A = from_values(values)
        for k, members in blocks(A, h):
            for b in distinct_tops(A, h, h * members.max_element):
                assert block_of(b, h) == k + 1


class TestRunTheorem:
    def test_t1_dense(self):
        report = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50))
        assert report.verdict
        assert (report.n0, report.k0, report.w0) == (2, 1, Fraction(1))
        assert report.k_max == 4
        witnesses = report.witnesses()
        assert sorted(witnesses) == [1, 2, 3, 4]
        for k, w in witnesses.items():
            w.validate(RANGE50, 2)
        assert all(c.margin > 0 for c in report.bound_checks.checks)

    def test_t2_dense(self):
        report = run_theorem(RANGE50, "T2", ell=3, mode=Mode.prefix(50))
        assert report.verdict
        assert (report.n0, report.k0) == (4, 2)
        assert report.w0 == Fraction(6)  # (ell-1)(k0+1)

    def test_t1_fails_on_sidon_like_set(self):
        report = run_theorem(from_values([0, 1, 3, 7, 12, 20]), "T1", h=2)
        assert not report.verdict
        assert report.first_failure == "premise"
        assert report.n0 is None

    def test_t3_bhs_gate(self):
        # {0..20} is B_{2,11}; s=10 understates the peak and must fail the gate
        A20 = from_values(range(21))
        good = run_theorem(A20, "T3", h=3, ell=2, s=11, mode=Mode.prefix(20))
        assert good.verdict
        assert good.bhs_premise.holds
        bad = run_theorem(A20, "T3", h=3, ell=2, s=10, mode=Mode.prefix(20))
        assert not bad.verdict
        assert bad.first_failure == "bhs_premise"

    def test_power_line_checked_verbatim(self):
        report = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50))
        assert [(p.t, p.power) for p in report.power_checks] == [
            (1, 2), (2, 4), (3, 8), (4, 16), (5, 32),
        ]
        for p in report.power_checks:
            assert p.count == counting(RANGE50, p.power)
            assert p.required == Fraction(p.t - (report.k0 - 1))
            assert p.ok

    @settings(max_examples=100)
    @given(
        st.integers(3, 30),
        st.frozensets(st.integers(0, 300), max_size=8),
        THEOREMS,
        st.sampled_from(["complete", "prefix"]),
        st.one_of(st.none(), st.integers(4, 10**4)),
    )
    def test_power_ok_is_the_bound_at_the_next_power(self, m, extra, theorem, kind, x_max):
        """A(h^t) >= required decides exactly bound(h^(t+1)) at A = A(h^t)."""
        theorem_id, h, ell, s = theorem
        A = from_values(set(range(m)) | extra)
        mode = Mode.complete() if kind == "complete" else Mode.prefix(A.max_element)
        report = run_theorem(A, theorem_id, h=h, ell=ell, s=s, mode=mode, x_max=x_max)
        if report.k0 is None:
            return
        terms = _bound_terms(theorem_id, h, ell, s, report.k0)
        for p in report.power_checks:
            assert p.ok == _bound_holds(terms, p.count, p.power * h)

    def test_t1_t2_consistency(self):
        # same coefficient, T2's offset larger by one: T1 pass implies T2 pass
        for m in (10, 25, 50):
            A = from_values(range(m + 1))
            r1 = run_theorem(A, "T1", h=2, mode=Mode.prefix(m))
            r2 = run_theorem(A, "T2", ell=2, mode=Mode.prefix(m))
            assert r1.k0 == r2.k0
            assert r2.w0 == r1.w0 + 1
            pairs = zip(r1.bound_checks.checks, r2.bound_checks.checks, strict=True)
            for c1, c2 in pairs:
                assert (c1.x, c1.count) == (c2.x, c2.count)
                assert c2.bound < c1.bound
                if c1.status == "pass":
                    assert c2.status == "pass"
            if r1.verdict:
                assert r2.verdict

    def test_report_serialization(self):
        report = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50))
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 3
        assert "slack" not in doc["bounds"]
        assert doc["verdict"] == "pass"
        assert doc["n0"] == 2 and doc["k0"] == 1 and doc["w0"] == "1"
        assert doc["mode"] == "prefix:50"
        assert len(doc["blocks"]["entries"]) == 5
        csv = report.bound_csv().splitlines()
        assert csv[0] == "x,Ax,bound"
        assert len(csv) == 1 + len(report.bound_checks.checks)

    @pytest.mark.parametrize("result", [
        run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50)).bound_checks,
        verify_counting_bound(from_values([1, 64]), "T1", 2, 2, None, 1, 64),
    ], ids=["range50", "failing-1-64"])
    def test_bounds_serialize_as_columns(self, result):
        doc = json.loads(json.dumps(result.to_dict()))
        table = doc["checks"]
        assert list(table) == ["x", "count", "bound", "margin", "status"]
        assert all(len(column) == len(result.checks) for column in table.values())
        for i, c in enumerate(result.checks):
            row = tuple(table[name][i] for name in table)
            assert row == (c.x, c.count, c.bound, c.margin, c.status)
        assert ("fail" in table["status"]) == (not result.all_ok)

    def test_explicit_x_max(self):
        report = run_theorem(RANGE50, "T1", h=2, mode=Mode.prefix(50), x_max=10)
        assert report.x_max == 10
        assert max(c.x for c in report.bound_checks.checks) == 10

    @pytest.mark.parametrize("A, mode", [(SIDON, Mode.complete()), (RANGE50, Mode.prefix(50))])
    def test_x_max_below_h_rejected_before_the_premise(self, A, mode):
        # the premise fails on SIDON at h=4 and holds on RANGE50: both refuse
        with pytest.raises(WindowError, match=r"x_max=2 below x >= h = 4"):
            run_theorem(A, "T1", h=4, mode=mode, x_max=2)

    def test_vacuous_block_range_still_passes(self):
        # ell=6 on {0..10}: only the top sum has six representations, so the
        # anchor block sits beyond every verifiable target
        A = from_values(range(11))
        report = run_theorem(A, "T2", ell=6, mode=Mode.prefix(10))
        assert report.n0 == 10
        assert report.k0 == 3
        assert report.block_checks.entries == ()
        assert report.block_checks.k_max is None
        assert (3, 4) in report.block_checks.unverifiable
        assert report.verdict

    @pytest.mark.parametrize("values, bound, window", [
        ([0, 10], 15, "[11, 15] (prefix:15)"),  # sums 0, 10 are short; none in [11, 15]
        ([5], 0, "[0, 0] (prefix:0)"),  # r(0) = 0: the window holds no sum
    ])
    def test_vacuous_premise_window_is_an_input_error(self, values, bound, window):
        A = from_values(values)
        premise = check_premise(A, 2, 2, None, Mode.prefix(bound))
        assert premise.holds and premise.checked_count == 0
        with pytest.raises(WindowError, match=rf"premise window {re.escape(window)} holds no sum"):
            run_theorem(A, "T1", h=2, mode=Mode.prefix(bound))

    def test_empty_prefix_propagates_anchor_error(self):
        with pytest.raises(PrefixTooShortError):
            run_theorem(from_values([]), "T1", h=2)

    @settings(max_examples=25)
    @given(st.integers(8, 60), st.integers(2, 4))
    def test_t2_chain_tops_fill_next_block(self, m, ell):
        """Passing premise with parameter ell forces ell-1 distinct tops at
        every verified doubling target, all landing in the next block."""
        A = from_values(range(m + 1))
        mode = Mode.prefix(m)
        premise = check_premise(A, 2, ell, None, mode)
        if not premise.holds:
            return
        k0 = compute_k0(A, 2, premise.n0)
        for k, members in blocks(A, 2):
            if k < k0 or 2 * members.max_element > m:
                continue
            tops = distinct_tops(A, 2, 2 * members.max_element, mode)
            assert len(tops) >= ell - 1
            assert all(block_of(b, 2) == k + 1 for b in tops)
            next_block = dict(blocks(A, 2).entries)[k + 1]
            assert all(b in next_block for b in tops)


@settings(max_examples=80)
@given(
    st.frozensets(st.integers(0, 60), min_size=2, max_size=25),
    st.integers(3, 4),
)
def test_pigeonhole_property(values, h):
    """Whenever the set is B_{h-1,s} and a block's h-fold target has ell
    representations, it must have at least ceil((ell-1)/s) distinct tops."""
    A = from_values(values)
    s = rep_table(A, h - 1).max_count()
    if s == 0:
        return
    assert is_bhs(A, h - 1, s).holds
    for k, members in blocks(A, h):
        target = h * members.max_element
        ell = rep_count(A, h, target)
        if ell < 2:
            continue
        tops = distinct_tops(A, h, target)
        assert len(tops) >= -(-(ell - 1) // s)
