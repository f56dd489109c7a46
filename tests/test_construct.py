import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiset_sum_counts
from sumrep.construct import (
    ConstructionLog,
    STRATEGIES,
    density_report,
    greedy_repair,
)
from sumrep.errors import CertificateError, ParameterError
from sumrep.intset import counting, from_values
from sumrep.repcount import rep_table
from sumrep.verify import Mode, check_premise, run_theorem


class TestGreedyRepair:
    def test_degenerate_horizon_returns_seed(self):
        log = greedy_repair(2, 2, "smallest-new", from_values([0, 1]))
        assert log.final_set == from_values([0, 1])
        assert log.additions == ()
        assert log.watermark == 1
        assert not log.certified  # nothing beyond the seed sums certifiable

    def test_certified_run(self):
        log = greedy_repair(2, 1000)
        assert log.certified
        assert log.n0 == 2
        assert log.watermark == 500
        report = check_premise(log.final_set, 2, 2, log.n0, Mode.prefix(log.watermark))
        assert report.holds

    def test_unreachable_small_sums_logged(self):
        log = greedy_repair(2, 100)
        assert [n for n, _ in log.failures] == [0, 1]

    def test_triggers_nondecreasing(self):
        log = greedy_repair(2, 800)
        triggers = [n for _, n in log.additions]
        assert triggers == sorted(triggers)

    def test_additions_disjoint_from_seed_and_within_watermark(self):
        seed = from_values([0, 1])
        log = greedy_repair(2, 600, "smallest-new", seed)
        added = [e for e, _ in log.additions]
        assert len(set(added)) == len(added)
        assert all(e not in seed for e in added)
        assert all(1 <= e <= log.watermark for e in added)

    def test_deterministic(self):
        a = greedy_repair(3, 400, "balanced", from_values([0, 1, 2]))
        b = greedy_repair(3, 400, "balanced", from_values([0, 1, 2]))
        assert a == b

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_certify(self, strategy):
        log = greedy_repair(2, 500, strategy)
        assert log.certified, strategy
        report = check_premise(log.final_set, 2, 2, log.n0, Mode.prefix(log.watermark))
        assert report.holds

    def test_ell3_certifies_and_sizes(self):
        log = greedy_repair(3, 600, "smallest-new", from_values([0, 1, 2]))
        assert log.certified
        report = check_premise(log.final_set, 2, 3, log.n0, Mode.prefix(log.watermark))
        assert report.holds

    def test_watermark_safety_single_insertion(self):
        # inserting any single element above W never changes counts up to W
        log = greedy_repair(2, 300)
        W = log.watermark
        base = rep_table(log.final_set, 2, window=(0, W))
        for extra in (W + 1, W + 57, log.horizon):
            grown = from_values(list(log.final_set) + [extra])
            again = rep_table(grown, 2, window=(0, W))
            assert base.values == again.values

    def test_theorem_consistency(self):
        log = greedy_repair(2, 1000)
        t1 = run_theorem(log.final_set, "T1", h=2, mode=Mode.prefix(log.watermark))
        assert t1.verdict
        log3 = greedy_repair(3, 1000, "smallest-new", from_values([0, 1, 2]))
        t2 = run_theorem(log3.final_set, "T2", ell=3, mode=Mode.prefix(log3.watermark))
        assert t2.verdict

    @pytest.mark.parametrize("seed, horizon", [([0], 3), ([3, 4], 8)])
    def test_vacuous_premise_not_certified(self, seed, horizon):
        # no sum in [n0, W] is in 2A, so the re-check passes without checking any
        log = greedy_repair(2, horizon, "smallest-new", from_values(seed))
        report = check_premise(log.final_set, 2, 2, None, Mode.prefix(log.watermark))
        assert report.holds and report.checked_count == 0
        assert not log.certified
        assert (log.n0, log.checked_count) == (None, 0)

    @pytest.mark.parametrize("horizon", [60, 61])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_seed_fills_every_slot_up_to_watermark(self, strategy, horizon):
        # W = 30 for both horizons: the seed is all of [0, W], W + 1 elements
        log = greedy_repair(2, horizon, strategy, from_values(range(31)))
        assert log.watermark == 30
        assert log.additions == ()
        assert log.failures == ((0, 1), (1, 1))
        assert log.final_set == from_values(range(31))
        assert log.certified and log.n0 == 2

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_odd_horizon_at_twice_seed_max(self, strategy, ell):
        # T = 2*max(seed) + 1 has the same W = max(seed) as T = 2*max(seed)
        seed = from_values([0, 1, 2, 9])
        odd = greedy_repair(ell, 19, strategy, seed)
        even = greedy_repair(ell, 18, strategy, seed)
        assert odd.watermark == even.watermark == 9
        assert (odd.additions, odd.failures, odd.final_set) == (
            even.additions, even.failures, even.final_set)
        assert max(odd.final_set) <= odd.watermark

    @settings(max_examples=60)
    @given(
        st.sampled_from(STRATEGIES),
        st.integers(2, 4),
        st.frozensets(st.integers(0, 30), min_size=1, max_size=5),
        st.integers(0, 200),
    )
    def test_every_short_sum_is_a_logged_failure(self, strategy, ell, seed, extra):
        """Repairs run to a fixed point: a sum below ell representations that
        is not a logged failure would have been repaired."""
        seed = from_values(seed)
        log = greedy_repair(ell, 2 * seed.max_element + extra, strategy, seed)
        counts = multiset_sum_counts(log.final_set, 2)
        short = {n for n, c in counts.items() if n <= log.watermark and c < ell}
        assert short <= {n for n, _ in log.failures}

    def test_allocation_past_physical_memory_refused(self):
        with pytest.raises(ParameterError, match="greedy_repair: needs about"):
            greedy_repair(2, 2**62)

    def test_precondition_errors(self):
        with pytest.raises(ParameterError):
            greedy_repair(1, 100)
        with pytest.raises(ParameterError):
            greedy_repair(2, 100, "newest")
        with pytest.raises(ParameterError):
            greedy_repair(2, 100, "smallest-new", from_values([]))
        with pytest.raises(ParameterError):
            greedy_repair(2, 9, "smallest-new", from_values([0, 5]))

    def test_json_round_trip(self):
        log = greedy_repair(2, 200)
        doc = json.loads(log.to_json())
        assert ConstructionLog.from_dict(doc) == log

    def test_certified_fraction(self):
        log = greedy_repair(2, 200)
        assert log.certified
        assert log.certified_frac == (log.watermark - log.n0) / log.watermark
        assert log.to_dict()["certified_frac"] == log.certified_frac
        assert density_report(log).to_dict()["certified_frac"] == log.certified_frac
        assert greedy_repair(2, 3, "smallest-new", from_values([0])).certified_frac == 0.0

    def test_log_without_certified_fraction_still_loads(self):
        # logs written before the field existed
        log = greedy_repair(2, 200)
        doc = log.to_dict()
        del doc["certified_frac"]
        assert ConstructionLog.from_dict(doc) == log

    def test_density_curve_tracks_counting(self):
        log = greedy_repair(2, 400)
        for x, count in log.density_curve:
            assert count == counting(log.final_set, x)
        assert log.density_curve[-1][0] == log.horizon


class TestDensityReport:
    def test_rows_and_hard_bound(self):
        log = greedy_repair(2, 1000)
        report = density_report(log)
        assert report.theorem_id == "T1"
        assert all(r.x >= 2 for r in report.rows)
        last = report.rows[-1]
        assert last.x == log.horizon
        assert last.count > last.lower_bound
        assert last.log_sq_ref == pytest.approx(math.log(last.x) ** 2)
        assert report.final_ratio == pytest.approx(last.count / math.log(last.x) ** 2)

    def test_ell3_uses_pair_bound(self):
        log = greedy_repair(3, 600, "smallest-new", from_values([0, 1, 2]))
        report = density_report(log)
        assert report.theorem_id == "T2"
        assert report.rows[-1].count > report.rows[-1].lower_bound

    @staticmethod
    def _hand_log(last_count: int) -> ConstructionLog:
        # k0 = 1 (n0 = 2, a0 = 1), so the T1 bound at x = 16 is 4 - 1 = 3
        return ConstructionLog(
            target_ell=2, horizon=16, strategy="smallest-new",
            seed_set=from_values([0, 1]), additions=(), failures=(), watermark=8,
            final_set=from_values([0, 1, 2, 3, 5, 9]), certified=True, n0=2,
            checked_count=7, density_curve=((1, 1), (2, 2), (4, 3), (8, 3), (16, last_count)),
        )

    def test_bound_equality_passes(self):
        report = density_report(self._hand_log(3))
        assert report.k0 == 1
        last = report.rows[-1]
        assert (last.x, last.count, last.lower_bound) == (16, 3, 3.0)

    def test_bound_violation_raises(self):
        with pytest.raises(CertificateError, match="x=16"):
            density_report(self._hand_log(2))

    def test_requires_certified_log(self):
        log = greedy_repair(2, 2)
        with pytest.raises(ParameterError, match="certified"):
            density_report(log)

    def test_no_additions_keeps_seed_density(self):
        # a seed that is already ell=2 saturated on its certified window
        seed = from_values(range(0, 30))
        log = greedy_repair(2, 60, "smallest-new", seed)
        assert log.additions == ()
        assert log.certified
        report = density_report(log)
        assert report.rows[-1].count == len(seed) - 1  # zero never counted

    def test_csv_shape(self):
        log = greedy_repair(2, 300)
        text = density_report(log).csv_text()
        lines = text.splitlines()
        assert lines[0] == "x,Ax,lower_bound,log_sq_ref"
        assert len(lines) == 1 + len(density_report(log).rows)
