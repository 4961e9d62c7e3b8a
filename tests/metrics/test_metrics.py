"""Tests for metrics collection and statistics helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import EpochRecord, RunMetrics, percentile
from repro.metrics.stats import mean


def make_epoch(i, stop=1000, dirty=10, state=40960, at=None):
    return EpochRecord(
        epoch=i, stop_us=stop, dirty_pages=dirty, state_bytes=state,
        at_us=at if at is not None else i * 30_000,
    )


class TestPercentile:
    def test_basic_percentiles(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 10) == 10
        assert percentile(values, 90) == 90
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([7], 10) == 7
        assert percentile([7], 90) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            mean([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_golden_hand_computed_ranks(self):
        # Nearest-rank: rank = ceil(p/100 * n), 1-indexed into the sorted
        # sample.  Every expectation below is hand-computed.
        two = [10, 20]
        assert percentile(two, 50) == 10   # ceil(1.0) = rank 1, not round(1.5)
        assert percentile(two, 50.1) == 20  # ceil(1.002) = rank 2
        assert percentile(two, 25) == 10   # ceil(0.5) = rank 1
        assert percentile(two, 75) == 20   # ceil(1.5) = rank 2
        four = [1, 2, 3, 4]
        assert percentile(four, 25) == 1   # ceil(1.0) = rank 1
        assert percentile(four, 50) == 2   # ceil(2.0) = rank 2
        assert percentile(four, 74) == 3   # ceil(2.96) = rank 3
        assert percentile(four, 75) == 3   # ceil(3.0) = rank 3 exactly
        assert percentile(four, 76) == 4   # ceil(3.04) = rank 4
        five = [15, 20, 35, 40, 50]
        assert percentile(five, 5) == 15   # ceil(0.25) -> clamped to rank 1
        assert percentile(five, 30) == 20  # ceil(1.5) = rank 2
        assert percentile(five, 40) == 20  # ceil(2.0) = rank 2
        assert percentile(five, 95) == 50  # ceil(4.75) = rank 5

    def test_regression_double_rounding(self):
        # The historical int(round(p/100*n + 0.5)) double-rounded exact
        # ranks: p50 of 2 samples computed round(1.5) -> 2 (banker's
        # rounding on the *shifted* value) and returned the max.
        assert percentile([10, 20], 50) == 10
        # p25 of 6: exact rank 1.5 -> ceil 2; the old formula hit
        # round(2.0) = 2 too, but p50 of 6 (rank 3.0) hit round(3.5) -> 4.
        six = [1, 2, 3, 4, 5, 6]
        assert percentile(six, 25) == 2
        assert percentile(six, 50) == 3
        assert percentile(six, 100) == 6

    def test_p999_small_samples(self):
        # p999 on samples smaller than 1000 must return the max (rank
        # ceil(0.999 * n) == n for all n < 1000), never run past the end.
        assert percentile([5], 99.9) == 5
        assert percentile([10, 20], 99.9) == 20
        assert percentile(list(range(100)), 99.9) == 99
        assert percentile(list(range(999)), 99.9) == 998
        # At n = 1000 the p999 rank is exactly 999: second-largest.
        thousand = list(range(1, 1001))
        assert percentile(thousand, 99.9) == 999
        assert percentile(thousand, 100) == 1000
        # And n = 2000: ceil(1998.0) = rank 1998.
        assert percentile(list(range(1, 2001)), 99.9) == 1998

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    def test_property_percentile_bounds_and_monotone(self, values):
        p10 = percentile(values, 10)
        p50 = percentile(values, 50)
        p90 = percentile(values, 90)
        assert min(values) <= p10 <= p50 <= p90 <= max(values)
        assert p10 in values and p50 in values and p90 in values


class TestRunMetrics:
    def test_steady_epochs_skip_initial_full(self):
        metrics = RunMetrics()
        metrics.record_epoch(make_epoch(0, stop=100_000))
        for i in range(1, 5):
            metrics.record_epoch(make_epoch(i, stop=1000))
        assert metrics.avg_stop_us() == 1000
        assert len(metrics.steady_epochs()) == 4

    def test_window_filters_epochs(self):
        metrics = RunMetrics()
        for i in range(10):
            metrics.record_epoch(make_epoch(i, stop=1000 + i, at=i * 10_000))
        metrics.window_start_us = 30_000
        metrics.window_end_us = 70_000
        steady = metrics.steady_epochs()
        assert [e.epoch for e in steady] == [3, 4, 5, 6]

    def test_window_with_no_epochs_falls_back_to_last(self):
        metrics = RunMetrics()
        metrics.record_epoch(make_epoch(0, at=5))
        metrics.record_epoch(make_epoch(1, at=10))
        metrics.window_start_us = 1_000_000
        assert [e.epoch for e in metrics.steady_epochs()] == [1]

    def test_cpu_accounting_and_utilization(self):
        metrics = RunMetrics()
        metrics.started_at_us = 0
        metrics.ended_at_us = 1_000_000
        metrics.charge_backup_cpu(200_000)
        assert metrics.backup_core_utilization() == pytest.approx(0.2)
        metrics.charge_primary_cpu(50_000)
        assert metrics.primary_agent_cpu_us == 50_000

    def test_stop_percentiles(self):
        metrics = RunMetrics()
        metrics.record_epoch(make_epoch(0))
        for i, stop in enumerate([1000, 2000, 3000, 4000, 5000], start=1):
            metrics.record_epoch(make_epoch(i, stop=stop))
        assert metrics.stop_percentile(50) == 3000
        assert metrics.stop_percentile(90) == 5000
