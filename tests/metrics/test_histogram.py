"""LatencyHistogram bucketing/percentiles and the SLO row built from it."""

import pytest

from repro.metrics.histogram import LatencyHistogram, _bucket, _bucket_upper
from repro.metrics.slo import SloRow
from repro.metrics.stats import percentile


def test_small_values_are_exact():
    h = LatencyHistogram()
    for v in (0, 1, 7, 31):
        h.record(v)
    assert h.min_value == 0
    assert h.max_value == 31
    assert h.percentile(0) == 0
    assert h.percentile(100) == 31
    assert len(h) == 4


def test_bucket_upper_bounds_every_bucket():
    # Every value maps to a bucket whose upper bound is >= the value and
    # within ~1/32 of it (the histogram is pessimistic, never optimistic).
    for v in list(range(0, 200)) + [1000, 4096, 65537, 10**6, 10**8]:
        upper = _bucket_upper(_bucket(v))
        assert upper >= v
        assert upper <= v + max(1, v // 32)


def test_percentile_matches_list_percentile_within_quantization():
    samples = [i * 37 + 5 for i in range(500)]
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    for p in (50, 90, 99, 99.9):
        exact = percentile(samples, p)
        bucketed = h.percentile(p)
        assert exact <= bucketed <= exact + max(1, exact // 16)


def test_percentile_never_exceeds_max():
    # A mid-rank bucket bound can exceed the true max; the histogram must
    # clip so p99 <= p999 <= max always holds.
    h = LatencyHistogram()
    for v in [35839] * 99 + [43882]:
        h.record(v)
    assert h.percentile(99) <= h.percentile(99.9) <= h.max_value


def test_merge_and_mean():
    a, b = LatencyHistogram(), LatencyHistogram()
    for v in (10, 20, 30):
        a.record(v)
    for v in (1000, 2000):
        b.record(v)
    a.merge(b)
    assert len(a) == 5
    assert a.min_value == 10
    assert a.max_value == 2000
    assert a.mean() == pytest.approx((10 + 20 + 30 + 1000 + 2000) / 5)


def test_empty_histogram_raises():
    h = LatencyHistogram()
    with pytest.raises(ValueError):
        h.percentile(50)
    with pytest.raises(ValueError):
        h.mean()
    with pytest.raises(ValueError):
        h.record(-1)


def test_to_dict_is_canonical_and_digestable():
    a, b = LatencyHistogram(), LatencyHistogram()
    for v in (5, 500, 50):
        a.record(v)
    for v in (50, 5, 500):  # insertion order must not matter
        b.record(v)
    assert a.to_dict() == b.to_dict()


def _row(p99: int = 1000) -> SloRow:
    lat, stall = LatencyHistogram(), LatencyHistogram()
    for v in (100, 200, p99):
        lat.record(v)
    stall.record(50)
    return SloRow.from_histograms(
        "steady", lat, stall, requests=3, errors=0, peak_sessions=2,
        duration_us=1_000_000,
    )


def test_slo_row_cells_track_histograms():
    """The replay check compares two same-seed rows field by field."""
    assert _row() == _row()
    assert _row() != _row(p99=2000)
    row = _row()
    # Percentiles are histogram bucket bounds: never below the sample.
    assert (row.p50_us, row.p99_us, row.max_us, row.stall_p99_us) == (203, 1000, 1000, 50)
    assert row.throughput_rps == 3.0
