"""Measurement infrastructure for the evaluation experiments.

:class:`~repro.metrics.collector.RunMetrics` accumulates the per-epoch
series the paper reports (stop time, dirty pages, transferred state size),
agent CPU time for the utilization table, and the recovery-latency
breakdown.
"""

from repro.metrics.collector import EpochRecord, RecoveryBreakdown, RunMetrics
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.slo import SloRow
from repro.metrics.stats import percentile

__all__ = [
    "EpochRecord",
    "LatencyHistogram",
    "RecoveryBreakdown",
    "RunMetrics",
    "SloRow",
    "percentile",
]
