"""SLO rollup: one workload profile's latency/stall percentiles.

The traffic tier reduces each workload profile's request-latency and
epoch-stall histograms to a :class:`SloRow`.  The paper gate pins its
columns (``repro paper traffic`` and ``repro paper traffic_full``), and
the replay check compares two same-seed rows field by field: the
determinism oracle applied to client-visible numbers, not only to trace
events.

Latency columns report p50/p99/p999 — the paper's client-visible
output-commit cost lives in the tail, and p999 is where a single epoch
stall or failover shows up even when p50 looks healthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.histogram import LatencyHistogram

__all__ = ["SloRow"]


@dataclass(frozen=True)
class SloRow:
    """One workload profile's client-visible service levels."""

    workload: str
    requests: int
    errors: int
    peak_sessions: int
    throughput_rps: float
    p50_us: int
    p99_us: int
    p999_us: int
    max_us: int
    stall_p50_us: int
    stall_p99_us: int
    stall_max_us: int
    evictions: int
    drains: int
    ok: bool

    @classmethod
    def from_histograms(
        cls,
        workload: str,
        latency: LatencyHistogram,
        stalls: LatencyHistogram,
        *,
        requests: int,
        errors: int,
        peak_sessions: int,
        duration_us: int,
        evictions: int = 0,
        drains: int = 0,
        ok: bool = True,
    ) -> "SloRow":
        def pct(hist: LatencyHistogram, p: float) -> int:
            return hist.percentile(p) if len(hist) else 0

        return cls(
            workload=workload,
            requests=requests,
            errors=errors,
            peak_sessions=peak_sessions,
            throughput_rps=round(requests / (duration_us / 1e6), 1)
            if duration_us else 0.0,
            p50_us=pct(latency, 50),
            p99_us=pct(latency, 99),
            p999_us=pct(latency, 99.9),
            max_us=latency.max_value or 0,
            stall_p50_us=pct(stalls, 50),
            stall_p99_us=pct(stalls, 99),
            stall_max_us=stalls.max_value or 0,
            evictions=evictions,
            drains=drains,
            ok=ok,
        )
