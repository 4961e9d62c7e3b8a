"""SLO rollup: per-workload latency/stall percentiles as one table.

The traffic tier reduces each workload profile's request-latency and
epoch-stall histograms to a :class:`SloRow`; :class:`SloTable` renders the
markdown table ``repro traffic campaign`` prints and produces the canonical digest
the determinism oracle compares across same-seed runs (PR 5's campaign
convention, applied to client-visible numbers instead of trace events).

Latency columns report p50/p99/p999 — the paper's client-visible
output-commit cost lives in the tail, and p999 is where a single epoch
stall or failover shows up even when p50 looks healthy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.report import markdown_table

__all__ = ["SloRow", "SloTable"]


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


class SloTable:
    """Ordered collection of :class:`SloRow` with rendering + digest."""

    def __init__(self, rows: Sequence[SloRow] = ()) -> None:
        self.rows: list[SloRow] = list(rows)

    def add(self, row: SloRow) -> None:
        self.rows.append(row)

    def to_dict(self) -> dict[str, Any]:
        return {"rows": [asdict(row) for row in self.rows]}

    def digest(self) -> str:
        """Canonical digest of every cell: two same-seed runs must match."""
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def table(self) -> str:
        def fmt_ms(us: int | float) -> str:
            return f"{us / 1000:.1f}"

        headers = [
            "workload", "req/s", "requests", "errors", "peak sess",
            "p50 ms", "p99 ms", "p999 ms", "max ms",
            "stall p50 ms", "stall p99 ms", "stall max ms",
            "evict", "drain", "ok",
        ]
        return markdown_table(headers, [
            [
                row.workload, row.throughput_rps, row.requests, row.errors,
                row.peak_sessions,
                fmt_ms(row.p50_us), fmt_ms(row.p99_us), fmt_ms(row.p999_us),
                fmt_ms(row.max_us),
                fmt_ms(row.stall_p50_us), fmt_ms(row.stall_p99_us),
                fmt_ms(row.stall_max_us),
                row.evictions, row.drains, "yes" if row.ok else "NO",
            ]
            for row in self.rows
        ])
