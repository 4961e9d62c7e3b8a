"""§VII-C scalability: threads, clients, and processes sweeps.

Paper reference shapes:

* **streamcluster, 1→32 threads** — overhead grows 23% → 52%, driven by
  per-thread state retrieval (148 µs → 4 ms), larger footprint (49 K →
  111 K pages → longer pagemap scans) and more dirty pages (121 → 495 →
  more tracking faults and copying).
* **Lighttpd, 2→128 clients (4 processes)** — overhead ~34% flat up to 32
  clients, then rises to ~45% at 128, "almost entirely caused by the
  increased time to checkpoint socket states: 1.2 ms → 13 ms".
* **Lighttpd, 1→8 processes** — overhead 23% → 63%: per-process state
  retrieval 6.5 ms → 28.7 ms, more sockets, more dirty pages.

``repro paper bench`` gates every point of each sweep's one point list.
"""

from __future__ import annotations

from repro.experiments.common import (
    overhead,
    run_compute_benchmark,
    run_server_benchmark,
)
from repro.sim.units import sec

__all__ = [
    "CLIENT_COUNTS",
    "PAPER_SCALABILITY",
    "run_client_sweep",
    "run_process_sweep",
    "run_thread_sweep",
]

PAPER_SCALABILITY = {
    "threads": {1: 23.0, 32: 52.0},
    "clients": {2: 34.0, 32: 34.0, 128: 45.0},
    "processes": {1: 23.0, 8: 63.0},
}

#: The client sweep's points (the paper gate bounds the overhead at each).
CLIENT_COUNTS = (2, 8, 32, 128)


def run_thread_sweep(thread_counts=(1, 2, 4, 8, 16, 32), seed: int = 1) -> list[dict]:
    """streamcluster with 1..32 threads (a core per thread, as the paper)."""
    rows = []
    for n in thread_counts:
        kwargs = {"n_threads": n}
        stock = run_compute_benchmark(
            "streamcluster", "stock", seed=seed, workload_kwargs=kwargs
        )
        nil = run_compute_benchmark(
            "streamcluster", "nilicon", seed=seed, workload_kwargs=kwargs
        )
        rows.append(
            {
                "threads": n,
                "overhead_pct": 100 * overhead(stock, nil),
                "avg_stop_ms": nil.metrics.avg_stop_us() / 1000,
                "avg_dirty": nil.metrics.avg_dirty_pages(),
            }
        )
    return rows


def run_client_sweep(client_counts=CLIENT_COUNTS, seed: int = 1) -> list[dict]:
    """Lighttpd with 4 processes and 2..128 clients.

    Uses a lightweight request variant (approx. 3 ms instead of the
    watermarking default) so that even 128-deep client queues reach steady
    state within a short simulated window; the effect under study — the
    growth of socket-state collection with the connection count — is
    independent of per-request weight.
    """
    rows = []
    for n in client_counts:
        kwargs = {
            "n_processes": 4,
            "n_clients": n,
            "cpu_per_request_us": 3_000,
            "dirty_pages_per_request": 40,
        }
        stock = run_server_benchmark(
            "lighttpd", "stock", duration_us=sec(2), seed=seed, workload_kwargs=kwargs
        )
        nil = run_server_benchmark(
            "lighttpd", "nilicon", duration_us=sec(2), seed=seed, workload_kwargs=kwargs
        )
        # Socket collection time at this client count (cost model view).
        from repro.kernel.costmodel import CostModel

        socket_ms = CostModel().socket_collection(n + 1) / 1000
        rows.append(
            {
                "clients": n,
                "overhead_pct": 100 * overhead(stock, nil),
                "avg_stop_ms": nil.metrics.avg_stop_us() / 1000,
                "socket_collect_ms": socket_ms,
            }
        )
    return rows


def run_process_sweep(process_counts=(1, 2, 4, 8), seed: int = 1) -> list[dict]:
    """Lighttpd with 1..8 worker processes (a core per process)."""
    rows = []
    for n in process_counts:
        kwargs = {"n_processes": n}
        stock = run_server_benchmark(
            "lighttpd", "stock", duration_us=sec(2), seed=seed, workload_kwargs=kwargs
        )
        nil = run_server_benchmark(
            "lighttpd", "nilicon", duration_us=sec(2), seed=seed, workload_kwargs=kwargs
        )
        rows.append(
            {
                "processes": n,
                "overhead_pct": 100 * overhead(stock, nil),
                "avg_stop_ms": nil.metrics.avg_stop_us() / 1000,
                "avg_dirty": nil.metrics.avg_dirty_pages(),
            }
        )
    return rows


def format_sweep(rows: list[dict], key: str) -> str:
    lines = [f"{key:<12}{'overhead %':>12}{'stop ms':>9}"]
    for row in rows:
        lines.append(f"{row[key]:<12}{row['overhead_pct']:>12.1f}{row['avg_stop_ms']:>9.1f}")
    return "\n".join(lines)
