"""Table VI: response latency with a single client (paper §VII-C).

Paper reference values:

=========  ========  =========
benchmark  stock     NiLiCon
=========  ========  =========
redis      3.1 ms    36.9 ms
ssdb       93 ms     143 ms
node       2.4 ms    39.4 ms
lighttpd   285 ms    542 ms
djcms      89 ms     245 ms
=========  ========  =========

Shape claims: for fast-request benchmarks (Redis, Node) the added latency
is dominated by output buffering (~an epoch plus checkpoint time —
responses wait for the next checkpoint commit), so NiLiCon latency is an
order of magnitude above stock; for slow-request benchmarks (SSDB batch,
Lighttpd, DJCMS) the processing time itself dominates and the relative
increase is mild.

Note: stock SSDB/Lighttpd latencies in the paper reflect a full 1K-op
batch / a heavyweight PHP watermark; our scaled batches are smaller, so
absolute stock numbers are lower — the stock-to-NiLiCon *delta* of roughly
one commit cycle is the reproduced shape.
"""

from __future__ import annotations

from repro.experiments.common import open_cell
from repro.metrics.stats import mean
from repro.sim.units import ms, sec

__all__ = ["PAPER_TABLE6", "run_table6"]

PAPER_TABLE6 = {
    "redis": {"stock_ms": 3.1, "nilicon_ms": 36.9},
    "ssdb": {"stock_ms": 93, "nilicon_ms": 143},
    "node": {"stock_ms": 2.4, "nilicon_ms": 39.4},
    "lighttpd": {"stock_ms": 285, "nilicon_ms": 542},
    "djcms": {"stock_ms": 89, "nilicon_ms": 245},
}

SERVER_BENCHMARKS = ("redis", "ssdb", "node", "lighttpd", "djcms")


def _single_client_latency(name: str, mode: str, seed: int) -> float:
    cell = open_cell(name, mode, seed)
    cell.start()
    if name in ("redis", "ssdb"):
        # One client, one batch in flight (paper: "only one client").
        cell.clients_at(ms(400), window=1, run_until_us=sec(3))
    else:
        cell.clients_at(ms(400), n_clients=1, run_until_us=sec(3))
    cell.world.run(until=sec(3))
    cell.deployment.stop()
    assert cell.stats.latencies_us, f"{name}/{mode}: no responses"
    return mean(cell.stats.latencies_us) / 1000


def run_table6(seed: int = 1) -> list[dict]:
    rows = []
    for name in SERVER_BENCHMARKS:
        rows.append(
            {
                "benchmark": name,
                "stock_ms": _single_client_latency(name, "stock", seed),
                "nilicon_ms": _single_client_latency(name, "nilicon", seed),
                "paper": PAPER_TABLE6[name],
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'benchmark':<11}{'stock ms':>10}{'(paper)':>9}{'NiLiCon ms':>12}{'(paper)':>9}"]
    for row in rows:
        p = row["paper"]
        lines.append(
            f"{row['benchmark']:<11}{row['stock_ms']:>10.1f}{p['stock_ms']:>9.1f}"
            f"{row['nilicon_ms']:>12.1f}{p['nilicon_ms']:>9.1f}"
        )
    return "\n".join(lines)
