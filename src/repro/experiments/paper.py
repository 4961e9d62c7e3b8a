"""The paper gate: every artifact's cells and shape claims in one bench.

The reproduction targets the paper's *shapes* — who wins in Fig. 3,
Table I's monotone walk, the §VII-C trends, HyCoR's overhead-vs-recovery
tradeoff, the fleet sweeps' flat stop and shrinking blast radius — so
those are what this gates.  :data:`ARTIFACTS` is the one registry of
simulated-result artifacts (the paper's tables and figures, the HyCoR
comparison, the fleet campaign and sweeps, the L7 traffic SLO cells at
both scales, the engine's work counters and the replay grid's trace,
metrics and NDLog digests): each names
its title, its table and its runner.  ``repro paper bench`` runs every
artifact once (:func:`run_paper`), prints its tables
(:func:`format_paper`) and reports its cells in the one bench schema
(:mod:`repro.metrics.benchfile`, :func:`run_paper_bench`); ``repro paper
<artifact>`` prints one table.

* A cell is named ``<artifact>.<row>.<column>``
  (``fig3.redis.nilicon_overhead_pct``, ``fleet_pool.12.members_disturbed``,
  ``traffic.failover.p99_us``) and is compared exactly: simulated results
  are deterministic, so there is no band to choose.  A column whose name
  ends in ``digest`` is a cell too, a string with unit ``digest``: this
  file is the one place a simulated output is pinned, and ``repro paper
  bench --out BENCH_paper.json`` the one way to re-pin it.
* :data:`CLAUSES` are the shape claims; :func:`paper_problems` folds the
  failing ones into ``ok``.  A clause runs only when every cell it reads
  is present, and a full report in which one cannot run is a problem.
* ``--smoke`` runs Tables I–II, Fig. 3 and Tables III–V on
  :data:`SMOKE_SUITE`, §VIII, one §VII-A injection on each of
  :data:`SMOKE_VALIDATION` and the HyCoR comparison on
  :data:`repro.experiments.hycor.SMOKE_WORKLOADS` (with all four recovery
  cells and the traffic cell), the fleet campaign, the first two rows of
  each fleet sweep, every smoke-scale traffic profile, the engine row
  of streamcluster and the determinism grid.  Every cell is its own world
  behind an identity-counter reset (:func:`repro.experiments.common.open_cell`,
  :func:`repro.fleet.service.open_fleet`), so smoke cells equal the full
  run's.  The full run takes §VII-A at :data:`VALIDATION_RUNS` injections
  per workload and adds the full-scale traffic profiles
  (``traffic_full``);
  ``validation.run_validation_campaign(runs_per_workload=50)`` is the
  paper-scale campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.analysis import fuzz, ndreplay
from repro.experiments import (
    ablations, engine, fig3, fleet, hycor, scalability, table1, table2, table3, table4, table5,
    table6, traffic, validation,
)
from repro.experiments.common import RunResult, run_overhead
from repro.metrics import benchfile
from repro.replication.config import TABLE1_LEVELS
from repro.sim.units import sec
from repro.workloads.catalog import PAPER_BENCHMARKS, WORKLOADS

__all__ = ["ARTIFACTS", "Artifact", "CLAUSES", "Clause", "PaperRun", "SMOKE_SUITE",
           "SMOKE_VALIDATION", "VALIDATION_RUNS", "format_paper", "paper_metrics",
           "paper_problems", "run_paper", "run_paper_bench", "runnable_clauses"]

#: Fig. 3 and Tables III–V in the smoke run (swaptions, where MC wins, and
#: ssdb, where NiLiCon wins): redis (31 s) and node (13.5 s) are full-only.
SMOKE_SUITE = ("swaptions", "streamcluster", "ssdb", "lighttpd", "djcms")
#: §VII-A in the smoke run: one injection on each of these.
SMOKE_VALIDATION = tuple(n for n in validation.VALIDATION_WORKLOADS if n not in ("redis", "node"))
#: §VII-A injections per workload in the full run.
VALIDATION_RUNS = 5


@dataclass
class PaperRun:
    """One :func:`run_paper` call: its seed, whether it runs the smoke
    subset, and the suite cells Fig. 3 and Tables III–V all read (run on
    first use, once per call)."""

    smoke: bool
    seed: int

    @cached_property
    def suite(self) -> dict[str, dict[str, RunResult]]:
        """benchmark -> mode -> its overhead cell, in the paper's order."""
        return {
            name: {mode: run_overhead(name, mode, sec(2), self.seed)
                   for mode in ("stock", "nilicon", "mc")}
            for name in (SMOKE_SUITE if self.smoke else PAPER_BENCHMARKS)
        }


class Artifact(NamedTuple):
    """One table or figure: its title, the row field that names a row, its
    table (a formatter of all rows or a per-row template), its runner, and
    whether the smoke run includes it."""

    title: str
    key: str
    table: Callable[[list], str] | str
    run: Callable[[PaperRun], list]
    smoke: bool = True


def _sweep(sweep: str, title: str, run: Callable[..., list]) -> Artifact:
    return Artifact(f"§VII-C — {title}:", sweep, partial(scalability.format_sweep, key=sweep),
                    lambda r: run(seed=r.seed), smoke=False)


#: The one row template of both traffic artifacts.
_SLO_ROW = ("  {profile:<9} p50 {p50_us:>6} us  p99 {p99_us:>6} us  p999 {p999_us:>6} us  "
            "stall p99 {stall_p99_us:>6} us  {throughput_rps:6.1f} req/s  {requests:>4} requests  "
            "peak {peak_sessions:>4} sessions  violations {violations}")


def _determinism_row(workload: str, seed: int) -> dict[str, Any]:
    """One cell of the replay grid: the trace and metrics digests of a
    plain traced run and the NDLog digest of its record->replay round trip."""
    run = fuzz.run_instrumented(workload, seed, run_ms=ndreplay.DEFAULT_RUN_MS, detect=False)
    return {"cell": f"{workload}/seed{seed}", "trace_digest": run.trace_digest,
            "metrics_digest": run.metrics_digest,
            "ndlog_digest": ndreplay.run_roundtrip(workload, seed)["ndlog_digest"]}


#: Every simulated-result artifact, in print order.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact("Table I — impact of NiLiCon's performance optimizations (streamcluster):",
                       "label", table1.format_rows, lambda r: table1.run_table1(seed=r.seed)),
    "table2": Artifact("Table II — recovery latency breakdown:", "benchmark", table2.format_rows,
                       lambda r: table2.run_table2(seed=r.seed)),
    "fig3": Artifact("Figure 3 — performance overhead (percent):", "benchmark", fig3.format_rows,
                     lambda r: fig3.rows_from_suite(r.suite)),
    "table3": Artifact("Table III — average stop time and dirty pages per epoch:", "benchmark",
                       table3.format_rows, lambda r: table3.rows_from_suite(r.suite)),
    "table4": Artifact("Table IV — stop time and transferred state size (P10/P50/P90):",
                       "benchmark", table4.format_rows, lambda r: table4.rows_from_suite(r.suite)),
    "table5": Artifact("Table V — core utilization, active vs backup host:", "benchmark",
                       table5.format_rows, lambda r: table5.rows_from_suite(r.suite)),
    "table6": Artifact("Table VI — response latency with a single client:", "benchmark",
                       table6.format_rows, lambda r: table6.run_table6(seed=r.seed), smoke=False),
    "validation": Artifact(
        "§VII-A — fault-injection campaign:", "workload", validation.format_rows,
        lambda r: validation.run_validation_campaign(
            SMOKE_VALIDATION if r.smoke else validation.VALIDATION_WORKLOADS,
            runs_per_workload=1 if r.smoke else VALIDATION_RUNS, base_seed=100,
        ),
    ),
    "threads": _sweep("threads", "streamcluster thread sweep", scalability.run_thread_sweep),
    "clients": _sweep("clients", "Lighttpd client sweep (4 processes)",
                      scalability.run_client_sweep),
    "processes": _sweep("processes", "Lighttpd process sweep", scalability.run_process_sweep),
    "leave_one_out": Artifact(
        "Ablation — leave-one-out on the fully optimized system:", "variant",
        "  {variant:<20} overhead {overhead_pct:6.1f}%  stop {avg_stop_ms:6.1f} ms",
        lambda r: ablations.run_leave_one_out(seed=r.seed), smoke=False),
    "epoch": Artifact(
        "Ablation — epoch length sweep (streamcluster):", "epoch_ms",
        "  epoch {epoch_ms:>4} ms: overhead {overhead_pct:6.1f}%  "
        "stop {avg_stop_ms:5.1f} ms  dirty {avg_dirty:6.0f}",
        lambda r: ablations.run_epoch_sweep(seed=r.seed), smoke=False),
    "rto": Artifact(
        "Ablation — §V-E repaired-socket minimum-RTO patch:", "rto_patch",
        "  patch={rto_patch!s:<5} interruption {interruption_ms:7.0f} ms "
        "(restore {restore_ms:.0f} ms)",
        lambda r: ablations.run_rto_patch_ablation(seed=r.seed), smoke=False),
    "compression": Artifact(
        "Ablation — Remus-style transfer compression (redis):", "compressed",
        "  compressed={compressed!s:<5} link {link_mb_per_s:7.1f} MB/s  "
        "thr {throughput:9.0f} ops/s  backup {backup_cores:.3f} cores",
        lambda r: ablations.run_compression_ablation(seed=r.seed), smoke=False),
    "detection": Artifact(
        "Ablation — heartbeat interval vs detection latency:", "interval_ms",
        "  interval {interval_ms:>3} ms: detection {detection_ms:6.1f} ms, "
        "interruption {interruption_ms:6.0f} ms",
        lambda r: ablations.run_detection_sweep(seed=r.seed), smoke=False),
    "related": Artifact(
        "§VIII — warm spare (NiLiCon) vs active replication (COLO-style):", "system",
        "  {system:<8} median latency {median_latency_ms:6.1f} ms   "
        "backup {backup_cores:.3f} cores   primary {primary_cores:.3f} cores",
        lambda r: ablations.run_related_work()),
    "hycor": Artifact(
        "HyCoR vs NiLiCon — overhead (reduction in percentage points):", "workload",
        "  {workload:<14} {kind:<8} nilicon {nilicon_overhead_pct:6.2f}%  "
        "hycor {hycor_overhead_pct:6.2f}%  reduction {reduction_pct:6.2f}",
        lambda r: [hycor.run_overhead_row(name, seed=r.seed)
                   for name in (hycor.SMOKE_WORKLOADS if r.smoke else WORKLOADS)]),
    "hycor_recovery": Artifact(
        "HyCoR vs NiLiCon — recovery latency (replay: HyCoR's log-tail replay):", "cell",
        "  {cell:<14} detection {detection_us:>6} us  restore {restore_us:>6} us  "
        "replay {replay_us:>6} us  total {total_us:>6} us  violations {violations}",
        lambda r: [hycor.run_recovery_cell(name, mode, seed=r.seed)
                   for name in hycor.RECOVERY_WORKLOADS for mode in ("nilicon", "hycor")]),
    "hycor_traffic": Artifact(
        "HyCoR — the L7 traffic failover profile under hycor:", "profile",
        "  {profile}: {requests} requests, p99 {p99_us} us, violations {violations}",
        lambda r: [hycor.run_traffic_cell(seed=r.seed)]),
    "fleet_pair": Artifact(
        "Fleet — members stacked on one host pair (one shared 10 GbE link):", "containers",
        "  {containers} member(s): stop {mean_stop_us:7.1f} us  "
        "latency {mean_request_latency_us:8.1f} us  {completed_requests:>3} requests  "
        "{throughput_rps:5.1f} req/s  violations {violations}",
        lambda r: [fleet.run_pair_cell(n, seed=r.seed)
                   for n in fleet.PAIR_SIZES[:2 if r.smoke else None]]),
    "fleet_pool": Artifact(
        f"Fleet — {fleet.POOL_MEMBERS} members over growing pools, one host fail-stop:", "hosts",
        "  {hosts:>2} hosts: {members_disturbed:>2} disturbed  {failovers} failovers  "
        "{reprotects} re-protections  re-protect {mean_reprotect_latency_us:8.1f} us  "
        "{protected_at_end} protected  violations {violations}",
        lambda r: [fleet.run_pool_cell(n, seed=r.seed)
                   for n in fleet.POOL_SIZES[:2 if r.smoke else None]]),
    "fleet_campaign": Artifact(
        f"Fleet — acceptance campaign ({fleet.CAMPAIGN_FLEET.n_containers} members, "
        f"sequential then concurrent host fail-stops, replayed):", "fleet",
        "  {fleet}: fail-stops {phases}; {failovers} failovers  {reprotects} re-protections  "
        "re-protect {mean_reprotect_latency_us:8.1f} us  {protected_at_end} protected  "
        "{completed_requests} requests  digest {digest} (replay {replay_digest})  "
        "violations {violations}",
        lambda r: [fleet.run_fleet_campaign(seed=r.seed)]),
    "traffic": Artifact(
        "Traffic — L7 SLO profiles (smoke scale, each replayed):", "profile", _SLO_ROW,
        lambda r: traffic.run_slo_rows(seed=r.seed)),
    "traffic_full": Artifact(
        "Traffic — L7 SLO profiles (full scale, each replayed):", "profile", _SLO_ROW,
        lambda r: traffic.run_slo_rows(seed=r.seed, smoke=False), smoke=False),
    "engine": Artifact(
        f"Engine — exact work counters of one {engine.RUN_MS} ms profiled run:", "workload",
        engine.format_rows, lambda r: engine.run_rows(r.smoke, seed=r.seed)),
    "determinism": Artifact(
        f"Determinism — digests of one {ndreplay.DEFAULT_RUN_MS} ms run and its NDLog replay:",
        "cell", "  {cell:<14} trace {trace_digest}  metrics {metrics_digest}  "
        "ndlog {ndlog_digest}",
        lambda r: [_determinism_row(w, s) for w in ndreplay.DEFAULT_WORKLOADS
                   for s in ndreplay.DEFAULT_SEEDS]),
}

#: Row names of the two on/off ablations.
_SWITCH_ROWS = {"rto": {True: "patched", False: "unpatched"},
                "compression": {True: "compressed", False: "uncompressed"}}


def run_paper(smoke: bool = False, seed: int = 1,
              names: Sequence[str] | None = None) -> dict[str, list]:
    """Run the artifacts *names* (default: every artifact, or the smoke
    subset with *smoke*); returns each one's rows, in :data:`ARTIFACTS`
    order."""
    run = PaperRun(smoke, seed)
    if names is None:
        names = [name for name, artifact in ARTIFACTS.items() if artifact.smoke or not smoke]
    return {name: ARTIFACTS[name].run(run) for name in ARTIFACTS if name in names}


def format_paper(results: Mapping[str, list]) -> str:
    """Each artifact's table under its title, in paper order."""
    tables = []
    for name, rows in results.items():
        artifact = ARTIFACTS[name]
        table = artifact.table
        body = table(rows) if callable(table) else "\n".join(table.format(**r) for r in rows)
        tables.append(f"{artifact.title}\n{body}")
    return "\n\n".join(tables)


_UNITS = (
    ("reduction_pct", "pp"), ("_pct", "%"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
    ("_mb_per_s", "MB/s"), ("_cores", "cores"), ("_dpages", "pages"), ("_dirty", "pages"),
    ("_share", "ratio"), ("_rate", "ratio"), ("_rps", "req/s"), ("throughput", "ops/s"),
    ("completed", "requests"), ("requests", "requests"), ("errors", "errors"),
    ("violations", "violations"), ("_disturbed", "members"), ("_at_end", "members"),
    ("failovers", "count"), ("reprotects", "count"), ("_events", "count"),
    ("_sessions", "sessions"),
)


def paper_metrics(results: Mapping[str, list]) -> dict[str, dict[str, Any]]:
    """Every measured cell of *results*: paper references, labels and flags
    are dropped (strings too, but for digests), a list (of violations)
    counts its entries and percentile triples split into one column per
    percentile.  Floats keep six decimals, which drops float-arithmetic
    noise and keeps a one-microsecond change in any averaged time
    visible."""
    metrics: dict[str, dict[str, Any]] = {}
    for artifact, rows in results.items():
        key = ARTIFACTS[artifact].key
        if artifact == "validation":
            rows = [{"workload": c.workload, "recovery_rate": c.recovery_rate} for c in rows]
        for row in rows:
            name = _SWITCH_ROWS.get(artifact, {}).get(row[key], row[key])
            cells: dict[str, Any] = {}
            for column, value in row.items():
                if (column in (key, "level") or column.endswith("paper_pct")
                        or isinstance(value, (bool, dict))
                        or isinstance(value, str) and not column.endswith("digest")):
                    continue
                if isinstance(value, list):
                    cells[column] = len(value)
                elif isinstance(value, tuple):
                    base, unit = column.rsplit("_", 1)
                    cells.update({f"{base}_p{p}_{unit}": v
                                  for p, v in zip(table4.PERCENTILES, value)})
                else:
                    cells[column] = value
            for column, value in cells.items():
                metrics[f"{artifact}.{name}.{column}"] = {
                    "value": round(value, 6) if isinstance(value, float) else value,
                    # The engine's other columns are profiler counters, all counts.
                    "unit": "digest" if isinstance(value, str) else
                    "count" if artifact == "engine" else
                    next(u for suffix, u in _UNITS if column.endswith(suffix)),
                }
    return metrics


# --------------------------------------------------------------------- #
# Shape clauses                                                          #
# --------------------------------------------------------------------- #
class Clause(NamedTuple):
    """One shape claim: *holds* receives the values of *reads*, in order."""

    name: str
    reads: tuple[str, ...]
    holds: Callable[..., bool]


def _clause(name: str, reads, holds, rows=(None,)) -> list[Clause]:
    """One clause, or one per row of *rows* with ``{}`` in *name* and in
    *reads* (cell names, or one space-separated string of them) standing
    for the row."""
    reads = reads.split() if isinstance(reads, str) else reads
    return [Clause(name.format(r), tuple(c.format(r) for c in reads), holds) for r in rows]


def _band(cell: str, low: float | None, high: float | None) -> Clause:
    """*cell* strictly between *low* and *high* (``None``: unbounded)."""
    return Clause(f"{cell} in ({low}, {high})", (cell,),
                  lambda v: (low is None or v > low) and (high is None or v < high))


def _across(artifact: str, rows, column: str) -> tuple[str, ...]:
    return tuple(f"{artifact}.{row}.{column}" for row in rows)


def _ranked(names, values, reverse: bool = False) -> list[str]:
    """*names* sorted by their *values* (stable: ties keep name order)."""
    by = dict(zip(names, values))
    return sorted(names, key=by.get, reverse=reverse)


_B = PAPER_BENCHMARKS
_NET_REDIS = ("net", "redis")
_FAST = ("redis", "node")
_T1 = _across("table1", TABLE1_LEVELS, "overhead_pct")
_LOO = tuple(ablations.LEAVE_ONE_OUT)
_FIG3_PAPER_CHEAPEST = _ranked(_B, [fig3.PAPER_FIG3[n]["nilicon"] for n in _B])[0]
#: The catalog's servers: every workload but the two PARSEC compute ones.
_HYCOR_SERVERS = tuple(n for n in WORKLOADS if n not in ("swaptions", "streamcluster"))
_HYCOR_CELLS = tuple(f"{w}/{m}" for w in hycor.RECOVERY_WORKLOADS for m in ("nilicon", "hycor"))
_POOLS = fleet.POOL_SIZES
_PROFILES = tuple(scenario.profile.name for scenario in traffic.traffic_profiles(smoke=True))
_CAMPAIGN = f"fleet_campaign.{fleet.CAMPAIGN_ROW}"

#: Single-cell bounds (the paper's value in parentheses where it has one).
_BANDS = {
    # Table I: basic is catastrophic (1940%), CRIU alone unusable (619%);
    # the state cache lands below 150% (84%), the full system 15-60% (31%).
    _T1[0]: (400, None), _T1[1]: (150, None), _T1[2]: (None, 150), _T1[-1]: (15, 60),
    # Table II: restore takes over 100 ms, recovery is sub-second.
    **{f"table2.{b}.restore_ms": (100, None) for b in _NET_REDIS},
    **{f"table2.{b}.total_ms": (None, 1000) for b in _NET_REDIS},
    # Figure 3: a real but sub-100% overhead everywhere.
    **{f"fig3.{b}.{m}_overhead_pct": (5, 95) for b in _B for m in ("nilicon", "mc")},
    # Table III: NiLiCon's stop time within 0.4-2.5x of the paper's.
    **{f"table3.{b}.nilicon_stop_ms": (0.4 * stop, 2.5 * stop)
       for b, stop in ((b, table3.PAPER_TABLE3[b]["nilicon_stop_ms"]) for b in _B)},
    # Table IV: small compute states, redis ships MBs, mostly dirty pages.
    "table4.swaptions.state_p50_mb": (None, 1.0), "table4.redis.state_p50_mb": (5.0, None),
    "table4.streamcluster.state_p50_mb": (None, 2.0),
    **{f"table4.{b}.page_share": (0.80, None) for b in _FAST},
    # Table V: a light warm spare; active hosts saturate their threads.
    **{f"table5.{b}.backup_cores": (None, 0.6) for b in _B},
    "table5.swaptions.active_cores": (3.0, None), "table5.lighttpd.active_cores": (2.5, None),
    "table5.streamcluster.active_cores": (3.0, None),
    **{f"table5.{b}.active_cores": (None, 1.6) for b in _FAST},
    # Table VI: fast requests, buffered an epoch plus a stop (3.1 -> 36.9 ms).
    **{f"table6.{b}.stock_ms": (None, 10) for b in _FAST},
    **{f"table6.{b}.nilicon_ms": (20, 90) for b in _FAST},
    # §VII-C: threads (23% -> 52%), socket collection (1.2 -> 13 ms).
    "threads.1.overhead_pct": (10, None), "threads.32.overhead_pct": (None, 95),
    "clients.2.socket_collect_ms": (None, 2.0), "clients.128.socket_collect_ms": (10, 16),
    **{f"clients.{n}.overhead_pct": (20, 95) for n in scalability.CLIENT_COUNTS},
    # §VIII: NiLiCon's backup only buffers the state stream.
    "related.nilicon.backup_cores": (None, 0.05),
}

CLAUSES: tuple[Clause, ...] = (
    *(_band(cell, low, high) for cell, (low, high) in _BANDS.items()),
    # Table I: a monotone walk with a >3x state-cache cliff; plug input
    # blocking saves over a point (~7 ms firewall per epoch).
    *_clause("table1.monotone", _T1, lambda *o: all(a >= b for a, b in zip(o, o[1:]))),
    *_clause("table1.state_cache_cliff", _T1[1:3], lambda before, after: after < before / 3),
    *_clause("table1.plug_input_helps", _T1[2:4], lambda before, after: before - after > 1),
    *_clause("table1.staging_buffer_helps", _T1[4:6], lambda before, after: before >= after),
    *_clause("table1.shm_transfer_helps", _T1[5:7], lambda before, after: before >= after),
    # Table II: restore dominates; redis restores its store memory slower;
    # ARP is a constant broadcast; detection is ~3 heartbeats (90 ms mean).
    *_clause("table2.restore_over_arp[{}]", "table2.{}.restore_ms table2.{}.arp_ms",
             lambda restore, arp: restore > arp, _NET_REDIS),
    *_clause("table2.restore_over_others[{}]", "table2.{}.restore_ms table2.{}.others_ms",
             lambda restore, others: restore > others, _NET_REDIS),
    *_clause("table2.redis_restores_slower", "table2.redis.restore_ms table2.net.restore_ms",
             lambda redis, net: redis > net + 10),
    *_clause("table2.arp_constant", "table2.net.arp_ms table2.redis.arp_ms",
             lambda net, redis: abs(net - redis) < 1),
    *_clause("table2.detection_window[{}]", "table2.{}.detection_ms",
             lambda detection: 45 <= detection <= 160, _NET_REDIS),
    # Figure 3: NiLiCon's runtime is below MC's (soft-dirty faults vs VM
    # exits); MC wins on CPU-light swaptions, NiLiCon on I/O-heavy redis and
    # ssdb; stop dominates; swaptions is the cheapest, as in the paper.
    *_clause("fig3.runtime_below_mc[{}]", "fig3.{}.nilicon_runtime_pct fig3.{}.mc_runtime_pct",
             lambda nilicon, mc: nilicon < mc, _B),
    *_clause("fig3.mc_wins[{}]", "fig3.{}.mc_overhead_pct fig3.{}.nilicon_overhead_pct",
             lambda mc, nilicon: mc < nilicon, ("swaptions",)),
    *_clause("fig3.nilicon_wins[{}]", "fig3.{}.nilicon_overhead_pct fig3.{}.mc_overhead_pct",
             lambda nilicon, mc: nilicon < mc, ("redis", "ssdb")),
    *_clause("fig3.stop_dominates", [f"fig3.{b}.nilicon_{c}_pct" for b in _B
                                     for c in ("stopped", "runtime")],
             lambda *v: sum(s > r for s, r in zip(v[::2], v[1::2])) >= 5),
    *_clause("fig3.swaptions_cheapest", _across("fig3", _B, "nilicon_overhead_pct"),
             lambda *o: _ranked(_B, o)[0] == _FIG3_PAPER_CHEAPEST == "swaptions"),
    # Table III: NiLiCon stops longer than MC (slow kernel interfaces), node
    # longest (128-client sockets); swaptions dirties least, redis/node most.
    *_clause("table3.nilicon_stops_longer[{}]", "table3.{}.nilicon_stop_ms table3.{}.mc_stop_ms",
             lambda nilicon, mc: nilicon > mc, _B),
    *_clause("table3.node_longest_stop", _across("table3", _B, "nilicon_stop_ms"),
             lambda *s: _ranked(_B, s, reverse=True)[0] == "node"),
    *_clause("table3.swaptions_least_dirty", _across("table3", _B, "nilicon_dpages"),
             lambda *d: _ranked(_B, d)[0] == "swaptions"),
    *_clause("table3.kv_or_node_most_dirty", _across("table3", _B, "nilicon_dpages"),
             lambda *d: _ranked(_B, d, reverse=True)[0] in _FAST),
    # Table IV: ordered percentiles; redis, node or djcms ship the most.
    *_clause("table4.stop_ordered[{}]", "table4.{}.stop_p10_ms table4.{}.stop_p50_ms "
             "table4.{}.stop_p90_ms", lambda p10, p50, p90: p10 <= p50 <= p90, _B),
    *_clause("table4.state_ordered[{}]", "table4.{}.state_p10_mb table4.{}.state_p50_mb "
             "table4.{}.state_p90_mb", lambda p10, p50, p90: p10 <= p50 <= p90, _B),
    *_clause("table4.top_two_state", _across("table4", _B, "state_p50_mb"),
             lambda *m: set(_ranked(_B, m, reverse=True)[:2]) <= {"redis", "node", "djcms"}),
    # Table V: the backup runs under half the active host; node's (many
    # small socket chunks) costs more than the compute benchmarks'.
    *_clause("table5.backup_below_half_active[{}]", "table5.{}.backup_cores "
             "table5.{}.active_cores", lambda backup, active: backup < active / 2, _B),
    *_clause("table5.node_backup_over[{}]", "table5.node.backup_cores table5.{}.backup_cores",
             lambda node, other: node > other, ("swaptions", "streamcluster")),
    # Table VI: replication adds a commit cycle (15-400 ms), over 4x for
    # fast requests, under 4x where processing dominates (1.5-2.8x).
    *_clause("table6.adds_latency[{}]", "table6.{}.nilicon_ms table6.{}.stock_ms",
             lambda nilicon, stock: nilicon > stock, table6.SERVER_BENCHMARKS),
    *_clause("table6.added_commit_cycle[{}]", "table6.{}.nilicon_ms table6.{}.stock_ms",
             lambda nilicon, stock: 15 < nilicon - stock < 400, table6.SERVER_BENCHMARKS),
    *_clause("table6.fast_over_4x[{}]", "table6.{}.nilicon_ms table6.{}.stock_ms",
             lambda nilicon, stock: nilicon / stock > 4, _FAST),
    *_clause("table6.slow_under_4x[{}]", "table6.{}.nilicon_ms table6.{}.stock_ms",
             lambda nilicon, stock: nilicon / stock < 4, ("ssdb", "lighttpd", "djcms")),
    # §VII-A: every injection recovers with no broken connection.
    *_clause("validation.full_recovery[{}]", "validation.{}.recovery_rate",
             lambda rate: rate == 1.0, validation.VALIDATION_WORKLOADS),
    # §VII-C: overhead, dirty pages and stop time grow with threads and
    # processes; socket collection raises the stop with clients.
    *_clause("threads.overhead_grows", "threads.1.overhead_pct threads.32.overhead_pct",
             lambda one, many: many > one + 8),
    *_clause("threads.dirty_grows", "threads.1.avg_dirty threads.32.avg_dirty",
             lambda one, many: many > one),
    *_clause("threads.stop_grows", "threads.1.avg_stop_ms threads.32.avg_stop_ms",
             lambda one, many: many > one),
    *_clause("clients.stop_grows", "clients.2.avg_stop_ms clients.128.avg_stop_ms",
             lambda few, many: many > few + 5),
    *_clause("processes.overhead_grows", "processes.1.overhead_pct processes.8.overhead_pct",
             lambda one, many: many > one + 8),
    *_clause("processes.stop_grows", "processes.1.avg_stop_ms processes.8.avg_stop_ms",
             lambda one, many: many > one + 8),
    # Leave-one-out: no optimization is worth dropping (2-point slack); the
    # state cache matters most; freeze polling saves the 100 ms sleep per
    # epoch, plug input blocking the ~7 ms firewall.
    *_clause("leave_one_out.never_helps[{}]", "leave_one_out.full.overhead_pct "
             "leave_one_out.{}.overhead_pct", lambda full, without: without >= full - 2,
             _LOO[1:]),
    *_clause("leave_one_out.state_cache_worst", _across("leave_one_out", _LOO, "overhead_pct"),
             lambda *o: o[_LOO.index("-state-cache")] == max(o)),
    *_clause("leave_one_out.state_cache_over_5x", "leave_one_out.full.overhead_pct "
             "leave_one_out.-state-cache.overhead_pct", lambda full, without: without > full * 5),
    *_clause("leave_one_out.freeze_polling_over_100", "leave_one_out.full.overhead_pct "
             "leave_one_out.-freeze-polling.overhead_pct", lambda full, w: w > full + 100),
    *_clause("leave_one_out.plug_input_over_10", "leave_one_out.full.overhead_pct "
             "leave_one_out.-plug-input-block.overhead_pct", lambda full, w: w > full + 10),
    # Longer epochs amortize the checkpoint and dirty more per epoch.
    *_clause("epoch.overhead_falls", _across("epoch", (10, 30, 120), "overhead_pct"),
             lambda short, mid, long: short > mid > long),
    *_clause("epoch.dirty_grows", _across("epoch", (120, 30, 10), "avg_dirty"),
             lambda long, mid, short: long > mid > short),
    # Without the §V-E patch restored sockets wait out a >=1 s RTO.
    *_clause("rto.patch_saves_200ms", "rto.unpatched.interruption_ms rto.patched.interruption_ms",
             lambda unpatched, patched: unpatched > patched + 200),
    # Compression halves the pair link, costs backup CPU, keeps throughput.
    *_clause("compression.halves_link", "compression.compressed.link_mb_per_s "
             "compression.uncompressed.link_mb_per_s", lambda on, off: on < 0.5 * off),
    *_clause("compression.costs_backup_cpu", "compression.compressed.backup_cores "
             "compression.uncompressed.backup_cores", lambda on, off: on > off),
    *_clause("compression.keeps_throughput", "compression.compressed.throughput "
             "compression.uncompressed.throughput", lambda on, off: on > 0.85 * off),
    # Detection takes 2-6 heartbeat intervals.
    *(Clause(f"detection.within_intervals[{i}]", (f"detection.{i}.detection_ms",),
             lambda d, i=i: 2 * i <= d <= 6 * i) for i in ablations.DETECTION_INTERVALS_MS),
    *_clause("detection.grows_with_interval", "detection.10.detection_ms "
             "detection.90.detection_ms", lambda short, long: short < long),
    # §VIII: error-free clients; COLO answers over 3x faster, but its
    # backup burns over 5x NiLiCon's and over half its own primary's CPU.
    *_clause("related.clients_ok[{}]", "related.{}.errors related.{}.completed",
             lambda errors, completed: errors == 0 and completed > 50, ("nilicon", "colo")),
    *_clause("related.colo_answers_3x_faster", "related.colo.median_latency_ms "
             "related.nilicon.median_latency_ms", lambda colo, nilicon: colo * 3 < nilicon),
    *_clause("related.colo_backup_over_5x", "related.colo.backup_cores "
             "related.nilicon.backup_cores", lambda colo, nilicon: colo > 5 * nilicon),
    *_clause("related.colo_backup_over_half_primary", "related.colo.backup_cores "
             "related.colo.primary_cores", lambda backup, primary: backup > 0.5 * primary),
    # HyCoR: releasing output on the ~3 ms log commit never loses to the
    # ~30 ms checkpoint commit on a server and wins over 10 points on some;
    # recovery pays with a replayed log tail, which NiLiCon never replays;
    # every fail-stop cell and the traffic failover hold their oracles.
    *_clause("hycor.log_commit_never_loses[{}]", "hycor.{}.reduction_pct",
             lambda reduction: reduction >= 0, _HYCOR_SERVERS),
    *_clause("hycor.log_commit_wins_over_10", _across("hycor", _HYCOR_SERVERS, "reduction_pct"),
             lambda *reductions: max(reductions) > 10),
    *_clause("hycor_recovery.hycor_replays[{}]", "hycor_recovery.{}/hycor.replay_us",
             lambda replay: replay > 0, hycor.RECOVERY_WORKLOADS),
    *_clause("hycor_recovery.nilicon_replays_nothing[{}]", "hycor_recovery.{}/nilicon.replay_us",
             lambda replay: replay == 0, hycor.RECOVERY_WORKLOADS),
    *_clause("hycor_recovery.replay_costs_recovery[{}]", "hycor_recovery.{}/hycor.total_us "
             "hycor_recovery.{}/nilicon.total_us", lambda hy, nil: hy >= nil,
             hycor.RECOVERY_WORKLOADS),
    *_clause("hycor_recovery.oracles_hold[{}]", "hycor_recovery.{}.violations",
             lambda violations: violations == 0, _HYCOR_CELLS),
    *_clause("hycor_traffic.oracles_hold", "hycor_traffic.failover.violations",
             lambda violations: violations == 0),
    # Fleet: members stacked on one pair queue on its link, so the stop
    # stays flat (the transfer is off the stop path) while request latency
    # grows; a larger pool spreads a host loss over fewer members; every
    # cell re-protects all its members and holds its oracles.
    *_clause("fleet_pair.stop_flat[{}]", "fleet_pair.{}.mean_stop_us fleet_pair.1.mean_stop_us",
             lambda stop, alone: abs(stop - alone) <= 0.01 * alone, fleet.PAIR_SIZES[1:]),
    *_clause("fleet_pair.latency_grows", "fleet_pair.1.mean_request_latency_us "
             "fleet_pair.8.mean_request_latency_us", lambda alone, eight: eight > 1.2 * alone),
    *(Clause(f"fleet_pool.blast_radius_shrinks[{few}->{many}]",
             (f"fleet_pool.{few}.members_disturbed", f"fleet_pool.{many}.members_disturbed"),
             lambda on_few, on_many: on_many < on_few) for few, many in zip(_POOLS, _POOLS[1:])),
    *_clause("fleet_pool.all_protected[{}]", "fleet_pool.{}.protected_at_end",
             lambda protected: protected == fleet.POOL_MEMBERS, _POOLS),
    *_clause("fleet_pair.oracles_hold[{}]", "fleet_pair.{}.violations",
             lambda violations: violations == 0, fleet.PAIR_SIZES),
    *_clause("fleet_pool.oracles_hold[{}]", "fleet_pool.{}.violations",
             lambda violations: violations == 0, _POOLS),
    # §VII-A at fleet scale: a sequential and then a concurrent host loss
    # are both recovered (two or more failovers), every failover is
    # re-protected, and the campaign holds its oracles and replays.
    *_clause("fleet_campaign.oracles_hold", f"{_CAMPAIGN}.violations",
             lambda violations: violations == 0),
    *_clause("fleet_campaign.recovers_concurrently", f"{_CAMPAIGN}.failovers",
             lambda failovers: failovers >= 2),
    *_clause("fleet_campaign.reprotects_every_failover",
             f"{_CAMPAIGN}.reprotects {_CAMPAIGN}.failovers",
             lambda reprotects, failovers: reprotects >= failovers),
    # Traffic: every profile (failover and migration included) holds its
    # SLO oracles and replays identically, at both scales; full scale
    # sustains over 1000 concurrent sessions on the steady profile.
    *_clause("traffic.oracles_hold[{}]", "traffic.{}.violations",
             lambda violations: violations == 0, _PROFILES),
    *_clause("traffic_full.oracles_hold[{}]", "traffic_full.{}.violations",
             lambda violations: violations == 0, _PROFILES),
    *_clause("traffic_full.sustains_1000_sessions", "traffic_full.steady.peak_sessions",
             lambda peak: peak >= 1000),
)


def runnable_clauses(metrics: Mapping[str, Any]) -> tuple[list[Clause], list[Clause]]:
    """:data:`CLAUSES` split into those whose cells are all in *metrics*
    and those that read an absent cell."""
    runnable = [c for c in CLAUSES if all(cell in metrics for cell in c.reads)]
    return runnable, [c for c in CLAUSES if c not in runnable]


def paper_problems(metrics: Mapping[str, Mapping[str, Any]], smoke: bool) -> list[str]:
    """The problems of the clauses that fail on *metrics* (empty = every
    runnable claim holds).  A smoke report skips the clauses whose cells it
    lacks; a full report must lack none."""
    runnable, skipped = runnable_clauses(metrics)
    problems = []
    for clause in runnable:
        values = [metrics[cell]["value"] for cell in clause.reads]
        if not clause.holds(*values):
            shown = ", ".join(f"{c}={v:.6g}" for c, v in zip(clause.reads, values))
            problems.append(f"{clause.name}: fails ({shown})")
    if not smoke:
        problems += [
            f"{c.name}: cannot run, missing {[r for r in c.reads if r not in metrics]}"
            for c in skipped
        ]
    return problems


def run_paper_bench(results: Mapping[str, list], smoke: bool, seed: int) -> dict[str, Any]:
    """The BENCH_paper.json report of a :func:`run_paper` *results*."""
    metrics = paper_metrics(results)
    problems = paper_problems(metrics, smoke)
    runnable, skipped = runnable_clauses(metrics)
    info: dict[str, Any] = {
        "clauses_run": len(runnable),
        "clauses_skipped": len(skipped),
        "validation_runs": 1 if smoke else VALIDATION_RUNS,
    }
    failures = {c.workload: c.failures[:5] for c in results["validation"] if c.failures}
    if failures:
        info["validation_failures"] = failures
    return {
        "schema": benchfile.SCHEMA, "bench": "paper", "seed": seed, "smoke": smoke,
        "ok": not problems, "problems": problems, "metrics": metrics, "info": info,
    }
