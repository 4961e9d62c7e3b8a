"""Schedule fuzzer, digests, and the pinned digests of the replay grid."""

from pathlib import Path

from repro.analysis.fuzz import (
    ReversedTieBreak,
    run_fuzz,
    run_instrumented,
    trace_digest,
)
from repro.experiments.paper import paper_metrics, run_paper
from repro.metrics import benchfile
from repro.sim.trace import Tracer

BENCH = Path(__file__).resolve().parents[2] / "BENCH_paper.json"


# --------------------------------------------------------------------------- #
# Digest mechanics                                                            #
# --------------------------------------------------------------------------- #


def test_trace_digest_is_order_insensitive_but_content_sensitive():
    a, b = Tracer(), Tracer()
    a.emit(10, "net", "send", epoch=1)
    a.emit(20, "net", "recv", epoch=1)
    b.emit(20, "net", "recv", epoch=1)
    b.emit(10, "net", "send", epoch=1)
    assert trace_digest(a) == trace_digest(b)

    c = Tracer()
    c.emit(10, "net", "send", epoch=2)  # different detail
    c.emit(20, "net", "recv", epoch=1)
    assert trace_digest(c) != trace_digest(a)


def test_trace_digest_ignores_timestamps_but_counts_multiplicity():
    a, b = Tracer(), Tracer()
    a.emit(10, "net", "send", epoch=1)
    b.emit(99, "net", "send", epoch=1)  # same content, shifted in time
    assert trace_digest(a) == trace_digest(b)

    b.emit(100, "net", "send", epoch=1)  # same content *twice*
    assert trace_digest(a) != trace_digest(b)


def test_dropped_events_poison_the_digest():
    full = Tracer(limit=2)
    full.emit(1, "net", "send", n=1)
    full.emit(2, "net", "send", n=2)
    intact = trace_digest(full)

    full.emit(3, "net", "send", n=3)  # over the limit
    assert full.dropped == 1
    assert trace_digest(full) != intact


# --------------------------------------------------------------------------- #
# Instrumented runs and the fuzz grid                                         #
# --------------------------------------------------------------------------- #


def test_run_instrumented_clean_run_has_no_findings():
    probe = run_instrumented("net", seed=1, run_ms=500)
    assert probe.findings == []
    assert probe.audit_violations == []
    assert probe.accesses_recorded > 0
    assert probe.trace_dropped == 0
    assert probe.metrics["completed"] > 0
    assert probe.metrics["errors"] == 0
    d = probe.as_dict()
    assert d["schedule"] == "fifo"
    assert d["trace_digest"] == probe.trace_digest


def test_run_instrumented_is_schedule_independent():
    base = run_instrumented("net", seed=1, run_ms=500)
    flipped = run_instrumented(
        "net", seed=1, run_ms=500,
        tiebreak=ReversedTieBreak(), schedule_name="reversed",
    )
    assert flipped.trace_digest == base.trace_digest
    assert flipped.metrics_digest == base.metrics_digest


def test_run_fuzz_small_grid_converges():
    report = run_fuzz(
        workloads=("net",), seeds=(1,), permutations=2, run_ms=500,
    )
    assert report["ok"] is True
    assert report["divergences"] == []
    assert report["findings"] == []
    # Alternates vs the fifo baseline: reversed + 1 permutation.
    assert len(report["cells"]) == 2
    assert all(c["identical"] for c in report["cells"])


# --------------------------------------------------------------------------- #
# Pinned digests                                                              #
# --------------------------------------------------------------------------- #


def test_golden_digests_match_checked_in_file():
    """The trace and metrics digests of every replay-grid cell are the
    paper gate's ``determinism.*.{trace,metrics}_digest`` cells: a diff
    here means either a deliberate protocol change (re-pin with ``repro
    paper bench --out BENCH_paper.json``) or an accidental nondeterminism
    regression.  The NDLog digests of the same cells are compared in
    test_ndreplay.py."""
    kinds = (".trace_digest", ".metrics_digest")
    metrics = {name: metric for name, metric in
               paper_metrics(run_paper(smoke=True, names=["determinism"])).items()
               if name.endswith(kinds)}
    pinned = {name: metric for name, metric in benchfile.load(BENCH)["metrics"].items()
              if name.startswith("determinism.") and name.endswith(kinds)}
    assert len(pinned) == 8  # net and disk-rw x seeds 1, 2 x two digests
    assert metrics == pinned
