"""The one bench schema: its loader, its exact regression gate and its printer.

Every case of the gate is one input of :func:`test_check`; every
checked-in BENCH file must load, hold its own checks and gate clean
against itself.
"""

import json
from pathlib import Path

import pytest

from repro.metrics import benchfile

ROOT = Path(__file__).resolve().parents[2]

#: Unit of every metric the cases use.
UNITS = {
    "net.engine.events": "count",
    "zz_new.engine.events": "count",
    "traffic.steady.p99_us": "us",
    "traffic.steady.throughput_rps": "req/s",
    "traffic.novel.p99_us": "us",
    "traffic.novel.throughput_rps": "req/s",
    "hycor.net-echo.hycor_overhead_pct": "%",
    "hycor.net-echo.reduction_pct": "pp",
    "hycor.novel.hycor_overhead_pct": "%",
    "hycor.novel.reduction_pct": "pp",
    "hycor_recovery.redis/hycor.total_us": "us",
    "hycor_recovery.redis/hycor.replay_us": "us",
    "hycor_recovery.novel/hycor.total_us": "us",
    "streamcluster.engine.events": "count",
    "determinism.net/seed1.trace_digest": "digest",
}


def _report(values, ok=True, seed=1, smoke=False):
    return {
        "schema": benchfile.SCHEMA,
        "bench": "test",
        "seed": seed,
        "smoke": smoke,
        "ok": ok,
        "problems": [] if ok else ["an oracle failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
        "info": {},
    }


ENGINE = {"net.engine.events": 2505}
TRAFFIC = {"traffic.steady.p99_us": 43_882, "traffic.steady.throughput_rps": 177.5}
HYCOR = {
    "hycor.net-echo.hycor_overhead_pct": 66.0,
    "hycor.net-echo.reduction_pct": 30.0,
    "hycor_recovery.redis/hycor.total_us": 284_000,
    "hycor_recovery.redis/hycor.replay_us": 16_500,
}

WORK = {"streamcluster.engine.events": 12_401}
DIGESTS = {**WORK, "determinism.net/seed1.trace_digest": "trace-a"}
NOT_OK = {"ok": False}

#: (id, baseline values, current values, the current report's other
#: fields, the one problem's substring — None when the gate must pass).
#: Every metric is compared exactly, whichever way it moves.
CASES = [
    ("engine-throughput-drop", ENGINE, {"net.engine.events": 2504},
     {}, "net.engine.events"),
    ("engine-new-workload-skipped", ENGINE,
     {**ENGINE, "zz_new.engine.events": 1}, {}, None),
    ("exact-equal", WORK, WORK, {}, None),
    ("exact-one-more", WORK, {"streamcluster.engine.events": 12_402},
     {}, "streamcluster.engine.events"),
    ("exact-one-fewer", WORK, {"streamcluster.engine.events": 12_400},
     {}, "streamcluster.engine.events"),
    # Any seeded metric from another seed means nothing, equal or not.
    ("seed-differs", WORK, WORK, {"seed": 2}, "seed 2"),
    ("traffic-p99-rise", TRAFFIC, {**TRAFFIC, "traffic.steady.p99_us": 43_883},
     {}, "traffic.steady.p99_us"),
    ("traffic-throughput-drop", TRAFFIC,
     {**TRAFFIC, "traffic.steady.throughput_rps": 177.0},
     {}, "traffic.steady.throughput_rps"),
    ("traffic-new-profile-skipped", TRAFFIC,
     {**TRAFFIC, "traffic.novel.p99_us": 1, "traffic.novel.throughput_rps": 1.0},
     {}, None),
    ("traffic-current-not-ok", TRAFFIC, TRAFFIC, NOT_OK,
     "failed its own checks"),
    # A full run that drops a metric fails; a smoke run runs a subset.
    ("full-run-missing-metric", TRAFFIC, {"traffic.steady.p99_us": 43_882}, {},
     "traffic.steady.throughput_rps"),
    ("smoke-run-missing-metric-skipped", TRAFFIC,
     {"traffic.steady.p99_us": 43_882}, {"smoke": True}, None),
    ("hycor-identical", HYCOR, HYCOR, {}, None),
    # A move in the "better" direction fails as surely as one in the worse.
    ("hycor-overhead-rise", HYCOR,
     {**HYCOR, "hycor.net-echo.hycor_overhead_pct": 65.0},
     {}, "hycor.net-echo.hycor_overhead_pct"),
    ("hycor-reduction-shrink", HYCOR,
     {**HYCOR, "hycor.net-echo.reduction_pct": 31.0},
     {}, "hycor.net-echo.reduction_pct"),
    ("hycor-recovery-rise", HYCOR,
     {**HYCOR, "hycor_recovery.redis/hycor.total_us": 284_001},
     {}, "hycor_recovery.redis/hycor.total_us"),
    ("hycor-new-cells-skipped", HYCOR,
     {**HYCOR, "hycor.novel.hycor_overhead_pct": 99.0,
      "hycor.novel.reduction_pct": -98.0, "hycor_recovery.novel/hycor.total_us": 10**9},
     {}, None),
    ("hycor-current-not-ok", HYCOR, HYCOR, NOT_OK, "failed its own checks"),
    # A digest is a string metric, compared exactly like a number.
    ("digest-differs", DIGESTS, {**DIGESTS, "determinism.net/seed1.trace_digest": "trace-b"},
     {}, "determinism.net/seed1.trace_digest"),
]


@pytest.mark.parametrize(
    "baseline, current, fields, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_check(baseline, current, fields, expected):
    problems = benchfile.check(_report(current, **fields), _report(baseline))
    if expected is None:
        assert problems == []
    else:
        assert len(problems) == 1
        assert expected in problems[0]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema": "repro.bench.engine/v1", "workloads": {}}, "not a"),
        ({"schema": benchfile.SCHEMA,
          "metrics": {"net.events_per_sec": {"unit": "events/s"}}},
         "has no value"),
        # A v2 metric's direction has no place in a v3 file.
        ({"schema": benchfile.SCHEMA,
          "metrics": {"net.events_per_sec": {"value": 1, "unit": "events/s",
                                             "better": "higher"}}},
         r"has keys \['better', 'unit', 'value'\]"),
    ],
    ids=["unknown-schema", "metric-without-value", "unknown-direction"],
)
def test_load_rejects_malformed_files(tmp_path, doc, message):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        benchfile.load(path)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")),
    ids=lambda path: path.stem.removeprefix("BENCH_"),
)
def test_checked_in_file_loads_and_gates_clean(path):
    report = benchfile.load(path)
    assert path.name == f"BENCH_{report['bench']}.json"
    assert report["ok"], report["problems"]
    assert report["metrics"]
    assert benchfile.check(report, report) == []


def test_format_prints_one_row_per_metric():
    text = benchfile.format(_report(TRAFFIC, ok=False))
    assert "FAILED" in text
    assert "problem: an oracle failed" in text
    for name, value in TRAFFIC.items():
        row = next(line for line in text.splitlines() if name in line)
        assert row.split() == [name, str(value), UNITS[name]]
