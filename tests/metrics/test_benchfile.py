"""The one bench schema: its loader, its regression gate and its printer.

Every case the three per-bench gates (engine, traffic, hycor) used to
test is one input of :func:`test_check`; the checked-in BENCH files must
each load, hold their own checks and gate clean against themselves.
"""

import json
from pathlib import Path

import pytest

from repro.metrics import benchfile

ROOT = Path(__file__).resolve().parents[2]

#: Unit and gate of every metric the cases use.
SPECS = {
    "net.events_per_sec": ("events/s", {"better": "higher"}),
    "zz_new.events_per_sec": ("events/s", {"better": "higher"}),
    "steady.p99_us": ("us", {"better": "lower"}),
    "steady.throughput_rps": ("req/s", {"better": "higher"}),
    "novel.p99_us": ("us", {"better": "lower"}),
    "novel.throughput_rps": ("req/s", {"better": "higher"}),
    "net-echo.hycor_overhead_pct": (
        "%", {"better": "lower", "min_band": 2.0},
    ),
    "net-echo.reduction_pct": ("pp", {"better": "higher", "min_band": 2.0}),
    "novel.hycor_overhead_pct": ("%", {"better": "lower", "min_band": 2.0}),
    "novel.reduction_pct": ("pp", {"better": "higher", "min_band": 2.0}),
    "redis/hycor.total_us": ("us", {"better": "lower"}),
    "streamcluster.engine.events": ("count", {"better": "exact"}),
    "redis/hycor.replay_us": ("us", {}),
    "novel/hycor.total_us": ("us", {"better": "lower"}),
}


def _report(values, ok=True, seed=1):
    return {
        "schema": benchfile.SCHEMA,
        "bench": "test",
        "seed": seed,
        "smoke": False,
        "ok": ok,
        "problems": [] if ok else ["an oracle failed"],
        "metrics": {
            name: {"value": value, "unit": SPECS[name][0], **SPECS[name][1]}
            for name, value in values.items()
        },
        "info": {},
    }


ENGINE = {"net.events_per_sec": 40_000}
TRAFFIC = {"steady.p99_us": 40_000, "steady.throughput_rps": 150.0}
TRAFFIC_GOOD = {"steady.p99_us": 44_000, "steady.throughput_rps": 140.0}
HYCOR = {
    "net-echo.hycor_overhead_pct": 66.0,
    "net-echo.reduction_pct": 30.0,
    "redis/hycor.total_us": 284_000,
    "redis/hycor.replay_us": 16_500,
}

WORK = {"streamcluster.engine.events": 12_401}
NOT_OK = {"ok": False}

#: (id, baseline values, current values, the current report's other
#: fields, the one problem's substring — None when the gate must pass).
CASES = [
    ("engine-within-tolerance", ENGINE, {"net.events_per_sec": 33_000},
     {}, None),
    ("engine-throughput-drop", ENGINE, {"net.events_per_sec": 10_000},
     {}, "net.events_per_sec"),
    ("engine-new-workload-skipped", {"net.events_per_sec": 10_000},
     {"net.events_per_sec": 10_000, "zz_new.events_per_sec": 1}, {}, None),
    # A deterministic work counter has no band: any change fails.
    ("exact-equal", WORK, WORK, {}, None),
    ("exact-one-more", WORK, {"streamcluster.engine.events": 12_402},
     {}, "streamcluster.engine.events"),
    ("exact-one-fewer", WORK, {"streamcluster.engine.events": 12_400},
     {}, "streamcluster.engine.events"),
    # Any seeded metric from another seed means nothing, in range or not.
    ("seed-differs", WORK, WORK, {"seed": 2}, "seed 2"),
    ("traffic-within-tolerance", TRAFFIC, TRAFFIC_GOOD, {}, None),
    ("traffic-p99-rise", TRAFFIC,
     {"steady.p99_us": 50_000, "steady.throughput_rps": 150.0},
     {}, "steady.p99_us"),
    ("traffic-throughput-drop", TRAFFIC,
     {"steady.p99_us": 40_000, "steady.throughput_rps": 100.0},
     {}, "steady.throughput_rps"),
    ("traffic-new-profile-skipped", TRAFFIC,
     {"novel.p99_us": 1, "novel.throughput_rps": 1.0}, {}, None),
    ("traffic-current-not-ok", TRAFFIC, TRAFFIC_GOOD, NOT_OK,
     "failed its own checks"),
    ("hycor-identical", HYCOR, HYCOR, {}, None),
    ("hycor-overhead-rise", HYCOR,
     {**HYCOR, "net-echo.hycor_overhead_pct": 90.0},
     {}, "net-echo.hycor_overhead_pct"),
    ("hycor-reduction-shrink", HYCOR,
     {**HYCOR, "net-echo.reduction_pct": 5.0},
     {}, "net-echo.reduction_pct"),
    ("hycor-recovery-rise", HYCOR,
     {**HYCOR, "redis/hycor.total_us": 500_000},
     {}, "redis/hycor.total_us"),
    ("hycor-new-cells-skipped", HYCOR,
     {**HYCOR, "novel.hycor_overhead_pct": 99.0,
      "novel.reduction_pct": -98.0, "novel/hycor.total_us": 10**9},
     {}, None),
    ("hycor-current-not-ok", HYCOR, HYCOR, NOT_OK, "failed its own checks"),
    ("hycor-drift-within-band", HYCOR,
     {**HYCOR, "net-echo.hycor_overhead_pct": 67.5,
      "redis/hycor.total_us": 300_000},
     {}, None),
    # Percentage-point metrics: a zero baseline still gets a 2-point band.
    ("hycor-two-point-floor-holds", {"net-echo.reduction_pct": 0.0},
     {"net-echo.reduction_pct": -1.9}, {}, None),
    ("hycor-two-point-floor-breaks", {"net-echo.reduction_pct": 0.0},
     {"net-echo.reduction_pct": -2.1}, {}, "net-echo.reduction_pct"),
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
        ({"schema": benchfile.SCHEMA,
          "metrics": {"net.events_per_sec": {"value": 1, "unit": "events/s",
                                             "better": "up"}}},
         "unknown direction"),
    ],
    ids=["unknown-schema", "metric-without-value", "unknown-direction"],
)
def test_load_rejects_malformed_files(tmp_path, doc, message):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        benchfile.load(path)


@pytest.mark.parametrize("bench", ["engine", "fleet", "traffic", "hycor"])
def test_checked_in_file_loads_and_gates_clean(bench):
    report = benchfile.load(ROOT / f"BENCH_{bench}.json")
    assert report["bench"] == bench
    assert report["ok"], report["problems"]
    assert any("better" in m for m in report["metrics"].values())
    assert benchfile.check(report, report) == []


def test_format_prints_one_row_per_metric():
    text = benchfile.format(_report(TRAFFIC, ok=False))
    assert "FAILED" in text
    assert "problem: an oracle failed" in text
    for name in TRAFFIC:
        unit, gate = SPECS[name]
        row = next(line for line in text.splitlines() if name in line)
        assert unit in row and gate["better"] in row
