"""BENCHMARK.json against the code that emits the metrics."""

from __future__ import annotations

import re

import pytest

from bench.harness import end_to_end, per_layer, result_line
from bench.spec import (
    BOUNDARIES,
    COUNTERS,
    LAYERS,
    ROOT,
    SETUP_FLOOR_S,
    allowed_worsening,
    load_benchmark,
    per_layer_names,
    prediction_for,
    prediction_table,
)
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    return load_benchmark()


def _record(traced: bool, wall: float = 2.0) -> dict:
    """A synthetic worker record with every field the summaries read."""
    record = {
        "traced": traced, "wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 60.0,
        "attempted": 10, "failed": 0, "violations": [], "outputs": {}, "sim_digest": "d",
    }
    if traced:
        record["samples"] = {layer: i for i, layer in enumerate(LAYERS)}
        record["boundaries"] = {b.stem: [3, 0.5] for b in BOUNDARIES}
        record["counters"] = {name: 4 for name in COUNTERS}
    return record


def test_shape_fits_the_limits(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["bench"]
    assert all(isinstance(arg, str) for arg in declared["command"])
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25


def test_setup_time_is_declared_with_the_largest_bound(declared):
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_workloads_match_their_classes(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_every_emitted_metric_is_declared(declared):
    untraced = [_record(False), _record(False, wall=2.2)]
    traced = [_record(True, wall=2.4)]
    e2e = end_to_end(untraced)
    layers = per_layer(traced, untraced)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert list(layers) == [m["name"] for m in declared["per_layer"]] == per_layer_names()
    entry = {"end_to_end": e2e, "per_layer": layers, "problems": [], "attempted": 1, "failed": 0}
    assert set(result_line(entry, trace=False)["metrics"]) == set(e2e)
    assert set(result_line(entry, trace=True)["metrics"]) == set(layers)
    assert layers["harness.trace_overhead"] == pytest.approx(2.4 / 2.1)
    assert e2e["wall_s"]["n"] == 2


def test_every_per_layer_metric_names_what_it_should_move(declared):
    for metric in declared["per_layer"]:
        row = prediction_for(metric["name"])
        assert row.moves and row.on and row.flat_on


def test_readme_table_matches_the_predictions():
    readme = (ROOT / "bench" / "README.md").read_text(encoding="utf-8")
    assert prediction_table() in readme


def test_bound_has_a_floor_for_setup_time(declared):
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    setup, wall = metrics["setup_s"], metrics["wall_s"]
    assert allowed_worsening(setup, 0.05) == SETUP_FLOOR_S
    assert allowed_worsening(setup, 2.0) == pytest.approx(2.0 * setup["bound"])
    assert allowed_worsening(wall, 0.05) == pytest.approx(0.05 * wall["bound"])
