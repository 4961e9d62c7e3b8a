"""``bench compare`` verdicts on synthetic sets."""

from __future__ import annotations

import json

from bench.compare import compare, verdict

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
TPUT = {"name": "sim_tput", "unit": "1/s", "better": "higher", "bound": 0.02}

PARENT = [3.00, 3.02, 2.98, 3.01, 2.99, 3.03, 2.97, 3.00, 3.01, 2.99]


def test_same_distribution_is_unchanged():
    assert verdict(WALL, PARENT, [v + 0.005 for v in PARENT]) == "unchanged"


def test_worse_median_beyond_the_bound_is_regressed():
    assert verdict(WALL, PARENT, [v * 1.15 for v in PARENT]) == "regressed"


def test_consistent_win_beyond_the_parent_spread_is_improved():
    assert verdict(WALL, PARENT, [v * 0.8 for v in PARENT]) == "improved"


def test_win_inside_the_parent_spread_is_not_improved():
    assert verdict(WALL, PARENT, [v - 0.01 for v in PARENT]) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [2.4, 3.6, 2.5, 3.5, 2.6, 3.4, 2.7, 3.3, 3.0, 3.1]
    assert verdict(WALL, noisy, list(reversed(noisy))) == "unresolved"


def test_wide_spread_where_every_change_run_wins_is_resolved():
    parent = [3.0, 3.8, 3.1, 3.7, 3.2, 3.6, 3.3, 3.5, 3.4, 3.45]
    change = [2.0, 2.9, 2.1, 2.8, 2.2, 2.7, 2.3, 2.6, 2.4, 2.5]
    assert verdict(WALL, parent, change) == "improved"


def test_higher_is_better_direction():
    assert verdict(TPUT, [100.0] * 4, [97.0] * 4) == "regressed"
    assert verdict(TPUT, [100.0] * 4, [101.0] * 4) == "improved"
    assert verdict(TPUT, [100.0] * 4, [100.0] * 4) == "unchanged"


def test_setup_floor_absorbs_small_absolute_shifts():
    parent = [0.100, 0.101, 0.099, 0.100]
    assert verdict(SETUP, parent, [v + 0.028 for v in parent]) != "regressed"
    assert verdict(SETUP, parent, [v + 0.040 for v in parent]) == "regressed"


def _report(path, walls, failed=0, digest="abc"):
    repeats = [
        {"traced": False, "wall_s": w, "setup_s": 0.2, "peak_rss_mb": 60.0} for w in walls
    ]
    entry = {
        "repeats": repeats, "sim_digest": digest, "outputs": {"sim_tput": 10.0},
        "attempted": 100, "failed": failed,
    }
    names = ("kv", "traffic", "failover", "compute")
    path.write_text(json.dumps({"seed": 1, "workloads": {n: entry for n in names}}))
    return str(path)


def test_compare_exit_code(tmp_path):
    parent = _report(tmp_path / "p.json", PARENT)
    same = _report(tmp_path / "c1.json", PARENT)
    slower = _report(tmp_path / "c2.json", [v * 1.5 for v in PARENT])
    failing = _report(tmp_path / "c3.json", PARENT, failed=1)
    lines, code = compare([parent], [same])
    assert code == 0 and not any("regressed" in line for line in lines)
    assert any("sim outputs identical" in line for line in lines)
    lines, code = compare([parent], [slower])
    assert code == 1 and any(" wall_s " in line and "regressed" in line for line in lines)
    _lines, code = compare([parent], [failing])
    assert code == 1
