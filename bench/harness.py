"""Spawn repeats, check them, and turn them into metrics.

Every repeat is a fresh single-threaded :mod:`bench.worker` process, and
the harness waits for each before starting the next, so the bench never
keeps more than one core busy.  End-to-end metrics come from untraced
repeats only; per-layer metrics come from traced ones.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Iterable

from bench.spec import (
    BOUNDARIES,
    COUNTERS,
    LAYERS,
    ROOT,
    SIM_OUTPUTS,
    SRC,
    TRACED_REPEATS,
    UNTRACED_REPEATS,
    load_benchmark,
    per_layer_names,
)

__all__ = [
    "BenchError",
    "check",
    "end_to_end",
    "format_workload",
    "measure",
    "per_layer",
    "quartiles",
    "result_line",
    "run_all",
    "sources_present",
    "spawn",
    "summarize",
]

#: One repeat takes seconds; a worker still running after this is wedged.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A repeat could not run or returned nothing usable."""


def sources_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def spawn(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    """Run one repeat in a fresh process and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One hash seed for every repeat: dict and set layouts, and with them
    # the host time of a repeat, stop varying between processes.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "bench.worker", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed}: repeat ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} seed {seed}: repeat exited {proc.returncode}\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(untraced: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Median, quartiles and sample count of every end-to-end metric."""
    out = {}
    for metric in load_benchmark()["end_to_end"]:
        values = [r[metric["name"]] for r in untraced]
        q1, median, q3 = quartiles(values)
        out[metric["name"]] = {
            "value": median, "unit": metric["unit"], "q1": q1, "q3": q3, "n": len(values),
        }
    return out


def _median_of(records: Iterable[dict[str, Any]], get: Callable[[dict], float]) -> float:
    return statistics.median(get(r) for r in records)


def per_layer(traced: list[dict[str, Any]], untraced: list[dict[str, Any]]) -> dict[str, float]:
    """Every per-layer metric: medians over the traced repeats, with the
    untraced median wall time as the base of the two ratios to it."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.busy_pct"] = _median_of(
            traced, lambda r: 100 * r["samples"][layer] / max(1, sum(r["samples"].values()))
        )
    values["harness.samples"] = _median_of(traced, lambda r: sum(r["samples"].values()))
    for b in BOUNDARIES:
        values[f"{b.stem}.calls"] = _median_of(traced, lambda r: r["boundaries"][b.stem][0])
        values[f"{b.stem}.incl_pct"] = _median_of(
            traced, lambda r: 100 * r["boundaries"][b.stem][1] / r["wall_s"]
        )
    for name in COUNTERS:
        values[name] = _median_of(traced, lambda r: r["counters"][name])
    untraced_wall = _median_of(untraced, lambda r: r["wall_s"])
    values["sim.host_us_per_event"] = 1e6 * untraced_wall / max(1, values["sim.events"])
    hits = values["replication.digest_cache_hits"]
    digested = values["replication.pages_digested"]
    values["replication.digest_hit_ratio"] = hits / (hits + digested) if hits + digested else 0.0
    values["harness.trace_overhead"] = _median_of(traced, lambda r: r["wall_s"]) / untraced_wall
    return {name: values[name] for name in per_layer_names()}


def check(records: list[dict[str, Any]]) -> list[str]:
    """Correctness gate over every repeat of one workload and seed: the
    oracles held, no op failed, and every repeat (traced or not) produced
    the same simulated outputs."""
    problems = []
    for r in records:
        kind = "traced" if r["traced"] else "untraced"
        problems += [f"{kind} repeat: {v}" for v in r["violations"]]
        if r["failed"]:
            problems.append(f"{kind} repeat: {r['failed']} of {r['attempted']} ops failed")
    digests = sorted({r["sim_digest"] for r in records})
    if len(digests) > 1:
        problems.append(f"sim_digest differs between repeats: {', '.join(digests)}")
    return problems


def _format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def format_workload(name: str, entry: dict[str, Any]) -> list[str]:
    """Human-readable lines for one workload's summary."""
    lines = [
        f"{name} (seed {entry['seed']}; {entry['untraced']} untraced + "
        f"{entry['traced']} traced repeats; sim_digest {entry['sim_digest']})"
    ]
    for metric, m in entry.get("end_to_end", {}).items():
        lines.append(
            f"  {metric:<34} {_format_value(m['value']):>12} {m['unit']:<6}"
            f" q1 {_format_value(m['q1'])}  q3 {_format_value(m['q3'])}  n {m['n']}"
        )
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    for metric, value in entry.get("per_layer", {}).items():
        lines.append(f"  {metric:<34} {_format_value(value):>12} {units[metric]}")
    for output, value in entry["outputs"].items():
        lines.append(f"  {output:<34} {_format_value(value):>12} {SIM_OUTPUTS[output].unit}")
    lines.append(
        f"  {'error_rate':<34} {entry['failed'] / entry['attempted']:>12.6g} ratio"
        f" ({entry['failed']} of {entry['attempted']} ops failed)"
    )
    lines += [f"  PROBLEM: {p}" for p in entry["problems"]]
    return lines


def summarize(
    seed: int, untraced: list[dict[str, Any]], traced: list[dict[str, Any]]
) -> dict[str, Any]:
    records = untraced + traced
    entry: dict[str, Any] = {
        "seed": seed,
        "untraced": len(untraced),
        "traced": len(traced),
        "sim_digest": records[0]["sim_digest"],
        "outputs": records[0]["outputs"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "problems": check(records),
    }
    if untraced:
        entry["end_to_end"] = end_to_end(untraced)
    if traced and untraced:
        entry["per_layer"] = per_layer(traced, untraced)
    entry["repeats"] = records
    return entry


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Repeat *workload* for about *seconds* seconds; alternate untraced and
    traced repeats when *trace* is set.  A repeat is started only when the
    longest one so far would still end inside the budget."""
    deadline = time.monotonic() + seconds
    repeats: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    for traced in itertools.cycle([False, True] if trace else [False]):
        have_each = repeats[False] and (repeats[True] or not trace)
        if have_each and time.monotonic() + longest[traced] > deadline:
            break
        start = time.monotonic()
        repeats[traced].append(spawn(workload, seed, traced))
        longest[traced] = max(longest[traced], time.monotonic() - start)
    return summarize(seed, repeats[False], repeats[True])


def result_line(entry: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one-line result: every end-to-end metric, or with *trace* every
    per-layer metric, exactly as BENCHMARK.json declares them."""
    benchmark = load_benchmark()
    if trace:
        metrics = {
            m["name"]: {"value": entry["per_layer"][m["name"]], "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    return {
        "correct": not entry["problems"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def host_info() -> dict[str, Any]:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu or platform.machine(),
    }


def run_all(seed: int, log: Callable[[str], None] = print) -> dict[str, Any]:
    """``bench run``: every workload, untraced repeats then traced ones.

    Repeats go round-robin over the workloads, so a slow spell of the host
    is shared by every workload instead of landing on one of them."""
    names = [w["name"] for w in load_benchmark()["workloads"]]
    report: dict[str, Any] = {
        "seed": seed,
        "host": host_info(),
        "repeats": {"untraced": UNTRACED_REPEATS, "traced": TRACED_REPEATS},
        "workloads": {},
    }
    started = time.monotonic()
    repeats: dict[tuple[str, bool], list[dict[str, Any]]] = {}
    for traced, count in ((False, UNTRACED_REPEATS), (True, TRACED_REPEATS)):
        for _ in range(count):
            for name in names:
                repeats.setdefault((name, traced), []).append(spawn(name, seed, traced))
    for name in names:
        entry = summarize(seed, repeats[name, False], repeats[name, True])
        report["workloads"][name] = entry
        for line in format_workload(name, entry):
            log(line)
    report["elapsed_s"] = time.monotonic() - started
    report["ok"] = not any(e["problems"] for e in report["workloads"].values())
    return report
