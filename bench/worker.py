"""One repeat of one workload, in a fresh process.

Run as ``python -m bench.worker --workload NAME --seed N [--trace]`` with
``src`` on ``PYTHONPATH``; prints one JSON object.  The harness starts one
worker at a time, so a repeat owns one core and never shares it.
"""

import time

# Set-up is timed from here, before anything of repro is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


def assert_untraced(engine) -> None:
    """An untraced repeat must carry no instrumentation at all."""
    from bench.spec import BOUNDARIES
    from bench.trace import is_wrapped, resolve

    problems = []
    if engine._profiler is not None:
        problems.append("a SimProfiler is installed")
    if signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0):
        problems.append("a SIGPROF timer is armed")
    problems += [
        f"{b.stem} is patched" for b in BOUNDARIES if is_wrapped(resolve(b)[2])
    ]
    if problems:
        raise RuntimeError("untraced repeat is instrumented: " + "; ".join(problems))


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def run(workload: str, seed: int, traced: bool) -> dict:
    from bench.workloads import WORKLOADS, sim_digest

    if traced:
        from bench.trace import Boundaries, Sampler
        from repro.sim.profiler import install_profiler

        # Before the world exists, so every object binds the wrappers.
        boundaries = Boundaries()
        boundaries.install()
    sim = WORKLOADS[workload](seed)
    engine = sim.world.engine
    if traced:
        profiler = install_profiler(engine)
        counters_before, timers_before = sim.counters(), boundaries.snapshot()
        sampler = Sampler()
        sampler.start()
    else:
        assert_untraced(engine)

    t1 = time.perf_counter()
    sim.execute()
    t2 = time.perf_counter()

    if traced:
        sampler.stop()
        counters_after, timers_after = sim.counters(), boundaries.snapshot()
        boundaries.uninstall()
    else:
        assert_untraced(engine)
    outcome = sim.outcome()
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": t1 - T0,
        "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "violations": outcome.violations,
        "outputs": outcome.outputs,
        "sim_digest": sim_digest(outcome.payload),
    }
    if traced:
        counts = profiler.snapshot()
        counters = _delta(counters_after, counters_before)
        counters["sim.events"] = counts.get("engine.events", 0)
        counters["sim.heap_push"] = counts.get("engine.heap_push", 0)
        counters["sim.resumes"] = counts.get("engine.resume", 0)
        result["counters"] = counters
        result["samples"] = dict(sampler.counts)
        result["boundaries"] = {
            stem: [calls - timers_before[stem][0], seconds - timers_before[stem][1]]
            for stem, (calls, seconds) in timers_after.items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
