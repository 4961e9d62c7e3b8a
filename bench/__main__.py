"""``python -m bench run | measure | compare`` (see bench/README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.spec import DEFAULT_SEED, load_benchmark


def _cmd_run(args: argparse.Namespace) -> int:
    from bench.harness import run_all

    report = run_all(args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"bench run: {report['elapsed_s']:.0f} s, {'OK' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _cmd_measure(args: argparse.Namespace) -> int:
    from bench.harness import format_workload, measure, result_line

    names = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    entry = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in format_workload(args.workload, entry):
        print(line)
    print(json.dumps(result_line(entry, bool(args.trace))))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare

    lines, code = compare(args.parent, args.change)
    print("\n".join(lines))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="every workload: untraced repeats, then a traced one")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", help="write the JSON report here")
    run.set_defaults(func=_cmd_run)

    meas = sub.add_parser("measure", help="one workload for a fixed time; one-line JSON result")
    meas.add_argument("--workload", required=True)
    meas.add_argument("--seed", type=int, default=DEFAULT_SEED)
    meas.add_argument("--seconds", type=float, required=True)
    meas.add_argument("--trace", type=int, choices=(0, 1), default=0)
    meas.set_defaults(func=_cmd_measure)

    comp = sub.add_parser("compare", help="verdicts for change runs against parent runs")
    comp.add_argument("--parent", nargs="+", required=True, metavar="REPORT")
    comp.add_argument("--change", nargs="+", required=True, metavar="REPORT")
    comp.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    if args.command != "compare":
        from bench.harness import BenchError, sources_present

        if not sources_present():
            print("bench: no simulator sources under src/repro to run", file=sys.stderr)
            return 2
        try:
            return args.func(args)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
