"""Command-line interface: run benchmarks and regenerate paper artifacts.

Examples::

    python -m repro list-workloads
    python -m repro bench redis --mode nilicon --duration-ms 2000
    python -m repro paper table1       # one artifact: table1..6, fig3, threads, hycor, ...
    python -m repro paper bench --smoke --check BENCH_paper.json
    python -m repro failover redis     # one instrumented failover, verbose
    python -m repro lint --baseline lint-baseline.json   # the one static lint
    python -m repro audit redis        # epoch loop with invariant auditing
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.sim.units import ms, sec

__all__ = ["main"]


def _cmd_list_workloads(_args) -> int:
    from repro.workloads.catalog import PAPER_BENCHMARKS, WORKLOADS

    print("Workloads (paper benchmarks marked *):")
    for name in sorted(WORKLOADS):
        factory = WORKLOADS[name]
        star = "*" if name in PAPER_BENCHMARKS else " "
        doc = (factory.__doc__ or "").strip().splitlines()[0] if factory.__doc__ else ""
        print(f"  {star} {name:<14} {doc}")
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.common import run_overhead

    result = run_overhead(
        args.workload, args.mode, ms(args.duration_ms), seed=args.seed
    )
    if result.completion_us is not None:
        print(f"{args.workload} [{args.mode}] completion: "
              f"{result.completion_us / 1000:.1f} ms")
    else:
        line = (f"{args.workload} [{args.mode}] throughput: "
                f"{result.throughput:,.1f} ops/s")
        if result.stats is not None:
            line += (f" ({result.stats.completed} responses, "
                     f"{result.stats.errors} errors, "
                     f"{len(result.stats.validation_failures)} validation failures)")
        print(line)
    metrics = result.metrics
    if metrics.n_epochs > 1:
        print(f"  epochs: {metrics.n_epochs}  avg stop: "
              f"{metrics.avg_stop_us() / 1000:.2f} ms  avg dirty pages: "
              f"{metrics.avg_dirty_pages():.0f}  state P50: "
              f"{metrics.state_bytes_percentile(50) / 1e6:.2f} MB")
        print(f"  stopped fraction: {result.stopped_fraction:.1%}  "
              f"backup core: {metrics.backup_core_utilization():.3f}")
    return 0


def _cmd_trace(args) -> int:
    """Print the protocol event timeline of a short replicated run."""
    from repro.experiments.common import open_cell
    from repro.sim.trace import install_tracer
    from repro.workloads.base import ServerWorkload

    cell = open_cell(
        args.workload, "nilicon", args.seed,
        instrument=lambda world: install_tracer(world.engine),
    )
    tracer = cell.world.engine.tracer
    cell.start()
    if isinstance(cell.workload, ServerWorkload):
        cell.clients_at(ms(300), run_until_us=ms(args.run_ms))
    if args.failover:
        # Inject only after the initial full checkpoint has committed and
        # armed the detector (otherwise there is nothing to recover from).
        cell.fail_stop_at(max(ms(args.run_ms) // 2, ms(500)))
    cell.world.run(until=ms(args.run_ms) + (sec(3) if args.failover else 0))
    cell.deployment.stop()
    print(tracer.timeline(args.category))
    if tracer.dropped:
        print(
            f"warning: trace truncated — {tracer.dropped} event(s) dropped "
            f"after the {tracer.limit}-event limit",
            file=sys.stderr,
        )
    return 0


def _cmd_lint(args) -> int:
    """The one static lint: every inventory analyzer's rule family, each
    gated on its selfcheck, then nlint's per-file rules over the package.
    An analyzer none of whose rules is selected does not run."""
    from repro.analysis.inventory import ANALYZERS, analyzer_of, load_sources
    from repro.analysis.linter import Finding, all_rules, lint_source

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.severity}] {rule.summary}")
        return 0
    try:
        rules = all_rules(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    selected = {rule.rule_id for rule in rules}
    families = {analyzer_of(rule_id) for rule_id in selected}
    reports = [_inventory_pass(name) for name in ANALYZERS if name in families]
    if any(report is None for report in reports):
        return 1
    findings = [finding for report in reports for finding in report.findings
                if finding.rule_id in selected]
    per_file = [rule for rule in rules if analyzer_of(rule.rule_id) == "nlint"]
    if per_file:
        for path, text in load_sources(("",)).items():
            findings += lint_source(text, path, per_file)
    findings.sort(key=Finding.sort_key)
    skipped = {rule.rule_id for rule in all_rules()} - selected
    return _report_findings(findings, skipped, args)


def _report_findings(findings, skipped, args) -> int:
    """Print *findings* and return the exit status.

    Without ``--baseline``, warnings (the heuristic rules) report without
    failing the build; only error-severity findings gate CI.  With it,
    errors always gate and are never baselined; warnings partition into
    new (fail) / baselined (report, pass) / stale entries (report, pass).
    Entries of the *skipped* rules (those ``--select``/``--ignore`` left
    out) take no part, and ``--update-baseline`` keeps them.  Under ``--json`` the one document
    printed lists every finding with its ``baselined`` disposition.
    """
    from repro.analysis.baseline import (
        BaselineError,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.report import render_json, render_text

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity != "error"]
    if args.baseline is None:
        print(render_json(findings) if args.json else render_text(findings))
        return 1 if errors else 0
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    kept = {fp: n for fp, n in baseline.items()
            if fp.split("::", 1)[0] in skipped}
    if args.update_baseline:
        entries = write_baseline(args.baseline, warnings, keep=kept)
        print(
            f"repro lint: froze {len(warnings)} warning(s) "
            f"({len(entries)} fingerprint(s)) into {args.baseline}"
        )
        if errors:
            print(render_text(errors))
            print(f"repro lint: {len(errors)} error(s) cannot be baselined")
        return 1 if errors else 0
    part = apply_baseline(
        warnings, {fp: n for fp, n in baseline.items() if fp not in kept})
    gating = errors + part.new
    if args.json:
        print(render_json(findings, part.baselined, part.stale))
        return 1 if gating else 0
    print(render_text(gating))
    if part.new:
        print(f"repro lint: {len(part.new)} new finding(s) not in "
              f"{args.baseline}")
    if part.baselined:
        print(f"repro lint: {len(part.baselined)} known finding(s) baselined "
              f"by {args.baseline}")
    for fp, unused in part.stale:
        print(f"repro lint: stale baseline entry (fixed? run "
              f"--update-baseline): {fp} (x{unused})")
    return 1 if gating else 0


def _inventory_pass(name, selfcheck=False):
    """Run inventory analyzer *name*'s static pass and gate on the
    selfcheck its report carries: the report, or None when the selfcheck
    failed (printed with a pointer to ``repro <name> selfcheck``, since an
    unsound inventory would silently shrink the audited surface).
    *selfcheck* prints the dispositions table and the verdict."""
    import importlib

    from repro.analysis.inventory import ANALYZERS

    module, function, _, accounted = ANALYZERS[name]
    report = getattr(importlib.import_module(module), function)()
    dispositions = report.dispositions
    if selfcheck:
        width = max((len(item) for item in dispositions), default=0)
        for item, disposition in dispositions.items():
            print(f"  {item:<{width}}  {disposition}")
    if report.problems:
        hint = "" if selfcheck else f" (run `repro {name} selfcheck`)"
        print(f"{name} self-check FAILED{hint}:")
        for problem in report.problems:
            print(f"  - {problem}")
        return None
    if selfcheck:
        print(f"{name} self-check: {len(dispositions)} {accounted} "
              f"accounted for.")
    return report


def _cmd_inventory(args) -> int:
    """``repro ckptcov|perf|ndflow|ftcov``: the selfcheck, or the dynamic
    action, which takes its inventory from the static pass and refuses to
    run on an unsound one."""
    report = _inventory_pass(args.command, args.action == "selfcheck")
    if report is None:
        return 1
    if args.action == "selfcheck":
        return 0
    return _DYNAMIC[args.command](report, args)


def _ckptcov_diff(report, args) -> int:
    """Checkpoint -> restore -> deep-compare on live workloads, each diff
    judged against the static verdicts."""
    import json

    from repro.analysis.ckptdiff import SMOKE_WORKLOADS, run_oracle
    from repro.workloads.catalog import WORKLOADS

    uncovered = report.uncovered()
    status = 0
    for name in SMOKE_WORKLOADS if args.smoke else WORKLOADS:
        result = run_oracle(name, static_uncovered=uncovered,
                            inventory=report.inventory)
        if args.json:
            print(json.dumps(result.summary(), indent=2, sort_keys=True))
        else:
            verdict = "clean" if result.ok else f"{len(result.diffs)} diff(s)"
            print(f"oracle {name}: {verdict} "
                  f"({result.fields_compared} fields compared)")
            for diff in result.confirmed_gaps:
                print(f"  confirmed gap (CKPT101): {diff}")
            for diff in result.analyzer_bugs:
                print(f"  ANALYZER BUG: {diff}")
        if not result.ok:
            status = 1
    return status


def _ndflow_replay(report, args) -> int:
    """The record->replay differential oracle with its stream crossref."""
    import json

    from repro.analysis.ndreplay import format_report, run_oracle

    result = run_oracle(smoke=args.smoke, inventory=report.inventory)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_report(result))
    return 0 if result["ok"] else 1


def _ftcov_record(report, args) -> int:
    """The catalog coverage record crossed against the static inventory."""
    import json

    from repro.analysis.ftreplay import format_report, run_ftcov_record

    result = run_ftcov_record(report.inventory, smoke=args.smoke)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_report(result))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"repro ftcov: wrote {args.json_out}")
    # The drop-scenario probe is folded into ok: the seeded coverage gap
    # must have been DETECTED.
    return 0 if result["ok"] else 1


#: The dynamic action of each inventory analyzer that has one.
_DYNAMIC = {
    "ckptcov": _ckptcov_diff,
    "ndflow": _ndflow_replay,
    "ftcov": _ftcov_record,
}


def _cmd_analyze(args) -> int:
    """Every step of ``repro.analysis.aggregate.STEPS`` as one gate (see
    ``make analyze``)."""
    import json

    from repro.analysis.aggregate import format_summary, run_all

    report = run_all(smoke=not args.full)
    print(format_summary(report))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"repro analyze: wrote {args.json_out}")
    return report["exit"]


def _cmd_races(args) -> int:
    """The race pass: access coverage, happens-before probe, tie-break
    schedule fuzz and the regression probes the detector must flag."""
    import json

    from repro.analysis.fuzz import format_report, run_races

    report = run_races(smoke=args.smoke)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report["ok"] else 1


def _cmd_audit(args) -> int:
    """Run a replicated epoch loop with the runtime state auditor enabled."""
    from repro.experiments.common import open_cell
    from repro.replication.config import NiliconConfig
    from repro.workloads.base import ServerWorkload

    cell = open_cell(
        args.workload, "nilicon", args.seed,
        config=NiliconConfig.nilicon().with_(audit=True),
    )
    auditor = cell.deployment.auditor
    auditor.raise_on_violation = False
    cell.start()
    if isinstance(cell.workload, ServerWorkload):
        cell.clients_at(ms(300), run_until_us=ms(args.run_ms))
    cell.world.run(until=ms(args.run_ms))
    cell.deployment.stop()

    print(f"{args.workload}: audited {auditor.epochs_audited} epoch(s), "
          f"{auditor.restores_audited} restore(s)")
    if auditor.violations:
        print(f"{len(auditor.violations)} invariant violation(s):")
        for violation in auditor.violations:
            print(f"  {violation.render()}")
        return 1
    print("all kernel state invariants held.")
    return 0


def _cmd_failover(args) -> int:
    from repro.experiments.validation import run_one_injection

    failures = run_one_injection(args.workload, seed=args.seed, run_us=sec(args.run_s))
    if failures:
        print(f"{args.workload}: recovery FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"{args.workload}: fail-stop injected, detected and recovered; "
          "all validation checks passed.")
    return 0


def _cmd_modes(_args) -> int:
    """Replication strategy registry: list the backends."""
    from repro.replication.modes import MODE_REGISTRY

    for name, mode in MODE_REGISTRY.items():
        pair = "pair" if mode.pair_protocol else "solo"
        print(f"  {name:<9} [{pair}] release: {mode.release_rule:<18} "
              f"{mode.description}")
    return 0


def _cmd_paper(args) -> int:
    """Paper gate: run every artifact once, print its tables, then gate its
    cells and shape clauses against BENCH_paper.json; or print one
    artifact's table.  Exit 1 when the report fails its own clauses or the
    ``--check`` gate, 2 when the ``--check`` file cannot be read."""
    import json

    from repro.experiments.paper import format_paper, run_paper, run_paper_bench
    from repro.metrics import benchfile

    if args.action != "bench":
        if args.json or args.out or args.check:
            print("repro paper: --json, --out and --check apply to bench only",
                  file=sys.stderr)
            return 2
        print(format_paper(run_paper(args.smoke, args.seed, [args.action])))
        return 0
    results = run_paper(smoke=args.smoke, seed=args.seed)
    if not args.json:
        print(format_paper(results) + "\n")
    report = run_paper_bench(results, args.smoke, args.seed)
    print(json.dumps(report, indent=2, sort_keys=True) if args.json
          else benchfile.format(report))
    if args.out:
        benchfile.write(report, args.out)
        print(f"repro paper: wrote {args.out}")
    if not args.check:
        return 0 if report["ok"] else 1
    try:
        baseline = benchfile.load(args.check)
    except (OSError, ValueError) as exc:
        print(f"repro paper: cannot read {args.check}: {exc}", file=sys.stderr)
        return 2
    problems = benchfile.check(report, baseline)
    for problem in problems:
        print(f"repro paper: REGRESSION: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"paper bench gate: matches {args.check} exactly")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.paper import ARTIFACTS
    from repro.replication.modes import mode_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NiLiCon reproduction: benchmarks and paper artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Only the commands that read a seed take --seed; any other rejects it.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1, help="experiment seed")

    sub.add_parser("list-workloads", help="list the workload catalog")

    bench = sub.add_parser("bench", parents=[seeded],
                           help="run one benchmark under one mode")
    bench.add_argument("workload")
    bench.add_argument("--mode", choices=mode_names(), default="nilicon")
    bench.add_argument("--duration-ms", type=int, default=2000)

    failover = sub.add_parser("failover", parents=[seeded],
                              help="one verbose fault injection")
    failover.add_argument("workload")
    failover.add_argument("--run-s", type=int, default=3)

    tr = sub.add_parser("trace", parents=[seeded],
                        help="print the protocol event timeline")
    tr.add_argument("workload", nargs="?", default="net")
    tr.add_argument("--run-ms", type=int, default=400)
    tr.add_argument("--failover", action="store_true")
    tr.add_argument("--category", default=None,
                    help="filter: epoch | backup | recovery")

    lint = sub.add_parser(
        "lint", help="the one static lint: nlint's per-file rules and the "
                     "ckptcov, perf, ndflow and ftcov rule families over "
                     "the package, each family gated on its selfcheck",
    )
    lint.add_argument("--select", action="append", default=None,
                      metavar="RULE",
                      help="emit only these rule IDs (repeatable)")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="RULE", help="skip these rule IDs (repeatable)")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="freeze known warnings: new ones gate CI, "
                           "baselined ones report without failing")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline FILE from current warnings")
    lint.add_argument("--json", action="store_true",
                      help="emit one JSON document: every finding with its "
                           "baselined disposition")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")

    # The inventory analyzers: their static rules run in `repro lint`;
    # here each has its selfcheck and its dynamic action, if any.
    ckptcov = sub.add_parser(
        "ckptcov",
        help="checkpoint state-coverage analyzer: selfcheck, or the "
             "checkpoint/restore differential oracle",
    )
    ckptcov.add_argument("action", choices=("selfcheck", "diff"),
                         help="diff: the checkpoint->restore->deep-compare "
                              "differential oracle on live workloads")
    ckptcov.add_argument("--json", action="store_true",
                         help="diff: emit each oracle result as JSON")
    ckptcov.add_argument("--smoke", action="store_true",
                         help="diff: ssdb and net-echo only (default: every "
                              "catalog workload)")

    perf = sub.add_parser(
        "perf",
        help="hot-path performance analyzer: selfcheck of the "
             "per-event/per-page/per-epoch surface",
    )
    perf.add_argument("action", choices=("selfcheck",))

    ndflow = sub.add_parser(
        "ndflow",
        help="nondeterminism-provenance analyzer: selfcheck, or the "
             "record->replay differential oracle with a stream crossref",
    )
    ndflow.add_argument("action", choices=("selfcheck", "replay"))
    ndflow.add_argument("--json", action="store_true",
                        help="replay: emit the full JSON report")
    ndflow.add_argument("--smoke", action="store_true",
                        help="replay: seed 1 only (default: seeds 1 2)")

    ftcov = sub.add_parser(
        "ftcov",
        help="recovery-path coverage analyzer: selfcheck, or a catalog "
             "coverage recorder crossed against the static failure-surface "
             "inventory",
    )
    ftcov.add_argument("action", choices=("selfcheck", "record"))
    ftcov.add_argument("--json", action="store_true",
                       help="record: emit the full JSON report")
    ftcov.add_argument("--smoke", action="store_true",
                       help="record: reduced CI matrix, pair scenarios on "
                            "one workload x 3 seeds")
    ftcov.add_argument("--json-out", default=None, metavar="FILE",
                       help="record: also write the coverage matrix here")

    analyze = sub.add_parser(
        "analyze",
        help="run every step of repro.analysis.aggregate.STEPS as one "
             "gate",
    )
    analyze.add_argument("--full", action="store_true",
                         help="full-depth passes (default: CI smoke variants)")
    analyze.add_argument("--json-out", default=None, metavar="FILE",
                         help="also write the merged findings report here")

    races = sub.add_parser(
        "races",
        help="race pass: record_access coverage, happens-before probe, "
             "tie-break schedule fuzz and the historical-race regressions",
    )
    races.add_argument("--smoke", action="store_true",
                       help="reduced CI matrix: net workload, seed 1")
    races.add_argument("--json", action="store_true",
                       help="emit the full JSON report")

    audit = sub.add_parser(
        "audit", help="run an epoch loop with runtime invariant auditing",
        parents=[seeded],
    )
    audit.add_argument("workload", nargs="?", default="net")
    audit.add_argument("--run-ms", type=int, default=600)

    modes = sub.add_parser(
        "modes", help="replication strategies: registry listing",
    )
    modes.add_argument("action", choices=("list",))

    paper = sub.add_parser(
        "paper", help="paper gate: every table/figure's cells and shape "
                      "claims, or one artifact's table",
        parents=[seeded],
    )
    paper.add_argument("action", choices=("bench", *ARTIFACTS),
                       help="bench: run, print and gate every artifact; "
                            "an artifact name: print that one table")
    paper.add_argument("--smoke", action="store_true",
                       help="run only the CI subset (cells are identical "
                            "to the same cells of a full run)")
    paper.add_argument("--json", action="store_true",
                       help="bench: emit the full JSON report")
    paper.add_argument("--out", default=None, metavar="FILE",
                       help="bench: also write the report here")
    paper.add_argument("--check", default=None, metavar="FILE",
                       help="bench: gate against a checked-in BENCH file "
                            "(fail when a cell differs from it, or a full "
                            "run lacks one of its cells)")

    return parser


_COMMANDS = {
    "list-workloads": _cmd_list_workloads,
    "bench": _cmd_bench,
    "failover": _cmd_failover,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "ckptcov": _cmd_inventory,
    "perf": _cmd_inventory,
    "ndflow": _cmd_inventory,
    "ftcov": _cmd_inventory,
    "analyze": _cmd_analyze,
    "races": _cmd_races,
    "audit": _cmd_audit,
    "modes": _cmd_modes,
    "paper": _cmd_paper,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
