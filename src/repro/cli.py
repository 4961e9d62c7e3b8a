"""Command-line interface: run benchmarks and regenerate paper artifacts.

Examples::

    python -m repro list-workloads
    python -m repro bench redis --mode nilicon --duration-ms 2000
    python -m repro paper table1       # one artifact: table1..6, fig3, threads, hycor, ...
    python -m repro paper bench --smoke --check BENCH_paper.json
    python -m repro validate --runs 5 --workload redis --workload disk-rw
    python -m repro failover redis     # one instrumented failover, verbose
    python -m repro lint src/          # determinism/checkpoint-safety linter
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


def _cmd_validate(args) -> int:
    from repro.experiments.validation import (
        VALIDATION_WORKLOADS,
        format_rows,
        run_validation_campaign,
    )

    workloads = tuple(args.workload) if args.workload else VALIDATION_WORKLOADS
    results = run_validation_campaign(
        workloads=workloads, runs_per_workload=args.runs, base_seed=args.seed
    )
    print(format_rows(results))
    failed = [r for r in results if r.recovery_rate < 1.0]
    for campaign in failed:
        for failure in campaign.failures[:5]:
            print(f"  {campaign.workload}: {failure}", file=sys.stderr)
    return 1 if failed else 0


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
    """Run nlint (the determinism/checkpoint-safety linter) over paths."""
    from repro.analysis.linter import all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  [{rule.severity}] {rule.summary}")
        return 0
    try:
        rules = all_rules(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    return _report_findings(findings, args, "repro lint")


def _report_findings(findings, args, prog) -> int:
    """Print *findings* and return the exit status.

    Without ``--baseline``, warnings (the heuristic rules) report without
    failing the build; only error-severity findings gate CI.  With it,
    errors always gate and are never baselined; warnings partition into
    new (fail) / baselined (report, pass) / stale entries (report, pass).
    Under ``--json`` the one document printed lists every finding with
    its ``baselined`` disposition.
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
    if args.update_baseline:
        entries = write_baseline(args.baseline, warnings)
        print(
            f"{prog}: froze {len(warnings)} warning(s) "
            f"({len(entries)} fingerprint(s)) into {args.baseline}"
        )
        if errors:
            print(render_text(errors))
            print(f"{prog}: {len(errors)} error(s) cannot be baselined")
        return 1 if errors else 0
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2
    part = apply_baseline(warnings, baseline)
    gating = errors + part.new
    if args.json:
        print(render_json(findings, part.baselined, part.stale))
        return 1 if gating else 0
    print(render_text(gating))
    if part.new:
        print(f"{prog}: {len(part.new)} new finding(s) not in {args.baseline}")
    if part.baselined:
        print(f"{prog}: {len(part.baselined)} known finding(s) baselined "
              f"by {args.baseline}")
    for fp, unused in part.stale:
        print(f"{prog}: stale baseline entry (fixed? run --update-baseline): "
              f"{fp} (x{unused})")
    return 1 if gating else 0


#: What each inventory analyzer's selfcheck accounts for.
_ACCOUNTED = {
    "ckptcov": "class(es)",
    "perf": "hot/exempt function(s)",
    "ndflow": "nondeterminism source(s)",
    "ftcov": "failure-surface site(s)",
}


def _static_report(analyze, args):
    """Run an inventory analyzer's static pass once and gate on the
    selfcheck its report carries: ``(report, None)`` to go on with, or
    ``(None, exit status)`` when the command is done.  ``selfcheck``
    prints the dispositions table; every other action refuses to run on
    an unsound inventory, which would silently shrink the audited
    surface."""
    name = args.command
    try:
        report = analyze(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro {name}: {exc.args[0]}", file=sys.stderr)
        return None, 2
    dispositions = report.dispositions
    if args.action == "selfcheck":
        width = max((len(item) for item in dispositions), default=0)
        for item, disposition in dispositions.items():
            print(f"  {item:<{width}}  {disposition}")
    if report.problems:
        hint = ("" if args.action == "selfcheck"
                else f" (run `repro {name} selfcheck`)")
        print(f"{name} self-check FAILED{hint}:")
        for problem in report.problems:
            print(f"  - {problem}")
        return None, 1
    if args.action == "selfcheck":
        print(f"{name} self-check: {len(dispositions)} {_ACCOUNTED[name]} "
              f"accounted for.")
        return None, 0
    return report, None


def _cmd_ckptcov(args) -> int:
    """Checkpoint state-coverage analyzer: CKPT1xx lint / oracle diff."""
    import json

    from repro.analysis.coverage import analyze_coverage

    report, status = _static_report(analyze_coverage, args)
    if report is None:
        return status
    if args.action == "lint":
        status = _report_findings(report.findings, args, "repro ckptcov")
        uncovered = sorted(report.uncovered())
        if uncovered and args.baseline is None and not args.json:
            pairs = ", ".join(f"{c}.{f}" for c, f in uncovered)
            print(f"repro ckptcov: uncovered field(s): {pairs}")
        return status

    # action == "diff": checkpoint -> restore -> deep-compare on live
    # workloads, each diff judged against the static verdicts.
    from repro.analysis.ckptdiff import ORACLE_WORKLOADS, run_oracle

    workloads = tuple(args.workload) if args.workload else ORACLE_WORKLOADS
    uncovered = report.uncovered()
    status = 0
    for name in workloads:
        result = run_oracle(name, seed=args.seed, static_uncovered=uncovered,
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


def _cmd_perf(args) -> int:
    """Hot-path performance analyzer: PERF lint / profile."""
    import json

    from repro.analysis.perf import analyze_perf

    # lint and profile both need the static pass and gate on its selfcheck.
    report, status = _static_report(analyze_perf, args)
    if report is None:
        return status
    if args.action == "lint":
        return _report_findings(report.findings, args, "repro perf")

    # action == "profile"
    from repro.analysis.perfbench import (
        crossref,
        run_profiled_deployment,
        work_counters,
    )

    run_ms = 400 if args.smoke else args.run_ms
    run = run_profiled_deployment(args.workload, run_ms=run_ms, seed=args.seed)
    entries = crossref(report.findings, run.counters)
    if args.json:
        print(json.dumps(
            {
                "workload": run.workload,
                "seed": run.seed,
                "run_ms": run.run_ms,
                "events": run.events,
                "counter_digest": run.digest,
                "counters": run.counters,
                "findings": entries,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(f"{run.workload}: {run.events} events dispatched in "
              f"{run.sim_us} simulated us; counter digest {run.digest}")
        for site, n in work_counters(run.counters).items():
            print(f"  {site:<28} {n}")
        for entry in entries:
            print(f"  {entry['status']:<13} {entry['rule']} "
                  f"{entry['path']}:{entry['line']} ({entry['evidence']})")
    return 0


def _cmd_ndflow(args) -> int:
    """Nondeterminism-provenance analyzer: NDF lint / record->replay oracle."""
    import json

    from repro.analysis.ndflow import analyze_ndflow

    if args.action in ("lint", "selfcheck"):
        report, status = _static_report(analyze_ndflow, args)
        if report is None:
            return status
        return _report_findings(report.findings, args, "repro ndflow")

    from repro.analysis.ndreplay import (
        DEFAULT_SEEDS,
        DEFAULT_WORKLOADS,
        format_report,
        run_oracle,
    )

    if args.smoke:
        workloads, seeds = ("net",), (1, 2)
    else:
        workloads = tuple(args.workload) if args.workload else DEFAULT_WORKLOADS
        seeds = tuple(args.seeds) if args.seeds else DEFAULT_SEEDS
    report = run_oracle(workloads, seeds, run_ms=args.run_ms, knob=args.knob)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    # With --knob the polarity is already folded into ok: some cell must
    # have DIVERGED (the oracle proved it catches the regression); either
    # way every recorded stream must map to a static inventory site.
    return 0 if report["ok"] else 1


def _cmd_ftcov(args) -> int:
    """Recovery-path coverage analyzer: FTC lint / catalog coverage record."""
    import json

    from repro.analysis.ftcov import analyze_ftcov

    if args.action in ("lint", "selfcheck"):
        report, status = _static_report(analyze_ftcov, args)
        if report is None:
            return status
        return _report_findings(report.findings, args, "repro ftcov")

    from repro.analysis.ftreplay import format_report, run_ftcov_record

    report = run_ftcov_record(smoke=args.smoke)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"repro ftcov: wrote {args.json_out}")
    # The drop-scenario probe is folded into ok: the seeded coverage gap
    # must have been DETECTED.
    return 0 if report["ok"] else 1


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
    """Happens-before race detection / tie-break schedule fuzzing."""
    import json

    from repro.analysis.fuzz import format_report, run_fuzz, run_race_probe
    from repro.analysis.races import verify_access_coverage

    if args.check_access:
        problems = verify_access_coverage("src")
        if problems:
            print("record_access coverage check FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("record_access coverage: every tracked field is instrumented.")
        return 0

    workloads = tuple(args.workload) if args.workload else None
    seeds = tuple(args.seeds) if args.seeds else None
    if args.fuzz:
        report = run_fuzz(
            workloads=workloads or (("net",) if args.smoke else ("net", "disk-rw")),
            seeds=seeds or ((1,) if args.smoke else (1, 2, 3)),
            permutations=args.permutations or (3 if args.smoke else 8),
            run_ms=args.run_ms,
        )
    else:
        report = run_race_probe(
            workloads=workloads or ("net",),
            seeds=seeds or ((1,) if args.smoke else (1, 2, 3)),
            run_ms=max(args.run_ms, 900),
            knob=args.knob,
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.knob:
        # Regression probe: the detector MUST flag the re-enabled race.
        return 0 if report["findings"] else 1
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


def _cmd_fleet(args) -> int:
    """Cluster orchestration: the acceptance campaign (the fleet scenario
    catalog runs in ``repro ftcov record``)."""
    import json

    from repro.experiments.fleet import format_campaign, run_fleet_campaign

    report = run_fleet_campaign(seed=args.seed, smoke=args.smoke)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_campaign(report))
    return 0 if report["ok"] else 1


def _cmd_traffic(args) -> int:
    """L7 traffic tier: open-loop SLO campaign and its profiles."""
    import json

    from repro.experiments.traffic import (
        format_traffic_campaign,
        run_traffic_campaign,
        traffic_profiles,
    )

    if args.action == "profiles":
        for scenario in traffic_profiles(smoke=args.smoke):
            profile = scenario.profile
            event = f"  [{scenario.event}]" if scenario.event else ""
            print(
                f"  {profile.name:<10} {profile.arrival:<8} "
                f"{profile.rate_rps:7.0f} sess/s x {profile.duration_us // 1000} ms, "
                f"{profile.requests_per_session} req/session{event}"
            )
        return 0

    # action == "campaign"
    report = run_traffic_campaign(seed=args.seed, smoke=args.smoke)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_traffic_campaign(report))
    return 0 if report["ok"] else 1


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


def _add_finding_options(parser) -> None:
    """The rule-selection, baseline and output options ``lint`` and every
    inventory analyzer share (``repro <name> lint --baseline
    <name>-baseline.json``)."""
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="emit only these rule IDs (repeatable)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE",
                        help="skip these rule IDs (repeatable)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="freeze known warnings: new ones gate CI, "
                             "baselined ones report without failing")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline FILE from current warnings")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document (lint: every finding "
                             "with its baselined disposition)")


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.paper import ARTIFACTS
    from repro.replication.modes import mode_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NiLiCon reproduction: benchmarks and paper artifacts.",
    )
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="list the workload catalog")

    bench = sub.add_parser("bench", help="run one benchmark under one mode")
    bench.add_argument("workload")
    bench.add_argument("--mode", choices=mode_names(), default="nilicon")
    bench.add_argument("--duration-ms", type=int, default=2000)

    validate = sub.add_parser("validate", help="run the fault-injection campaign")
    validate.add_argument("--runs", type=int, default=5)
    validate.add_argument("--workload", action="append", default=None)

    failover = sub.add_parser("failover", help="one verbose fault injection")
    failover.add_argument("workload")
    failover.add_argument("--run-s", type=int, default=3)

    tr = sub.add_parser("trace", help="print the protocol event timeline")
    tr.add_argument("workload", nargs="?", default="net")
    tr.add_argument("--run-ms", type=int, default=400)
    tr.add_argument("--failover", action="store_true")
    tr.add_argument("--category", default=None,
                    help="filter: epoch | backup | recovery")

    lint = sub.add_parser(
        "lint", help="run nlint (determinism/checkpoint-safety rules)"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories (default: src)")
    _add_finding_options(lint)
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")

    ckptcov = sub.add_parser(
        "ckptcov",
        help="checkpoint state-coverage analyzer (CKPT1xx + "
             "checkpoint/restore differential oracle)",
    )
    ckptcov.add_argument("action", nargs="?", default="lint",
                         choices=("selfcheck", "lint", "diff"),
                         help="diff: the checkpoint->restore->deep-compare "
                              "differential oracle on live workloads")
    _add_finding_options(ckptcov)
    ckptcov.add_argument("--workload", action="append", default=None,
                         help="diff: oracle workload(s) (repeatable; "
                              "default: one per workload family)")
    ckptcov.add_argument("--seed", type=int, default=1)

    perf = sub.add_parser(
        "perf",
        help="hot-path performance analyzer: PERF lint rules, deterministic "
             "DES profiler",
    )
    perf.add_argument("action", nargs="?", default="lint",
                      choices=("selfcheck", "lint", "profile"))
    _add_finding_options(perf)
    perf.add_argument("--workload", default="net",
                      help="profile: catalog workload to run (default: net)")
    perf.add_argument("--run-ms", type=int, default=800,
                      help="profile: simulated run length")
    perf.add_argument("--smoke", action="store_true",
                      help="profile: a 400 ms run")
    perf.add_argument("--seed", type=int, default=1)

    ndflow = sub.add_parser(
        "ndflow",
        help="nondeterminism-provenance analyzer: NDF taint rules, "
             "record->replay differential oracle with a stream crossref",
    )
    ndflow.add_argument("action", nargs="?", default="lint",
                        choices=("selfcheck", "lint", "replay"))
    _add_finding_options(ndflow)
    ndflow.add_argument("--workload", action="append", default=None,
                        help="replay: catalog workload(s) (repeatable; "
                             "default: net, disk-rw)")
    ndflow.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="replay: seeds (default: 1 2)")
    ndflow.add_argument("--run-ms", type=int, default=600,
                        help="replay: simulated run length per cell")
    ndflow.add_argument("--knob", choices=("unsafe-unlogged-draw",),
                        default=None,
                        help="replay: re-enable an unlogged draw; exit 0 iff "
                             "some cell diverges")
    ndflow.add_argument("--smoke", action="store_true",
                        help="reduced CI matrix: net workload, seeds 1 2")

    ftcov = sub.add_parser(
        "ftcov",
        help="recovery-path coverage analyzer: FTC lint rules plus a "
             "catalog coverage recorder crossed against the static "
             "failure-surface inventory",
    )
    ftcov.add_argument("action", nargs="?", default="lint",
                       choices=("selfcheck", "lint", "record"))
    _add_finding_options(ftcov)
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
        help="happens-before race detection and tie-break schedule fuzzing",
    )
    races.add_argument("--fuzz", action="store_true",
                       help="replay under permuted same-timestamp orderings "
                            "and diff trace/metrics digests")
    races.add_argument("--knob", choices=("ack-before-commit", "release-oldest"),
                       default=None,
                       help="re-enable a historical race; exit 0 iff the "
                            "detector flags it")
    races.add_argument("--check-access", action="store_true",
                       help="verify every tracked shared field has "
                            "record_access instrumentation and exit")
    races.add_argument("--workload", action="append", default=None,
                       help="workload(s) to run (repeatable)")
    races.add_argument("--seeds", type=int, nargs="+", default=None)
    races.add_argument("--run-ms", type=int, default=700)
    races.add_argument("--permutations", type=int, default=None,
                       help="alternate schedules per fuzz cell (default 8, "
                            "smoke 3)")
    races.add_argument("--smoke", action="store_true",
                       help="reduced CI matrix: net workload, seed 1")
    races.add_argument("--json", action="store_true",
                       help="emit the full JSON report")

    audit = sub.add_parser(
        "audit", help="run an epoch loop with runtime invariant auditing"
    )
    audit.add_argument("workload", nargs="?", default="net")
    audit.add_argument("--run-ms", type=int, default=600)

    fleet = sub.add_parser(
        "fleet",
        help="cluster orchestration: the acceptance campaign",
    )
    fleet.add_argument("action", choices=("campaign",))
    fleet.add_argument("--smoke", action="store_true",
                       help="reduced variant of the campaign")
    fleet.add_argument("--json", action="store_true",
                       help="campaign: emit the full JSON report")

    traffic = sub.add_parser(
        "traffic",
        help="L7 traffic tier: open-loop SLO campaign",
    )
    traffic.add_argument("action", choices=("campaign", "profiles"))
    traffic.add_argument("--smoke", action="store_true",
                         help="reduced CI variant of campaign/profiles")
    traffic.add_argument("--json", action="store_true",
                         help="campaign: emit the full JSON report")

    modes = sub.add_parser(
        "modes", help="replication strategies: registry listing",
    )
    modes.add_argument("action", choices=("list",))

    paper = sub.add_parser(
        "paper", help="paper gate: every table/figure's cells and shape "
                      "claims, or one artifact's table",
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
    "validate": _cmd_validate,
    "failover": _cmd_failover,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "ckptcov": _cmd_ckptcov,
    "perf": _cmd_perf,
    "ndflow": _cmd_ndflow,
    "ftcov": _cmd_ftcov,
    "analyze": _cmd_analyze,
    "races": _cmd_races,
    "audit": _cmd_audit,
    "fleet": _cmd_fleet,
    "traffic": _cmd_traffic,
    "modes": _cmd_modes,
    "paper": _cmd_paper,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
