"""Command-line interface: run benchmarks and regenerate paper artifacts.

Examples::

    python -m repro list-workloads
    python -m repro bench redis --mode nilicon --duration-ms 2000
    python -m repro table 1            # Table I ... Table VI
    python -m repro fig3
    python -m repro validate --runs 5 --workload redis --workload disk-rw
    python -m repro scalability threads
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


def _cmd_table(args) -> int:
    import importlib

    n = args.number
    if not 1 <= n <= 6:
        print(f"no such table: {n} (have 1-6)", file=sys.stderr)
        return 2
    table = importlib.import_module(f"repro.experiments.table{n}")
    print(table.format_rows(getattr(table, f"run_table{n}")(seed=args.seed)))
    return 0


def _cmd_fig3(args) -> int:
    from repro.experiments.fig3 import format_rows, run_fig3

    print(format_rows(run_fig3(seed=args.seed)))
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


def _cmd_scalability(args) -> int:
    from repro.experiments.scalability import (
        format_sweep,
        run_client_sweep,
        run_process_sweep,
        run_thread_sweep,
    )

    if args.dimension == "threads":
        print(format_sweep(run_thread_sweep(seed=args.seed), "threads"))
    elif args.dimension == "clients":
        print(format_sweep(run_client_sweep(seed=args.seed), "clients"))
    else:
        print(format_sweep(run_process_sweep(seed=args.seed), "processes"))
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


def _cmd_report(args) -> int:
    """Regenerate the full evaluation as one markdown report."""
    from repro.experiments.fig3 import rows_from_suite as fig3_rows
    from repro.experiments.suite import run_suite
    from repro.experiments.table3 import rows_from_suite as t3_rows
    from repro.experiments.table4 import PERCENTILES
    from repro.experiments.table4 import rows_from_suite as t4_rows
    from repro.experiments.table5 import rows_from_suite as t5_rows
    from repro.metrics.report import fig3_ascii, markdown_table

    print("# NiLiCon reproduction — evaluation report\n")
    print("Running the seven-benchmark suite (stock / NiLiCon / MC)...\n")
    suite = run_suite(duration_us=ms(args.duration_ms), seed=args.seed)

    print("## Figure 3 — performance overhead\n")
    rows = fig3_rows(suite)
    print("```\n" + fig3_ascii(rows) + "\n```\n")
    print(markdown_table(
        ["benchmark", "MC %", "MC paper", "NiLiCon %", "NiLiCon paper"],
        [[r["benchmark"], r["mc_overhead_pct"], r["mc_paper_pct"],
          r["nilicon_overhead_pct"], r["nilicon_paper_pct"]] for r in rows],
    ))

    print("\n## Table III — stop time & dirty pages per epoch\n")
    rows = t3_rows(suite)
    print(markdown_table(
        ["benchmark", "MC stop ms", "NiLiCon stop ms", "MC dpages", "NiLiCon dpages"],
        [[r["benchmark"], r["mc_stop_ms"], r["nilicon_stop_ms"],
          int(r["mc_dpages"]), int(r["nilicon_dpages"])] for r in rows],
    ))

    print("\n## Table IV — stop/state percentiles (NiLiCon)\n")
    rows = t4_rows(suite)
    print(markdown_table(
        ["benchmark"] + [f"stop P{p} ms" for p in PERCENTILES]
        + [f"state P{p} MB" for p in PERCENTILES],
        [[r["benchmark"], *r["stop_ms"], *r["state_mb"]] for r in rows],
    ))

    print("\n## Table V — core utilization\n")
    rows = t5_rows(suite)
    print(markdown_table(
        ["benchmark", "active", "backup"],
        [[r["benchmark"], r["active_cores"], r["backup_cores"]] for r in rows],
    ))

    print("\n## Fleet — smoke campaign (12 members, 6 hosts, "
          "sequential + concurrent host loss)\n")
    from repro.experiments.fleet import run_fleet_campaign

    fleet_report = run_fleet_campaign(seed=args.seed, smoke=True)
    print(fleet_report["table"])
    verdict = ("all oracles held; replay digest identical"
               if fleet_report["ok"]
               else f"{len(fleet_report['violations'])} violation(s)")
    print(f"\ncampaign: {verdict}")

    print("\n## Traffic — client-visible SLOs behind the L7 proxy\n")
    from repro.experiments.traffic import run_traffic_campaign

    # Full scale on purpose: the open-loop steady profile must sustain
    # >=1000 concurrent sessions for the tail to be representative.
    traffic_report = run_traffic_campaign(seed=args.seed, smoke=False)
    print(
        f"Open-loop traffic against "
        f"{traffic_report['fleet']['containers']} members on "
        f"{traffic_report['fleet']['hosts']} hosts; peak "
        f"{traffic_report['peak_sessions']} concurrent sessions.\n"
    )
    print(traffic_report["table"])
    traffic_verdict = (
        f"all oracles held; SLO table replay-identical "
        f"(digest {traffic_report['slo_digest']})"
        if traffic_report["ok"]
        else f"{len(traffic_report['violations'])} violation(s)"
    )
    print(f"\ntraffic: {traffic_verdict}")

    print("\n## Modes — overhead vs recovery latency (HyCoR vs NiLiCon)\n")
    from repro.experiments.hycor import run_mode_comparison

    modes_report = run_mode_comparison(smoke=True, seed=args.seed)
    print(markdown_table(
        ["workload", "NiLiCon %", "HyCoR %", "reduction (points)"],
        [[r["workload"], r["nilicon_overhead_pct"], r["hycor_overhead_pct"],
          r["reduction_pct"]] for r in modes_report["rows"]],
    ))
    print("\nRecovery breakdown (ms); `replay` is HyCoR's log-tail replay,"
          " zero by construction under NiLiCon:\n")
    print(markdown_table(
        ["cell", "detection", "restore", "replay", "total"],
        [[key, c["detection_us"] / 1000, c["restore_us"] / 1000,
          c["replay_us"] / 1000, c["total_us"] / 1000]
         for key, c in sorted(modes_report["recovery_by_cell"].items())],
    ))
    modes_verdict = (
        "output released on log-commit beats checkpoint-commit on every "
        "server workload; the cost is the replayed log tail at recovery"
        if modes_report["ok"]
        else f"{len(modes_report['problems'])} problem(s)"
    )
    print(f"\nmodes: {modes_verdict}")
    return 0 if (fleet_report["ok"] and traffic_report["ok"]
                 and modes_report["ok"]) else 1


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
    return _report_findings(findings, args, args.format == "json", "repro lint")


def _report_findings(findings, args, as_json, prog) -> int:
    """Print *findings* and return the exit status: through the
    ``--baseline`` gate when one is given, else plain — warnings (the
    heuristic rules) report without failing the build; only
    error-severity findings gate CI."""
    from repro.analysis.report import render_json, render_text

    render = render_json if as_json else render_text
    if args.baseline is None:
        print(render(findings))
        return 1 if any(f.severity == "error" for f in findings) else 0
    return _baseline_gate(
        findings, args.baseline, args.update_baseline, render, prog
    )


def _print_selfcheck(problems, dispositions, name, accounted) -> int:
    """Print a selfcheck's dispositions table and verdict; exit status."""
    width = max((len(item) for item in dispositions), default=0)
    for item in sorted(dispositions):
        print(f"  {item:<{width}}  {dispositions[item]}")
    if problems:
        print(f"{name} self-check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"{name} self-check: {len(dispositions)} {accounted} accounted for.")
    return 0


def _selfcheck_failed(selfcheck, command) -> bool:
    """Run *selfcheck* ahead of a lint: an unaccounted site would silently
    shrink the audited surface, so any problem fails the lint.  *command*
    is the ``repro`` command that prints the full dispositions table."""
    problems, _ = selfcheck()
    if problems:
        name = command.split()[0]
        print(f"{name} self-check FAILED (run `repro {command}`):")
        for problem in problems:
            print(f"  - {problem}")
    return bool(problems)


def _baseline_gate(findings, baseline_file, update, render, prog) -> int:
    """Shared --baseline semantics for every finding-producing command.

    Errors always gate and are never baselined; warnings partition into
    new (fail) / baselined (report, pass) / stale entries (report, pass).
    """
    from repro.analysis.baseline import (
        BaselineError,
        apply_baseline,
        load_baseline,
        write_baseline,
    )

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity != "error"]
    if update:
        entries = write_baseline(baseline_file, warnings)
        print(
            f"{prog}: froze {len(warnings)} warning(s) "
            f"({len(entries)} fingerprint(s)) into {baseline_file}"
        )
        if errors:
            print(render(errors))
            print(f"{prog}: {len(errors)} error(s) cannot be baselined")
        return 1 if errors else 0
    try:
        baseline = load_baseline(baseline_file)
    except BaselineError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2
    part = apply_baseline(warnings, baseline)
    gating = errors + part.new
    print(render(gating))
    if part.new:
        print(f"{prog}: {len(part.new)} new finding(s) not in {baseline_file}")
    if part.baselined:
        print(f"{prog}: {len(part.baselined)} known finding(s) baselined "
              f"by {baseline_file}")
    for fp, unused in part.stale:
        print(f"{prog}: stale baseline entry (fixed? run --update-baseline): "
              f"{fp} (x{unused})")
    return 1 if gating else 0


def _cmd_ckptcov(args) -> int:
    """Checkpoint state-coverage analyzer (static CKPT1xx + oracle)."""
    import json

    from repro.analysis.coverage import analyze_coverage, inventory_selfcheck

    if args.check_inventory:
        return _print_selfcheck(*inventory_selfcheck(), "inventory", "class(es)")

    # An unaccounted class would silently drop out of the static pass.
    if _selfcheck_failed(inventory_selfcheck, "ckptcov --check-inventory"):
        return 1
    try:
        report = analyze_coverage(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro ckptcov: {exc.args[0]}", file=sys.stderr)
        return 2

    status = _report_findings(report.findings, args, args.json, "repro ckptcov")
    if args.baseline is None:
        uncovered = sorted(report.uncovered())
        if uncovered:
            pairs = ", ".join(f"{c}.{f}" for c, f in uncovered)
            print(f"repro ckptcov: uncovered field(s): {pairs}")

    if args.diff and not args.update_baseline:
        from repro.analysis.ckptdiff import ORACLE_WORKLOADS, run_oracle

        workloads = tuple(args.workload) if args.workload else ORACLE_WORKLOADS
        uncovered = report.uncovered()
        for name in workloads:
            result = run_oracle(
                name, seed=args.seed, static_uncovered=uncovered
            )
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
    """Hot-path performance analyzer: PERF lint / profile / bench."""
    import json

    from repro.analysis.perf import analyze_perf, perf_selfcheck

    if args.action == "selfcheck":
        return _print_selfcheck(*perf_selfcheck(), "perf",
                                "hot/exempt function(s)")

    if args.action == "bench":
        from repro.analysis.perfbench import run_perf_bench

        return _run_bench(run_perf_bench(smoke=args.smoke, seed=args.seed),
                          args)

    # lint and profile both need the static pass; the selfcheck gates both
    # (an unreachable root would silently shrink the linted surface).
    if _selfcheck_failed(perf_selfcheck, "perf selfcheck"):
        return 1
    try:
        report = analyze_perf(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro perf: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.action == "profile":
        from repro.analysis.perfbench import (
            crossref,
            run_profiled_deployment,
            work_counters,
        )

        run_ms = 400 if args.smoke else args.run_ms
        run = run_profiled_deployment(
            args.workload, run_ms=run_ms, seed=args.seed
        )
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

    # action == "lint"
    if args.hot:
        for fn in report.hot_functions:
            mark = " (annotated)" if fn.declared else ""
            print(f"  {fn.hotness:<9} {fn.path}:{fn.line} {fn.qualname}{mark}")
    return _report_findings(report.findings, args, args.json, "repro perf")


def _run_bench(report, args) -> int:
    """Print a bench report, write it with ``--out`` and gate it with
    ``--check`` against a checked-in BENCH file (one schema for all five
    benches).  Exit 1 when the report fails its own checks or the gate,
    2 when the ``--check`` file cannot be read."""
    import json

    from repro.metrics import benchfile

    name = report["bench"]
    print(json.dumps(report, indent=2, sort_keys=True) if args.json
          else benchfile.format(report))
    if args.out:
        benchfile.write(report, args.out)
        print(f"repro {name}: wrote {args.out}")
    if not args.check:
        return 0 if report["ok"] else 1
    try:
        baseline = benchfile.load(args.check)
    except (OSError, ValueError) as exc:
        print(f"repro {name}: cannot read {args.check}: {exc}", file=sys.stderr)
        return 2
    problems = benchfile.check(report, baseline)
    for problem in problems:
        print(f"repro {name}: REGRESSION: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{name} bench gate: within tolerance of {args.check}")
    return 0


def _cmd_ndflow(args) -> int:
    """Nondeterminism-provenance analyzer: NDF lint / NDLog record / replay."""
    import json

    from repro.analysis.ndflow import analyze_ndflow, ndflow_selfcheck

    if args.action == "selfcheck":
        return _print_selfcheck(*ndflow_selfcheck(), "ndflow",
                                "nondeterminism source(s)")

    if args.action in ("record", "replay"):
        from repro.analysis.ndreplay import (
            DEFAULT_SEEDS,
            DEFAULT_WORKLOADS,
            format_report,
            run_oracle,
            run_record,
        )

        if args.smoke:
            workloads, seeds = ("net",), (1, 2)
        else:
            workloads = tuple(args.workload) if args.workload else DEFAULT_WORKLOADS
            seeds = tuple(args.seeds) if args.seeds else DEFAULT_SEEDS
        if args.action == "record":
            report = run_record(workloads, seeds, run_ms=args.run_ms)
        else:
            report = run_oracle(workloads, seeds, run_ms=args.run_ms,
                                knob=args.knob)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report))
        # With --knob the polarity is already folded into ok: every cell
        # must have DIVERGED (the oracle proved it catches the regression).
        return 0 if report["ok"] else 1

    # action == "lint"
    if _selfcheck_failed(ndflow_selfcheck, "ndflow selfcheck"):
        return 1
    try:
        report = analyze_ndflow(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro ndflow: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.inventory:
        for src in report.inventory.sites:
            print(f"  {src.site_class or 'UNACCOUNTED':<11} {src.label}")
    return _report_findings(report.findings, args, args.json, "repro ndflow")


def _cmd_ftcov(args) -> int:
    """Recovery-path coverage analyzer: FTC lint / catalog coverage record."""
    import json

    from repro.analysis.ftcov import analyze_ftcov, ftcov_selfcheck

    if args.action == "selfcheck":
        return _print_selfcheck(*ftcov_selfcheck(), "ftcov",
                                "failure-surface site(s)")

    if args.action in ("record", "report"):
        from repro.analysis.ftreplay import format_report, run_ftcov_record

        try:
            report = run_ftcov_record(knob=args.knob)
        except KeyError as exc:
            print(f"repro ftcov: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report))
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"repro ftcov: wrote {args.json_out}")
        # With --knob the polarity is already folded into ok: the seeded
        # coverage gap must have been DETECTED.
        return 0 if report["ok"] else 1

    # action == "lint"
    if _selfcheck_failed(ftcov_selfcheck, "ftcov selfcheck"):
        return 1
    try:
        report = analyze_ftcov(select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"repro ftcov: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.inventory:
        for site in report.inventory.sites:
            print(f"  {site.site_class or 'UNACCOUNTED':<11} "
                  f"{site.path}:{site.line}  {site.label}")
    return _report_findings(report.findings, args, args.json, "repro ftcov")


def _cmd_analyze(args) -> int:
    """All six analyzer passes as one gate (see ``make analyze``)."""
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


def _cmd_faultcampaign(args) -> int:
    import json

    from repro.experiments.faultcampaign import format_campaign, run_phase_campaign
    from repro.faultinject import SCENARIOS, verify_hook_coverage

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"  {name:<36} {scenario.description}")
        return 0
    if args.check_points:
        import repro
        from pathlib import Path

        problems = verify_hook_coverage(Path(repro.__file__).resolve().parent)
        for problem in problems:
            print(f"  - {problem}")
        if not problems:
            print("every declared fault point is reachable from a hook site")
        return 1 if problems else 0

    kwargs = {}
    if args.workload:
        kwargs["workloads"] = args.workload
    if args.scenario:
        unknown = [s for s in args.scenario if s not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        kwargs["scenarios"] = args.scenario
    if args.seeds:
        kwargs["seeds"] = tuple(args.seeds)
    report = run_phase_campaign(smoke=args.smoke, **kwargs)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_campaign(report))
    return 0 if report["ok"] else 1


def _cmd_fleet(args) -> int:
    """Cluster orchestration: scenarios, the acceptance campaign, benches."""
    import json

    from repro.experiments.fleet import (
        format_campaign,
        run_fleet_bench,
        run_fleet_campaign,
    )
    from repro.fleet import FLEET_SCENARIOS, run_fleet_scenario

    if args.action == "list":
        for name, scenario in FLEET_SCENARIOS.items():
            print(f"  {name:<36} {scenario.description.splitlines()[0]}")
        return 0

    if args.action == "scenario":
        names = tuple(args.scenario) if args.scenario else tuple(FLEET_SCENARIOS)
        unknown = [n for n in names if n not in FLEET_SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        failed = False
        for name in names:
            result = run_fleet_scenario(name, seed=args.seed)
            verdict = "ok" if result.ok else "FAILED"
            print(f"  {name:<36} {verdict}  "
                  f"({result.completed} requests validated)")
            for violation in result.violations:
                print(f"    - {violation}")
            failed = failed or not result.ok
        return 1 if failed else 0

    if args.action == "campaign":
        report = run_fleet_campaign(seed=args.seed, smoke=args.smoke)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_campaign(report))
        return 0 if report["ok"] else 1

    # action == "bench"
    return _run_bench(run_fleet_bench(seed=args.seed, smoke=args.smoke), args)


def _cmd_traffic(args) -> int:
    """L7 traffic tier: open-loop SLO campaign, profiles, latency bench."""
    import json

    from repro.experiments.traffic import (
        format_traffic_campaign,
        run_traffic_bench,
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

    if args.action == "campaign":
        report = run_traffic_campaign(seed=args.seed, smoke=args.smoke)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_traffic_campaign(report))
        return 0 if report["ok"] else 1

    # action == "bench"
    return _run_bench(run_traffic_bench(seed=args.seed), args)


def _cmd_modes(_args) -> int:
    """Replication strategy registry: list the backends."""
    from repro.replication.modes import MODE_REGISTRY

    for name, mode in MODE_REGISTRY.items():
        pair = "pair" if mode.pair_protocol else "solo"
        print(f"  {name:<9} [{pair}] release: {mode.release_rule:<18} "
              f"{mode.description}")
    return 0


def _cmd_hycor(args) -> int:
    """HyCoR bench: the overhead-vs-recovery tradeoff comparison, its
    pinnable cells and the CI gate (the comparison runs once)."""
    from repro.experiments.hycor import (
        format_mode_comparison,
        run_hycor_bench,
        run_mode_comparison,
    )

    report = run_mode_comparison(smoke=args.smoke, seed=args.seed)
    if not args.json:
        print(format_mode_comparison(report) + "\n")
    return _run_bench(run_hycor_bench(report), args)


def _cmd_paper(args) -> int:
    """Paper gate: run every table/figure once, print its tables, then
    gate its cells and shape clauses against BENCH_paper.json."""
    from repro.experiments.paper import format_paper, run_paper, run_paper_bench

    results = run_paper(smoke=args.smoke, seed=args.seed)
    if not args.json:
        print(format_paper(results) + "\n")
    return _run_bench(run_paper_bench(results, args.smoke, args.seed), args)


def _add_finding_options(parser, family: str, debt: str) -> None:
    """The rule-selection, baseline and output options every analyzer
    subcommand shares (``repro <name> ... --baseline <name>-baseline.json``)."""
    name = parser.prog.rsplit(" ", 1)[-1]
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help=f"emit only these {family} rule IDs (repeatable)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE",
                        help=f"skip these {family} rule IDs (repeatable)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help=f"{debt} baseline (see {name}-baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline FILE from current warnings")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")


def _add_bench_options(parser) -> None:
    """The output and gate options every ``<name> bench`` shares."""
    parser.add_argument("--json", action="store_true",
                        help="emit the full JSON report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="bench: also write the report here "
                             "(e.g. BENCH_<name>.json)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="bench: gate against a checked-in BENCH file "
                             "(fail when a gated metric moves more than 20%% "
                             "the wrong way)")


def build_parser() -> argparse.ArgumentParser:
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

    table = sub.add_parser("table", help="regenerate a paper table (1-6)")
    table.add_argument("number", type=int)

    sub.add_parser("fig3", help="regenerate Figure 3 (overhead comparison)")

    validate = sub.add_parser("validate", help="run the fault-injection campaign")
    validate.add_argument("--runs", type=int, default=5)
    validate.add_argument("--workload", action="append", default=None)

    scal = sub.add_parser("scalability", help="run a SSVII-C sweep")
    scal.add_argument("dimension", choices=("threads", "clients", "processes"))

    failover = sub.add_parser("failover", help="one verbose fault injection")
    failover.add_argument("workload")
    failover.add_argument("--run-s", type=int, default=3)

    report = sub.add_parser("report", help="full evaluation as a markdown report")
    report.add_argument("--duration-ms", type=int, default=2000)

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
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", action="append", default=None, metavar="RULE",
                      help="run only these rule IDs (repeatable)")
    lint.add_argument("--ignore", action="append", default=None, metavar="RULE",
                      help="skip these rule IDs (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="freeze known warnings: new ones gate CI, "
                           "baselined ones report without failing")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline FILE from current warnings")

    ckptcov = sub.add_parser(
        "ckptcov",
        help="checkpoint state-coverage analyzer (CKPT1xx + "
             "checkpoint/restore differential oracle)",
    )
    _add_finding_options(ckptcov, "CKPT", "known-gap")
    ckptcov.add_argument("--diff", action="store_true",
                         help="also run the checkpoint->restore->deep-compare "
                              "differential oracle on live workloads")
    ckptcov.add_argument("--workload", action="append", default=None,
                         help="oracle workload(s) (repeatable; default: one "
                              "per workload family)")
    ckptcov.add_argument("--seed", type=int, default=1)
    ckptcov.add_argument("--check-inventory", action="store_true",
                         help="print how the inventory accounts for every "
                              "kernel/net class and exit (every other run "
                              "gates on the same check)")

    perf = sub.add_parser(
        "perf",
        help="hot-path performance analyzer: PERF lint rules, deterministic "
             "DES profiler, engine work-counter gate",
        # --json comes from both option helpers; they define it alike.
        conflict_handler="resolve",
    )
    perf.add_argument("action", nargs="?", default="lint",
                      choices=("lint", "profile", "bench", "selfcheck"))
    _add_finding_options(perf, "PERF", "known-debt")
    perf.add_argument("--hot", action="store_true",
                      help="lint: also print the hot-function classification")
    perf.add_argument("--workload", default="net",
                      help="profile: catalog workload to run (default: net)")
    perf.add_argument("--run-ms", type=int, default=800,
                      help="profile: simulated run length")
    perf.add_argument("--smoke", action="store_true",
                      help="reduced CI variant of profile/bench")
    _add_bench_options(perf)
    perf.add_argument("--seed", type=int, default=1)

    ndflow = sub.add_parser(
        "ndflow",
        help="nondeterminism-provenance analyzer: NDF taint rules, NDLog "
             "record mode, record->replay differential oracle",
    )
    ndflow.add_argument("action", nargs="?", default="lint",
                        choices=("lint", "record", "replay", "selfcheck"))
    _add_finding_options(ndflow, "NDF", "known-finding")
    ndflow.add_argument("--inventory", action="store_true",
                        help="lint: also print the classified nondeterminism"
                             "-source inventory")
    ndflow.add_argument("--workload", action="append", default=None,
                        help="record/replay: catalog workload(s) (repeatable; "
                             "default: net, disk-rw)")
    ndflow.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="record/replay: seeds (default: 1 2)")
    ndflow.add_argument("--run-ms", type=int, default=600,
                        help="record/replay: simulated run length per cell")
    ndflow.add_argument("--knob", choices=("unsafe-unlogged-draw",),
                        default=None,
                        help="replay: re-enable an unlogged draw; exit 0 iff "
                             "every cell diverges")
    ndflow.add_argument("--smoke", action="store_true",
                        help="reduced CI matrix: net workload, seeds 1 2")

    ftcov = sub.add_parser(
        "ftcov",
        help="recovery-path coverage analyzer: FTC lint rules plus a "
             "catalog coverage recorder crossed against the static "
             "failure-surface inventory",
    )
    ftcov.add_argument("action", nargs="?", default="lint",
                       choices=("lint", "record", "report", "selfcheck"))
    _add_finding_options(ftcov, "FTC", "known-finding")
    ftcov.add_argument("--inventory", action="store_true",
                       help="lint: also print the classified failure-surface "
                            "inventory")
    ftcov.add_argument("--knob", choices=("drop-scenario",), default=None,
                       help="record: drop UNSAFE_DROP_SCENARIO from the "
                            "catalog; exit 0 iff the coverage gap is caught")
    ftcov.add_argument("--json-out", default=None, metavar="FILE",
                       help="record: also write the coverage matrix here")

    analyze = sub.add_parser(
        "analyze",
        help="run all six analyzer passes (nlint, races, ckptcov, perf, "
             "ndflow, ftcov) as one gate",
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

    campaign = sub.add_parser(
        "faultcampaign",
        help="protocol-phase fault matrix: scenario x workload x seed",
    )
    campaign.add_argument("--smoke", action="store_true",
                          help="reduced CI matrix: one workload, 3 seeds")
    campaign.add_argument("--workload", action="append", default=None,
                          help="workload(s) to sweep (repeatable)")
    campaign.add_argument("--scenario", action="append", default=None,
                          help="scenario(s) to run (repeatable; see --list)")
    campaign.add_argument("--seeds", type=int, nargs="+", default=None)
    campaign.add_argument("--json", action="store_true",
                          help="emit the full JSON report")
    campaign.add_argument("--list", action="store_true",
                          help="list the scenario catalog and exit")
    campaign.add_argument("--check-points", action="store_true",
                          help="verify every declared fault point has a hook")

    fleet = sub.add_parser(
        "fleet",
        help="cluster orchestration: scenarios, acceptance campaign, benches",
    )
    fleet.add_argument("action",
                       choices=("campaign", "bench", "scenario", "list"))
    fleet.add_argument("--scenario", action="append", default=None,
                       help="fleet scenario(s) to run (repeatable; "
                            "default: all — see `fleet list`)")
    fleet.add_argument("--smoke", action="store_true",
                       help="reduced CI variant of campaign/bench")
    _add_bench_options(fleet)

    traffic = sub.add_parser(
        "traffic",
        help="L7 traffic tier: open-loop SLO campaign and latency bench",
    )
    traffic.add_argument("action",
                         choices=("campaign", "bench", "profiles"))
    traffic.add_argument("--smoke", action="store_true",
                         help="reduced CI variant of campaign/profiles")
    _add_bench_options(traffic)

    modes = sub.add_parser(
        "modes", help="replication strategies: registry listing",
    )
    modes.add_argument("action", choices=("list",))

    for name, help_ in (
        ("hycor", "HyCoR bench: overhead-vs-recovery tradeoff comparison, its "
                  "cells + CI gate"),
        ("paper", "paper gate: every table/figure's cells and shape claims"),
    ):
        gate = sub.add_parser(name, help=help_)
        gate.add_argument("action", choices=("bench",))
        gate.add_argument("--smoke", action="store_true",
                          help="bench only the CI subset (cells are "
                               "identical to the same cells of a full run)")
        _add_bench_options(gate)

    return parser


_COMMANDS = {
    "list-workloads": _cmd_list_workloads,
    "bench": _cmd_bench,
    "table": _cmd_table,
    "fig3": _cmd_fig3,
    "validate": _cmd_validate,
    "scalability": _cmd_scalability,
    "failover": _cmd_failover,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "ckptcov": _cmd_ckptcov,
    "perf": _cmd_perf,
    "ndflow": _cmd_ndflow,
    "ftcov": _cmd_ftcov,
    "analyze": _cmd_analyze,
    "races": _cmd_races,
    "audit": _cmd_audit,
    "faultcampaign": _cmd_faultcampaign,
    "fleet": _cmd_fleet,
    "traffic": _cmd_traffic,
    "modes": _cmd_modes,
    "hycor": _cmd_hycor,
    "paper": _cmd_paper,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
