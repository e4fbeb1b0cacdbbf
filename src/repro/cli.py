"""Command-line interface.

``confbench`` drives the tool from a shell:

- ``confbench platforms`` — list configured execution platforms
- ``confbench invoke -f cpustress -l python -p tdx [--normal]`` — run
  a function and print per-trial times + perf metrics
- ``confbench compare -f iostress -l lua -p tdx`` — secure/normal ratio
- ``confbench serve --port 8080`` — start the REST gateway
- ``confbench experiment fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|dbms`` —
  regenerate a paper artifact and print it
- ``confbench profile -f cpustress -l python -p tdx`` — run one
  fig6-style cell and print the virtual-time attribution (per
  CostCategory; totals the run ledger), or flamegraph collapsed stacks
- ``confbench trace export -f cpustress -l python`` — export the
  cell's span trees as Chrome trace-event JSON (Perfetto-loadable),
  JSONL span records, or collapsed stacks
- ``confbench lint [paths...]`` — static analysis enforcing the
  simulation contract (determinism, layering, trial purity, hot path,
  taint, lock discipline)

Exit-code convention, shared by every subcommand: ``0`` success /
clean, ``1`` findings or a failed check (including any
:class:`~repro.errors.ConfBenchError`), ``2`` usage error (bad flags,
missing paths — argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfBenchError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confbench",
        description="Easy evaluation of confidential virtual machines "
                    "(TDX / SEV-SNP / CCA, simulated substrates).",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("platforms", help="list execution platforms")
    commands.add_parser("workloads", help="list available FaaS workloads")

    invoke = commands.add_parser("invoke", help="run one function")
    invoke.add_argument("-f", "--function", required=True)
    invoke.add_argument("-l", "--language", required=True)
    invoke.add_argument("-p", "--platform", default="tdx")
    invoke.add_argument("--normal", action="store_true",
                        help="use the non-confidential VM")
    invoke.add_argument("-t", "--trials", type=int, default=3)
    invoke.add_argument("--args", type=json.loads, default={},
                        help="JSON dict of function arguments")

    compare = commands.add_parser("compare",
                                  help="secure/normal overhead ratio")
    compare.add_argument("-f", "--function", required=True)
    compare.add_argument("-l", "--language", required=True)
    compare.add_argument("-p", "--platform", default="tdx")
    compare.add_argument("-t", "--trials", type=int, default=10)
    compare.add_argument("--args", type=json.loads, default={})
    compare.add_argument("--save", metavar="FILE",
                         help="append the trial records to a JSONL archive")
    compare.add_argument("--label", default="run",
                         help="label for the archived run (default: run)")
    compare.set_defaults(subparser=compare)

    diff = commands.add_parser("diff",
                               help="compare two archived runs' ratios")
    diff.add_argument("archive", help="JSONL archive written by --save")
    diff.add_argument("before", help="label of the baseline run")
    diff.add_argument("after", help="label of the new run")

    serve = commands.add_parser("serve", help="start the REST gateway")
    serve.add_argument("--port", type=int, default=8080)

    experiment = commands.add_parser("experiment",
                                     help="regenerate a paper artifact")
    experiment.add_argument("name", choices=(
        "fig3", "fig4", "fig5", "fig5x", "fig6", "fig7", "fig8", "fig9",
        "fig10",
        "dbms",
        "all",
    ))
    experiment.add_argument("--quick", action="store_true",
                            help="reduced grid for a fast look")
    experiment.add_argument("-j", "--jobs", type=int, default=1,
                            help="worker processes for trial execution "
                                 "(default 1 = serial; results are "
                                 "bit-identical either way)")
    experiment.add_argument("-t", "--trials", type=int, default=None,
                            help="override the artifact's trial count")
    experiment.add_argument("--resume", "--cache", metavar="FILE",
                            help="durable trial journal keyed by trial spec "
                                 "hash: completed trials are appended as "
                                 "they finish and replayed on re-run, so a "
                                 "repeated or killed sweep executes only "
                                 "the missing trials (results bit-identical "
                                 "to an uninterrupted run); a file that is "
                                 "not a journal is refused")
    experiment.add_argument("--trial-budget", type=float, default=None,
                            metavar="NS",
                            help="virtual-time watchdog: degrade any trial "
                                 "whose total simulated time exceeds this "
                                 "many nanoseconds")
    experiment.add_argument("--watchdog", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock heartbeat for --jobs N: "
                                 "respawn the worker pool when no trial "
                                 "completes within this many seconds")
    experiment.add_argument("--trace-out", metavar="FILE",
                            help="dump every trial's span trace as JSON")
    experiment.add_argument("--metrics-out", metavar="FILE",
                            help="write the runner's metrics-registry "
                                 "snapshot as canonical JSON (byte-identical "
                                 "between serial and --jobs N runs)")
    experiment.add_argument("--chrome-trace", metavar="FILE",
                            help="export every trial's span tree as Chrome "
                                 "trace-event JSON (chrome://tracing / "
                                 "Perfetto)")
    experiment.add_argument("--faults", metavar="SPEC",
                            help="seeded fault injection, e.g. "
                                 "'vm-crash=0.05,pcs-timeout=0.1,seed=7'; "
                                 "kinds: vm-crash, slow-trial, "
                                 "attest-transient, pcs-timeout, relay-drop "
                                 "(plus seed= and slow-factor=)")
    experiment.set_defaults(subparser=experiment)

    def add_cell_options(sub) -> None:
        """The fig6-style single-cell options ``profile`` and ``trace
        export`` share: one (workload, language, platform) cell, both
        secure and normal sides, N matched trials."""
        sub.add_argument("-f", "--function", default="cpustress",
                         help="FaaS workload name (default cpustress)")
        sub.add_argument("-l", "--language", default="python",
                         help="language runtime (default python)")
        sub.add_argument("-p", "--platform", default="tdx")
        sub.add_argument("-t", "--trials", type=int, default=3)
        sub.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes (output is bit-identical "
                              "to a serial run)")
        sub.add_argument("--out", metavar="FILE",
                         help="write the report here instead of stdout")
        sub.add_argument("--metrics-out", metavar="FILE",
                         help="also write the metrics-registry snapshot "
                              "as canonical JSON")

    profile = commands.add_parser(
        "profile",
        help="virtual-time profile of one workload cell",
        description="Run one fig6-style cell (secure + normal, matched "
                    "trials) and fold its span trees into a per-"
                    "CostCategory attribution table — whose TOTAL equals "
                    "the runs' ledger total — or flamegraph collapsed "
                    "stacks.")
    add_cell_options(profile)
    profile.add_argument("--format", choices=("text", "json", "chrome",
                                              "collapsed"),
                         default="text",
                         help="text = attribution table, json = full "
                              "profile, chrome = trace-event JSON, "
                              "collapsed = flamegraph stacks")
    profile.set_defaults(subparser=profile)

    trace = commands.add_parser(
        "trace", help="span-trace tooling")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="export one cell's span trees",
        description="Run one fig6-style cell and export its span trees; "
                    "chrome output loads in chrome://tracing and Perfetto.")
    add_cell_options(trace_export)
    trace_export.add_argument("--format", choices=("text", "json", "chrome",
                                                   "collapsed"),
                              default="chrome",
                              help="chrome = trace-event JSON (default), "
                                   "json = span records (JSONL), text = "
                                   "readable span listing, collapsed = "
                                   "flamegraph stacks")
    trace_export.set_defaults(subparser=trace_export)

    lint = commands.add_parser(
        "lint",
        help="static analysis: determinism, layering, trial purity, "
             "hot path, taint, lock discipline",
        description="Run the AST-based contract checks over the source "
                    "tree; exits 0 when clean (against the baseline, if "
                    "given), 1 on findings, 2 on usage errors.")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default text); sarif emits "
                           "SARIF 2.1.0 for CI code-scanning upload")
    lint.add_argument("--baseline", metavar="FILE",
                      help="JSON baseline of grandfathered findings; "
                           "only new findings fail the run")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="write the current findings out as a baseline "
                           "and exit 0")
    lint.add_argument("--rules", metavar="LIST",
                      help="comma-separated pass subset: determinism, "
                           "layering, purity, hotpath, taint, lock "
                           "(default: all)")
    lint.add_argument("--cache", metavar="FILE", dest="lint_cache",
                      help="analysis cache keyed by content hashes "
                           "(per file; per tree for layering, purity and "
                           "taint); safe to delete at any time")
    lint.set_defaults(subparser=lint)
    return parser


def _cmd_platforms(args) -> int:
    from repro.core.api import ConfBench

    bench = ConfBench(seed=args.seed)
    for info in bench.platforms():
        simulated = " (simulated)" if info["is_simulated"] else ""
        attest = "attestation" if info["supports_attestation"] else "no attestation"
        print(f"{info['name']:8s} {info['display_name']:16s}{simulated} "
              f"host={info['host']} ports={info['ports']} [{attest}]")
    return 0


def _cmd_workloads(args) -> int:
    from repro.workloads.faas import all_workloads

    for workload in all_workloads():
        print(f"{workload.name:14s} [{workload.trait.value:6s}] "
              f"{workload.description}  ({workload.origin})")
    return 0


def _cmd_invoke(args) -> int:
    from repro.core.api import ConfBench

    bench = ConfBench(seed=args.seed)
    bench.upload(args.function)
    records = bench.invoke(
        args.function, args.language, platform=args.platform,
        secure=not args.normal, args=args.args, trials=args.trials,
    )
    for record in records:
        print(f"trial {record.trial}: {record.elapsed_ns / 1e6:10.3f} ms  "
              f"instructions={record.perf.get('instructions', 'n/a')}")
    print(json.dumps(records[0].output, indent=2, default=str))
    return 0


def _cmd_compare(args) -> int:
    from repro.core.api import ConfBench

    _writable_file_arg(args, args.save, "--save")
    store = None
    if args.save:
        from repro.core.resultstore import ResultStore

        store = ResultStore(args.save)
        store.check()   # a foreign file fails before any trial runs
    bench = ConfBench(seed=args.seed)
    bench.upload(args.function)
    secure = bench.invoke(args.function, args.language,
                          platform=args.platform, secure=True,
                          args=args.args, trials=args.trials)
    normal = bench.invoke(args.function, args.language,
                          platform=args.platform, secure=False,
                          args=args.args, trials=args.trials)
    from repro.core.results import summarize_ratio

    summary = summarize_ratio(secure, normal)
    print(f"{args.function} / {args.language} on {args.platform}:")
    print(f"  secure mean : {summary.secure_mean_ns / 1e6:10.3f} ms")
    print(f"  normal mean : {summary.normal_mean_ns / 1e6:10.3f} ms")
    print(f"  ratio       : {summary.ratio:10.3f} "
          f"({summary.overhead_percent:+.1f}% overhead)")
    if store is not None:
        store.save(args.label, args.seed, secure + normal)
        print(f"  archived    : {len(secure) + len(normal)} records -> "
              f"{args.save} (label {args.label!r})")
    return 0


def _cmd_diff(args) -> int:
    from repro.core.resultstore import ResultStore, compare_runs, find_run

    runs = ResultStore(args.archive).load()
    drift = compare_runs(find_run(runs, args.before),
                         find_run(runs, args.after))
    print(f"ratio drift {args.before!r} -> {args.after!r}:")
    for (function, language, platform), entry in drift.items():
        print(f"  {function}/{language or 'native'} on {platform}: "
              f"{entry['before']:.3f} -> {entry['after']:.3f} "
              f"({entry['drift_percent']:+.1f}%)")
    return 0


def _cmd_serve(args) -> int:
    from repro.core.api import ConfBench
    from repro.core.rest import RestServer

    bench = ConfBench(seed=args.seed)
    server = RestServer(bench.gateway, port=args.port)
    print(f"ConfBench gateway on http://127.0.0.1:{server.port} "
          "(Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


def _writable_file_arg(args, value: str | None, flag: str) -> None:
    """Usage-error (exit 2) unless ``value``'s parent dir exists."""
    if value is None:
        return
    parent = Path(value).resolve().parent
    if not parent.is_dir():
        args.subparser.error(
            f"argument {flag}: directory does not exist: {parent}")
    if Path(value).is_dir():
        args.subparser.error(f"argument {flag}: is a directory: {value}")


def _run_cell(args):
    """Run one fig6-style cell; returns the runner holding its history.

    The plan is the standard matrix for a single (platform, workload,
    runtime) combination — secure and normal sides, matched trials —
    executed serially or with ``--jobs N`` (bit-identical either way).
    """
    from repro.core.runner import TrialPlan, TrialRunner

    if args.trials < 1:
        args.subparser.error(
            f"argument -t/--trials: must be >= 1, got {args.trials}")
    if args.jobs < 1:
        args.subparser.error(
            f"argument -j/--jobs: must be >= 1, got {args.jobs}")
    runner = TrialRunner(jobs=args.jobs)
    plan = TrialPlan.matrix(
        kind="faas",
        platforms=(args.platform,),
        workloads=(args.function,),
        runtimes=(args.language,),
        trials=args.trials,
        seed=args.seed,
    )
    runner.run(plan)
    return runner


def _emit_report(args, text: str) -> None:
    """Write a report to ``--out`` (if given) or stdout, then the
    optional ``--metrics-out`` snapshot."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes -> {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_metrics(args, runner) -> None:
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(runner.metrics.to_json())
        print(f"wrote metrics snapshot -> {args.metrics_out}")


def _cmd_profile(args) -> int:
    from repro.obs.export import TraceExporter
    from repro.obs.profile import Profile

    _writable_file_arg(args, args.out, "--out")
    _writable_file_arg(args, args.metrics_out, "--metrics-out")
    runner = _run_cell(args)
    if args.format == "chrome":
        text = TraceExporter.from_history(runner.history).to_chrome_json()
    else:
        profile = Profile.from_history(runner.history)
        if args.format == "json":
            text = profile.to_json()
        elif args.format == "collapsed":
            text = profile.render_collapsed() + "\n"
        else:
            text = profile.render_table(
                f"{args.function}/{args.language} on {args.platform} — "
                f"virtual-time attribution over {profile.trials} trial(s)")
    _emit_report(args, text)
    _emit_metrics(args, runner)
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.export import TraceExporter
    from repro.obs.profile import Profile

    _writable_file_arg(args, args.out, "--out")
    _writable_file_arg(args, args.metrics_out, "--metrics-out")
    runner = _run_cell(args)
    exporter = TraceExporter.from_history(runner.history)
    if args.format == "chrome":
        text = exporter.to_chrome_json()
    elif args.format == "json":
        text = exporter.to_jsonl()
    elif args.format == "collapsed":
        text = Profile.from_history(runner.history).render_collapsed() + "\n"
    else:
        lines = [
            f"{record['trial']}: {record['name']} "
            f"[{record['start_ns']:.0f}..{record['end_ns']:.0f}] "
            f"parent={record['parent'] or '-'} "
            f"ledger={sum(record['breakdown'].values()):.0f}ns"
            for record in exporter.span_records()
        ]
        text = "\n".join(lines) + "\n"
    _emit_report(args, text)
    _emit_metrics(args, runner)
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import Baseline, run_lint
    from repro.analysis.engine import PASS_SCHEMA, RULE_REGISTRY

    if args.rules:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = [name for name in names if name not in RULE_REGISTRY]
        if unknown:
            args.subparser.error(
                f"argument --rules: unknown pass(es) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(RULE_REGISTRY))}")
        rules = [RULE_REGISTRY[name]() for name in names]
    else:
        rules = [cls() for cls in RULE_REGISTRY.values()]
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    for path in paths:
        if not path.exists():
            args.subparser.error(f"path does not exist: {path}")

    baseline = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            args.subparser.error(
                f"argument --baseline: no such file: {baseline_path}")
        baseline = Baseline.load(baseline_path)
    _writable_file_arg(args, args.write_baseline, "--write-baseline")
    _writable_file_arg(args, args.lint_cache, "--cache")

    report = run_lint(
        paths, rules=rules, baseline=baseline,
        cache_path=Path(args.lint_cache) if args.lint_cache else None)
    if args.write_baseline:
        full = report.findings + report.grandfathered
        Baseline.from_findings(full, passes=PASS_SCHEMA).save(
            Path(args.write_baseline))
        print(f"wrote baseline with {len(full)} finding(s) -> "
              f"{args.write_baseline}")
        return 0
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text())
    return report.exit_code


def _cmd_experiment(args) -> int:
    from repro import experiments
    from repro.core.runner import TrialRunner

    _writable_file_arg(args, args.trace_out, "--trace-out")
    _writable_file_arg(args, args.resume, "--resume/--cache")
    _writable_file_arg(args, args.metrics_out, "--metrics-out")
    _writable_file_arg(args, args.chrome_trace, "--chrome-trace")
    if args.trial_budget is not None and args.trial_budget <= 0:
        args.subparser.error(
            f"argument --trial-budget: must be > 0, got {args.trial_budget}")
    if args.watchdog is not None and args.watchdog <= 0:
        args.subparser.error(
            f"argument --watchdog: must be > 0, got {args.watchdog}")
    faults = None
    if args.faults:
        from repro.errors import SimulationError
        from repro.sim.faults import FaultPlan

        try:
            faults = FaultPlan.parse(args.faults)
        except SimulationError as exc:
            args.subparser.error(f"argument --faults: {exc}")
    journal = None
    if args.resume:
        from repro.core.journal import TrialJournal

        journal = TrialJournal(args.resume)
        if len(journal):
            print(f"resuming from {args.resume}: "
                  f"{len(journal)} journaled trial(s)")
    runner = TrialRunner(jobs=args.jobs, faults=faults, journal=journal,
                         budget_ns=args.trial_budget or 0.0,
                         watchdog_s=args.watchdog)

    def trials(default: int) -> int:
        return args.trials if args.trials is not None else default

    quick = args.quick
    small_workloads = ("cpustress", "memstress", "iostress", "logging",
                       "factors", "filesystem")
    small_langs = ("python", "lua", "go")
    if args.name in ("fig6", "fig7", "fig8"):
        # Only the FaaS figures load the workload and runtime registries.
        from repro.experiments.fig6_heatmap import (
            FIGURE_WORKLOAD_NAMES,
            RUNTIME_NAMES,
        )
    status = 0
    if args.name == "all":
        from repro.experiments.summary import run_evaluation

        summary = run_evaluation(seed=args.seed, quick=args.quick,
                                 runner=runner)
        print(summary.render())
        status = 0 if summary.all_hold else 1
    elif args.name == "fig3":
        result = experiments.run_fig3(
            seed=args.seed,
            image_count=10 if quick else 40,
            trials=trials(1 if quick else 3),
            runner=runner,
        )
        print(result.render())
    elif args.name == "fig4":
        result = experiments.run_fig4(seed=args.seed,
                                      trials=trials(3 if quick else 5),
                                      runner=runner)
        print(result.render())
    elif args.name == "fig5":
        result = experiments.run_fig5(seed=args.seed,
                                      trials=trials(3 if quick else 10),
                                      runner=runner)
        print(result.render())
    elif args.name == "fig5x":
        result = experiments.run_fig5_service(
            seed=args.seed,
            trials=trials(1 if quick else 3),
            runner=runner)
        print(result.render())
    elif args.name == "fig6":
        result = experiments.run_fig6(
            seed=args.seed,
            workloads=small_workloads if quick else
            FIGURE_WORKLOAD_NAMES,
            languages=small_langs if quick else
            RUNTIME_NAMES,
            trials=trials(3 if quick else 10),
            runner=runner,
        )
        print(result.render())
    elif args.name == "fig7":
        result = experiments.run_fig7(
            seed=args.seed,
            workloads=small_workloads if quick else
            FIGURE_WORKLOAD_NAMES,
            languages=small_langs if quick else
            RUNTIME_NAMES,
            trials=trials(3 if quick else 10),
            runner=runner,
        )
        print(result.render())
    elif args.name == "fig9":
        result = experiments.run_fig9(
            seed=args.seed,
            trials=trials(1),
            hosts=4 if quick else 8,
            requests=8_000 if quick else 120_000,
            rate_rps=1_400.0 if quick else 2_400.0,
            runner=runner,
        )
        print(result.render())
        status = 0 if result.conserved else 1
    elif args.name == "fig10":
        result = experiments.run_fig10(
            seed=args.seed,
            trials=trials(1),
            vms=2 if quick else 3,
            accesses=4 if quick else 6,
            runner=runner,
        )
        print(result.render())
        status = 0 if result.reconciled else 1
    elif args.name == "fig8":
        result = experiments.run_fig8(
            seed=args.seed,
            workloads=small_workloads if quick else
            FIGURE_WORKLOAD_NAMES,
            trials=trials(10),
            runner=runner,
        )
        print(result.render())
    else:
        result = experiments.run_dbms_table(
            seed=args.seed, size=20 if quick else 100,
            trials=trials(2 if quick else 3),
            runner=runner,
        )
        print(result.render())
    if args.trace_out:
        from repro.experiments.report import dump_traces

        count = dump_traces(runner.history, args.trace_out)
        print(f"wrote {count} trial traces -> {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(runner.metrics.to_json())
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    if args.chrome_trace:
        from repro.obs.export import TraceExporter

        count = TraceExporter.from_history(runner.history).write_chrome(
            args.chrome_trace)
        print(f"wrote {count} trace events -> {args.chrome_trace}")
    if journal is not None:
        print(f"journal: {journal.replayed} replayed, "
              f"{journal.recorded} recorded -> {args.resume}")
        journal.close()
    return status


_COMMANDS = {
    "platforms": _cmd_platforms,
    "workloads": _cmd_workloads,
    "invoke": _cmd_invoke,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "diff": _cmd_diff,
    "experiment": _cmd_experiment,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped through `head`); exit
        # quietly like any well-behaved unix tool
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
