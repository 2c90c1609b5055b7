"""Command-line interface: run SQL online over the bundled workloads.

Examples::

    python -m repro.cli --workload conviva --batches 20 \\
        "SELECT AVG(play_time) AS apt FROM sessions
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"

    python -m repro.cli --workload tpch --query Q17 --engine hda
    python -m repro.cli --workload tpch --list-queries

Observability: ``--trace-out run.jsonl`` streams the full span/metric
event log of an iolap run to a JSONL file, ``--converge`` prints a live
per-group estimate ± CI after every batch, and two subcommands consume
saved traces::

    python -m repro.cli trace run.jsonl -o trace.json   # open in Perfetto
    python -m repro.cli report run.jsonl                # offline analysis
    python -m repro.cli report run.jsonl --json         # pinned-schema JSON

Live telemetry (continuous profiler + predictive cost model)::

    python -m repro.cli --query Q1 --profile --profiles profiles.json
    python -m repro.cli metrics --query Q1 --listen :9110   # Prometheus
    python -m repro.cli metrics --query Q1 --metrics-textfile out.prom
    python -m repro.cli top --query Q1 --plain              # hot spots

The ``analyze`` subcommand runs the static analysis suite instead of
executing anything: the plan typechecker over named workload queries or
ad-hoc SQL, and (with ``--lint``) the engine-contract lint over the
installed ``repro`` sources::

    python -m repro.cli analyze                       # all bundled queries
    python -m repro.cli analyze --workload tpch --query Q17
    python -m repro.cli analyze --lint --json report.json
    python -m repro.cli analyze --races               # race detector
    python -m repro.cli analyze "SELECT COUNT(*) AS n FROM sessions"

Exit status is 1 if any analysis reported an error-severity violation;
warnings alone exit 0 unless ``--fail-on-warning`` promotes them (the CI
setting). ``--verify`` (run mode) enables the runtime contract checks on
top of normal execution; ``--sanitize`` (run mode) adds the TSan-style
buffer sanitizer over zero-copy batch views.

Output discipline: result rows (and the outputs of the ``trace`` /
``report`` / ``analyze`` subcommands) go to stdout; progress, warnings
and errors go through the ``iolap`` logger to stderr (``--log-level``,
``-q``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from repro.baselines import HDAExecutor, run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.values import UncertainValue
from repro.errors import ReproError
from repro.sql import plan_sql
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)

_WORKLOADS = {
    "tpch": (generate_tpch, TPCH_QUERIES, "lineorder"),
    "conviva": (generate_conviva, CONVIVA_QUERIES, "sessions"),
}

log = logging.getLogger("iolap")


class _LevelFormatter(logging.Formatter):
    """Bare messages at INFO and below; a level prefix above."""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        if record.levelno > logging.INFO:
            return f"{record.levelname.lower()}: {message}"
        return message


def _configure_logging(level: str) -> None:
    """(Re)wire the ``iolap`` logger to the *current* stderr.

    Handlers are rebuilt on every ``main`` call rather than installed
    once: test harnesses (pytest's capsys) swap ``sys.stderr`` between
    invocations, and a cached stream would write into a closed buffer.
    """
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LevelFormatter())
    log.addHandler(handler)
    log.setLevel(getattr(logging, level.upper()))
    log.propagate = False


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="info", help="stderr log verbosity (default: info)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log warnings and errors (alias for --log-level warning)",
    )


def _log_level(args: argparse.Namespace) -> str:
    return "warning" if args.quiet else args.log_level


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="enable the continuous profiler (iolap engine): rolling "
        "per-operator EWMA profiles and the predictive cost model; "
        "results are bit-identical",
    )
    parser.add_argument(
        "--profiles", metavar="PATH", default=None,
        help="profiles.json artifact to load before and save after the "
        "run (implies --profile); a warmed profile predicts batch cost "
        "from the first batch",
    )
    parser.add_argument(
        "--profile-stack", action="store_true",
        help="also run the sampling stack profiler in a daemon thread "
        "(implies --profile)",
    )


def _profile_config(args: argparse.Namespace) -> dict:
    """OnlineConfig kwargs from the shared profiling flags."""
    return {
        "profile": args.profile or bool(args.profiles) or args.profile_stack,
        "profile_path": args.profiles,
        "profile_stack": args.profile_stack,
        "target_rsd": args.stop_rsd,
    }


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    """Query-selection + engine flags shared by ``metrics`` and ``top``."""
    parser.add_argument("sql", nargs="?", help="SQL text to run")
    parser.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="conviva",
        help="dataset to generate (default: conviva)",
    )
    parser.add_argument(
        "--query", help="run a named benchmark query (e.g. Q17, C8) instead of SQL"
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale")
    parser.add_argument("--seed", type=int, default=0, help="generator/engine seed")
    parser.add_argument("--batches", type=int, default=20, help="mini-batch count")
    parser.add_argument("--trials", type=int, default=100, help="bootstrap trials")
    parser.add_argument(
        "--stream", help="table to stream (default: the workload's fact table)"
    )
    parser.add_argument(
        "--stop-rsd", type=float, default=None,
        help="stop once the worst relative stdev falls below this",
    )


def _resolve_query(args: argparse.Namespace):
    """(catalog, plan, streamed table) from shared flags, or None."""
    generate, queries, default_stream = _WORKLOADS[args.workload]
    catalog = generate(scale=args.scale, seed=args.seed).catalog()
    if args.query:
        if args.query not in queries:
            log.error("unknown query %r; try --list-queries", args.query)
            return None
        spec = queries[args.query]
        return catalog, spec.plan, spec.streamed_table
    if args.sql:
        try:
            plan = plan_sql(args.sql, catalog.schemas())
        except ReproError as exc:
            log.error("SQL error: %s", exc)
            return None
        return catalog, plan, args.stream or default_stream
    log.error("nothing to run: pass SQL text or --query")
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run OLAP queries incrementally (iOLAP) over the "
        "bundled synthetic workloads.",
    )
    parser.add_argument("sql", nargs="?", help="SQL text to run")
    parser.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="conviva",
        help="dataset to generate (default: conviva)",
    )
    parser.add_argument(
        "--query", help="run a named benchmark query (e.g. Q17, C8) instead of SQL"
    )
    parser.add_argument(
        "--list-queries", action="store_true", help="list the named queries and exit"
    )
    parser.add_argument(
        "--engine", choices=["iolap", "hda", "batch"], default="iolap",
        help="execution engine (default: iolap)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale")
    parser.add_argument("--seed", type=int, default=0, help="generator/engine seed")
    parser.add_argument("--batches", type=int, default=20, help="mini-batch count")
    parser.add_argument("--trials", type=int, default=100, help="bootstrap trials")
    parser.add_argument("--slack", type=float, default=2.0, help="range slack ε")
    parser.add_argument(
        "--stream", help="table to stream (default: the workload's fact table)"
    )
    parser.add_argument(
        "--stop-rsd", type=float, default=None,
        help="stop once the worst relative stdev falls below this",
    )
    parser.add_argument(
        "--max-rows", type=int, default=10, help="result rows to print per update"
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the iolap engine across N shard worker processes "
        "(group-key sharding; results are bit-identical to the serial "
        "run; plans without a shardable group key fall back to "
        "single-process execution; 0/1 disables)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write per-batch run metrics as JSON to PATH (iolap engine)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream the observability event log (spans, counters, "
        "warnings) as JSONL to PATH (iolap engine); convert with the "
        "'trace' subcommand, analyze with 'report'",
    )
    parser.add_argument(
        "--converge", action="store_true",
        help="log per-group estimate ± confidence interval after every "
        "batch (iolap engine)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="enable runtime contract checks (iolap engine): input "
        "immutability, state-entry discipline; results are unchanged",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime buffer sanitizer (iolap engine): freeze "
        "zero-copy batch buffers during process calls and track "
        "aliased-view provenance; results are unchanged",
    )
    parser.add_argument(
        "--no-vectorize", action="store_true",
        help="run operator hot paths row by row instead of through the "
        "vectorized kernels (iolap engine); results are bit-identical, "
        "only slower — an A/B lever for debugging and benchmarks",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic faults (iolap engine): comma-separated "
        "kind@batch[:target][*times] specs with kind in "
        "{sentinel,batch,unit,checkpoint,shard}, e.g. "
        "'sentinel@16,unit@5:aggregate*2,checkpoint@12,shard@6:1'; "
        "recovery must still produce the fault-free answer",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N",
        help="take a recovery state checkpoint every N batches (iolap "
        "engine; 0 disables, default: engine default)",
    )
    _add_profile_flags(parser)
    _add_logging_flags(parser)
    return parser


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli analyze",
        description="Statically analyze queries (plan typechecker) and the "
        "engine sources (contract lint) without executing anything.",
    )
    parser.add_argument("sql", nargs="?", help="SQL text to typecheck")
    parser.add_argument(
        "--workload", choices=[*sorted(_WORKLOADS), "all"], default="all",
        help="workload whose named queries to check (default: all)",
    )
    parser.add_argument(
        "--query", help="check a single named benchmark query (e.g. Q17, C8)"
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale for catalog schemas")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--stream", help="table to stream (default: the workload's fact table)"
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="also lint the installed repro sources for engine-contract "
        "violations (ENG0xx rules)",
    )
    parser.add_argument(
        "--races", action="store_true",
        help="run the plan-level race detector instead of the typechecker: "
        "per-unit effect summaries checked against the units' declared "
        "produce/consume order (RACE0xx/RACE2xx rules)",
    )
    parser.add_argument(
        "--fail-on-warning", action="store_true",
        help="exit 1 on warning-severity diagnostics too (the CI setting); "
        "by default only errors fail the run",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write all reports as a JSON array to PATH (the CI artifact)",
    )
    _add_logging_flags(parser)
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Validate a saved event log (from --trace-out) and "
        "convert it for viewers.",
    )
    parser.add_argument("trace", help="JSONL event log written by --trace-out")
    parser.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome",
        help="output format: 'chrome' trace events (load in Perfetto / "
        "chrome://tracing) or validated 'jsonl' passthrough (default: chrome)",
    )
    parser.add_argument(
        "-o", "--out", metavar="PATH", default=None,
        help="output path (default: stdout)",
    )
    _add_logging_flags(parser)
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli report",
        description="Summarize a saved event log: slowest spans, state "
        "growth, recovery timeline, convergence.",
    )
    parser.add_argument("trace", help="JSONL event log written by --trace-out")
    parser.add_argument(
        "--top", type=int, default=10, help="individual spans to list (default: 10)"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary (schema pinned by "
        "repro.obs.report.REPORT_FIELDS) instead of the text report",
    )
    _add_logging_flags(parser)
    return parser


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli metrics",
        description="Run a query while exporting live engine telemetry: "
        "a Prometheus /metrics endpoint (--listen) and/or an atomically "
        "rewritten exposition textfile (--metrics-textfile).",
    )
    _add_query_flags(parser)
    parser.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve /metrics in Prometheus text format from a daemon "
        "thread while the query runs (e.g. ':9110'; port 0 picks a "
        "free port, logged at startup)",
    )
    parser.add_argument(
        "--metrics-textfile", metavar="PATH", default=None,
        help="atomically rewrite PATH with the Prometheus exposition "
        "after every batch (node-exporter textfile collector idiom; "
        "the scrape-less CI mode)",
    )
    parser.add_argument(
        "--hold", type=float, default=0.0, metavar="SECONDS",
        help="keep serving --listen this many seconds after the run "
        "completes, so a scraper can collect the final state (default: 0)",
    )
    _add_profile_flags(parser)
    _add_logging_flags(parser)
    return parser


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli top",
        description="Live per-operator hot-spot view of an online run: "
        "EWMA self times, row throughput, |U_i| ND rows, state growth, "
        "and the cost model's batches-to-convergence estimate.",
    )
    _add_query_flags(parser)
    parser.add_argument(
        "--target-rsd", type=float, default=0.05,
        help="accuracy target the convergence ETA counts down to "
        "(default: 0.05)",
    )
    parser.add_argument(
        "--top", type=int, default=12,
        help="operators to show per frame (default: 12)",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="print newline-separated frames instead of ANSI screen "
        "refreshes (non-tty / CI mode)",
    )
    _add_profile_flags(parser)
    _add_logging_flags(parser)
    return parser


def run_analyze(argv: Sequence[str]) -> int:
    """The ``analyze`` subcommand: typecheck queries, optionally lint."""
    from repro.analysis import analyze_query, check_plan, run_lint

    args = build_analyze_parser().parse_args(argv)
    if args.races:
        from repro.analysis import analyze_query_races, check_plan_races

        analyze_query, check_plan = analyze_query_races, check_plan_races
    _configure_logging(_log_level(args))
    reports = []

    if args.sql is not None:
        workload = args.workload if args.workload != "all" else "conviva"
        generate, _, default_stream = _WORKLOADS[workload]
        catalog = generate(scale=args.scale, seed=args.seed).catalog()
        reports.append(
            analyze_query(args.sql, catalog, args.stream or default_stream)
        )
    else:
        workloads = sorted(_WORKLOADS) if args.workload == "all" else [args.workload]
        for workload in workloads:
            generate, queries, _ = _WORKLOADS[workload]
            if args.query is not None and args.query not in queries:
                continue
            catalog = generate(scale=args.scale, seed=args.seed).catalog()
            for name, spec in queries.items():
                if args.query is not None and name != args.query:
                    continue
                reports.append(
                    check_plan(
                        spec.plan,
                        catalog,
                        spec.streamed_table,
                        subject=f"{workload}:{name}",
                    )
                )
        if args.query is not None and not reports:
            log.error("unknown query %r; try --list-queries", args.query)
            return 2

    if args.lint:
        reports.append(run_lint())

    for report in reports:
        print(report.format())
    failed = [r for r in reports if not r.ok]
    errors = sum(
        1 for r in reports for d in r.diagnostics if d.severity == "error"
    )
    warnings = sum(
        1 for r in reports for d in r.diagnostics if d.severity != "error"
    )
    print(f"analyzed {len(reports)} subject(s): "
          f"{len(failed)} with violations, "
          f"{errors} error(s), {warnings} warning(s)")

    if args.json:
        import json as _json

        try:
            with open(args.json, "w") as fh:
                _json.dump([r.to_dict() for r in reports], fh, indent=2)
        except OSError as exc:
            log.error("cannot write report to %s: %s", args.json, exc)
            return 2
        log.info("report written to %s", args.json)
    if failed:
        return 1
    if warnings and args.fail_on_warning:
        return 1
    return 0


def run_trace(argv: Sequence[str]) -> int:
    """The ``trace`` subcommand: validate + convert a saved event log."""
    import json as _json

    from repro.obs import read_events, write_chrome

    args = build_trace_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    try:
        events = list(read_events(args.trace))
    except (OSError, ValueError) as exc:
        log.error("cannot read trace %s: %s", args.trace, exc)
        return 2
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                if args.format == "chrome":
                    count = write_chrome(events, fh)
                else:
                    for event in events:
                        fh.write(_json.dumps(event) + "\n")
                    count = len(events)
        else:
            if args.format == "chrome":
                count = write_chrome(events, sys.stdout)
            else:
                for event in events:
                    print(_json.dumps(event))
                count = len(events)
    except OSError as exc:
        log.error("cannot write %s: %s", args.out, exc)
        return 2
    target = args.out if args.out is not None else "stdout"
    log.info("%d event(s) validated; %d %s record(s) written to %s",
             len(events), count, args.format, target)
    return 0


def run_report(argv: Sequence[str]) -> int:
    """The ``report`` subcommand: offline analysis of a saved event log."""
    import json as _json

    from repro.obs.report import TraceSummary, render_report, validate_report

    args = build_report_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    try:
        summary = TraceSummary.from_file(args.trace)
    except (OSError, ValueError) as exc:
        log.error("cannot read trace %s: %s", args.trace, exc)
        return 2
    if args.json:
        doc = summary.to_dict(top=args.top)
        validate_report(doc)  # never ship an artifact the schema rejects
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_report(summary, top=args.top))
    return 0


def run_metrics_cmd(argv: Sequence[str]) -> int:
    """The ``metrics`` subcommand: run a query, export live telemetry."""
    from repro.obs import MetricsObservability
    from repro.obs.export import MetricsHTTPServer, TextfileExporter, parse_listen

    args = build_metrics_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    if not args.listen and not args.metrics_textfile:
        log.error(
            "metrics: pass --listen HOST:PORT and/or --metrics-textfile PATH"
        )
        return 2
    resolved = _resolve_query(args)
    if resolved is None:
        return 2
    catalog, plan, streamed = resolved

    obs = MetricsObservability()
    server = None
    if args.listen:
        try:
            host, port = parse_listen(args.listen)
            server = MetricsHTTPServer(obs.metrics, host, port).start()
        except (ValueError, OSError) as exc:
            log.error("cannot serve metrics on %r: %s", args.listen, exc)
            return 2
        log.info("serving metrics at %s", server.url)
    exporter = (
        TextfileExporter(args.metrics_textfile, obs.metrics)
        if args.metrics_textfile
        else None
    )
    engine = OnlineQueryEngine(
        catalog,
        streamed,
        OnlineConfig(num_trials=args.trials, seed=args.seed,
                     **_profile_config(args)),
        obs=obs,
    )
    try:
        for partial in engine.run(plan, args.batches):
            if exporter is not None:
                try:
                    exporter.write()
                except OSError as exc:
                    log.error("cannot write %s: %s", args.metrics_textfile, exc)
                    return 2
            rsd = partial.max_relative_stdev()
            log.info(
                "[batch %3d/%d %7.1f ms] %s",
                partial.batch_no, partial.num_batches,
                partial.metrics.wall_seconds * 1000,
                f"rel.stdev {rsd:.4f}" if rsd == rsd else "rel.stdev n/a",
            )
            if args.stop_rsd is not None and rsd == rsd and rsd < args.stop_rsd:
                break
    finally:
        if server is not None:
            if args.hold > 0:
                import time as _time

                log.info("holding %s for %.1f s", server.url, args.hold)
                _time.sleep(args.hold)
            server.stop()
    if exporter is not None:
        log.info("exposition written to %s (%d write(s))",
                 args.metrics_textfile, exporter.writes)
    return 0


def run_top(argv: Sequence[str]) -> int:
    """The ``top`` subcommand: live per-operator hot-spot frames."""
    from repro.obs.export import ANSI_CLEAR, TopView

    args = build_top_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    resolved = _resolve_query(args)
    if resolved is None:
        return 2
    catalog, plan, streamed = resolved
    config_kwargs = _profile_config(args)
    config_kwargs["profile"] = True  # the view *is* the profiler's state
    view = TopView(target_rsd=args.target_rsd, top=args.top)
    engine = OnlineQueryEngine(
        catalog,
        streamed,
        OnlineConfig(num_trials=args.trials, seed=args.seed, **config_kwargs),
    )
    seen_rows = 0
    for partial in engine.run(plan, args.batches):
        bm = partial.metrics
        seen_rows += bm.new_tuples
        rsd = partial.max_relative_stdev()
        frame = view.frame(
            engine.profiler, partial.batch_no, partial.num_batches,
            rsd, bm.new_tuples, seen_rows, bm.wall_seconds,
        )
        if args.plain:
            print(frame + "\n")
        else:
            sys.stdout.write(ANSI_CLEAR + frame + "\n")
        sys.stdout.flush()
        if args.stop_rsd is not None and rsd == rsd and rsd < args.stop_rsd:
            break
    return 0


_SUBCOMMANDS = {
    "analyze": run_analyze,
    "trace": run_trace,
    "report": run_report,
    "metrics": run_metrics_cmd,
    "top": run_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    _configure_logging(_log_level(args))
    generate, queries, default_stream = _WORKLOADS[args.workload]

    if args.list_queries:
        for name, spec in queries.items():
            kind = "nested" if spec.nested else "flat"
            print(f"{name:>4}  [{kind:>6}]  {spec.description}")
        return 0

    data = generate(scale=args.scale, seed=args.seed)
    catalog = data.catalog()

    if args.query:
        if args.query not in queries:
            log.error("unknown query %r; try --list-queries", args.query)
            return 2
        spec = queries[args.query]
        plan = spec.plan
        streamed = spec.streamed_table
    elif args.sql:
        try:
            plan = plan_sql(args.sql, catalog.schemas())
        except ReproError as exc:
            log.error("SQL error: %s", exc)
            return 2
        streamed = args.stream or default_stream
    else:
        log.error("nothing to run: pass SQL text or --query/--list-queries")
        return 2

    for flag, value in (("--metrics-out", args.metrics_out),
                        ("--trace-out", args.trace_out),
                        ("--converge", args.converge),
                        ("--faults", args.faults)):
        if value and args.engine != "iolap":
            log.error("%s requires --engine iolap", flag)
            return 2

    if args.faults is not None:
        from repro.faults import parse_faults

        try:
            parse_faults(args.faults)
        except ReproError as exc:
            log.error("bad --faults spec: %s", exc)
            return 2

    if args.engine == "batch":
        result = run_batch(plan, catalog)
        log.info("batch engine: %.1f ms, %d rows",
                 result.wall_seconds * 1000, len(result.relation))
        _print_relation_rows(result.relation, args.max_rows)
        return 0

    if args.engine == "hda":
        executor = HDAExecutor(catalog, streamed, seed=args.seed)
        for partial in executor.run(plan, args.batches):
            marker = "exact" if partial.is_final else "approx"
            log.info("[batch %3d/%d %7.1f ms  %s] %d rows",
                     partial.batch_no, partial.num_batches,
                     partial.metrics.wall_seconds * 1000, marker,
                     len(partial.relation))
        _print_relation_rows(partial.relation, args.max_rows)
        return 0

    from repro.obs import NULL_OBS, ConvergenceReporter, Observability

    obs = Observability.to_jsonl(args.trace_out) if args.trace_out else NULL_OBS
    reporter = (
        ConvergenceReporter(obs=obs, emit_line=log.info)
        if args.converge
        else None
    )
    engine_cls = OnlineQueryEngine
    if args.shards > 1:
        from repro.engine.shards import ShardedQueryEngine

        engine_cls = ShardedQueryEngine
    engine = engine_cls(
        catalog,
        streamed,
        OnlineConfig(
            num_trials=args.trials,
            slack=args.slack,
            seed=args.seed,
            verify=args.verify,
            sanitize=args.sanitize,
            vectorize=not args.no_vectorize,
            faults=args.faults,
            shards=args.shards,
            **_profile_config(args),
            **(
                {"checkpoint_interval": args.checkpoint_interval}
                if args.checkpoint_interval is not None
                else {}
            ),
        ),
        obs=obs,
    )
    partial = None
    try:
        for partial in engine.run(plan, args.batches):
            rsd = partial.max_relative_stdev()
            rsd_text = "exact" if partial.is_final else (
                f"rel.stdev {rsd:.4f}" if rsd == rsd else "rel.stdev n/a"
            )
            log.info(
                "[batch %3d/%d %4.0f%% %7.1f ms  %s]",
                partial.batch_no, partial.num_batches,
                partial.fraction_processed * 100,
                partial.metrics.wall_seconds * 1000, rsd_text,
            )
            if reporter is not None:
                reporter.update(partial)
            if args.stop_rsd is not None and rsd == rsd and rsd < args.stop_rsd:
                log.info("stopping early: accuracy target %s reached",
                         args.stop_rsd)
                break
    finally:
        obs.close()
    if partial is not None:
        _print_partial_rows(partial, args.max_rows)
        if engine.metrics.num_recoveries:
            log.info("(failure recoveries: %d)", engine.metrics.num_recoveries)
        slowest = sorted(
            engine.metrics.total_op_seconds().items(), key=lambda kv: -kv[1]
        )[:3]
        if slowest:
            log.info("slowest operators: %s", ", ".join(
                f"{label} {seconds*1000:.1f} ms" for label, seconds in slowest
            ))
    cal = engine.metrics.cost_calibration
    if cal.get("predictions"):
        log.info(
            "cost model: %d prediction(s), mae %.1f ms, mape %.1f%%",
            cal["predictions"], cal["mae_seconds"] * 1000, cal["mape"] * 100,
        )
    if args.profiles:
        log.info("profiles written to %s", args.profiles)
    if args.metrics_out:
        try:
            with open(args.metrics_out, "w") as fh:
                fh.write(engine.metrics.to_json(indent=2))
        except OSError as exc:
            log.error("cannot write metrics to %s: %s", args.metrics_out, exc)
            return 2
        log.info("metrics written to %s", args.metrics_out)
    if args.trace_out:
        log.info("trace written to %s (convert: repro.cli trace %s; "
                 "summarize: repro.cli report %s)",
                 args.trace_out, args.trace_out, args.trace_out)
    return 0


def _print_partial_rows(partial, max_rows: int) -> None:
    for row in partial.sorted_plain_rows()[:max_rows]:
        print("  " + ", ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    hidden = len(partial.rows) - max_rows
    if hidden > 0:
        print(f"  ... {hidden} more rows")


def _print_relation_rows(relation, max_rows: int) -> None:
    for row in relation.sort_rows()[:max_rows]:
        print("  " + ", ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    hidden = len(relation) - max_rows
    if hidden > 0:
        print(f"  ... {hidden} more rows")


def _fmt(value) -> str:
    if isinstance(value, UncertainValue):
        value = value.value
    if isinstance(value, float):
        return f"{value:,.3f}"
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
