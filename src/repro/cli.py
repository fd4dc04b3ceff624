"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    repro list                      # all table/figure ids
    repro run fig01                 # regenerate Figure 1
    repro run table3 --epochs 5     # more averaging epochs
    repro run fig07 --format csv    # machine-readable output
    repro run all                   # everything (slow)
    repro figures fig05 --jobs 4    # same, running its points in parallel
    repro run adaptive --policy adaptive  # static vs adaptive control
    repro control                   # list control-plane policies
    repro advise conv gc:us=8       # planner advice for a setup
    repro validate                  # paper-fidelity scorecard
    repro bench --quick             # curated perf suite (CI regression gate)
    repro chaos B-8 --intensity 1.0 # fault-injected run (deterministic)
    repro chaos B-8 --sweep 0.5,1,2 # fault intensity -> penalty sweep
    repro sweep --models conv --experiments A-2,A-4 --jobs 4
    repro cache ls                  # inspect the run cache
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

__all__ = ["main"]


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import report_keys

    for key in report_keys():
        print(key)
    return 0


def _format_report(report, fmt: str) -> str:
    if fmt == "text":
        from .experiments import render

        return render(report)
    if fmt == "json":
        return json.dumps(
            {"key": report.key, "title": report.title, "rows": report.rows,
             "notes": report.notes},
            indent=2, default=str,
        )
    if fmt == "csv":
        buffer = io.StringIO()
        if report.rows:
            writer = csv.DictWriter(buffer, fieldnames=list(report.rows[0]))
            writer.writeheader()
            writer.writerows(report.rows)
        return buffer.getvalue().rstrip("\n")
    raise ValueError(f"unknown format {fmt!r}")


def _telemetry_sink(args: argparse.Namespace):
    """A live Telemetry sink when any export flag was passed, else None."""
    paths = [
        path for flag in ("trace", "metrics", "jsonl")
        if (path := getattr(args, flag, None))
    ]
    if not paths:
        return None
    _require_writable_dirs(paths)
    from .telemetry import Telemetry

    return Telemetry()


def _require_writable_dirs(paths) -> None:
    """Fail before the (possibly minutes-long) simulation, not after."""
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise SystemExit(
                f"cannot write {path}: directory {directory!r} does not exist"
            )


def _export_telemetry(tel, args: argparse.Namespace) -> None:
    from .telemetry import write_chrome_trace, write_jsonl, write_prometheus

    if getattr(args, "trace", None):
        write_chrome_trace(tel, args.trace)
        print(f"wrote {args.trace}")
    if getattr(args, "jsonl", None):
        write_jsonl(tel, args.jsonl)
        print(f"wrote {args.jsonl}")
    if getattr(args, "metrics", None):
        write_prometheus(tel, args.metrics)
        print(f"wrote {args.metrics}")


def _build_orchestrator(args: argparse.Namespace, default_cache: bool):
    """An :class:`Orchestrator` from the shared --jobs/--cache flags."""
    from .orchestrator import Orchestrator, RunCache, resolve_cache_dir

    cache = None
    if not getattr(args, "no_cache", False):
        explicit = getattr(args, "cache_dir", None)
        if explicit or default_cache:
            cache = RunCache(resolve_cache_dir(explicit))
    return Orchestrator(cache=cache, jobs=getattr(args, "jobs", 1))


def _print_cache_stats(orchestrator) -> None:
    stats = orchestrator.stats()
    print(
        f"cache: {stats['hits']} hits, {stats['misses']} misses; "
        f"simulations executed: {stats['executed']}",
        file=sys.stderr,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    import contextlib

    from .experiments import generate, report_keys

    tel = _telemetry_sink(args)
    scope = (
        contextlib.nullcontext() if tel is None else _use_telemetry_scope(tel)
    )
    jobs = args.jobs
    if tel is not None and jobs > 1:
        # Spans are recorded in-process; pool workers would swallow
        # them. Telemetry exports force serial execution.
        print("note: telemetry export requested, running serially",
              file=sys.stderr)
        jobs = 1
    orchestrator = _build_orchestrator(args, default_cache=False)
    orchestrator.jobs = max(1, jobs)
    keys = report_keys() if args.report == "all" else [args.report]
    extra = {}
    if getattr(args, "policy", None):
        if args.report != "adaptive":
            print("--policy only applies to the 'adaptive' report",
                  file=sys.stderr)
            return 2
        extra["policy"] = args.policy
    chunks = []
    with scope:
        for key in keys:
            report = generate(key, epochs=args.epochs,
                              orchestrator=orchestrator, **extra)
            chunks.append(_format_report(report, args.format))
    if args.cache_dir or jobs > 1:
        _print_cache_stats(orchestrator)
    output = "\n\n".join(chunks)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.output}")
    else:
        print(output)
    if tel is not None:
        _export_telemetry(tel, args)
    return 0


def _use_telemetry_scope(tel):
    from .telemetry import use_telemetry

    return use_telemetry(tel)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one experiment or report end to end and summarize it."""
    from .experiments import (
        EXPERIMENTS,
        epoch_breakdown,
        generate,
        report_keys,
        run_experiment,
    )
    from .telemetry import Telemetry, use_telemetry, validate_chrome_trace
    from .telemetry.export import to_chrome_trace

    key = args.report
    _require_writable_dirs(
        path for path in (args.output, args.jsonl, args.metrics) if path
    )
    tel = Telemetry()
    with use_telemetry(tel):
        if key in EXPERIMENTS:
            result = run_experiment(key, args.model, epochs=args.epochs)
            title = (f"experiment {key} ({args.model}, "
                     f"{result.num_gpus} GPUs)")
        else:
            try:
                report = generate(key, epochs=args.epochs)
            except KeyError:
                print(
                    f"unknown key {key!r}: expected an experiment key "
                    f"({', '.join(sorted(EXPERIMENTS))}) or a report id "
                    f"({', '.join(report_keys())})",
                    file=sys.stderr,
                )
                return 2
            title = report.title
    trace_path = args.output or f"{key}_trace.json"
    problems = validate_chrome_trace(to_chrome_trace(tel))
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    args.trace = trace_path
    _export_telemetry(tel, args)
    spans = tel.tracer.spans
    tracks = tel.tracer.tracks()
    print(f"{title}: {len(spans)} spans on {len(tracks)} tracks, "
          f"{len(tel.tracer.instants)} instant events")
    by_category: dict[str, int] = {}
    for span in spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
    for category in sorted(by_category):
        print(f"  {category:<14} {by_category[category]} spans")
    print()
    print(epoch_breakdown(tel))
    print()
    print(f"open {trace_path} in https://ui.perfetto.dev or "
          "chrome://tracing to inspect the timeline")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        check_regression,
        load_bench,
        render_bench,
        run_bench,
        write_bench,
    )

    suites = args.suites.split(",") if args.suites else None
    result = run_bench(quick=args.quick, epochs=args.epochs,
                       repeats=args.repeats, suites=suites)
    print(render_bench(result))
    if args.output:
        write_bench(result, args.output)
        print(f"wrote {args.output}")
    if args.check:
        failures = check_regression(result, load_bench(args.check),
                                    tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"ok: within {args.tolerance * 100:.0f}% of {args.check}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection runs: single intensity or a resilience sweep."""
    from .experiments import Report, resilience_report, run_chaos
    from .faults import FaultSchedule

    _require_writable_dirs(
        path for path in (args.output, args.save_schedule) if path
    )
    if args.sweep:
        intensities = [float(tok) for tok in args.sweep.split(",")]
        report = resilience_report(
            args.experiment, args.model, intensities,
            epochs=args.epochs, seed=args.seed, horizon_s=args.horizon,
        )
    else:
        schedule = (
            FaultSchedule.from_json(args.schedule) if args.schedule else None
        )
        result, schedule = run_chaos(
            args.experiment, args.model, epochs=args.epochs,
            intensity=args.intensity, seed=args.seed,
            horizon_s=args.horizon, schedule=schedule,
        )
        if args.save_schedule:
            schedule.to_json(args.save_schedule)
            print(f"wrote {args.save_schedule}", file=sys.stderr)
        fault_notes = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(result.fault_counts.items())
        )
        source = (
            f"schedule {args.schedule}" if args.schedule
            else f"seed {args.seed}, intensity {args.intensity}"
        )
        report = Report(
            "chaos",
            f"Fault-injected run ({args.experiment}, {args.model}, "
            f"{source})",
            rows=[{
                "experiment": args.experiment,
                "model": args.model,
                "sps": round(result.throughput_sps, 1),
                "epochs": len(result.epochs),
                "retried": result.rounds_retried,
                "degraded": result.degraded_epochs,
                "interruptions": result.interruptions,
                "state_syncs": result.state_syncs,
                "aborted": result.transfers_aborted,
                "faults": schedule.total_events,
            }],
            notes=[f"injected: {fault_notes}"],
        )
    output = _format_report(report, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments import render_scorecard, run_validation

    rows = run_validation(epochs=args.epochs)
    print(render_scorecard(rows))
    failed = sum(1 for row in rows if not row.ok)
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import write_markdown_report

    keys = None if args.reports == "all" else args.reports.split(",")
    path = write_markdown_report(args.output, keys=keys, epochs=args.epochs,
                                 include_scorecard=not args.no_scorecard)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import SweepGrid, run_sweep

    grid = SweepGrid(
        models=tuple(args.models.split(",")),
        experiments=tuple(args.experiments.split(",")),
        target_batch_sizes=tuple(int(t) for t in args.tbs.split(",")),
    )
    orchestrator = _build_orchestrator(args, default_cache=True)
    sweep = run_sweep(grid, epochs=args.epochs, orchestrator=orchestrator)
    for row in sweep.rows():
        print(row)
    for failure in sweep.failures:
        print(f"failed {failure.point}: "
              f"{failure.error_type}: {failure.error}")
    if args.output:
        if args.output.endswith(".json"):
            sweep.to_json(args.output)
        else:
            sweep.to_csv(args.output)
        print(f"wrote {args.output}")
    _print_cache_stats(orchestrator)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the content-addressed run cache."""
    from .orchestrator import RunCache, resolve_cache_dir

    cache = RunCache(resolve_cache_dir(args.cache_dir))
    if args.action == "ls":
        entries = cache.ls()
        for entry in entries:
            marker = " (stale)" if entry.stale else ""
            print(f"{entry.key[:16]}  {entry.kind:<10} {entry.label:<28} "
                  f"{entry.size_bytes:>9}B{marker}")
        total = sum(entry.size_bytes for entry in entries)
        print(f"{len(entries)} entries, {total / 1e6:.2f} MB in {cache.root}",
              file=sys.stderr)
        return 0
    if args.action == "verify":
        problems = cache.verify()
        for problem in problems:
            print(f"corrupt: {problem}", file=sys.stderr)
        print(f"verified {len(cache)} entries, "
              f"{len(problems)} problem(s) in {cache.root}")
        return 1 if problems else 0
    if args.action == "gc":
        removed = cache.gc(max_age_days=args.max_age_days)
        for key in removed:
            print(f"removed {key[:16]}")
        print(f"gc: removed {len(removed)} entries from {cache.root}",
              file=sys.stderr)
        return 0
    raise ValueError(f"unknown cache action {args.action!r}")


def _cmd_control(args: argparse.Namespace) -> int:
    """List the control-plane policies, or describe one in detail."""
    import dataclasses

    from .controlplane import POLICIES, get_policy

    if not args.policy:
        for name, cls in POLICIES.items():
            doc = (cls.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name:<10} {summary}")
        print("\nuse 'repro control <name>' for parameters, "
              "'repro run adaptive --policy <name>' to evaluate one")
        return 0
    try:
        policy = get_policy(args.policy)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    cls = type(policy)
    print(f"{args.policy}: {cls.__name__}")
    doc = (cls.__doc__ or "").strip()
    if doc:
        print(f"  {doc.splitlines()[0]}")
    print("  parameters:")
    for field in dataclasses.fields(cls):
        value = getattr(policy, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = type(value).__name__ + "()"
        print(f"    {field.name:<22} = {value}")
    return 0


def _parse_setup(tokens: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in tokens:
        location, __, count = token.partition("=")
        counts[location] = int(count) if count else 1
    return counts


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core import evaluate_setup
    from .network import build_topology

    counts = _parse_setup(args.setup)
    topology = build_topology(counts)
    peers = []
    for location, n in counts.items():
        gpu = "a10" if location.startswith("lambda") else args.gpu
        for i in range(n):
            peers.append((f"{location}/{i}", gpu))
    advice = evaluate_setup(args.model, peers, topology,
                            target_batch_size=args.tbs)
    prediction = advice.prediction
    print(f"model: {args.model}, TBS: {args.tbs}, peers: {len(peers)}")
    print(f"predicted throughput : {prediction.throughput_sps:.1f} SPS")
    print(f"calc / matchmaking / transfer per epoch: "
          f"{prediction.calc_s:.1f}s / {prediction.matchmaking_s:.1f}s / "
          f"{prediction.transfer_s:.1f}s")
    print(f"granularity          : {prediction.granularity:.2f}")
    print(f"VM cost              : ${advice.hourly_vm_usd:.2f}/h")
    print(f"egress estimate      : ${advice.hourly_egress_usd_estimate:.2f}/h")
    print(f"scalable             : {'yes' if advice.scalable else 'no'}")
    for note in advice.notes:
        print(f"  - {note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'How Can We Train Deep Learning Models "
                    "Across Clouds and Continents?' (PVLDB 17(6))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all table/figure ids").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", aliases=["figures"],
                         help="regenerate a table or figure")
    run.add_argument("report", help="report id (see 'repro list') or 'all'")
    run.add_argument("--epochs", type=int, default=3,
                     help="hivemind epochs to simulate per experiment")
    run.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    run.add_argument("--output", help="write to a file instead of stdout")
    run.add_argument("--jobs", type=int, default=1,
                     help="run each report's points on this many "
                          "worker processes (output is identical)")
    run.add_argument("--cache-dir",
                     help="persist run results in this content-addressed "
                          "cache directory (default: no disk cache)")
    run.add_argument("--trace",
                     help="write a Chrome trace_event JSON timeline of "
                          "the simulated run(s) to this path")
    run.add_argument("--jsonl",
                     help="write the raw span/instant event log as JSONL")
    run.add_argument("--metrics",
                     help="write final metric values in Prometheus text "
                          "format to this path")
    run.add_argument("--policy",
                     help="control-plane policy for the 'adaptive' report "
                          "(see 'repro control')")
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser(
        "trace", help="trace one experiment and summarize its timeline"
    )
    trace.add_argument("report",
                       help="experiment key (e.g. A-8) or report id "
                            "(see 'repro list')")
    trace.add_argument("--model", default="conv",
                       help="model for experiment keys (default conv)")
    trace.add_argument("--epochs", type=int, default=3)
    trace.add_argument("--output",
                       help="trace file path (default <report>_trace.json)")
    trace.add_argument("--jsonl", help="also write the JSONL event log")
    trace.add_argument("--metrics",
                       help="also write the Prometheus metrics dump")
    trace.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "bench", help="run the curated performance benchmark suite"
    )
    bench.add_argument("--quick", action="store_true",
                       help="reduced run matrix (what the CI bench job runs)")
    bench.add_argument("--epochs", type=int, default=None,
                       help="hivemind epochs per run (default 4)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="wall time is the best of this many passes "
                            "(default 3, quick 2)")
    bench.add_argument("--suites",
                       help="comma-separated suite names (default all)")
    bench.add_argument("--output",
                       help="write the consolidated BENCH json here")
    bench.add_argument("--check", metavar="BASELINE",
                       help="compare against a baseline BENCH json and exit "
                            "non-zero on regression")
    bench.add_argument("--tolerance", type=float, default=0.20,
                       help="allowed normalized wall-time increase "
                            "(fraction, default 0.20)")
    bench.set_defaults(func=_cmd_bench)

    chaos = sub.add_parser(
        "chaos",
        help="run an experiment under deterministic fault injection",
    )
    chaos.add_argument("experiment", help="experiment key, e.g. B-8")
    chaos.add_argument("--model", default="conv",
                       help="model key (default conv)")
    chaos.add_argument("--epochs", type=int, default=3)
    chaos.add_argument("--intensity", type=float, default=0.5,
                       help="expected fault density (0 disables; ~1 is "
                            "a rough outage per 1-2h per category)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault schedule seed (schedules are "
                            "deterministic in sites+seed+intensity)")
    chaos.add_argument("--horizon", type=float, default=7200.0,
                       help="schedule horizon in simulated seconds")
    chaos.add_argument("--sweep",
                       help="comma-separated intensities; renders the "
                            "resilience sweep report instead of one run")
    chaos.add_argument("--schedule",
                       help="read a fault-schedule JSON instead of "
                            "generating one")
    chaos.add_argument("--save-schedule",
                       help="write the generated schedule JSON here")
    chaos.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    chaos.add_argument("--output", help="write to a file instead of stdout")
    chaos.set_defaults(func=_cmd_chaos)

    validate = sub.add_parser(
        "validate", help="check every paper anchor against the simulation"
    )
    validate.add_argument("--epochs", type=int, default=3)
    validate.set_defaults(func=_cmd_validate)

    sweep = sub.add_parser("sweep", help="run a grid of experiments")
    sweep.add_argument("--models", required=True,
                       help="comma-separated model keys")
    sweep.add_argument("--experiments", required=True,
                       help="comma-separated experiment keys")
    sweep.add_argument("--tbs", default="32768",
                       help="comma-separated target batch sizes")
    sweep.add_argument("--epochs", type=int, default=3)
    sweep.add_argument("--output", help=".csv or .json output file")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="run cache misses on this many worker "
                            "processes (output is byte-identical)")
    sweep.add_argument("--cache-dir",
                       help="run cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="skip the run cache entirely")
    sweep.set_defaults(func=_cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or maintain the run cache"
    )
    cache.add_argument("action", choices=("ls", "verify", "gc"))
    cache.add_argument("--cache-dir",
                       help="run cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc only: also remove entries older than this")
    cache.set_defaults(func=_cmd_cache)

    report = sub.add_parser(
        "report", help="write all regenerated tables/figures to markdown"
    )
    report.add_argument("--output", default="results.md")
    report.add_argument("--reports", default="all",
                        help="comma-separated ids, or 'all'")
    report.add_argument("--epochs", type=int, default=3)
    report.add_argument("--no-scorecard", action="store_true")
    report.set_defaults(func=_cmd_report)

    control = sub.add_parser(
        "control",
        help="list or describe the adaptive control-plane policies",
    )
    control.add_argument("policy", nargs="?",
                         help="policy name to describe (default: list all)")
    control.set_defaults(func=_cmd_control)

    advise = sub.add_parser(
        "advise", help="planner advice for a candidate setup"
    )
    advise.add_argument("model", help="model key (e.g. conv, rxlm)")
    advise.add_argument("setup", nargs="+",
                        help="location=count tokens, e.g. gc:us=4 gc:eu=4")
    advise.add_argument("--tbs", type=int, default=32768)
    advise.add_argument("--gpu", default="t4")
    advise.set_defaults(func=_cmd_advise)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
