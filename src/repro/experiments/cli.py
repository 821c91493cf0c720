"""Command-line interface: regenerate paper figures from the shell.

Usage::

    python -m repro.experiments list
    python -m repro.experiments figure05
    python -m repro.experiments figure12 --out results/ --svg
    python -m repro.experiments all --out results/ --workers 4 --cache-dir .cache
    python -m repro.experiments figure14 --workers 0 --progress
    python -m repro.experiments figure12 --profile --out results/
    python -m repro.experiments figure12 --backend queue --workers 4
    python -m repro.experiments --worker /shared/queue   # standalone worker
    python -m repro.experiments revocation --trials 3
    python -m repro.experiments revocation --persistence sqlite \
        --state-dir /tmp/revocation --restart-fraction 0.5
    python -m repro.experiments trial --detector mahalanobis
    python -m repro.experiments arena --trials 3 --out results/

The ``arena`` target runs every registered detector (or just
``--detector``) head-to-head on identical seeded scenarios across the
Figure-12 grid (``repro.experiments.arena``, see docs/ARENA.md) and
prints the markdown comparison report; ``--out`` also writes
``ARENA_REPORT.md`` + ``BENCH_arena.json``. ``--detector`` likewise
selects the detection strategy for the ``trial`` target's pipeline.

The ``revocation`` target captures each trial's §3.1 alert stream,
replays it through the persistent, single-writer revocation service
(``repro.revocation``, see docs/REVOCATION.md), and verifies the
service's decisions and final counter state are bit-identical to the
in-process base station — optionally with a crash/recovery injected
mid-stream (``--restart-fraction``). Capture fans out over ``--workers``;
exit code 1 flags any divergence.

Each figure command prints the data table; ``--out`` also writes
``<figure>.txt`` (``<figure>.svg`` with ``--svg``, ``<figure>.json`` with
``--json``). ``--workers`` shards simulation trials across processes
(``0`` = one per CPU) and ``--cache-dir`` enables the content-addressed
result cache, so a re-run skips every already-computed pipeline point.
``--profile`` aggregates per-phase timings (the trials' ``phase:*``
span durations) and hot-path counters across every executed trial and
emits them as JSON (``profile.json`` under ``--out``); it applies to
the figure targets and ``trial``, and any other target rejects it.

``--backend queue`` swaps the in-process pool for the distributed
file-queue backend (``repro.experiments.distributed``): the CLI acts as
the coordinator, spawns ``--workers`` worker processes against
``--queue-dir`` once and keeps them for every run of the invocation
(standalone workers started with ``--worker QUEUE_DIR`` — on this or any
host sharing the path — join in), and re-queues tasks whose worker
crashes or stalls past ``--lease-timeout``. Results stay bit-identical
to the serial path. Each worker it spawns is this program in worker
mode, pinned to its runs with ``--coordinator``.

Failure handling: the default is ``--fail-fast`` (first task exception
aborts the run). ``--keep-going`` degrades gracefully instead — failed
trials are recorded as structured error records (including the pipeline
phase that was active), every other trial still runs, an error summary
goes to stderr (and ``errors.json`` under ``--out``), and the exit code
is 3 so scripts notice the partial result.

Telemetry export (see docs/OBSERVABILITY.md): ``--metrics-out PATH``
writes the run's merged metrics registry in Prometheus text format;
``--trace-out BASE`` writes span timelines as ``BASE.json`` (Chrome/
Perfetto trace) and the unified event stream as ``BASE.jsonl``
(``--trace-format`` selects one). Either flag turns observability on for
every executed trial; results are bit-identical regardless. The
``trial`` target runs one paper-default pipeline with full observability
— the single invocation CI validates with ``tools/check_telemetry.py``.

Paper section: §4 (regenerating the evaluation).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import pathlib
import platform
import sys
import threading
from typing import List, Optional, Sequence

from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner, ProgressEvent
from repro.experiments.svgplot import save_svg
from repro.obs import (
    ObserveConfig,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)

#: Figures rendered as scatter rather than lines.
_SCATTER = {"figure11"}


def _workers_type(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 = one worker per CPU)"
        )
    return workers


def _trials_type(value: str) -> int:
    trials = int(value)
    if trials < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return trials


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "figure name (e.g. figure05), 'all', 'list', 'report', "
            "'trial' (one fully observed paper-default pipeline run), "
            "'arena' (every registered detector head-to-head on identical "
            "scenarios), or 'revocation' (replay captured alert streams "
            "through the revocation service and verify "
            "bit-identity); optional with --worker"
        ),
    )
    parser.add_argument(
        "--bench-output",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/output"),
        help="where the benchmark .txt outputs live (for 'report')",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write <figure>.txt (created if missing)",
    )
    parser.add_argument(
        "--svg",
        action="store_true",
        help="also render <figure>.svg into --out",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write <figure>.json (FigureData.to_dict) into --out",
    )
    parser.add_argument(
        "--workers",
        type=_workers_type,
        default=1,
        help="worker processes for simulation figures (0 = one per CPU)",
    )
    parser.add_argument(
        "--backend",
        choices=("pool", "queue"),
        default="pool",
        help=(
            "execution backend: 'pool' (in-process worker pool, the "
            "default) or 'queue' (distributed file-queue coordinator "
            "whose workers claim the lowest-id open task, with crash "
            "re-queue; see --queue-dir)"
        ),
    )
    parser.add_argument(
        "--queue-dir",
        type=pathlib.Path,
        default=None,
        help=(
            "queue directory for --backend queue (shared path standalone "
            "workers attach to; default: a temporary directory, deleted "
            "on exit)"
        ),
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "queue backend: seconds a claimed task's heartbeat may go "
            "stale before it is re-queued (default: 30)"
        ),
    )
    parser.add_argument(
        "--worker",
        type=pathlib.Path,
        default=None,
        metavar="QUEUE_DIR",
        help=(
            "run as a standalone queue worker serving this queue "
            "directory instead of generating figures (see also "
            "--worker-id; without --once it serves runs until killed)"
        ),
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable name for --worker (default: w<pid>)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="with --worker: exit after the first run completes",
    )
    parser.add_argument(
        "--coordinator",
        type=int,
        default=None,
        metavar="PID",
        help=(
            "with --worker: serve only the runs this coordinator pid "
            "started, and exit when stdin reaches EOF (how a queue "
            "runner spawns its own workers)"
        ),
    )
    parser.add_argument(
        "--crash-after-claims",
        type=int,
        default=None,
        metavar="N",
        help="with --worker, fault injection: hard-crash at claim N of a run",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="enable the content-addressed result cache in this directory",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-task progress lines to stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect per-phase timings and hot-path counters from every "
            "executed pipeline trial; prints the aggregated JSON summary "
            "(and writes profile.json into --out when given); figure "
            "targets and 'trial' only"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the table on stdout",
    )
    failure = parser.add_mutually_exclusive_group()
    failure.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "degrade gracefully: record failed trials as structured "
            "errors, keep the sweep running, exit 3 if any failed"
        ),
    )
    failure.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first task failure (the default)",
    )
    parser.add_argument(
        "--detector",
        default=None,
        metavar="NAME",
        help=(
            "detection strategy from repro.detectors (see "
            "available_detectors()): selects the 'trial' pipeline's "
            "detector and restricts the 'arena' to one entrant "
            "(default: 'paper' for trial, all detectors for arena)"
        ),
    )
    revocation = parser.add_argument_group(
        "revocation", "options for the 'revocation' service-replay target"
    )
    revocation.add_argument(
        "--trials",
        type=_trials_type,
        default=3,
        help=(
            "revocation: captured pipeline trials to replay; "
            "arena: seeded trials per grid point (default: 3)"
        ),
    )
    revocation.add_argument(
        "--persistence",
        choices=("memory", "jsonl", "sqlite"),
        default="memory",
        help="revocation: persistence backend (default: memory)",
    )
    revocation.add_argument(
        "--state-dir",
        type=pathlib.Path,
        default=None,
        help=(
            "revocation: directory for jsonl/sqlite service state "
            "(default: a fresh temporary directory)"
        ),
    )
    revocation.add_argument(
        "--restart-fraction",
        type=float,
        default=None,
        metavar="F",
        help=(
            "revocation: crash the service after this fraction (0..1) of "
            "each stream and recover from the ledger before continuing"
        ),
    )
    revocation.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="revocation: write a state snapshot every N committed alerts",
    )
    parser.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        help=(
            "write the merged metrics registry (Prometheus text format) "
            "here; implies observability for executed trials"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help=(
            "base path for trace exports: <base>.json (Chrome/Perfetto) "
            "and/or <base>.jsonl (event log); implies observability"
        ),
    )
    parser.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl", "both"),
        default="both",
        help="which trace exports --trace-out writes (default: both)",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live /metrics, /healthz, and /spans on this port "
            "(0 = ephemeral) while the run is in flight; applies to the "
            "coordinating runner of every target (for revocation: its "
            "capture run) and to --worker mode; the revocation service's "
            "own plane is served only through "
            "RevocationService(telemetry_port=) (see docs/OBSERVABILITY.md)"
        ),
    )
    return parser


def _print_progress(event: ProgressEvent) -> None:
    origin = "cache" if event.cached else f"{event.seconds:.2f}s"
    status = "" if event.ok else " FAILED"
    print(
        f"[{event.done}/{event.total}] {event.key} ({origin}){status}",
        file=sys.stderr,
    )


def _wants_telemetry(args) -> bool:
    """True when any telemetry-export flag (or the trial target) is set."""
    return (
        args.metrics_out is not None
        or args.trace_out is not None
        or args.target == "trial"
    )


def make_runner(args) -> ExperimentRunner:
    """Build the experiment runner the CLI flags describe."""
    workers = args.workers
    if workers == 0:
        workers = os.cpu_count() or 1
    observe = None
    if _wants_telemetry(args):
        # The trial target ships the full protocol event stream; sweeps
        # keep worker payloads lean (span markers only).
        observe = ObserveConfig(trace_events=args.target == "trial")
    return ExperimentRunner(
        n_workers=workers,
        backend=args.backend,
        queue_dir=args.queue_dir,
        lease_timeout_s=args.lease_timeout,
        cache_dir=args.cache_dir,
        progress=_print_progress if args.progress else None,
        profile=args.profile,
        keep_going=args.keep_going,
        observe=observe,
        telemetry_port=args.telemetry_port,
    )


def _generate(name: str, runner: ExperimentRunner):
    """Call a figure generator, passing the runner when it takes one."""
    generator = figures.ALL_FIGURES[name]
    if "runner" in inspect.signature(generator).parameters:
        return generator(runner=runner)
    return generator()


def _emit(fig, args) -> None:
    if not args.quiet:
        print(fig.format_table())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{fig.figure_id}.txt").write_text(
            fig.format_table() + "\n"
        )
        if args.svg:
            save_svg(
                fig,
                str(args.out / f"{fig.figure_id}.svg"),
                scatter=fig.figure_id in _SCATTER,
            )
        if args.json:
            (args.out / f"{fig.figure_id}.json").write_text(
                json.dumps(fig.to_dict(), indent=2, sort_keys=True) + "\n"
            )


def _emit_profile(runner: ExperimentRunner, args) -> None:
    """Print (and, under ``--out``, write) the ``--profile`` summary."""
    if not args.profile:
        return
    payload = json.dumps(
        runner.stats.profile_summary(), indent=2, sort_keys=True
    )
    if not args.quiet:
        print(payload)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "profile.json").write_text(payload + "\n")


def _exit_on_eof() -> None:
    """Block until stdin reaches EOF, then end the process at once."""
    sys.stdin.buffer.read()
    os._exit(0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.worker is not None:
        from repro.experiments.distributed import run_worker

        if args.coordinator is not None:
            # The coordinator holds the other end of stdin: close() and
            # the coordinator's death both end this worker.
            threading.Thread(target=_exit_on_eof, daemon=True).start()
        worker_id = args.worker_id or f"w{os.getpid()}"
        return run_worker(
            args.worker,
            worker_id,
            crash_after_claims=args.crash_after_claims,
            once=args.once,
            coordinator=args.coordinator,
            telemetry_port=args.telemetry_port,
        )

    if args.target is None:
        parser.error("a target is required unless --worker is given")
    if args.profile and args.target in ("list", "report", "arena", "revocation"):
        parser.error(
            f"--profile applies to figure targets and 'trial', "
            f"not {args.target!r}"
        )

    if args.target == "list":
        for name in sorted(figures.ALL_FIGURES):
            generator = figures.ALL_FIGURES[name]
            doc = (generator.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}")
        return 0

    if args.target == "report":
        from repro.experiments.report import build_report, write_report

        if args.out is not None:
            destination = args.out / "REPORT.md"
            write_report(args.bench_output, destination)
            if not args.quiet:
                print(f"wrote {destination}")
        elif not args.quiet:
            print(build_report(args.bench_output))
        return 0

    if args.target == "trial":
        from repro.core.pipeline import PipelineConfig

        detector = args.detector or "paper"
        config = PipelineConfig(seed=0, detector=detector)
        with make_runner(args) as runner:
            results = runner.run_pipeline_configs(
                [config], keys=[f"trial:seed0:{detector}"]
            )
            if not args.quiet:
                print(json.dumps(results[0], indent=2, sort_keys=True))
            _emit_profile(runner, args)
            _export_telemetry(runner, args)
            if runner.stats.errors:
                _report_errors(runner.stats.errors, args)
                return 3
            return 0

    if args.target == "arena":
        return _run_arena(args)

    if args.target == "revocation":
        return _run_revocation(args)

    if args.target == "all":
        names: List[str] = sorted(figures.ALL_FIGURES)
    elif args.target in figures.ALL_FIGURES:
        names = [args.target]
    else:
        print(
            f"unknown target {args.target!r}; try 'list'", file=sys.stderr
        )
        return 2

    with make_runner(args) as runner:
        for name in names:
            fig = _generate(name, runner)
            _emit(fig, args)
        _export_telemetry(runner, args)
    _emit_profile(runner, args)
    if args.cache_dir is not None and not args.quiet:
        stats = runner.stats
        print(
            f"runner: {stats.executed} executed, {stats.cache_hits} cache "
            f"hits, {stats.cache_misses} misses "
            f"({stats.total_seconds:.2f}s task time)",
            file=sys.stderr,
        )
    if runner.stats.errors:
        _report_errors(runner.stats.errors, args)
        return 3
    return 0


def _run_arena(args) -> int:
    """The ``arena`` target: every detector head-to-head, one report.

    Sweeps each registered detector (or just ``--detector``) across the
    Figure-12 grid on identical seeded scenarios, prints the markdown
    comparison report, and — with ``--out`` — writes ``ARENA_REPORT.md``
    plus the ``BENCH_arena.json`` headline snapshot (the same artifacts
    ``benchmarks/bench_arena.py`` commits at the repo root).
    """
    from repro.detectors import available_detectors
    from repro.experiments.arena import (
        arena_headlines,
        render_arena_markdown,
        run_arena,
    )

    detectors = None
    if args.detector is not None:
        if args.detector not in available_detectors():
            print(
                f"unknown detector {args.detector!r}; available: "
                f"{', '.join(available_detectors())}",
                file=sys.stderr,
            )
            return 2
        detectors = [args.detector]
    with make_runner(args) as runner:
        arena = run_arena(detectors, trials=args.trials, runner=runner)
    report = render_arena_markdown(arena)
    if not args.quiet:
        print(report, end="")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "ARENA_REPORT.md").write_text(report)
        bench = {
            "schema": 1,
            "environment": {
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
            },
            "benchmarks": arena_headlines(arena),
        }
        (args.out / "BENCH_arena.json").write_text(
            json.dumps(bench, indent=2, sort_keys=True) + "\n"
        )
        if not args.quiet:
            print(
                f"wrote {args.out / 'ARENA_REPORT.md'} and "
                f"{args.out / 'BENCH_arena.json'}",
                file=sys.stderr,
            )
    if runner.stats.errors:
        _report_errors(runner.stats.errors, args)
        return 3
    return 0


def _run_revocation(args) -> int:
    """The ``revocation`` target: capture, replay, verify bit-identity.

    Captures ``--trials`` reduced-deployment pipeline alert streams
    (fanning out over the runner's workers), replays each through a
    :class:`repro.revocation.RevocationService` on the chosen
    ``--persistence`` backend (optionally crash-recovering after
    ``--restart-fraction`` of the stream), and prints one JSON report
    per stream. Exit code 1 means at least one replay diverged from the
    in-process base station — which the tests assert never happens.
    """
    import tempfile

    from repro.core.pipeline import PipelineConfig
    from repro.revocation import capture_streams, make_backend, replay_sweep

    configs = [
        PipelineConfig(
            n_total=200,
            n_beacons=30,
            n_malicious=6,
            rtt_calibration_samples=200,
            seed=seed,
        )
        for seed in range(args.trials)
    ]
    with make_runner(args) as runner:
        streams = capture_streams(
            configs, runner, keys=[f"revocation:seed{c.seed}" for c in configs]
        )
        state_dir = args.state_dir
        if state_dir is None and args.persistence != "memory":
            state_dir = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-revocation-")
            )
        backend_counter = iter(range(len(streams)))

        def _next_backend():
            index = next(backend_counter)
            if args.persistence == "memory":
                return make_backend("memory")
            return make_backend(args.persistence, state_dir / f"stream-{index}")

        events_log = None
        trace_context = None
        if runner.observe is not None and args.out is not None:
            # Observed replays join the run's trace: svc:flush spans land
            # in an events log tools/stitch_trace.py can merge with the
            # queue backend's coordinator/worker logs.
            from repro.obs import TraceContext, new_trace_id

            args.out.mkdir(parents=True, exist_ok=True)
            events_log = args.out / "revocation.events.jsonl"
            trace_context = TraceContext(
                trace_id=runner.stats.trace_id or new_trace_id()
            )
        reports = replay_sweep(
            streams,
            restart_fraction=args.restart_fraction,
            snapshot_every=args.snapshot_every,
            make_backend=_next_backend,
            observe=runner.observe,
            events_log=events_log,
            trace_context=trace_context,
        )
    if not args.quiet:
        for report in reports:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    failures = [report for report in reports if not report.identical]
    total_alerts = sum(report.n_alerts for report in reports)
    print(
        f"revocation: {len(reports)} stream(s), {total_alerts} alert(s), "
        f"{args.persistence} persistence, "
        f"{len(failures)} divergence(s)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _export_telemetry(runner: ExperimentRunner, args) -> None:
    """Write the telemetry exports the CLI flags request (no-op without)."""
    stats = runner.stats
    if args.metrics_out is not None:
        path = write_prometheus(args.metrics_out, stats.merged_registry())
        if not args.quiet:
            print(f"metrics written to {path}", file=sys.stderr)
    if args.trace_out is None:
        return
    trials = list(stats.telemetry)
    if stats.run_spans:
        # The runner's own task spans become process 0 in the timeline.
        trials.append({"key": "runner", "index": -1, "spans": stats.run_spans})
    base = args.trace_out
    if args.trace_format in ("chrome", "both"):
        path = write_chrome_trace(base.with_suffix(".json"), trials)
        if not args.quiet:
            print(f"trace written to {path}", file=sys.stderr)
    if args.trace_format in ("jsonl", "both"):
        path = write_events_jsonl(base.with_suffix(".jsonl"), stats.telemetry)
        if not args.quiet:
            print(f"event log written to {path}", file=sys.stderr)


def _report_errors(errors, args) -> None:
    """Summarize recorded task failures on stderr (and in errors.json)."""
    print(
        f"warning: {len(errors)} task(s) failed; results are partial",
        file=sys.stderr,
    )
    for record in errors:
        where = f" in {record.phase}" if record.phase else ""
        print(
            f"  {record.key}: {record.error_type}: {record.message} "
            f"(after {record.attempts} attempt(s){where})",
            file=sys.stderr,
        )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        destination = args.out / "errors.json"
        destination.write_text(
            json.dumps(
                [record.to_dict() for record in errors],
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"error records written to {destination}", file=sys.stderr)
