"""Parallel experiment execution with a content-addressed result cache.

Monte-Carlo trials and sweep points are embarrassingly parallel: every
pipeline run is fully determined by its :class:`PipelineConfig` (all
stochastic streams derive from ``config.seed``), so trials can be sharded
across a :class:`concurrent.futures.ProcessPoolExecutor` without changing
a single drawn random number. This module is the execution layer the
figure generators, sweeps, and benches route through:

- :class:`ExperimentRunner` — maps tasks over ``n_workers`` processes
  (``n_workers=1`` is a true serial fallback: same process, same order),
  fires a progress callback per completed task, and records per-task
  timing in :class:`RunStats`;
- **graceful degradation** — with ``keep_going=True`` a task that raises
  does not abort the sweep: the exception is captured worker-side as a
  picklable :class:`TrialError` record (type, message, traceback,
  phase), the task's slot in the results list becomes ``None``, and
  every other task still runs. A failed task is not rerun: it is a pure
  function of its payload, so it would fail the same way again. The
  default (``keep_going=False``) fails fast with :class:`ExperimentError`;
- :class:`ResultCache` — JSON files on disk, content-addressed by a
  stable SHA-256 of the pipeline config + seed + library version, so
  re-running a bench skips every already-computed point. The runner is
  the cache's only writer: it serves hits before executing anything and
  writes each executed miss, with any backend. Writes are atomic
  (write-temp + :func:`os.replace`) and safe under concurrent writers;
- ``backend="queue"`` — the distributed execution backend
  (:mod:`repro.experiments.distributed`): a file-queue coordinator whose
  worker processes claim task manifests lowest id first, with
  lease-based crash recovery, still bit-identical to the serial path.
  The runner's worker fleet lives from its first queue run until
  :meth:`ExperimentRunner.close`, so close a queue-backed runner (or use
  it as a context manager);
- :class:`PipelineExperiment` — a picklable ``seed -> metrics`` callable
  for :func:`repro.experiments.montecarlo.run_trials`.

Determinism contract: for identical inputs, the runner returns results in
input order and bit-identical to the serial path, for any ``n_workers``
and any backend.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import time
import traceback
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import dataclasses

from repro.core.pipeline import PipelineConfig, PipelineResult, SecureLocalizationPipeline
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config_io import config_to_dict
from repro.obs import ObserveConfig, active_span_of, merge_snapshots

#: Scalar :class:`PipelineResult` attributes collected by pipeline tasks.
#: Every metric is always collected, so cache entries stay valid when a
#: caller later asks for a different subset.
PIPELINE_METRICS: Tuple[str, ...] = (
    "detection_rate",
    "false_positive_rate",
    "affected_non_beacons_per_malicious",
    "revoked_malicious",
    "revoked_benign",
    "alerts_accepted",
    "alerts_rejected",
    "probes_sent",
    "mean_localization_error_ft",
    "mean_requesters_per_malicious",
)

#: Cache entry layout version; bump on incompatible changes.
#: v2: §2.2.1 wormhole-filter fix changed seeded pipeline outputs, and
#: undefined rates are now omitted from metric dicts instead of 0.0.
#: v3: configs gained the ``detector`` field (part of the key material),
#: so pre-arena entries address differently and must not be served.
CACHE_SCHEMA_VERSION = 3


def collect_metrics(result: PipelineResult) -> Dict[str, float]:
    """Flatten a pipeline result to the scalar metric dict tasks return.

    Metrics whose value is ``None`` (undefined rates — e.g.
    ``detection_rate`` in a trial with no malicious beacons) are omitted
    so the Monte-Carlo aggregation averages only over trials where the
    metric is defined, instead of biasing the mean with zeros.
    """
    metrics: Dict[str, float] = {}
    for name in PIPELINE_METRICS:
        value = getattr(result, name)
        if value is None:
            continue
        metrics[name] = float(value)
    return metrics


def execute_pipeline(config: PipelineConfig) -> Dict[str, float]:
    """Run one pipeline and return its metrics (the worker entry point)."""
    with closing(SecureLocalizationPipeline(config)) as pipeline:
        return collect_metrics(pipeline.run())


@dataclass(frozen=True)
class _InstrumentedTask:
    """Picklable pipeline worker with profiling and/or observability.

    Closures do not pickle across the process boundary; a frozen
    dataclass carrying the instrumentation switches does. The returned
    payload is ``{"metrics": ...}`` plus ``"profile"`` (with
    ``profile=True``) and ``"telemetry"`` (when the run observed) — the
    runner unwraps it so callers still see plain metric dicts.

    ``observe`` is applied only to configs whose own ``observe`` is None,
    so a caller-specified per-config choice always wins.
    """

    profile: bool = False
    observe: Optional[ObserveConfig] = None

    def __call__(self, config: PipelineConfig) -> Dict[str, Any]:
        if self.observe is not None and config.observe is None:
            config = dataclasses.replace(config, observe=self.observe)
        with closing(SecureLocalizationPipeline(config)) as pipeline:
            metrics = collect_metrics(pipeline.run())
            out: Dict[str, Any] = {"metrics": metrics}
            if self.profile:
                out["profile"] = pipeline.profile_snapshot()
            if config.observe is not None:
                out["telemetry"] = pipeline.telemetry()
            return out


def cache_key(config: PipelineConfig, *, kind: str = "pipeline") -> str:
    """Stable content address of one task: config + seed + code version.

    The seed is part of the config, so distinct trials hash apart; the
    library version is mixed in so upgrading the code invalidates every
    stale entry without any bookkeeping. The ``observe`` knob is *not*
    part of the address — observability never changes results (asserted
    in tests), so observed and unobserved runs share cache entries.
    """
    from repro import __version__

    config_dict = config_to_dict(config)
    config_dict.pop("observe", None)
    material = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "kind": kind,
            "config": config_dict,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed JSON result store (one file per task).

    Entries live at ``<root>/<key>.json`` and carry their key material for
    debuggability. A missing, unreadable, or malformed file is simply a
    miss — the task recomputes and the entry is rewritten.

    The store is safe to share between processes: :meth:`put` writes to a
    uniquely named temp file and lands it with :func:`os.replace`, so a
    reader never observes a torn entry and the last concurrent writer
    wins whole-file (all writers of one key produce identical bytes —
    results are content-addressed — so "last wins" is also "any wins").
    """

    #: Process-wide uniquifier so concurrent threads of one process never
    #: collide on a temp-file name.
    _tmp_ids = itertools.count()

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    def path(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The cached metrics for ``key``, or None on miss/corruption."""
        path = self.path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(metrics, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return {str(name): float(value) for name, value in metrics.items()}
        except (TypeError, ValueError):
            return None

    def put(
        self,
        key: str,
        metrics: Dict[str, float],
        *,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist ``metrics`` under ``key`` (atomic rename, never partial).

        ``telemetry`` (a registry snapshot from an observed run) rides
        along as entry metadata for offline inspection; :meth:`get`
        serves metrics only, so unobserved readers are unaffected.
        """
        from repro import __version__

        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "metrics": metrics,
        }
        if config is not None:
            entry["config"] = config_to_dict(config)
        if telemetry is not None:
            entry["telemetry"] = telemetry
        path = self.path(key)
        # Unique per (process, thread-call) so concurrent writers never
        # share a temp file; os.replace is atomic, so readers see either
        # the old complete entry or the new complete entry, never a mix.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(self._tmp_ids)}")
        try:
            tmp.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise


@dataclass(frozen=True)
class TrialError:
    """A structured record of one task that failed.

    Captured worker-side (tracebacks do not pickle; their formatted text
    does), so a crash in a subprocess surfaces with full context instead
    of an opaque ``BrokenProcessPool``-style stub.

    Attributes:
        key: the task's human-readable label.
        index: the task's position in the input sequence.
        error_type: the exception class name (e.g. ``"BudgetExceededError"``).
        message: ``str(exception)``.
        traceback_text: the formatted traceback.
        attempts: 1, except for a queue task settled as
            ``WorkerLostError``: there it counts the workers that died
            while holding it.
        phase: the innermost span/phase open when the task failed
            (e.g. ``"phase:detection"``), or ``""`` when nothing tagged
            the exception. Pipeline phases tag exceptions even with
            observability off.
    """

    key: str
    index: int
    error_type: str
    message: str
    traceback_text: str
    attempts: int
    phase: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """The record as a plain dict (for ``errors.json``)."""
        return {
            "key": self.key,
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback_text,
            "attempts": self.attempts,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class ProgressEvent:
    """One completed task, as seen by the progress callback.

    Attributes:
        done: tasks completed so far in this runner call.
        total: tasks in this runner call.
        key: the task's human-readable label.
        seconds: wall-clock spent on the task (≈0 for cache hits).
        cached: True when the result came from the cache.
        ok: False when the task failed and the runner kept going.
    """

    done: int
    total: int
    key: str
    seconds: float
    cached: bool
    ok: bool = True


@dataclass
class RunStats:
    """Timing hooks: what the runner actually executed vs served cached."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    task_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-executed-trial profile snapshots (only with ``profile=True``;
    #: cache hits contribute none — they executed nothing).
    profiles: List[Dict[str, Any]] = field(default_factory=list)
    #: Structured records of tasks that failed (only populated under
    #: ``keep_going=True``; the fail-fast path raises instead).
    errors: List[TrialError] = field(default_factory=list)
    #: Per-executed-trial telemetry (only when the runner observes):
    #: ``{"index", "key", "registry", "spans", "events"}`` entries in
    #: completion order. Cache hits contribute none — they ran nothing.
    telemetry: List[Dict[str, Any]] = field(default_factory=list)
    #: Runner-level task spans (only when observing): one completed-span
    #: dict per executed task, on the runner's own wall clock.
    run_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Queue backend only: leases expired and re-queued after a worker
    #: crashed or stalled (each re-queue reruns one task elsewhere).
    requeues: int = 0
    #: Always 0: queue workers share one claim order, so no task is
    #: stolen. Kept only because the repository benchmark
    #: (``benchmarks/e2e``) still reads it.
    steals: int = 0
    #: Queue backend only: one summary dict per worker and run
    #: (``{"worker", "ru_maxrss", "registry"}``), sorted by worker id
    #: within a run. ``ru_maxrss`` is the worker process's peak RSS when
    #: it left the run, as :func:`resource.getrusage` reports it (KiB on
    #: Linux). Merge the registries with :meth:`worker_registry`.
    worker_snapshots: List[Dict[str, Any]] = field(default_factory=list)
    #: Queue backend + observe only: the trace id the coordinator minted
    #: for the latest run (propagated to workers via task manifests; see
    #: :class:`repro.obs.TraceContext` and ``tools/stitch_trace.py``).
    trace_id: Optional[str] = None

    def worker_registry(self) -> Dict[str, Any]:
        """The workers' own metrics registries reduced into one.

        Order-insensitive like :meth:`merged_registry`, but over the
        queue workers' *process-level* counters (tasks claimed and
        completed) rather than the per-trial simulation telemetry.
        """
        return merge_snapshots(
            entry["registry"]
            for entry in self.worker_snapshots
            if entry.get("registry") is not None
        )

    @property
    def failed(self) -> int:
        """Tasks that ended in a recorded failure."""
        return len(self.errors)

    @property
    def total_seconds(self) -> float:
        """Summed per-task wall clock (not wall clock of the whole run)."""
        return sum(self.task_seconds.values())

    def profile_summary(self) -> Dict[str, Any]:
        """Phase seconds and counters summed over all executed trials.

        ``{"trials": n, "phases": {...}, "counters": {...}}``; a run
        that executed nothing yields ``trials == 0`` and empty sections.
        """
        phases: Dict[str, float] = {}
        counters: Dict[str, int] = {}
        for profile in self.profiles:
            for name, seconds in profile["phases"].items():
                phases[name] = phases.get(name, 0.0) + seconds
            for name, n in profile["counters"].items():
                counters[name] = counters.get(name, 0) + n
        return {
            "trials": len(self.profiles),
            "phases": phases,
            "counters": counters,
        }

    def merged_registry(self) -> Dict[str, Any]:
        """All trials' registry snapshots reduced into one.

        Order-insensitive (see :func:`repro.obs.merge_snapshots`), so the
        merge over a parallel run's completion order equals the serial
        run's exactly — this is the property the runner tests assert.
        """
        return merge_snapshots(
            entry["registry"]
            for entry in self.telemetry
            if entry.get("registry") is not None
        )


def _timed_call(
    fn: Callable[[Any], Any], payload: Any
) -> Tuple[bool, Any, float, int]:
    """Worker-side wrapper: run ``fn(payload)`` once, timing and shielding it.

    Returns ``(ok, value, seconds, attempts)`` with ``attempts == 1``. On
    failure ``value`` is the picklable 4-tuple ``(error_type, message,
    traceback_text, phase)`` — live exception objects (and their
    tracebacks) do not survive the process boundary reliably, their
    formatted text does. ``phase`` is the innermost span/phase that
    tagged the exception (see :func:`repro.obs.active_span_of`).
    """
    start = time.perf_counter()
    try:
        result = fn(payload)
    except Exception as exc:  # noqa: BLE001 - the shield is the point
        failure = (
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
            active_span_of(exc),
        )
        return False, failure, time.perf_counter() - start, 1
    return True, result, time.perf_counter() - start, 1


class ExperimentRunner:
    """Shards independent experiment tasks across worker processes.

    Args:
        n_workers: process count; 1 (the default) runs everything in the
            calling process with zero multiprocessing machinery (with
            ``backend="queue"`` it is the size of the worker fleet
            instead, and 1 still exercises the full queue protocol).
        backend: ``"pool"`` (the default) shards over an in-process
            :class:`~concurrent.futures.ProcessPoolExecutor`;
            ``"queue"`` routes execution through the distributed
            file-queue coordinator (:mod:`repro.experiments.distributed`)
            — worker processes claiming leased task manifests lowest id
            first, with crash re-queue. The runner spawns its fleet of
            ``n_workers`` at its first queue run and keeps it, across
            runs, until :meth:`close`. Both are bit-identical to serial.
        queue_dir: queue backend only — the queue directory (shared
            filesystem path workers rendezvous on). Default: one
            temporary directory, made at the runner's first queue run
            and deleted by :meth:`close`. Pre-started standalone workers
            (``python -m repro.experiments --worker DIR``) attach to the
            same directory and outlive the runner.
        lease_timeout_s: queue backend only — a claimed task whose lease
            heartbeat goes stale for this long is treated as lost and
            re-queued (crashed workers spawned by the coordinator are
            detected immediately via their exit status).
        queue_crash_after: queue backend only — fault injection for
            tests/benches: maps a fleet worker's index to the claim
            count, counted per run, at which it hard-crashes
            (``os._exit``) while still holding its lease, exercising the
            re-queue path. Only the first worker spawned for an index
            crashes; its replacements never do.
        cache_dir: enable the on-disk :class:`ResultCache` rooted here.
        progress: called with a :class:`ProgressEvent` after each task.
        profile: collect per-trial phase timings and hot-path counters
            for executed pipeline tasks into ``stats.profiles``
            (aggregate via :meth:`RunStats.profile_summary`). Metrics
            are unchanged; cache behaviour is unchanged (entries store
            metrics only, and hits contribute no profile).
        keep_going: degrade gracefully — a task that raises yields
            ``None`` in the result list and a :class:`TrialError` in
            ``stats.errors`` instead of aborting the whole sweep. The
            default fails fast with :class:`repro.errors.ExperimentError`.
        observe: collect observability telemetry for executed pipeline
            tasks. ``True`` means a default
            :class:`repro.obs.ObserveConfig`; an explicit config selects
            signals. Per-trial telemetry lands in ``stats.telemetry``
            (merge registries via :meth:`RunStats.merged_registry`),
            runner-level task spans in ``stats.run_spans``. Metrics and
            cache addresses are unchanged — observation never alters
            results.
        telemetry_port: serve live ``/metrics`` / ``/healthz`` /
            ``/spans`` scrapes from this (coordinator) process on the
            given port (0 = ephemeral; read the bound port from
            :attr:`telemetry_server`). ``/metrics`` is the union of the
            merged per-trial registries, the queue workers' registries,
            and — while a queue run is in flight — its liveness gauges
            (depth, in-flight leases, heartbeat staleness). :meth:`close`
            stops the server.

    The runner is deterministic: results come back in input order and are
    bit-identical for any worker count, because every task is a pure
    function of its (picklable) payload.

    Call :meth:`close`, or use the runner as a context manager, to stop
    the telemetry server and the queue worker fleet. A runner that is
    garbage-collected unclosed stops its fleet then.
    """

    def __init__(
        self,
        *,
        n_workers: int = 1,
        backend: str = "pool",
        queue_dir: Optional[Union[str, pathlib.Path]] = None,
        lease_timeout_s: float = 30.0,
        queue_crash_after: Optional[Mapping[int, int]] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        profile: bool = False,
        keep_going: bool = False,
        observe: Union[ObserveConfig, bool, None] = None,
        telemetry_port: Optional[int] = None,
    ) -> None:
        if not isinstance(n_workers, int) or n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be an int >= 1, got {n_workers!r}"
            )
        if backend not in ("pool", "queue"):
            raise ConfigurationError(
                f"backend must be 'pool' or 'queue', got {backend!r}"
            )
        if not isinstance(lease_timeout_s, (int, float)) or lease_timeout_s <= 0:
            raise ConfigurationError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s!r}"
            )
        if observe is True:
            observe = ObserveConfig()
        elif observe is False:
            observe = None
        if observe is not None and not isinstance(observe, ObserveConfig):
            raise ConfigurationError(
                f"observe must be an ObserveConfig, bool, or None, got {observe!r}"
            )
        self.n_workers = n_workers
        self.backend = backend
        self.queue_dir = pathlib.Path(queue_dir) if queue_dir is not None else None
        self.lease_timeout_s = float(lease_timeout_s)
        self.queue_crash_after = dict(queue_crash_after or {})
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.profile = bool(profile)
        self.keep_going = bool(keep_going)
        self.observe = observe
        self.stats = RunStats()
        self._wall0 = time.perf_counter()
        #: Queue run directory currently being coordinated (liveness hook).
        self._active_queue_run: Optional[pathlib.Path] = None
        #: Queue backend: the worker fleet (spawned at the first queue
        #: run, never here, so constructing a runner stays cheap) and the
        #: finalizer that stops it if the runner is never closed.
        self._fleet = None
        self._fleet_finalizer: Optional[weakref.finalize] = None
        self.telemetry_server = None
        if telemetry_port is not None:
            from repro.obs import TelemetryServer

            self.telemetry_server = TelemetryServer(
                self._live_snapshot,
                health_fn=lambda: {
                    "status": "ok",
                    "backend": self.backend,
                    "executed": self.stats.executed,
                },
                spans_fn=lambda: self.stats.run_spans[-256:],
                port=telemetry_port,
            ).start()

    def _live_snapshot(self) -> Dict[str, Any]:
        """The /metrics view: merged trial + worker + liveness state."""
        from repro.obs import queue_liveness_snapshot

        parts = [self.stats.merged_registry(), self.stats.worker_registry()]
        active = self._active_queue_run
        if active is not None:
            parts.append(
                queue_liveness_snapshot(active, requeues=self.stats.requeues)
            )
        return merge_snapshots(parts)

    def _queue_fleet(self):
        """The queue backend's :class:`WorkerFleet`, spawned on first use."""
        if self._fleet is None:
            from repro.experiments.distributed import WorkerFleet

            self._fleet = WorkerFleet(
                self.queue_dir, self.n_workers, self.queue_crash_after
            )
            self._fleet_finalizer = weakref.finalize(self, self._fleet.close)
        return self._fleet

    def close(self) -> None:
        """Stop the telemetry server and the queue fleet (idempotent).

        Stopping the fleet also deletes the temporary queue root made
        when ``queue_dir`` is None. A later queue run spawns a new fleet.
        """
        if self.telemetry_server is not None:
            self.telemetry_server.stop()
            self.telemetry_server = None
        if self._fleet_finalizer is not None:
            self._fleet_finalizer()
            self._fleet = self._fleet_finalizer = None

    def __enter__(self) -> "ExperimentRunner":
        """Context-manager form: ensures :meth:`close` on exit."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Stop the telemetry server and the queue fleet on exit."""
        self.close()

    # ------------------------------------------------------------------
    # generic mapping
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        keys: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """``[fn(p) for p in payloads]``, sharded over the workers.

        ``fn`` and each payload must be picklable when ``n_workers > 1``
        (module-level functions and dataclass instances are; closures are
        not). Results are returned in input order. Under ``keep_going``,
        a failed task's slot holds ``None`` (its record is in
        ``stats.errors``). No caching: use :meth:`run_pipeline_configs`
        for content-addressed pipeline tasks.
        """
        task_keys = self._check_keys(keys, len(payloads))
        results: List[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        self._execute(fn, payloads, pending, results, task_keys, done_offset=0, total=len(payloads))
        return results

    # ------------------------------------------------------------------
    # cached pipeline tasks
    # ------------------------------------------------------------------
    def run_pipeline_configs(
        self,
        configs: Sequence[PipelineConfig],
        *,
        keys: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, float]]:
        """Run one pipeline per config; metric dicts in input order.

        With a cache configured, each config is first looked up by its
        content address (:func:`cache_key`); only misses execute, and
        their results are written back for the next invocation. Failed
        tasks (``keep_going``) are neither cached nor profiled — their
        slots hold ``None`` and their records land in ``stats.errors``.
        """
        task_keys = self._check_keys(keys, len(configs))
        results: List[Optional[Dict[str, float]]] = [None] * len(configs)
        pending: List[int] = []
        total = len(configs)
        done = 0
        hashes: Dict[int, str] = {}
        for index, config in enumerate(configs):
            if self.cache is not None:
                hashes[index] = cache_key(config)
                cached = self.cache.get(hashes[index])
                if cached is not None:
                    results[index] = cached
                    self.stats.cache_hits += 1
                    done += 1
                    self._emit(done, total, task_keys[index], 0.0, cached=True)
                    continue
                self.stats.cache_misses += 1
            pending.append(index)
        instrumented = self.profile or self.observe is not None
        task: Callable[[PipelineConfig], Any] = (
            _InstrumentedTask(profile=self.profile, observe=self.observe)
            if instrumented
            else execute_pipeline
        )
        self._execute(
            task, configs, pending, results, task_keys,
            done_offset=done, total=total,
        )
        telemetry_by_index: Dict[int, Dict[str, Any]] = {}
        if instrumented:
            # Unwrap the instrumented payloads (in input order, so stats
            # lists are deterministic for any worker count): profiles and
            # telemetry accumulate in the stats, metric dicts land where
            # callers expect them.
            for index in pending:
                wrapped = results[index]
                if wrapped is None:  # failed under keep_going
                    continue
                if "profile" in wrapped:
                    self.stats.profiles.append(wrapped["profile"])
                if "telemetry" in wrapped:
                    telemetry_by_index[index] = wrapped["telemetry"]
                    self.stats.telemetry.append(
                        {
                            "index": index,
                            "key": task_keys[index],
                            **wrapped["telemetry"],
                        }
                    )
                results[index] = wrapped["metrics"]
        if self.cache is not None:
            for index in pending:
                if results[index] is None:
                    continue
                telemetry = telemetry_by_index.get(index)
                self.cache.put(
                    hashes[index],
                    results[index],
                    config=configs[index],
                    telemetry=(
                        {"registry": telemetry["registry"]}
                        if telemetry is not None
                        else None
                    ),
                )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_keys(keys: Optional[Sequence[str]], n: int) -> List[str]:
        if keys is None:
            return [f"task:{i}" for i in range(n)]
        if len(keys) != n:
            raise ConfigurationError(
                f"got {len(keys)} keys for {n} tasks"
            )
        return [str(k) for k in keys]

    def _emit(
        self,
        done: int,
        total: int,
        key: str,
        seconds: float,
        *,
        cached: bool,
        ok: bool = True,
    ) -> None:
        self.stats.task_seconds[key] = seconds
        if self.progress is not None:
            self.progress(
                ProgressEvent(
                    done=done, total=total, key=key, seconds=seconds,
                    cached=cached, ok=ok,
                )
            )

    def _settle(
        self,
        index: int,
        key: str,
        outcome: Tuple[bool, Any, float, int],
        results: List[Any],
        done: int,
        total: int,
    ) -> None:
        """Land one :func:`_timed_call` outcome: result, stats, progress.

        Raises:
            ExperimentError: the task failed and the runner is fail-fast.
        """
        ok, value, seconds, attempts = outcome
        self.stats.executed += 1
        if self.observe is not None:
            # Task span on the runner's own wall clock. In parallel mode
            # the start is reconstructed from the completion instant, so
            # spans reflect when the task's slot was busy, not queued.
            end = time.perf_counter() - self._wall0
            self.stats.run_spans.append(
                {
                    "name": f"task:{key}",
                    "id": index + 1,
                    "parent": 0,
                    "depth": 0,
                    "t0_wall_s": max(0.0, end - seconds),
                    "dur_wall_s": seconds,
                    "t0_sim": 0.0,
                    "t1_sim": 0.0,
                    "attrs": {"ok": ok, "attempts": attempts},
                }
            )
        if ok:
            results[index] = value
            self._emit(done, total, key, seconds, cached=False)
            return
        error_type, message, traceback_text, phase = value
        record = TrialError(
            key=key,
            index=index,
            error_type=error_type,
            message=message,
            traceback_text=traceback_text,
            attempts=attempts,
            phase=phase,
        )
        if not self.keep_going:
            raise ExperimentError(
                f"task {key!r} failed after {attempts} attempt(s) with "
                f"{error_type}: {message}\n--- worker traceback ---\n"
                f"{traceback_text}"
            )
        self.stats.errors.append(record)
        results[index] = None
        self._emit(done, total, key, seconds, cached=False, ok=False)

    def _execute(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        pending: List[int],
        results: List[Any],
        task_keys: List[str],
        *,
        done_offset: int,
        total: int,
    ) -> None:
        """Run ``fn`` over ``payloads[i] for i in pending`` into ``results``."""
        done = done_offset
        if not pending:
            return
        if self.backend == "queue":
            from repro.experiments.distributed import execute_queue

            execute_queue(
                self, fn, payloads, pending, results, task_keys,
                done_offset=done_offset, total=total,
            )
            return
        if self.n_workers == 1:
            for index in pending:
                outcome = _timed_call(fn, payloads[index])
                done += 1
                self._settle(index, task_keys[index], outcome, results, done, total)
            return
        workers = min(self.n_workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_timed_call, fn, payloads[index]): index
                for index in pending
            }
            # Collect in completion order so progress is live; results land
            # by index, so output order stays input order.
            from concurrent.futures import as_completed

            for future in as_completed(futures):
                index = futures[future]
                outcome = future.result()
                done += 1
                self._settle(index, task_keys[index], outcome, results, done, total)


@dataclass(frozen=True)
class PipelineExperiment:
    """A picklable ``seed -> metrics`` experiment over the pipeline.

    :func:`repro.experiments.montecarlo.run_trials` accepts any callable,
    but sharding across processes requires picklability, which closures
    lack. This wrapper carries config overrides as data:

        >>> exp = PipelineExperiment(overrides={"n_total": 120, "n_beacons": 20})
        >>> metrics = exp(seed=7)  # doctest: +SKIP
    """

    overrides: Optional[Dict[str, Any]] = None

    def config(self, seed: int) -> PipelineConfig:
        """The pipeline config this experiment runs at ``seed``."""
        kwargs = dict(self.overrides or {})
        kwargs.pop("seed", None)
        return PipelineConfig(seed=seed, **kwargs)

    def __call__(self, seed: int) -> Dict[str, float]:
        return execute_pipeline(self.config(seed))
