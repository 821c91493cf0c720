"""Capture pipeline alert streams and replay them through the service.

The acceptance bar for the revocation service is *bit-identity with the
paper*: feeding the exact alert stream a §4 simulation produced into the
persistent, single-writer service must reproduce the in-process
:class:`repro.core.revocation.BaseStation`'s decisions — every
accept/reject reason, the revoked set, and both counter maps — for any
batch size, any persistence backend, and with or without a crash and
recovery injected mid-stream.

The flow has three module-level (hence picklable, hence
:meth:`repro.experiments.runner.ExperimentRunner.map`-able) pieces:

- :func:`capture_stream` runs one
  :class:`repro.core.pipeline.SecureLocalizationPipeline` trial and
  freezes its base station's alert log into a :class:`CapturedStream` —
  the submissions in arrival order plus the expected fate of each and
  the expected final counter state;
- :func:`replay_stream` pushes one captured stream through a fresh
  :class:`repro.revocation.service.RevocationService` (optionally
  crash-recovering at a chosen point) and diffs service decisions and
  state against the capture, producing a :class:`ReplayReport`;
- :func:`capture_streams` / :func:`replay_sweep` scale both over a
  Monte-Carlo sweep, fanning capture out through an
  :class:`~repro.experiments.runner.ExperimentRunner`.

Captured streams carry only authenticated submissions' identities (the
pipeline MACs every alert before submission, so ``bad-auth`` never
occurs in them); replay therefore runs with ``verify=False``, the same
closed-world switch the base station itself honours.

Paper section: §3.1 / §4 (the base station's decisions on the
evaluation's alert streams)
"""

from __future__ import annotations

import asyncio
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.core.revocation import RevocationConfig
from repro.errors import ConfigurationError
from repro.revocation.persistence import MemoryBackend, PersistenceBackend
from repro.revocation.service import RevocationService


@dataclass(frozen=True)
class CapturedStream:
    """One trial's alert stream plus the in-process ground truth.

    Attributes:
        key: human-readable stream id (defaults to ``seed=<n>``).
        tau_report: the trial's per-detector quota.
        tau_alert: the trial's revocation threshold.
        alerts: ``(detector_id, target_id, time)`` in submission order.
        expected_log: ``(accepted, reason)`` per alert, same order — the
            :class:`~repro.core.revocation.BaseStation`'s decisions.
        expected_state: the final counter state,
            :meth:`~repro.core.revocation.CounterState.to_dict` form.
    """

    key: str
    tau_report: int
    tau_alert: int
    alerts: Tuple[Tuple[int, int, float], ...]
    expected_log: Tuple[Tuple[bool, str], ...]
    expected_state: Dict[str, Any]


def capture_stream(config: PipelineConfig) -> CapturedStream:
    """Run one pipeline trial and freeze its base station's alert stream.

    Module-level and argument-picklable, so sweeps can fan capture out
    with ``runner.map(capture_stream, configs)``.
    """
    with closing(SecureLocalizationPipeline(config)) as pipeline:
        pipeline.run()
        station = pipeline.base_station
        assert station is not None
        return CapturedStream(
            key=f"seed={config.seed}",
            tau_report=config.tau_report,
            tau_alert=config.tau_alert,
            alerts=tuple(
                (r.detector_id, r.target_id, r.time) for r in station.log
            ),
            expected_log=tuple((r.accepted, r.reason) for r in station.log),
            expected_state=station.state.to_dict(),
        )


def capture_streams(
    configs: Sequence[PipelineConfig],
    runner=None,
    *,
    keys: Optional[Sequence[str]] = None,
) -> List[CapturedStream]:
    """Capture a whole sweep's alert streams, one per config.

    With a ``runner`` (an :class:`repro.experiments.runner.ExperimentRunner`),
    trials fan out across its workers; without one they run serially.
    Either way results arrive in input order.
    """
    if runner is None:
        return [capture_stream(config) for config in configs]
    return runner.map(capture_stream, configs, keys=keys)


@dataclass
class ReplayReport:
    """The diff between a service replay and its captured ground truth.

    ``identical`` is the headline: every decision (accepted flag and
    reason string) and the final counter state matched bit for bit.
    ``mismatches`` holds human-readable descriptions of the first
    divergences (capped) for debugging.
    """

    key: str
    backend_kind: str
    n_alerts: int
    restart_after: Optional[int]
    decisions_match: bool
    state_match: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when decisions and final state both matched exactly."""
        return self.decisions_match and self.state_match

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the CLI prints these)."""
        return {
            "key": self.key,
            "backend": self.backend_kind,
            "n_alerts": self.n_alerts,
            "restart_after": self.restart_after,
            "decisions_match": self.decisions_match,
            "state_match": self.state_match,
            "identical": self.identical,
            "mismatches": list(self.mismatches),
        }


#: How many divergences a report records before truncating.
_MISMATCH_CAP = 10


async def _replay_async(
    stream: CapturedStream,
    *,
    backend: PersistenceBackend,
    batch_size: int,
    restart_after: Optional[int],
    snapshot_every: Optional[int],
    observe=None,
    telemetry_port: Optional[int] = None,
) -> Tuple[ReplayReport, List[Dict[str, Any]]]:
    """The asyncio body of :func:`replay_stream`.

    Returns the report plus the telemetry dict of every service instance
    the replay created (two under crash/recovery, else one; empty
    without ``observe``) — the raw material for stitched event logs.
    """
    config = RevocationConfig(
        tau_report=stream.tau_report, tau_alert=stream.tau_alert
    )
    telemetries: List[Dict[str, Any]] = []

    def new_service() -> RevocationService:
        return RevocationService(
            config,
            backend=backend,
            batch_size=batch_size,
            snapshot_every=snapshot_every,
            observe=observe,
            telemetry_port=telemetry_port,
        )

    def harvest(svc: RevocationService) -> None:
        telemetry = svc.telemetry()
        if telemetry.get("spans"):
            telemetries.append(telemetry)

    service = new_service()
    await service.start()
    if restart_after is not None:
        head = stream.alerts[:restart_after]
        for detector_id, target_id, time in head:
            await service.submit(detector_id, target_id, time=time)
        # No flush: the crash lands mid-stream with a partial batch still
        # buffered, so only auto-flushed (committed) alerts survive.
        service.crash()
        harvest(service)
        # Recovery: a brand-new service on the same backend. Exactly the
        # ledger-committed prefix survives; last_seq says where the
        # stream resumes, and the lost buffered suffix is resubmitted.
        service = new_service()
        await service.start()
    tail = stream.alerts[service.last_seq :]
    for detector_id, target_id, time in tail:
        await service.submit(detector_id, target_id, time=time)
    await service.stop()
    harvest(service)

    report = ReplayReport(
        key=stream.key,
        backend_kind=backend.kind,
        n_alerts=len(stream.alerts),
        restart_after=restart_after,
        decisions_match=True,
        state_match=True,
    )
    if len(service.decisions) != len(stream.alerts):
        report.decisions_match = False
        report.mismatches.append(
            f"decision count: service {len(service.decisions)} vs "
            f"captured {len(stream.alerts)}"
        )
    for index, (record, expected) in enumerate(
        zip(service.decisions, stream.expected_log)
    ):
        got = (record.accepted, record.reason)
        if got != expected:
            report.decisions_match = False
            if len(report.mismatches) < _MISMATCH_CAP:
                report.mismatches.append(
                    f"alert #{index} "
                    f"({record.detector_id}->{record.target_id}): "
                    f"service {got} vs captured {expected}"
                )
    final_state = service.counter_state().to_dict()
    if final_state != stream.expected_state:
        report.state_match = False
        if len(report.mismatches) < _MISMATCH_CAP:
            report.mismatches.append(
                "final counter state differs from captured state"
            )
    return report, telemetries


def replay_stream(
    stream: CapturedStream,
    *,
    backend: Optional[PersistenceBackend] = None,
    batch_size: int = 128,
    restart_after: Optional[int] = None,
    snapshot_every: Optional[int] = None,
    observe=None,
    telemetry_port: Optional[int] = None,
    events_log=None,
    trace_context=None,
    process: str = "svc",
) -> ReplayReport:
    """Replay one captured stream through the service and diff the result.

    Args:
        stream: a :func:`capture_stream` product.
        backend: persistence backend (fresh in-memory by default). Must
            be empty unless you intend recovery-then-continue semantics.
        batch_size: ingestion batch size.
        restart_after: when set, submit this many alerts, flush, hard-crash
            the service, recover a new instance from the backend's
            ledger/snapshot, and continue from the recovered sequence
            number — the crash-consistency path the tests pin down.
        snapshot_every: service snapshot cadence (exercises
            snapshot-plus-tail recovery rather than full-ledger replay).
        observe: optional :class:`repro.obs.ObserveConfig` for the
            service's ``svc_*`` metrics and ``svc:flush`` spans.
        telemetry_port: serve live ``/metrics`` scrapes from the service
            while the replay runs (see
            :class:`repro.revocation.service.RevocationService`).
        events_log: when set (a path) and ``observe`` enables spans,
            append the replay's completed spans as stitchable JSONL
            lines (:func:`repro.obs.live.span_event_lines`) — the
            revocation side of a cross-process stitched trace.
        trace_context: optional :class:`repro.obs.live.TraceContext`
            linking the replay's ``svc:flush`` root spans to a span in
            another process (e.g. the coordinator's run span).
        process: span-id namespace / process name for the event log.

    Runs its own event loop; call from sync code (tests, CLI, benches).
    """
    if restart_after is not None and not (
        0 <= restart_after <= len(stream.alerts)
    ):
        raise ConfigurationError(
            f"restart_after must be in [0, {len(stream.alerts)}], "
            f"got {restart_after}"
        )
    if backend is None:
        backend = MemoryBackend()
    from repro.obs import live

    previous_namespace = live.process_span_namespace()
    previous_context = live.process_trace_context()
    if observe is not None:
        live.set_process_span_namespace(process)
        live.set_process_trace_context(trace_context)
    try:
        report, telemetries = asyncio.run(
            _replay_async(
                stream,
                backend=backend,
                batch_size=batch_size,
                restart_after=restart_after,
                snapshot_every=snapshot_every,
                observe=observe,
                telemetry_port=telemetry_port,
            )
        )
    finally:
        if observe is not None:
            live.set_process_span_namespace(previous_namespace)
            live.set_process_trace_context(previous_context)
    if events_log is not None:
        lines: List[str] = []
        for telemetry in telemetries:
            lines.extend(
                live.span_event_lines(
                    telemetry, trial=stream.key, process=process
                )
            )
        live.append_event_lines(events_log, lines)
    return report


def replay_sweep(
    streams: Sequence[CapturedStream],
    *,
    batch_size: int = 128,
    restart_fraction: Optional[float] = None,
    snapshot_every: Optional[int] = None,
    make_backend=None,
    observe=None,
    events_log=None,
    trace_context=None,
) -> List[ReplayReport]:
    """Replay every captured stream of a sweep; one report per stream.

    Args:
        streams: :func:`capture_streams` output.
        batch_size: ingestion batch size for every replay.
        restart_fraction: when set (0..1), inject a crash/recovery after
            that fraction of each stream's alerts.
        snapshot_every: service snapshot cadence.
        make_backend: zero-argument callable producing a fresh backend
            per stream (default: in-memory).
        observe: optional :class:`repro.obs.ObserveConfig` enabling
            service spans/metrics on every replay.
        events_log: path collecting every replay's spans as stitchable
            JSONL lines (requires ``observe``).
        trace_context: one :class:`repro.obs.live.TraceContext` shared by
            all replays, linking their root spans into a wider trace.

    Replays run serially in the calling process — each one finishes in
    milliseconds, and the expensive part (capture) is what parallelizes.
    """
    if restart_fraction is not None and not (
        0.0 <= restart_fraction <= 1.0
    ):
        raise ConfigurationError(
            f"restart_fraction must be in [0, 1], got {restart_fraction}"
        )
    reports = []
    for stream in streams:
        restart_after = None
        if restart_fraction is not None:
            restart_after = int(len(stream.alerts) * restart_fraction)
        backend = MemoryBackend() if make_backend is None else make_backend()
        try:
            reports.append(
                replay_stream(
                    stream,
                    backend=backend,
                    batch_size=batch_size,
                    restart_after=restart_after,
                    snapshot_every=snapshot_every,
                    observe=observe,
                    events_log=events_log,
                    trace_context=trace_context,
                )
            )
        finally:
            backend.close()
    return reports
