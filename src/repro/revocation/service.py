"""Revocation as a service: the §3.1 counter machine behind one writer.

The paper's §3.1 base station is a sequential counter machine. This
module promotes it to a long-running, auditable trust service without
changing a single decision:

- an **ingestion front-end** buffers alert submissions into batches
  (``batch_size``);
- a **single writer** — each :meth:`RevocationService.flush` — walks
  its batch once, in submission order: it checks the MAC, then runs
  :func:`repro.core.revocation.apply_alert`, the same transition the
  in-process :class:`~repro.core.revocation.BaseStation` runs, on the
  service's one :class:`~repro.core.revocation.CounterState`. Decisions
  therefore equal sequential §3.1 processing by construction (and are
  asserted against :class:`BaseStation` in tests);
- an **append-only decision ledger** records every processed alert's
  fate in sequence order; each batch lands durably (see
  :mod:`repro.revocation.persistence`) in one append before any of its
  decision futures resolves, and periodic snapshots bound replay time.
  A restarted service recommits the ledger through ``apply_alert`` and
  reconverges bit-identically.

Paper section: §3.1 (alert quotas, suspiciousness counters, revocation)
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.revocation import (
    AlertRecord,
    BaseStation,
    CounterState,
    RevocationConfig,
    apply_alert,
)
from repro.errors import ConfigurationError, RevocationError
from repro.obs import (
    MetricsRegistry,
    Observability,
    ObserveConfig,
    exponential_buckets,
    merge_snapshots,
)
from repro.revocation.persistence import (
    LEDGER_SCHEMA_VERSION,
    MemoryBackend,
    PersistenceBackend,
)


class RevocationService:
    """Persistent, single-writer asyncio front-end for §3.1 revocation.

    Args:
        config: the two thresholds (``tau_report`` / ``tau_alert``).
        backend: persistence (ledger + snapshots); defaults to a fresh
            :class:`repro.revocation.persistence.MemoryBackend`. The
            caller owns the backend's lifetime (close it after
            :meth:`stop`).
        batch_size: submissions buffered before an automatic flush;
            :meth:`flush` forces one earlier.
        snapshot_every: write a state snapshot after this many committed
            alerts (None = only on explicit :meth:`snapshot` calls).
        key_manager: verifies alert MACs for ``verify=True`` submissions.
        observe: optional :class:`repro.obs.ObserveConfig` for service
            operational metrics and flush spans; None (default) builds
            no observability object at all.
        telemetry_port: serve live ``/metrics`` / ``/healthz`` /
            ``/spans`` scrapes on this port (0 = ephemeral; read the
            bound port from ``telemetry_server.port`` after
            :meth:`start`). ``/metrics`` is the union of the §3.1
            registry (:meth:`registry_snapshot`), the ``svc_*``
            operational counters, a wall-clock
            ``svc_flush_latency_seconds`` histogram, and the liveness
            gauges ``svc_ledger_seq_lag`` and ``svc_pending_alerts``.
            The live plane never feeds back into the deterministic
            registries.

    Lifecycle: ``await start()`` (recovers from the backend's snapshot +
    ledger), ``await submit(...)`` / ``await ingest(...)``,
    ``await stop()``. :meth:`crash` simulates a hard failure for recovery
    tests; a failed ledger append crashes the service the same way.
    Either way, recovery is a new service on the same backend.
    """

    def __init__(
        self,
        config: Optional[RevocationConfig] = None,
        *,
        backend: Optional[PersistenceBackend] = None,
        batch_size: int = 256,
        snapshot_every: Optional[int] = None,
        key_manager=None,
        observe: Optional[ObserveConfig] = None,
        telemetry_port: Optional[int] = None,
    ) -> None:
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be an int >= 1, got {batch_size!r}"
            )
        if snapshot_every is not None and (
            not isinstance(snapshot_every, int) or snapshot_every < 1
        ):
            raise ConfigurationError(
                f"snapshot_every must be an int >= 1 or None, got {snapshot_every!r}"
            )
        self.config = config if config is not None else RevocationConfig()
        self.backend = backend if backend is not None else MemoryBackend()
        self.batch_size = batch_size
        self.snapshot_every = snapshot_every
        self.key_manager = key_manager
        self._state = CounterState()
        #: Committed decision log in sequence order (rebuilt on recovery).
        self.decisions: List[AlertRecord] = []
        #: Highest committed (durable) sequence number.
        self.last_seq = 0
        self._snapshot_seq = 0
        #: Buffered ``(detector, target, time, tag, verify, future)``
        #: submissions; the i-th one commits as seq ``last_seq + 1 + i``.
        self._pending: List[
            Tuple[int, int, float, Optional[bytes], bool, asyncio.Future]
        ] = []
        self._started = False
        self._crashed = False
        self.obs: Optional[Observability] = None
        if observe is not None:
            self.obs = Observability(observe, sim_clock=lambda: 0.0)
        self._telemetry_port = telemetry_port
        self.telemetry_server = None
        #: Wall-clock live-plane registry (flush latency); only exists
        #: when a telemetry server is requested, and never merges into
        #: the deterministic §3.1 / svc_* registries.
        self._live_registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if telemetry_port is not None else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "RevocationService":
        """Recover committed state from the backend and accept submissions."""
        self._check_alive()
        if self._started:
            return self
        self._recover()
        self._started = True
        if self._telemetry_port is not None and self.telemetry_server is None:
            from repro.obs import TelemetryServer

            self.telemetry_server = TelemetryServer(
                self.live_snapshot,
                health_fn=self._health,
                spans_fn=self._recent_spans,
                port=self._telemetry_port,
            ).start()
        return self

    async def stop(self) -> None:
        """Flush pending submissions and stop accepting new ones.

        The backend stays open (the caller owns it); call
        :meth:`snapshot` first when a final snapshot is wanted. A later
        :meth:`start` recovers from the backend again.
        """
        if not self._started or self._crashed:
            return
        await self.flush()
        self._started = False
        if self.telemetry_server is not None:
            self.telemetry_server.stop()
            self.telemetry_server = None

    def crash(self) -> None:
        """Simulate a hard crash: drop every in-memory structure.

        Pending (unflushed) submissions are lost — their futures are
        cancelled — and the service object becomes unusable. Recovery is
        a *new* service on the same backend: only what the ledger had
        committed survives, which is exactly the guarantee the recovery
        tests pin down.
        """
        for *_, future in self._pending:
            if not future.done():
                future.cancel()
        self._pending = []
        self._state = CounterState()
        self.decisions = []
        self._crashed = True
        self._started = False
        if self.telemetry_server is not None:
            self.telemetry_server.stop()
            self.telemetry_server = None

    def _check_alive(self) -> None:
        if self._crashed:
            raise RevocationError(
                "service has crashed; recover by starting a new instance "
                "on the same backend"
            )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def submit(
        self,
        detector_id: int,
        target_id: int,
        *,
        tag: Optional[bytes] = None,
        verify: bool = False,
        time: float = 0.0,
    ) -> "asyncio.Future[AlertRecord]":
        """Buffer one alert; returns a future resolved with its record.

        The future resolves when the alert's batch commits (durably in
        the ledger). A full buffer triggers an automatic :meth:`flush`.
        """
        if not self._started:
            self._check_alive()
            raise RevocationError("service not started; await start() first")
        future = asyncio.get_running_loop().create_future()
        self._pending.append((detector_id, target_id, time, tag, verify, future))
        if len(self._pending) >= self.batch_size:
            await self.flush()
        return future

    async def ingest(
        self, alerts: Iterable[Tuple[int, int, float]]
    ) -> List[AlertRecord]:
        """Submit a ``(detector, target, time)`` stream and flush it.

        Returns the committed records in submission order — the bulk
        entry point replay and the benches use.
        """
        futures = [
            await self.submit(detector_id, target_id, time=time)
            for detector_id, target_id, time in alerts
        ]
        await self.flush()
        return [future.result() for future in futures]

    async def flush(self) -> None:
        """Commit the buffered batch: decide, append to the ledger, resolve.

        Runs to completion without yielding to the event loop, so the
        batch is the only writer of the counter state while it commits.
        """
        self._check_alive()
        batch, self._pending = self._pending, []
        if not batch:
            return
        t0 = time.perf_counter() if self._live_registry is not None else 0.0
        if self.obs is not None:
            with self.obs.span("svc:flush", batch=len(batch)):
                self._commit(batch)
        else:
            self._commit(batch)
        if self._live_registry is not None:
            self._live_registry.histogram(
                "svc_flush_latency_seconds",
                buckets=exponential_buckets(0.0001, 4.0, 8),
            ).observe(time.perf_counter() - t0)

    def _commit(self, batch) -> None:
        """Decide one batch in submission order and append it to the ledger."""
        state, config, key_manager = self._state, self.config, self.key_manager
        seq = self.last_seq
        ledger: List[Dict[str, Any]] = []
        records: List[AlertRecord] = []
        auth_failures = 0
        for detector_id, target_id, when, tag, verify, _ in batch:
            seq += 1
            if verify and (
                tag is None
                or key_manager is None
                or not key_manager.verify_alert_payload(
                    detector_id,
                    BaseStation.alert_payload(detector_id, target_id),
                    tag,
                )
            ):
                accepted, reason, revokes = False, "bad-auth", False
                auth_failures += 1
            else:
                accepted, reason, revokes = apply_alert(
                    state, config, detector_id, target_id
                )
            ledger.append(
                {
                    "schema": LEDGER_SCHEMA_VERSION,
                    "seq": seq,
                    "detector": detector_id,
                    "target": target_id,
                    "accepted": accepted,
                    "reason": reason,
                    "revokes": revokes,
                    "time": when,
                }
            )
            records.append(
                AlertRecord(detector_id, target_id, accepted, reason, when)
            )
        # Durability point: the batch is visible to recovery exactly when
        # this append returns; futures resolve only after it. The state
        # already holds the batch, so a failed append leaves this object
        # ahead of its ledger: it crashes, and recovery starts afresh.
        try:
            self.backend.append_records(ledger)
        except Exception as error:
            for *_, future in batch:
                if not future.done():
                    future.set_exception(error)
            self.crash()
            raise
        self.last_seq = seq
        self.decisions.extend(records)
        for (*_, future), record in zip(batch, records):
            if not future.done():
                future.set_result(record)
        if self.obs is not None:
            registry = self.obs.registry
            registry.counter("svc_batches_total").inc()
            registry.counter("svc_alerts_ingested_total").inc(len(batch))
            if auth_failures:
                registry.counter("svc_auth_failures_total").inc(auth_failures)
        if (
            self.snapshot_every is not None
            and self.last_seq - self._snapshot_seq >= self.snapshot_every
        ):
            self._write_snapshot()

    # ------------------------------------------------------------------
    # Snapshot / recovery
    # ------------------------------------------------------------------
    async def snapshot(self) -> Dict[str, Any]:
        """Write (and return) a snapshot of the committed state."""
        self._check_alive()
        return self._write_snapshot()

    def _write_snapshot(self) -> Dict[str, Any]:
        document = {
            "schema": LEDGER_SCHEMA_VERSION,
            "seq": self.last_seq,
            "tau_report": self.config.tau_report,
            "tau_alert": self.config.tau_alert,
            "state": self._state.to_dict(),
        }
        self.backend.write_snapshot(document)
        self._snapshot_seq = self.last_seq
        if self.obs is not None:
            self.obs.registry.counter("svc_snapshots_total").inc()
        return document

    def _recover(self) -> None:
        """Rebuild committed state and the decision log from scratch.

        Starts from the backend's snapshot (if any) and recommits every
        later non-``bad-auth`` ledger record through
        :func:`repro.core.revocation.apply_alert`; the returned decision
        must match the recorded fate, so a corrupted or reordered ledger
        fails loudly instead of silently diverging. The whole ledger is
        read to rebuild :attr:`decisions`, so a stop/start cycle on one
        object reconverges to the same log rather than appending to it.
        """
        state = CounterState()
        after_seq = 0
        snapshot = self.backend.load_snapshot()
        if snapshot is not None:
            if (
                snapshot.get("tau_report") != self.config.tau_report
                or snapshot.get("tau_alert") != self.config.tau_alert
            ):
                raise ConfigurationError(
                    "snapshot thresholds "
                    f"({snapshot.get('tau_report')}, {snapshot.get('tau_alert')}) "
                    f"do not match service config ({self.config.tau_report}, "
                    f"{self.config.tau_alert})"
                )
            state = CounterState.from_dict(snapshot.get("state") or {})
            after_seq = int(snapshot.get("seq", 0))
        decisions: List[AlertRecord] = []
        last_seq = 0
        for record in self.backend.read_records(0):
            seq = int(record["seq"])
            if seq != last_seq + 1:
                raise RevocationError(
                    f"ledger gap: expected seq {last_seq + 1}, found {seq}"
                )
            last_seq = seq
            entry = AlertRecord.from_dict(record)
            if seq > after_seq and entry.reason != "bad-auth":
                decision = tuple(
                    apply_alert(
                        state, self.config, entry.detector_id, entry.target_id
                    )
                )
                recorded = (
                    entry.accepted,
                    entry.reason,
                    bool(record.get("revokes", False)),
                )
                if recorded != decision:
                    raise RevocationError(
                        f"ledger record seq {seq} disagrees with the §3.1 "
                        f"counter machine: recorded {recorded}, recomputed "
                        f"{decision}"
                    )
            decisions.append(entry)
        if last_seq < after_seq:
            raise RevocationError(
                f"ledger ends at seq {last_seq}, before the snapshot's "
                f"seq {after_seq}"
            )
        self._state = state
        self.decisions = decisions
        self.last_seq = last_seq
        self._snapshot_seq = after_seq
        if self.obs is not None and decisions:
            self.obs.registry.counter("svc_recovered_records_total").inc(
                len(decisions)
            )

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    def counter_state(self) -> CounterState:
        """A copy of the committed §3.1 state (both maps + revoked set)."""
        return CounterState(
            alert_counters=dict(self._state.alert_counters),
            report_counters=dict(self._state.report_counters),
            revoked=set(self._state.revoked),
        )

    @property
    def revoked(self) -> set:
        """Identities revoked so far (a copy)."""
        return set(self._state.revoked)

    def is_revoked(self, beacon_id: int) -> bool:
        """True when ``beacon_id`` has been revoked."""
        return beacon_id in self._state.revoked

    def registry_snapshot(self) -> Dict[str, Any]:
        """The service's §3.1 registry, from the decision log and state.

        ``alerts_total{accepted,reason}``, ``revocations_total`` and the
        ``bs_alert_counter`` / ``bs_report_counter`` gauges — equal to
        :meth:`repro.core.revocation.BaseStation.record_metrics` output
        for the same alert stream, bit for bit (asserted in tests).
        """
        registry = MetricsRegistry()
        for record in self.decisions:
            registry.counter(
                "alerts_total",
                accepted="true" if record.accepted else "false",
                reason=record.reason,
            ).inc()
        registry.counter("revocations_total").inc(len(self._state.revoked))
        for target_id, count in self._state.alert_counters.items():
            registry.gauge("bs_alert_counter", target=target_id).set(count)
        for reporter_id, count in self._state.report_counters.items():
            registry.gauge("bs_report_counter", reporter=reporter_id).set(count)
        return registry.snapshot()

    def telemetry(self) -> Dict[str, Any]:
        """Operational telemetry (empty when ``observe`` is None).

        Shape mirrors the pipeline's: ``{"registry": <snapshot>,
        "spans": [...]}`` with ``svc_*`` counters for batches, ingested
        alerts, auth failures, snapshots, and recovered records. Under a
        process span namespace / trace context (see
        :mod:`repro.obs.live`) the dict also carries the ``process`` /
        ``trace`` / ``wall0_epoch`` stitching fields, exactly like a
        worker trial's telemetry.
        """
        if self.obs is None:
            return {}
        return self.obs.telemetry()

    # ------------------------------------------------------------------
    # Live telemetry plane (wall-clock; never feeds the §3.1 registries)
    # ------------------------------------------------------------------
    def live_snapshot(self) -> Dict[str, Any]:
        """One scrapeable snapshot: §3.1 + ``svc_*`` + liveness gauges.

        Merges :meth:`registry_snapshot`, the operational ``svc_*``
        registry (when ``observe`` is set), and the wall-clock live
        registry, then overlays point-in-time liveness gauges:
        ``svc_ledger_seq_lag`` (committed seqs since the last snapshot)
        and ``svc_pending_alerts`` (buffered, unflushed submissions).
        Served by the telemetry server's ``/metrics`` endpoint.
        """
        liveness = MetricsRegistry()
        liveness.gauge("svc_ledger_seq_lag").set(
            self.last_seq - self._snapshot_seq
        )
        liveness.gauge("svc_pending_alerts").set(len(self._pending))
        parts = [self.registry_snapshot()]
        if self.obs is not None:
            parts.append(self.obs.registry.snapshot())
        if self._live_registry is not None:
            parts.append(self._live_registry.snapshot())
        parts.append(liveness.snapshot())
        return merge_snapshots(parts)

    def _health(self) -> Dict[str, Any]:
        """``/healthz`` payload: ok only while started and not crashed."""
        return {
            "status": "ok" if self._started and not self._crashed else "down",
            "started": self._started,
            "crashed": self._crashed,
            "last_seq": self.last_seq,
        }

    def _recent_spans(self) -> List[Dict[str, Any]]:
        """``/spans`` payload: recent completed spans (empty w/o obs)."""
        if self.obs is None:
            return []
        return list(self.obs.spans)[-256:]
