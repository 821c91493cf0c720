"""Base-station revocation of malicious beacon nodes (paper Section 3.1).

The base station keeps, per beacon node:

- an **alert counter** — how many accepted alerts name it as target
  (its suspiciousness);
- a **report counter** — how many of its own alerts were accepted.

On each alert ``(detector, target)``:

1. If the detector's report counter already *exceeds* ``tau_report``, or
   the target is already revoked, the alert is ignored.
2. Otherwise both counters increment.
3. If the target's alert counter now *exceeds* ``tau_alert``, the target is
   revoked.

Note the two asymmetries the paper spells out: a **revoked detector's**
alerts still count (so colluders cannot silence a benign detector by
getting it revoked first), and the per-detector quota caps how much damage
colluding reporters can do (``N_a * (tau_report + 1)`` accepted alerts).

The decision logic itself is factored out as a pure counter machine —
:class:`CounterState` plus :func:`evaluate_alert` / :func:`apply_alert` —
so the in-process :class:`BaseStation` and the persistent, single-writer
:mod:`repro.revocation` service run the *same* transition function and
stay bit-identical by construction.

Paper section: §3.1 (base-station revocation)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Set

from repro.crypto.manager import KeyManager
from repro.errors import RevocationError
from repro.sim.trace import TraceRecorder
from repro.utils.validation import check_int_in_range


@dataclass(frozen=True)
class RevocationConfig:
    """The two thresholds (paper defaults reconstructed as 2/2).

    Attributes:
        tau_report: per-detector accepted-alert quota (the paper's first
            threshold); a detector gets ``tau_report + 1`` alerts through.
        tau_alert: suspiciousness level that triggers revocation; a target
            is revoked at its ``tau_alert + 1``-th accepted alert.
    """

    tau_report: int = 2
    tau_alert: int = 2

    def __post_init__(self) -> None:
        check_int_in_range(self.tau_report, "tau_report", 0)
        check_int_in_range(self.tau_alert, "tau_alert", 0)


class AlertDecision(NamedTuple):
    """The outcome of evaluating one alert against a counter state.

    Attributes:
        accepted: whether the alert passed both §3.1 gates.
        reason: ``"accepted"``, ``"quota-exceeded"``, or
            ``"target-already-revoked"`` (``"bad-auth"`` is decided
            upstream, before the counter machine sees the alert).
        revokes_target: True when committing this (accepted) alert pushes
            the target's alert counter past ``tau_alert`` — i.e. this is
            the alert that revokes the target.
    """

    accepted: bool
    reason: str
    revokes_target: bool


@dataclass
class CounterState:
    """The §3.1 counter-machine state, separated from transport concerns.

    This is the *pure* core the paper's revocation scheme reduces to: two
    counter maps plus the revoked set. :class:`BaseStation` wraps one of
    these with authentication, logging, and dissemination;
    :class:`repro.revocation.service.RevocationService` wraps one with
    batched ingestion and a durable ledger. Both apply alerts through the
    same :func:`apply_alert` transition, so their decisions cannot drift.
    """

    alert_counters: Dict[int, int] = field(default_factory=dict)
    report_counters: Dict[int, int] = field(default_factory=dict)
    revoked: Set[int] = field(default_factory=set)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (int keys become strings; sets, sorted lists)."""
        return {
            "alert_counters": {
                str(k): v for k, v in sorted(self.alert_counters.items())
            },
            "report_counters": {
                str(k): v for k, v in sorted(self.report_counters.items())
            },
            "revoked": sorted(self.revoked),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CounterState":
        """Rebuild a state from :meth:`to_dict` output."""
        return cls(
            alert_counters={
                int(k): int(v)
                for k, v in (data.get("alert_counters") or {}).items()
            },
            report_counters={
                int(k): int(v)
                for k, v in (data.get("report_counters") or {}).items()
            },
            revoked={int(v) for v in (data.get("revoked") or ())},
        )


# The four possible decisions; shared instances, since every alert lands
# on one of them and AlertDecision is immutable.
_QUOTA_EXCEEDED = AlertDecision(False, "quota-exceeded", False)
_TARGET_REVOKED = AlertDecision(False, "target-already-revoked", False)
_ACCEPTED = AlertDecision(True, "accepted", False)
_ACCEPTED_REVOKES = AlertDecision(True, "accepted", True)


def evaluate_alert(
    state: CounterState,
    config: RevocationConfig,
    detector_id: int,
    target_id: int,
) -> AlertDecision:
    """The full §3.1 decision for one (already authenticated) alert.

    Check order matches the paper (and the reason strings the audit log
    records): the detector's report quota first, then the target's
    revocation status; an accepted alert revokes its target when the
    target's alert counter would pass ``tau_alert``. Pure — no mutation;
    commit via :func:`apply_alert`.
    """
    if state.report_counters.get(detector_id, 0) > config.tau_report:
        return _QUOTA_EXCEEDED
    if target_id in state.revoked:
        return _TARGET_REVOKED
    if state.alert_counters.get(target_id, 0) + 1 > config.tau_alert:
        return _ACCEPTED_REVOKES
    return _ACCEPTED


def apply_alert(
    state: CounterState,
    config: RevocationConfig,
    detector_id: int,
    target_id: int,
) -> AlertDecision:
    """Evaluate one alert and commit its effects to ``state``.

    An accepted alert bumps the target's alert counter and the
    detector's report counter, and revokes the target at the threshold
    crossing. Rejected alerts leave the state untouched (the two §3.1
    asymmetries — revoked detectors still count, quota-exhausted
    detectors never do — fall out of the check order).
    """
    decision = evaluate_alert(state, config, detector_id, target_id)
    if decision.accepted:
        state.alert_counters[target_id] = (
            state.alert_counters.get(target_id, 0) + 1
        )
        state.report_counters[detector_id] = (
            state.report_counters.get(detector_id, 0) + 1
        )
        if decision.revokes_target:
            state.revoked.add(target_id)
    return decision


@dataclass
class AlertRecord:
    """One submitted alert and its fate (for audit/tests)."""

    detector_id: int
    target_id: int
    accepted: bool
    reason: str
    time: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The record as a plain dict (ledger/JSON form)."""
        return {
            "detector": self.detector_id,
            "target": self.target_id,
            "accepted": self.accepted,
            "reason": self.reason,
            "time": self.time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            detector_id=int(data["detector"]),
            target_id=int(data["target"]),
            accepted=bool(data["accepted"]),
            reason=str(data["reason"]),
            time=float(data.get("time", 0.0)),
        )


class BaseStation:
    """Collects alerts, scores suspiciousness, revokes beacons.

    Args:
        key_manager: verifies the per-beacon base-station MAC on alerts.
        config: the two thresholds.
        on_revoke: callback invoked with the revoked beacon id (the
            pipeline uses it to propagate revocation notices).
        trace: optional structured trace.
    """

    def __init__(
        self,
        key_manager: KeyManager,
        config: Optional[RevocationConfig] = None,
        *,
        on_revoke: Optional[Callable[[int], None]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.key_manager = key_manager
        self.config = config if config is not None else RevocationConfig()
        self.state = CounterState()
        self.log: List[AlertRecord] = []
        self._metrics_cursor = 0
        self._revocations_flushed = 0
        self.on_revoke = on_revoke
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    # The paper's two counter maps and the revoked set live in the
    # extracted CounterState (shared with the revocation service);
    # these views keep the historical attribute surface.
    @property
    def alert_counters(self) -> Dict[int, int]:
        """Per-target accepted-alert counts (suspiciousness levels)."""
        return self.state.alert_counters

    @property
    def report_counters(self) -> Dict[int, int]:
        """Per-detector accepted-alert counts (quota usage)."""
        return self.state.report_counters

    @property
    def revoked(self) -> Set[int]:
        """Identities of revoked beacons."""
        return self.state.revoked

    # ------------------------------------------------------------------
    # Alert intake
    # ------------------------------------------------------------------
    def submit_alert(
        self,
        detector_id: int,
        target_id: int,
        *,
        tag: Optional[bytes] = None,
        verify: bool = True,
        time: float = 0.0,
    ) -> bool:
        """Process one alert; returns True when it was accepted.

        Args:
            detector_id: the reporting beacon's primary identity.
            target_id: the accused beacon.
            tag: MAC over the alert payload under the detector's
                base-station key.
            verify: set False only in closed-world experiments where the
                transport is already authenticated.
            time: simulation time for the audit log.
        """
        if verify:
            payload = self.alert_payload(detector_id, target_id)
            if tag is None or not self.key_manager.verify_alert_payload(
                detector_id, payload, tag
            ):
                self._log(detector_id, target_id, False, "bad-auth", time)
                return False

        decision = apply_alert(self.state, self.config, detector_id, target_id)
        self._log(detector_id, target_id, decision.accepted, decision.reason, time)
        if decision.revokes_target:
            self._revoke(target_id, time)
        return decision.accepted

    @staticmethod
    def alert_payload(detector_id: int, target_id: int) -> bytes:
        """Canonical bytes a detecting node MACs when reporting."""
        return b"alert:%d:%d" % (detector_id, target_id)

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------
    def _revoke(self, target_id: int, time: float) -> None:
        # apply_alert has already moved the target into state.revoked
        # (and can only do so once: later alerts against it are rejected
        # as target-already-revoked); this hook adds the side effects.
        if target_id not in self.revoked:
            raise RevocationError(
                f"beacon {target_id} not committed as revoked"
            )
        self.trace.record(time, "revoke", target=target_id)
        if self.on_revoke is not None:
            self.on_revoke(target_id)

    def is_revoked(self, beacon_id: int) -> bool:
        """True when ``beacon_id`` has been revoked."""
        return beacon_id in self.revoked

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def suspiciousness(self, beacon_id: int) -> int:
        """The beacon's alert-counter value."""
        return self.alert_counters.get(beacon_id, 0)

    def accepted_alert_count(self) -> int:
        """Total alerts accepted so far."""
        return sum(1 for r in self.log if r.accepted)

    def detection_rate(self, malicious_ids: Set[int]) -> Optional[float]:
        """Fraction of known-malicious beacons revoked (evaluation metric).

        Returns ``None`` when ``malicious_ids`` is empty: the rate is
        undefined, and reporting ``0.0`` would silently drag Monte-Carlo
        means toward zero in sweeps where some trials deploy no malicious
        beacons. Aggregation layers skip ``None`` trials instead.
        """
        if not malicious_ids:
            return None
        return len(self.revoked & malicious_ids) / len(malicious_ids)

    def false_positive_rate(self, benign_ids: Set[int]) -> Optional[float]:
        """Fraction of benign beacons incorrectly revoked.

        Returns ``None`` when ``benign_ids`` is empty (undefined rate);
        see :meth:`detection_rate`.
        """
        if not benign_ids:
            return None
        return len(self.revoked & benign_ids) / len(benign_ids)

    def record_metrics(self, registry) -> None:
        """Flush §3.1 revocation state into a metrics registry (end of trial).

        Emits ``alerts_total{accepted=...,reason=...}`` (every submitted
        alert and its fate), ``revocations_total``, and the paper's two
        per-beacon counters as ``bs_alert_counter{target=...}`` /
        ``bs_report_counter{reporter=...}`` gauges.

        Idempotent per base station: the alert log and revocation set are
        flushed incrementally from a cursor, and the per-beacon counters
        use gauge *set* semantics, so calling this twice (e.g. a retried
        finalization) never double-counts.
        """
        for record in self.log[self._metrics_cursor :]:
            registry.counter(
                "alerts_total",
                accepted="true" if record.accepted else "false",
                reason=record.reason,
            ).inc()
        self._metrics_cursor = len(self.log)
        new_revocations = len(self.revoked) - self._revocations_flushed
        registry.counter("revocations_total").inc(new_revocations)
        self._revocations_flushed = len(self.revoked)
        for target_id, count in self.alert_counters.items():
            registry.gauge("bs_alert_counter", target=target_id).set(count)
        for reporter_id, count in self.report_counters.items():
            registry.gauge("bs_report_counter", reporter=reporter_id).set(count)

    def _log(
        self, detector_id: int, target_id: int, accepted: bool, reason: str, time: float
    ) -> None:
        self.log.append(
            AlertRecord(
                detector_id=detector_id,
                target_id=target_id,
                accepted=accepted,
                reason=reason,
                time=time,
            )
        )
        self.trace.record(
            time,
            "alert",
            detector=detector_id,
            target=target_id,
            accepted=accepted,
            reason=reason,
        )
