"""The detecting-beacon role (paper Sections 2.1-2.2).

A :class:`DetectingBeacon` is a benign beacon node that, besides serving
beacon requests, probes neighbouring beacons under its **detecting IDs** —
extra non-beacon identities whose requests a malicious beacon cannot tell
apart from genuine localization traffic. For each probe reply it:

1. verifies the packet's authentication;
2. runs the Section 2.1 distance-consistency check (it knows its own
   location exactly);
3. on inconsistency, runs the Section 2.2 replay-filter cascade;
4. if the malicious signal survives the filters, reports an alert
   ``(own primary id, target id)`` to the base station, authenticated with
   its base-station key.

Paper section: §2.1-§2.2 (detecting beacon nodes)
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation
from repro.detectors.base import Detector, Exchange
from repro.detectors.paper import PaperDetector
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.localization.beacon import BeaconService
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.radio import Reception
from repro.utils.geometry import Point


class ProbeOutcome(NamedTuple):
    """Result of one detecting probe (kept for metrics/tests)."""

    detecting_id: int
    target_id: int
    decision: str  # "consistent" | "replayed_wormhole" | "replayed_local" | "alert"


class DetectingBeacon(BeaconService):
    """A benign beacon node with the full detection suite installed.

    Args:
        node_id: primary beacon identity.
        position: physical (= declared) location.
        key_manager: for packet auth and the base-station alert MAC.
        signal_detector: the distance-consistency check.
        filter_cascade: the replay filters (wormhole + RTT).
        base_station: where surviving alerts are reported.
        detecting_ids: this beacon's extra identities (allocate them via
            :meth:`KeyManager.allocate_detecting_ids` and register network
            aliases before probing).
        detector: optional :class:`repro.detectors.base.Detector` that
            judges probe replies instead of the paper suite. ``None``
            (the default) wraps this beacon's own ``signal_detector`` +
            ``filter_cascade`` in a
            :class:`~repro.detectors.paper.PaperDetector`, which is
            bit-identical to the pre-arena reply handler.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        key_manager: KeyManager,
        *,
        signal_detector: MaliciousSignalDetector,
        filter_cascade: ReplayFilterCascade,
        base_station: Optional[BaseStation] = None,
        detecting_ids: Optional[List[int]] = None,
        probe_power_randomization_ft: float = 0.0,
        detector: Optional[Detector] = None,
    ) -> None:
        super().__init__(node_id, position, key_manager)
        self.signal_detector = signal_detector
        self.filter_cascade = filter_cascade
        self.detector: Detector = (
            detector
            if detector is not None
            else PaperDetector(signal_detector, filter_cascade)
        )
        self.base_station = base_station
        self.detecting_ids = list(detecting_ids or [])
        #: §2.1 countermeasure: "adjust the transmission power in RSSI
        #: technique" — each probe's ranging signature is biased by a
        #: uniform draw in ±this many feet, so an inferring attacker
        #: cannot match the probe's measured distance to a beacon ring.
        self.probe_power_randomization_ft = probe_power_randomization_ft
        self._probe_outcomes: List[ProbeOutcome] = []
        #: The batch core's records not built yet: ``(build, indices)``
        #: over one detection wave's columns, or None.
        self._pending_probe_outcomes: Optional[tuple] = None
        self.alerted_targets: set[int] = set()
        self._next_nonce = 1
        self.on(BeaconPacket, type(self)._handle_probe_reply)

    @property
    def probe_outcomes(self) -> List[ProbeOutcome]:
        """Every judged probe reply, in delivery order.

        The scalar handler appends each outcome as it judges the reply.
        The batch core leaves a pending slice of its wave's columns
        instead; the first read builds those records and appends them.
        """
        if self._pending_probe_outcomes is not None:
            build, indices = self._pending_probe_outcomes
            self._pending_probe_outcomes = None
            self._probe_outcomes.extend(build(indices))
        return self._probe_outcomes

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, target_id: int, detecting_id: int) -> None:
        """Request a beacon signal from ``target_id`` under a detecting ID."""
        if detecting_id not in self.detecting_ids:
            raise ValueError(
                f"{detecting_id} is not one of beacon {self.node_id}'s detecting IDs"
            )
        request = BeaconRequest(
            src_id=detecting_id, dst_id=target_id, nonce=self._next_nonce
        )
        self._next_nonce += 1
        bias = 0.0
        if self.probe_power_randomization_ft > 0.0 and self.network is not None:
            bias = self.network.rngs.stream("probe-power").uniform(
                -self.probe_power_randomization_ft,
                self.probe_power_randomization_ft,
            )
        self.send(self.key_manager.sign(request), ranging_bias_ft=bias)

    def probe_all_ids(self, target_id: int) -> None:
        """Probe ``target_id`` once per detecting ID (the paper's m probes)."""
        for detecting_id in self.detecting_ids:
            self.probe(target_id, detecting_id)

    # ------------------------------------------------------------------
    # Reply handling
    # ------------------------------------------------------------------
    def _handle_probe_reply(self, reception: Reception) -> None:
        packet = reception.packet
        if packet.dst_id not in self.detecting_ids:
            return  # a beacon packet for someone else (or our primary id)
        if not self.key_manager.verify(packet):
            return

        exchange = Exchange(
            detector_id=self.node_id,
            detecting_id=packet.dst_id,
            target_id=packet.src_id,
            detector_position=self.position,
            declared_position=packet.claimed_point,
            measured_distance_ft=reception.measured_distance_ft,
            reception=reception,
            rtt_provider=lambda: self._observe_rtt(reception),
        )
        verdict = self.detector.evaluate(exchange)
        self._record(
            packet.dst_id,
            packet.src_id,
            verdict.decision,
            signal_consistent=verdict.signal_consistent,
        )
        if verdict.indict:
            self.report_alert(packet.src_id, time=reception.arrival_time)

    def _observe_rtt(self, reception: Reception) -> float:
        """Measure the register-level RTT of this exchange."""
        if self.network is None:
            return 0.0
        tx = reception.transmission
        return self.network.measure_rtt(self, tx.tx_origin, tx.extra_delay_cycles)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report_alert(self, target_id: int, *, time: float = 0.0) -> bool:
        """Send an authenticated alert about ``target_id`` to the base station.

        A detecting node only reports a given target once (additional
        alerts from the same detector carry no extra information and would
        just burn its report quota). The alert reaches the base station,
        as the paper's §3.2 assumes of retransmission over a lossy link.
        """
        if self.base_station is None:
            return False
        if target_id in self.alerted_targets:
            return False
        self.alerted_targets.add(target_id)
        payload = BaseStation.alert_payload(self.node_id, target_id)
        tag = self.key_manager.sign_alert_payload(self.node_id, payload)
        return self.base_station.submit_alert(
            self.node_id, target_id, tag=tag, time=time
        )

    def _record(
        self,
        detecting_id: int,
        target_id: int,
        decision: str,
        *,
        signal_consistent: bool,
    ) -> None:
        self._probe_outcomes.append(
            ProbeOutcome(
                detecting_id=detecting_id, target_id=target_id, decision=decision
            )
        )
        if self.network is not None and self.network.trace.enabled:
            # The §2.1 verdict is recorded alongside the final decision so
            # post-hoc invariant checkers (repro.verify.invariants) can
            # assert "a consistent signal never indicts" from the trace
            # alone, without re-deriving the check.
            self.network.trace.record(
                self.network.engine.now(),
                "probe",
                detector=self.node_id,
                detecting_id=detecting_id,
                target=target_id,
                decision=decision,
                signal_consistent=signal_consistent,
            )
