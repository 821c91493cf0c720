"""Protocol roles over the simulator: beacon service and non-beacon agent.

These implement the paper's two-stage location discovery (Section 1):
stage 1, non-beacon nodes request and receive beacon signals and derive
location references; stage 2, they solve for their own position.

The secure pipeline in :mod:`repro.core.pipeline` composes replay filters
and detection on top of these roles; attack nodes in :mod:`repro.attacks`
subclass :class:`BeaconService` to misbehave.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.manager import KeyManager
from repro.errors import InsufficientReferencesError
from repro.localization.multilateration import MultilaterationResult, mmse_multilaterate
from repro.localization.references import LocationReference
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.node import Node
from repro.sim.radio import Reception
from repro.utils.geometry import Point


class BeaconService(Node):
    """A location-aware beacon node answering beacon requests.

    Args:
        node_id: primary beacon identity.
        position: physical (and, for benign beacons, declared) location.
        key_manager: signs outgoing beacon packets per the paper's
            "every beacon packet is authenticated ... with the pairwise key".
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        key_manager: KeyManager,
        *,
        declared_location: Optional[Point] = None,
    ) -> None:
        super().__init__(node_id, position, is_beacon=True)
        self.key_manager = key_manager
        self.declared_location = (
            declared_location if declared_location is not None else position
        )
        self._sequence = 0
        self.requests_served = 0
        self.on(BeaconRequest, type(self)._serve_request)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _serve_request(self, reception: Reception) -> None:
        request = reception.packet
        if not self.key_manager.verify(request):
            return  # forged request: no shared key, drop silently
        self.respond_to(request)

    def respond_to(self, request: BeaconRequest) -> None:
        """Send the beacon packet this node answers ``request`` with.

        Benign behaviour: declare the true location, no signal games.
        Subclasses (malicious beacons) override this.
        """
        self.requests_served += 1
        self._sequence += 1
        reply = BeaconPacket(
            src_id=self.node_id,
            dst_id=request.src_id,
            claimed_location=(self.declared_location.x, self.declared_location.y),
            nonce=request.nonce,
            sequence=self._sequence,
        )
        self.send(self.key_manager.sign(reply))


class NonBeaconAgent(Node):
    """A regular sensor node discovering its own location.

    Collects authenticated beacon packets into location references and
    solves with MMSE multilateration. Beacon packets from the ids in
    ``revoked_beacons`` are discarded (paper Section 3.2 assumes "a
    malicious beacon signal will not be used ... if the corresponding beacon
    node is revoked"); the pipeline fills that set, by oracle or by the
    flooded notices of :mod:`repro.core.notices`.
    """

    def __init__(self, node_id: int, position: Point, key_manager: KeyManager) -> None:
        super().__init__(node_id, position, is_beacon=False)
        self.key_manager = key_manager
        self._references: List[LocationReference] = []
        #: The batch core's records not built yet: ``(build, indices)``
        #: over one localization wave's columns, or None.
        self._pending_references: Optional[tuple] = None
        self.revoked_beacons: set[int] = set()
        self._next_nonce = 1
        self.estimated_position: Optional[Point] = None
        self.on(BeaconPacket, type(self)._collect_reference)

    @property
    def references(self) -> List[LocationReference]:
        """Every accepted location reference, in delivery order.

        The scalar handler appends each reference as it accepts the
        packet. The batch core leaves a pending slice of its wave's
        columns instead; the first read builds those records and
        appends them.
        """
        if self._pending_references is not None:
            build, indices = self._pending_references
            self._pending_references = None
            self._references.extend(build(indices))
        return self._references

    @references.setter
    def references(self, references: List[LocationReference]) -> None:
        # Replaces every reference, the pending ones too.
        self._pending_references = None
        self._references = references

    # ------------------------------------------------------------------
    # Stage 1: gather references
    # ------------------------------------------------------------------
    def request_beacon(self, beacon_id: int) -> None:
        """Unicast a beacon request to ``beacon_id``."""
        request = BeaconRequest(
            src_id=self.node_id, dst_id=beacon_id, nonce=self._next_nonce
        )
        self._next_nonce += 1
        self.send(self.key_manager.sign(request))

    def _collect_reference(self, reception: Reception) -> None:
        packet = reception.packet
        if not self.key_manager.verify(packet):
            return
        if packet.src_id in self.revoked_beacons:
            return
        if self.accepts(reception):
            self._references.append(self.reference_from(reception))

    def accepts(self, reception: Reception) -> bool:
        """Hook for replay filters; base agent accepts everything valid."""
        return True

    def reference_from(self, reception: Reception) -> LocationReference:
        """Build the location reference for an accepted beacon packet."""
        packet = reception.packet
        return LocationReference(
            beacon_id=packet.src_id,
            beacon_location=packet.claimed_point,
            measured_distance_ft=reception.measured_distance_ft,
            received_at=reception.arrival_time,
        )

    # ------------------------------------------------------------------
    # Stage 2: solve
    # ------------------------------------------------------------------
    def estimate_position(self) -> MultilaterationResult:
        """Solve for this node's position from the collected references.

        Raises:
            InsufficientReferencesError: fewer than 3 usable references.
        """
        distinct: Dict[int, LocationReference] = {}
        for ref in self.references:
            distinct[ref.beacon_id] = ref  # keep the latest per beacon
        refs = [distinct[k] for k in sorted(distinct)]
        if len(refs) < 3:
            raise InsufficientReferencesError(
                f"node {self.node_id} holds {len(refs)} usable references"
            )
        result = mmse_multilaterate(refs)
        self.estimated_position = result.position
        return result

    def location_error_ft(self) -> float:
        """Distance between the estimate and the ground-truth position."""
        if self.estimated_position is None:
            raise InsufficientReferencesError(
                f"node {self.node_id} has no position estimate yet"
            )
        return self.estimated_position.distance_to(self.position)


def purge_references(agents: List[NonBeaconAgent], beacon_id: int) -> None:
    """Drop every reference from ``beacon_id`` that ``agents`` hold.

    Skips, without a property call, each agent that holds no reference
    and none pending, so a revocation costs little before localization.
    """
    for agent in agents:
        if agent._references or agent._pending_references is not None:
            agent.references = [
                r for r in agent.references if r.beacon_id != beacon_id
            ]
