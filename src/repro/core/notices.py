"""Revocation-notice dissemination (base station -> the whole field).

The paper assumes (§3.2) "the revocation message from the base station can
reach most of sensor nodes" via standard fault-tolerance. This module
implements the mechanism: the base station authenticates each
:class:`AuthenticatedNotice` with its **µTESLA chain** (every sensor holds
the commitment — the SPINS broadcast-authentication model) and the notice
is **flooded**: every node rebroadcasts each new notice once.

Receivers buffer notices until the corresponding chain key is disclosed,
then verify and apply. Forged notices — an attacker would love to "revoke"
benign beacons network-wide — fail the MAC and die.

Paper section: §3.2 (revocation-notice dissemination)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.mutesla import (
    KeyChain,
    MuTeslaBroadcaster,
    MuTeslaTag,
    MuTeslaVerifier,
)
from repro.localization.beacon import NonBeaconAgent, purge_references
from repro.sim.messages import Packet
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.radio import Reception


@dataclass
class AuthenticatedNotice(Packet):
    """A flooded revocation notice carrying its µTESLA tag.

    Receivers never range on notice signals, so deliveries draw no
    ranging noise — flood-mode runs stay bit-identical to oracle-mode
    runs on every ranging measurement.
    """

    carries_ranging_signal = False

    revoked_id: int = 0
    interval: int = 0
    mac: bytes = b""

    def notice_payload(self) -> bytes:
        """The bytes covered by the µTESLA MAC."""
        return b"revoke:%d" % self.revoked_id


@dataclass
class KeyDisclosure(Packet):
    """A flooded µTESLA key disclosure from the base station.

    Pure control traffic (see :class:`AuthenticatedNotice`): no ranging
    noise is drawn for its deliveries.
    """

    carries_ranging_signal = False

    interval: int = 0
    key: bytes = b""


class NoticeDistributor:
    """Base-station side: authenticate, flood, and disclose.

    Args:
        network: the field to flood over.
        origin: the node the base station injects packets through (its
            gateway; typically a beacon near the station).
        interval_cycles / disclosure_lag / chain_length: µTESLA params.
    """

    def __init__(
        self,
        network: Network,
        origin: Node,
        *,
        interval_cycles: float = 2_000_000.0,
        disclosure_lag: int = 2,
        chain_length: int = 64,
        seed: bytes = b"base-station-notice-chain",
    ) -> None:
        self.network = network
        self.origin = origin
        self.chain = KeyChain(
            seed,
            chain_length,
            interval_cycles=interval_cycles,
            start_time=network.engine.now() - interval_cycles,
            disclosure_lag=disclosure_lag,
        )
        self.broadcaster = MuTeslaBroadcaster(origin.node_id, self.chain)
        self.notices_sent = 0

    @property
    def commitment(self) -> bytes:
        """The anchor receivers must be bootstrapped with."""
        return self.chain.commitment

    def announce_revocation(self, revoked_id: int) -> None:
        """Flood an authenticated revocation notice for ``revoked_id``."""
        payload = b"revoke:%d" % revoked_id
        tag = self.broadcaster.authenticate(payload, self.network.engine.now())
        notice = AuthenticatedNotice(
            src_id=self.origin.node_id,
            dst_id=0,
            revoked_id=revoked_id,
            interval=tag.interval,
            mac=tag.mac,
        )
        self.notices_sent += 1
        self.network.broadcast(self.origin, notice)

    def disclose_key(self) -> bool:
        """Flood the newest disclosable chain key; True if one was sent."""
        disclosed = self.broadcaster.disclose(self.network.engine.now())
        if disclosed is None:
            return False
        interval, key = disclosed
        packet = KeyDisclosure(
            src_id=self.origin.node_id, dst_id=0, interval=interval, key=key
        )
        self.network.broadcast(self.origin, packet)
        return True


def install_notice_handling(
    node: Node,
    commitment: bytes,
    *,
    interval_cycles: float = 2_000_000.0,
    disclosure_lag: int = 2,
    start_time: Optional[float] = None,
) -> None:
    """Equip any node with flood-relay + µTESLA-verify notice handling.

    Works on plain :class:`Node` instances — no subclassing needed; the
    pipeline installs this on every agent and beacon when running in
    flooded-dissemination mode. State lives on the node instance
    (``_notice_verifier``, ``applied_revocations``, dedup sets).
    """
    if start_time is None:
        start_time = (
            node.network.engine.now() - interval_cycles
            if node.network is not None
            else -interval_cycles
        )
    node._notice_verifier = MuTeslaVerifier(
        commitment,
        interval_cycles=interval_cycles,
        start_time=start_time,
        disclosure_lag=disclosure_lag,
    )
    node._seen_notices = set()
    node._seen_keys = set()
    node.applied_revocations = set()
    node.on(AuthenticatedNotice, _handle_notice)
    node.on(KeyDisclosure, _handle_key)


# ----------------------------------------------------------------------
# Handlers (free functions matching the Node Handler signature)
# ----------------------------------------------------------------------
def _handle_notice(node: Node, reception: Reception) -> None:
    packet = reception.packet
    fingerprint = packet.notice_payload() + packet.mac
    if fingerprint in node._seen_notices:
        return
    node._seen_notices.add(fingerprint)
    tag = MuTeslaTag(
        sender_id=packet.src_id, interval=packet.interval, mac=packet.mac
    )
    node._notice_verifier.buffer(
        packet.notice_payload(), tag, reception.arrival_time
    )
    _rebroadcast(node, packet)


def _handle_key(node: Node, reception: Reception) -> None:
    packet = reception.packet
    if packet.interval not in node._seen_keys:
        node._seen_keys.add(packet.interval)
        _rebroadcast(node, packet)
    if not node._notice_verifier.accept_key(packet.interval, packet.key):
        return
    for payload, _tag in node._notice_verifier.release_verified():
        revoked_id = int(payload.decode("ascii").split(":")[1])
        _apply_verified_revocation(node, revoked_id)


def _rebroadcast(node: Node, packet: Packet) -> None:
    if node.network is not None:
        node.network.broadcast(node, packet)


def _apply_verified_revocation(node: Node, revoked_id: int) -> None:
    node.applied_revocations.add(revoked_id)
    if isinstance(node, NonBeaconAgent):
        node.revoked_beacons.add(revoked_id)
        purge_references([node], revoked_id)
