"""Network-wide key management: identities, detecting IDs, packet signing.

The :class:`KeyManager` is the deployment authority. It:

- issues key material for every node identity through a pluggable
  predistribution scheme (default: the paper's "unique pairwise key"
  assumption via :class:`FullPairwiseScheme`);
- allocates **detecting IDs** to beacon nodes (Section 2.1: extra non-beacon
  identities, with full key material, that a beacon node uses to probe its
  neighbours incognito);
- signs and verifies packets with the pairwise key of the claimed endpoints;
- manages the per-beacon base-station keys used to authenticate alerts.

Identity layout: detecting IDs are allocated from a reserved range above
``detecting_id_base`` so that they are recognizably *non-beacon* IDs (the
paper requires "this ID should be recognized as a non-beacon node ID").
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set

from repro.crypto.keyring import KeyRing
from repro.crypto.mac import compute_tag, verify_tag
from repro.crypto.predistribution import (
    FullPairwiseScheme,
    KeyPredistributionScheme,
)
from repro.errors import AuthenticationError, ConfigurationError, KeyAgreementError
from repro.sim.messages import Packet

#: Detecting IDs are allocated upward from this base by default.
DEFAULT_DETECTING_ID_BASE = 1_000_000


class KeyManager:
    """Deployment-time key authority and runtime signing oracle.

    In a real network each node would hold only its own ring; centralizing
    the rings here is a simulation convenience that does not change any
    observable protocol behaviour (nodes still cannot authenticate packets
    for pairs they do not belong to, because signing is explicit about the
    claimed endpoints).
    """

    def __init__(
        self,
        scheme: Optional[KeyPredistributionScheme] = None,
        *,
        detecting_id_base: int = DEFAULT_DETECTING_ID_BASE,
        master_secret: bytes = b"repro-base-station",
    ) -> None:
        self.scheme = scheme if scheme is not None else FullPairwiseScheme()
        self._rings: Dict[int, KeyRing] = {}
        self._beacon_ids: Set[int] = set()
        self._detecting_owner: Dict[int, int] = {}
        self._detecting_ids: Dict[int, List[int]] = {}
        self._next_detecting_id = detecting_id_base
        self._detecting_id_base = detecting_id_base
        self._master = master_secret

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, node_id: int, *, is_beacon: bool = False) -> KeyRing:
        """Issue key material for a (primary) node identity."""
        if node_id >= self._detecting_id_base:
            raise ConfigurationError(
                f"node id {node_id} collides with the detecting-ID range "
                f"(>= {self._detecting_id_base})"
            )
        if node_id in self._rings:
            return self._rings[node_id]
        bs_key = self._base_station_key(node_id) if is_beacon else None
        ring = KeyRing(node_id, self.scheme, base_station_key=bs_key)
        self._rings[node_id] = ring
        if is_beacon:
            self._beacon_ids.add(node_id)
        return ring

    def allocate_detecting_ids(self, beacon_id: int, m: int) -> List[int]:
        """Give beacon ``beacon_id`` its ``m`` detecting identities.

        Each detecting ID gets full non-beacon key material, so peers cannot
        distinguish a probe from a genuine non-beacon request (Section 2.1).
        Idempotent: repeated calls return the same IDs (topping up to ``m``).
        """
        if beacon_id not in self._beacon_ids:
            raise ConfigurationError(
                f"{beacon_id} is not an enrolled beacon; cannot hold detecting IDs"
            )
        if m < 0:
            raise ConfigurationError(f"m must be >= 0, got {m}")
        ids = self._detecting_ids.setdefault(beacon_id, [])
        while len(ids) < m:
            did = self._next_detecting_id
            self._next_detecting_id += 1
            self._rings[did] = KeyRing(did, self.scheme)
            self._detecting_owner[did] = beacon_id
            ids.append(did)
        return list(ids[:m])

    # ------------------------------------------------------------------
    # Identity queries
    # ------------------------------------------------------------------
    def is_beacon_id(self, node_id: int) -> bool:
        """True for primary beacon identities (detecting IDs are *not*)."""
        return node_id in self._beacon_ids

    def is_detecting_id(self, node_id: int) -> bool:
        """True when ``node_id`` is an allocated detecting identity."""
        return node_id in self._detecting_owner

    def owner_of_detecting_id(self, detecting_id: int) -> int:
        """The beacon that owns ``detecting_id``.

        Simulation-/base-station-side knowledge only: in-field attackers
        cannot call this (that is the entire point of detecting IDs).
        """
        try:
            return self._detecting_owner[detecting_id]
        except KeyError:
            raise ConfigurationError(
                f"{detecting_id} is not an allocated detecting ID"
            ) from None

    def ring(self, node_id: int) -> KeyRing:
        """The key ring of an enrolled identity."""
        ring = self._rings.get(node_id)
        if ring is None:
            raise KeyAgreementError(f"identity {node_id} was never enrolled")
        return ring

    # ------------------------------------------------------------------
    # Pairwise keys and packet authentication
    # ------------------------------------------------------------------
    def pairwise_key(self, id_a: int, id_b: int) -> bytes:
        """The pairwise key between two enrolled identities."""
        return self.ring(id_a).pairwise_key_with(id_b)

    def sign(self, packet: Packet) -> Packet:
        """Return a copy of ``packet`` tagged under (src, dst)'s pairwise key."""
        key = self.pairwise_key(packet.src_id, packet.dst_id)
        return packet.with_auth(compute_tag(key, packet.wire_repr()))

    def verify(self, packet: Packet) -> bool:
        """Check the packet's tag against the claimed endpoints' key.

        Forged packets from external attackers (who lack the pairwise key)
        fail here — the paper's first line of defence.
        """
        try:
            key = self.pairwise_key(packet.src_id, packet.dst_id)
        except KeyAgreementError:
            return False
        return verify_tag(key, packet.wire_repr(), packet.auth_tag)

    def require_valid(self, packet: Packet) -> None:
        """Raise :class:`AuthenticationError` unless ``packet`` verifies."""
        if not self.verify(packet):
            raise AuthenticationError(
                f"packet {packet.kind()} from {packet.src_id} to "
                f"{packet.dst_id} failed authentication"
            )

    # ------------------------------------------------------------------
    # Base-station keys
    # ------------------------------------------------------------------
    def _base_station_key(self, beacon_id: int) -> bytes:
        digest = hashlib.sha256()
        digest.update(self._master)
        digest.update(beacon_id.to_bytes(8, "big"))
        return digest.digest()[:16]

    def base_station_key(self, beacon_id: int) -> bytes:
        """The unique key beacon ``beacon_id`` shares with the base station."""
        ring = self.ring(beacon_id)
        if ring.base_station_key is None:
            raise KeyAgreementError(
                f"identity {beacon_id} holds no base-station key (not a beacon)"
            )
        return ring.base_station_key

    def sign_alert_payload(self, beacon_id: int, payload: bytes) -> bytes:
        """MAC an alert payload with the beacon's base-station key."""
        return compute_tag(self.base_station_key(beacon_id), payload)

    def verify_alert_payload(self, beacon_id: int, payload: bytes, tag: bytes) -> bool:
        """Base-station-side verification of an alert's MAC."""
        try:
            key = self.base_station_key(beacon_id)
        except KeyAgreementError:
            return False
        return verify_tag(key, payload, tag)
