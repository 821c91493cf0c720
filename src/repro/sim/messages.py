"""Packet types exchanged in the simulated network.

Packets model only what the paper's protocols need:

- :class:`BeaconRequest` — a (non-)beacon node asking a beacon node for a
  beacon signal (the paper's request/reply protocol, Figure 3);
- :class:`BeaconPacket` — the beacon reply carrying the claimed location.

§3.1 alerts reach the base station by direct call, and flooded
revocation notices travel as
:class:`repro.core.notices.AuthenticatedNotice`.

Every packet exposes :meth:`Packet.wire_repr`, the canonical byte string the
crypto layer authenticates. Authentication tags travel in ``auth_tag`` and
are verified against the pairwise key of the (claimed) endpoints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

from repro.utils.geometry import Point


@dataclass
class Packet:
    """Base class for everything sent over the simulated radio.

    Attributes:
        src_id: the *claimed* sender identity (an attacker may lie).
        dst_id: the intended recipient identity.
        auth_tag: message-authentication code over :meth:`wire_repr`,
            computed with the pairwise key for ``(src_id, dst_id)``; ``None``
            until the crypto layer signs the packet.
        size_bits: on-air size, used for airtime/delay computation.
    """

    src_id: int
    dst_id: int
    auth_tag: Optional[bytes] = field(default=None, compare=False)
    size_bits: int = field(default=288, compare=False)  # 36-byte TinyOS frame

    #: Whether receivers extract a ranging feature (RSSI/ToF distance)
    #: from this packet's signal. Control traffic that nobody ranges on
    #: (e.g. flooded µTESLA notices) sets this False so its deliveries
    #: never consume the shared ``ranging`` noise stream — otherwise
    #: mere dissemination traffic would perturb every later ranging
    #: measurement and break oracle-vs-flood determinism.
    carries_ranging_signal: ClassVar[bool] = True

    def kind(self) -> str:
        """Short type name used in traces."""
        return type(self).__name__

    def wire_repr(self) -> bytes:
        """Canonical bytes covered by the authentication tag."""
        fields = []
        for f in dataclasses.fields(self):
            if f.name in ("auth_tag",):
                continue
            fields.append(f"{f.name}={getattr(self, f.name)!r}")
        return f"{self.kind()}({','.join(fields)})".encode("utf-8")

    def with_auth(self, tag: bytes) -> "Packet":
        """Return a shallow copy of this packet carrying ``tag``."""
        clone = dataclasses.replace(self)
        clone.auth_tag = tag
        return clone


@dataclass
class BeaconRequest(Packet):
    """Request for a beacon signal, sent under a (possibly detecting) ID."""

    nonce: int = 0


@dataclass
class BeaconPacket(Packet):
    """A beacon signal's data payload.

    Attributes:
        claimed_location: the location the beacon *declares*; for a
            compromised beacon this may differ from its physical location.
        nonce: echoes the request nonce, binding reply to request.
        sequence: per-beacon monotonically increasing counter.
    """

    claimed_location: Tuple[float, float] = (0.0, 0.0)
    nonce: int = 0
    sequence: int = 0

    @property
    def claimed_point(self) -> Point:
        """The declared location as a :class:`Point`."""
        return Point(*self.claimed_location)
