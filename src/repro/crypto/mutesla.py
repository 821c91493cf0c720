"""µTESLA broadcast authentication (Perrig et al., SPINS, 2001).

The paper cites µTESLA as the sensor-network broadcast-authentication
primitive. We use it for two things:

- the base station's revocation notices (one sender, many receivers), and
- the distributed revocation extension, where *every beacon node* needs to
  authenticate its alerts to every other node without pairwise contact —
  exactly the asymmetry µTESLA's delayed key disclosure provides.

Mechanism: the sender builds a one-way key chain ``K_n -> ... -> K_0``
with ``K_i = H(K_{i+1})`` and publishes the anchor ``K_0`` (the
*commitment*). Time is divided into intervals; a packet sent in interval
``i`` is MACed with a key derived from ``K_i``; the sender discloses
``K_i`` only ``disclosure_lag`` intervals later. A receiver buffers the
packet, checks the **security condition** (the packet arrived before its
key could have been disclosed), later authenticates the disclosed key
against the anchor via repeated hashing, and only then verifies the MAC.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AuthenticationError, ConfigurationError

_HASH = hashlib.sha256


def _chain_step(key: bytes) -> bytes:
    """One application of the one-way function H."""
    return _HASH(b"chain|" + key).digest()[:16]


def _mac_key(key: bytes) -> bytes:
    """Derive the per-interval MAC key H'(K_i) from the chain key."""
    return _HASH(b"mac|" + key).digest()[:16]


@dataclass(frozen=True)
class MuTeslaTag:
    """Authentication data attached to one broadcast packet."""

    sender_id: int
    interval: int
    mac: bytes


class KeyChain:
    """A sender's one-way key chain over fixed time intervals.

    Args:
        seed: the secret chain head ``K_n``.
        length: number of usable intervals ``n``.
        interval_cycles: duration of each interval in simulation cycles.
        start_time: cycle at which interval 0 begins.
        disclosure_lag: intervals to wait before disclosing a key (>= 1).
    """

    def __init__(
        self,
        seed: bytes,
        length: int,
        *,
        interval_cycles: float,
        start_time: float = 0.0,
        disclosure_lag: int = 2,
    ) -> None:
        if length <= 0:
            raise ConfigurationError(f"length must be > 0, got {length}")
        if interval_cycles <= 0:
            raise ConfigurationError(
                f"interval_cycles must be > 0, got {interval_cycles}"
            )
        if disclosure_lag < 1:
            raise ConfigurationError(
                f"disclosure_lag must be >= 1, got {disclosure_lag}"
            )
        self.length = length
        self.interval_cycles = float(interval_cycles)
        self.start_time = float(start_time)
        self.disclosure_lag = disclosure_lag
        # keys[i] = K_i; build from K_n = H(seed) down to the anchor K_0.
        keys = [b""] * (length + 1)
        keys[length] = _chain_step(seed)
        for i in range(length - 1, -1, -1):
            keys[i] = _chain_step(keys[i + 1])
        self._keys = keys

    @property
    def commitment(self) -> bytes:
        """The public anchor ``K_0`` receivers are bootstrapped with."""
        return self._keys[0]

    def interval_at(self, time: float) -> int:
        """The interval index containing ``time`` (may exceed ``length``)."""
        if time < self.start_time:
            raise ConfigurationError(
                f"time {time} precedes chain start {self.start_time}"
            )
        return int((time - self.start_time) // self.interval_cycles)

    def key_for_interval(self, interval: int) -> bytes:
        """The chain key K_i (sender-side secret until disclosure)."""
        if not 1 <= interval <= self.length:
            raise ConfigurationError(
                f"interval must be in [1, {self.length}], got {interval}"
            )
        return self._keys[interval]

    def disclosable_interval(self, time: float) -> int:
        """The newest interval whose key may be disclosed at ``time``."""
        return self.interval_at(time) - self.disclosure_lag


class MuTeslaBroadcaster:
    """Sender side: MAC packets in the current interval, disclose old keys."""

    def __init__(self, sender_id: int, chain: KeyChain) -> None:
        self.sender_id = sender_id
        self.chain = chain

    def authenticate(self, payload: bytes, now: float) -> MuTeslaTag:
        """Produce the tag for ``payload`` sent at time ``now``.

        Raises:
            AuthenticationError: if the chain is exhausted (interval > n)
                or the time falls in interval 0 (whose key is the public
                anchor and must never be used for MACs).
        """
        interval = self.chain.interval_at(now)
        if interval < 1:
            raise AuthenticationError(
                "interval 0 cannot authenticate packets (its key is public)"
            )
        if interval > self.chain.length:
            raise AuthenticationError("key chain exhausted")
        mac = hmac.new(
            _mac_key(self.chain.key_for_interval(interval)),
            payload,
            _HASH,
        ).digest()[:8]
        return MuTeslaTag(sender_id=self.sender_id, interval=interval, mac=mac)

    def disclose(self, now: float) -> Optional[Tuple[int, bytes]]:
        """The (interval, key) pair safe to disclose at ``now``, if any."""
        interval = self.chain.disclosable_interval(now)
        if interval < 1:
            return None
        interval = min(interval, self.chain.length)
        return interval, self.chain.key_for_interval(interval)


@dataclass
class _Buffered:
    payload: bytes
    tag: MuTeslaTag
    arrival_time: float


class MuTeslaVerifier:
    """Receiver side: buffer, check the security condition, verify later.

    Args:
        commitment: the sender's anchor ``K_0`` (assumed predistributed).
        interval_cycles / start_time / disclosure_lag: chain parameters
            (public protocol constants).
    """

    def __init__(
        self,
        commitment: bytes,
        *,
        interval_cycles: float,
        start_time: float = 0.0,
        disclosure_lag: int = 2,
    ) -> None:
        self.commitment = commitment
        self.interval_cycles = interval_cycles
        self.start_time = start_time
        self.disclosure_lag = disclosure_lag
        self._verified_keys: Dict[int, bytes] = {0: commitment}
        self._highest_verified = 0
        self._buffer: List[_Buffered] = []
        self.rejected_unsafe = 0
        self.rejected_bad_mac = 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def interval_at(self, time: float) -> int:
        """Interval index for ``time`` under the public parameters."""
        return int((time - self.start_time) // self.interval_cycles)

    def buffer(self, payload: bytes, tag: MuTeslaTag, arrival_time: float) -> bool:
        """Accept a packet into the buffer if the security condition holds.

        The condition: at arrival, the sender cannot yet have disclosed the
        key of the packet's interval — otherwise an attacker who saw the
        disclosed key could have forged it.
        """
        if self.interval_at(arrival_time) >= tag.interval + self.disclosure_lag:
            self.rejected_unsafe += 1
            return False
        self._buffer.append(
            _Buffered(payload=payload, tag=tag, arrival_time=arrival_time)
        )
        return True

    # ------------------------------------------------------------------
    # Key disclosure
    # ------------------------------------------------------------------
    def accept_key(self, interval: int, key: bytes) -> bool:
        """Authenticate a disclosed key against the anchor; returns validity."""
        if interval <= self._highest_verified:
            return self._verified_keys.get(interval) == key
        # Hash the candidate down to the highest verified key.
        candidate = key
        derived = {interval: key}
        for i in range(interval - 1, self._highest_verified - 1, -1):
            candidate = _chain_step(candidate)
            derived[i] = candidate
        if candidate != self._verified_keys[self._highest_verified]:
            return False
        self._verified_keys.update(derived)
        self._highest_verified = interval
        return True

    def release_verified(self) -> List[Tuple[bytes, MuTeslaTag]]:
        """Verify and pop every buffered packet whose key is now known."""
        ready: List[Tuple[bytes, MuTeslaTag]] = []
        remaining: List[_Buffered] = []
        for item in self._buffer:
            key = self._verified_keys.get(item.tag.interval)
            if key is None:
                remaining.append(item)
                continue
            expected = hmac.new(_mac_key(key), item.payload, _HASH).digest()[:8]
            if hmac.compare_digest(expected, item.tag.mac):
                ready.append((item.payload, item.tag))
            else:
                self.rejected_bad_mac += 1
        self._buffer = remaining
        return ready

    @property
    def pending(self) -> int:
        """Packets still waiting for their key."""
        return len(self._buffer)
