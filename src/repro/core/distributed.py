"""Distributed revocation without a base station (paper §6 future work).

The paper's conclusion calls out "distributed algorithms to revoke
malicious beacon nodes without using the base station" as future work.
This module implements one such algorithm, built from primitives the paper
already cites:

- Every beacon node owns a **µTESLA key chain** (SPINS); its commitment is
  predistributed at deployment, so *any* node can authenticate its alerts
  without pairwise contact — the property a base station key provided in
  the centralized scheme.
- A detecting beacon **floods** its authenticated alert over the beacon
  connectivity graph (TTL-bounded epidemic forwarding).
- Each beacon runs a **local revocation ledger** with exactly the
  centralized scheme's two counters: a per-reporter quota ``tau_report``
  (colluders still get only ``tau_report + 1`` alerts through *at every
  honest node*) and a per-target threshold ``tau_alert``.
- Keys are disclosed per µTESLA interval and flooded the same way; alerts
  only count once released by the verifier.

The interesting new metric is **agreement**: with no central arbiter,
different beacons may reach different revocation sets (alerts dropped by
the TTL horizon or the security condition). The bench compares detection,
false positives, and agreement against the centralized base station.

Paper section: §6 (distributed revocation, future work)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.mutesla import (
    KeyChain,
    MuTeslaBroadcaster,
    MuTeslaTag,
    MuTeslaVerifier,
)
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.utils.validation import check_int_in_range

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class DistributedConfig:
    """Protocol parameters.

    Attributes:
        tau_report: per-reporter accepted-alert quota (as centralized).
        tau_alert: local alert count that triggers revocation.
        gossip_ttl: maximum hops an alert/key flood travels.
        hop_delay_cycles: per-hop forwarding latency.
        interval_cycles: µTESLA interval length.
        disclosure_lag: µTESLA disclosure delay in intervals.
        chain_length: µTESLA chain length (protocol lifetime bound).
    """

    tau_report: int = 2
    tau_alert: int = 2
    gossip_ttl: int = 10
    hop_delay_cycles: float = 50_000.0
    interval_cycles: float = 2_000_000.0
    disclosure_lag: int = 2
    chain_length: int = 64

    def __post_init__(self) -> None:
        check_int_in_range(self.tau_report, "tau_report", 0)
        check_int_in_range(self.tau_alert, "tau_alert", 0)
        check_int_in_range(self.gossip_ttl, "gossip_ttl", 1)
        check_int_in_range(self.disclosure_lag, "disclosure_lag", 1)
        check_int_in_range(self.chain_length, "chain_length", 1)
        if self.hop_delay_cycles < 0:
            raise ConfigurationError(
                f"hop_delay_cycles must be >= 0, got {self.hop_delay_cycles}"
            )
        if self.interval_cycles <= 0:
            raise ConfigurationError(
                f"interval_cycles must be > 0, got {self.interval_cycles}"
            )


class RevocationLedger:
    """One beacon's local copy of the alert/report counters."""

    def __init__(self, owner_id: int, tau_report: int, tau_alert: int) -> None:
        self.owner_id = owner_id
        self.tau_report = tau_report
        self.tau_alert = tau_alert
        self.alert_counters: Dict[int, int] = {}
        self.report_counters: Dict[int, int] = {}
        self.revoked: Set[int] = set()
        self._seen: Set[Tuple[int, int]] = set()

    def process(self, reporter_id: int, target_id: int) -> bool:
        """Apply one verified alert; returns True if it was counted."""
        key = (reporter_id, target_id)
        if key in self._seen:
            return False  # floods deliver duplicates; count once
        self._seen.add(key)
        if self.report_counters.get(reporter_id, 0) > self.tau_report:
            return False
        if target_id in self.revoked:
            return False
        self.alert_counters[target_id] = self.alert_counters.get(target_id, 0) + 1
        self.report_counters[reporter_id] = (
            self.report_counters.get(reporter_id, 0) + 1
        )
        if self.alert_counters[target_id] > self.tau_alert:
            self.revoked.add(target_id)
        return True


@dataclass(frozen=True)
class _AlertMessage:
    reporter_id: int
    target_id: int
    tag: MuTeslaTag

    def payload(self) -> bytes:
        return b"dalert:%d:%d" % (self.reporter_id, self.target_id)


class DistributedRevocationProtocol:
    """Runs gossip-based revocation over a deployed network's beacons.

    Args:
        network: the deployed field (beacon positions define the gossip
            graph; an edge exists within radio range).
        config: protocol parameters.
        beacon_ids: participating beacons (default: all network beacons).
    """

    def __init__(
        self,
        network: Network,
        config: Optional[DistributedConfig] = None,
        *,
        beacon_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.network = network
        self.engine: Engine = network.engine
        self.config = config if config is not None else DistributedConfig()
        ids = (
            list(beacon_ids)
            if beacon_ids is not None
            else [b.node_id for b in network.beacon_nodes()]
        )
        if not ids:
            raise ConfigurationError("distributed revocation needs beacons")
        self.beacon_ids = sorted(ids)

        cfg = self.config
        # Back-date the chains by one interval so the protocol can
        # authenticate immediately (interval 0's key is the public anchor).
        start = self.engine.now() - cfg.interval_cycles
        self._chains: Dict[int, KeyChain] = {}
        self._broadcasters: Dict[int, MuTeslaBroadcaster] = {}
        for bid in self.beacon_ids:
            chain = KeyChain(
                b"beacon-chain-%d" % bid,
                cfg.chain_length,
                interval_cycles=cfg.interval_cycles,
                start_time=start,
                disclosure_lag=cfg.disclosure_lag,
            )
            self._chains[bid] = chain
            self._broadcasters[bid] = MuTeslaBroadcaster(bid, chain)

        # verifiers[(receiver, reporter)] — commitments are predistributed.
        self._verifiers: Dict[Tuple[int, int], MuTeslaVerifier] = {}
        self.ledgers: Dict[int, RevocationLedger] = {
            bid: RevocationLedger(bid, cfg.tau_report, cfg.tau_alert)
            for bid in self.beacon_ids
        }
        # networkx is imported here, not at module top: this protocol is
        # its only user, and importing it costs every process that
        # imports repro.core about 0.2 s.
        import networkx as nx

        self._graph = self._beacon_graph()
        self._hops = dict(nx.all_pairs_shortest_path_length(self._graph))
        self.alerts_published = 0
        self.alerts_delivered = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _beacon_graph(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.beacon_ids)
        nodes = [self.network.node(bid) for bid in self.beacon_ids]
        r = self.network.radio.comm_range_ft
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if a.position.distance_to(b.position) <= r:
                    graph.add_edge(a.node_id, b.node_id)
        return graph

    def _verifier_for(self, receiver: int, reporter: int) -> MuTeslaVerifier:
        key = (receiver, reporter)
        verifier = self._verifiers.get(key)
        if verifier is None:
            chain = self._chains[reporter]
            verifier = MuTeslaVerifier(
                chain.commitment,
                interval_cycles=chain.interval_cycles,
                start_time=chain.start_time,
                disclosure_lag=chain.disclosure_lag,
            )
            self._verifiers[key] = verifier
        return verifier

    def _flood_targets(self, origin: int) -> List[Tuple[int, int]]:
        """(beacon, hops) pairs reachable within the TTL (excluding origin)."""
        reach = []
        for bid, hops in self._hops.get(origin, {}).items():
            if bid != origin and hops <= self.config.gossip_ttl:
                reach.append((bid, hops))
        return reach

    # ------------------------------------------------------------------
    # Protocol actions
    # ------------------------------------------------------------------
    def publish_alert(self, reporter_id: int, target_id: int) -> int:
        """Reporter floods an authenticated alert; returns receivers reached."""
        if reporter_id not in self.ledgers:
            raise ConfigurationError(f"{reporter_id} is not a participating beacon")
        now = self.engine.now()
        message = _AlertMessage(
            reporter_id=reporter_id,
            target_id=target_id,
            tag=self._broadcasters[reporter_id].authenticate(
                b"dalert:%d:%d" % (reporter_id, target_id), now
            ),
        )
        self.alerts_published += 1
        targets = self._flood_targets(reporter_id)
        for receiver, hops in targets:
            delay = hops * self.config.hop_delay_cycles
            self.engine.schedule_in(
                delay,
                lambda r=receiver, m=message: self._deliver_alert(r, m),
                label="dalert",
            )
        # The reporter trusts its own first-hand observation immediately.
        self.ledgers[reporter_id].process(reporter_id, target_id)
        return len(targets)

    def _deliver_alert(self, receiver: int, message: _AlertMessage) -> None:
        self.alerts_delivered += 1
        verifier = self._verifier_for(receiver, message.reporter_id)
        verifier.buffer(message.payload(), message.tag, self.engine.now())

    def disclose_keys(self) -> None:
        """Every beacon floods its newest disclosable chain key."""
        now = self.engine.now()
        for reporter in self.beacon_ids:
            disclosed = self._broadcasters[reporter].disclose(now)
            if disclosed is None:
                continue
            interval, key = disclosed
            for receiver, hops in self._flood_targets(reporter):
                delay = hops * self.config.hop_delay_cycles
                self.engine.schedule_in(
                    delay,
                    lambda r=receiver, p=reporter, i=interval, k=key: (
                        self._deliver_key(r, p, i, k)
                    ),
                    label="dkey",
                )

    def _deliver_key(
        self, receiver: int, reporter: int, interval: int, key: bytes
    ) -> None:
        verifier = self._verifier_for(receiver, reporter)
        if not verifier.accept_key(interval, key):
            return
        ledger = self.ledgers[receiver]
        for payload, tag in verifier.release_verified():
            parts = payload.decode("ascii").split(":")
            ledger.process(int(parts[1]), int(parts[2]))

    def run_intervals(self, n_intervals: int) -> None:
        """Advance time interval by interval, disclosing keys each round."""
        check_int_in_range(n_intervals, "n_intervals", 1)
        for _ in range(n_intervals):
            deadline = self.engine.now() + self.config.interval_cycles
            self.engine.run_until(deadline)
            self.disclose_keys()
        # Drain the tail of in-flight floods.
        self.engine.run()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def revoked_by(self, beacon_id: int) -> Set[int]:
        """The local revocation set of one beacon."""
        return set(self.ledgers[beacon_id].revoked)

    def revoked_by_quorum(self, quorum: int) -> Set[int]:
        """Targets revoked by at least ``quorum`` beacons (sensor view)."""
        check_int_in_range(quorum, "quorum", 1)
        counts: Dict[int, int] = {}
        for ledger in self.ledgers.values():
            for target in ledger.revoked:
                counts[target] = counts.get(target, 0) + 1
        return {t for t, c in counts.items() if c >= quorum}

    def agreement(self) -> float:
        """Mean pairwise Jaccard similarity of local revocation sets.

        1.0 means every beacon reached the identical verdict; the
        centralized base station is 1.0 by construction.
        """
        sets = [self.ledgers[b].revoked for b in self.beacon_ids]
        if len(sets) < 2:
            return 1.0
        total = 0.0
        pairs = 0
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i], sets[j]
                union = a | b
                total += 1.0 if not union else len(a & b) / len(union)
                pairs += 1
        return total / pairs

    def detection_rate(
        self, malicious_ids: Set[int], *, quorum: int = 1
    ) -> Optional[float]:
        """Fraction of malicious beacons revoked by >= ``quorum`` nodes.

        ``None`` when ``malicious_ids`` is empty (undefined rate), matching
        :meth:`repro.core.revocation.BaseStation.detection_rate`.
        """
        if not malicious_ids:
            return None
        revoked = self.revoked_by_quorum(quorum)
        return len(revoked & malicious_ids) / len(malicious_ids)

    def false_positive_rate(
        self, benign_ids: Set[int], *, quorum: int = 1
    ) -> Optional[float]:
        """Fraction of benign beacons revoked by >= ``quorum`` nodes.

        ``None`` when ``benign_ids`` is empty (undefined rate).
        """
        if not benign_ids:
            return None
        revoked = self.revoked_by_quorum(quorum)
        return len(revoked & benign_ids) / len(benign_ids)
