"""Tests for distributed (base-station-less) revocation."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.distributed import (
    DistributedConfig,
    DistributedRevocationProtocol,
    RevocationLedger,
)
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


def line_network(n_beacons=6, spacing=100.0):
    """Beacons in a line; each hears only its immediate neighbours."""
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(3))
    for i in range(n_beacons):
        net.add_node(Node(i + 1, Point(i * spacing, 0.0), is_beacon=True))
    return net


FAST = DistributedConfig(
    tau_report=2,
    tau_alert=1,
    interval_cycles=500_000.0,
    hop_delay_cycles=10_000.0,
)


class TestLedger:
    def test_revokes_past_threshold(self):
        ledger = RevocationLedger(1, tau_report=5, tau_alert=1)
        ledger.process(10, 99)
        assert 99 not in ledger.revoked
        ledger.process(11, 99)
        assert ledger.revoked == {99}

    def test_duplicate_alerts_ignored(self):
        ledger = RevocationLedger(1, tau_report=5, tau_alert=1)
        assert ledger.process(10, 99)
        assert not ledger.process(10, 99)
        assert 99 not in ledger.revoked

    def test_reporter_quota(self):
        ledger = RevocationLedger(1, tau_report=1, tau_alert=10)
        assert ledger.process(10, 21)
        assert ledger.process(10, 22)
        assert not ledger.process(10, 23)  # counter exceeded the quota

    def test_revoked_target_ignored(self):
        ledger = RevocationLedger(1, tau_report=9, tau_alert=0)
        ledger.process(10, 99)
        assert 99 in ledger.revoked
        assert not ledger.process(11, 99)


class TestProtocol:
    def test_needs_beacons(self):
        engine = Engine()
        net = Network(engine, rngs=RngRegistry(0))
        with pytest.raises(ConfigurationError):
            DistributedRevocationProtocol(net)

    def test_alert_floods_within_ttl(self):
        net = line_network(n_beacons=6)
        proto = DistributedRevocationProtocol(
            net, DistributedConfig(gossip_ttl=2, tau_alert=0)
        )
        reached = proto.publish_alert(1, target_id=99)
        assert reached == 2  # beacons 2 and 3 only

    def test_alerts_verified_after_disclosure(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        proto.publish_alert(2, 99)
        # Before any disclosure: only the reporters' own ledgers count.
        assert 99 not in proto.revoked_by(3)
        proto.run_intervals(4)
        # tau_alert=1 => two alerts revoke everywhere the flood reached.
        assert 99 in proto.revoked_by(3)
        assert 99 in proto.revoked_by(6)

    def test_reporter_counts_own_alert_immediately(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        assert proto.ledgers[1].alert_counters[99] == 1

    def test_quorum_view(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        proto.publish_alert(2, 99)
        proto.run_intervals(4)
        assert 99 in proto.revoked_by_quorum(4)
        assert proto.revoked_by_quorum(len(proto.beacon_ids)) == {99}

    def test_agreement_perfect_on_connected_graph(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        proto.publish_alert(2, 99)
        proto.run_intervals(4)
        assert proto.agreement() == pytest.approx(1.0)

    def test_partition_breaks_agreement(self):
        # Two clusters far apart: alerts never cross the gap.
        engine = Engine()
        net = Network(engine, rngs=RngRegistry(4))
        for i in range(3):
            net.add_node(Node(i + 1, Point(i * 100.0, 0.0), is_beacon=True))
        for i in range(3):
            net.add_node(
                Node(i + 10, Point(i * 100.0 + 5_000.0, 0.0), is_beacon=True)
            )
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        proto.publish_alert(2, 99)
        proto.run_intervals(4)
        # Left cluster revokes 99; right cluster never hears of it.
        assert 99 in proto.revoked_by(3)
        assert 99 not in proto.revoked_by(10)
        assert proto.agreement() < 1.0

    def test_colluders_capped_at_every_node(self):
        net = line_network(n_beacons=5)
        cfg = DistributedConfig(
            tau_report=1,
            tau_alert=1,
            interval_cycles=500_000.0,
            hop_delay_cycles=10_000.0,
        )
        proto = DistributedRevocationProtocol(net, cfg)
        # Beacon 1 is malicious and floods alerts against everyone.
        for target in (20, 21, 22, 23, 24):
            proto.publish_alert(1, target)
        proto.run_intervals(4)
        # Quota tau_report=1 => each honest ledger accepts at most 2 of
        # them, and with tau_alert=1 a single reporter can revoke no one.
        for bid in (2, 3, 4, 5):
            assert proto.revoked_by(bid) == set()

    def test_detection_and_fp_metrics(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        proto.publish_alert(1, 99)
        proto.publish_alert(2, 99)
        proto.run_intervals(4)
        assert proto.detection_rate({99}, quorum=3) == 1.0
        assert proto.false_positive_rate({1, 2, 3}, quorum=3) == 0.0

    def test_unknown_reporter_rejected(self):
        net = line_network()
        proto = DistributedRevocationProtocol(net, FAST)
        with pytest.raises(ConfigurationError):
            proto.publish_alert(999, 1)


class TestImportCost:
    def test_pipeline_import_leaves_networkx_out(self):
        # Only the protocol builds a graph, so only it imports networkx;
        # a queue worker or benchmark importing the pipeline does not pay
        # for it.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.core.pipeline; "
                "print('networkx' in sys.modules)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"
