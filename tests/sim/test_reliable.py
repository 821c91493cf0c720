"""Tests for the per-attempt loss model and the lossy network link."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.messages import BeaconRequest
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.reliable import LossModel
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


class TestLossModel:
    def test_zero_loss_always_succeeds(self, rng):
        model = LossModel(0.0, rng)
        assert all(model.attempt_succeeds() for _ in range(100))
        assert model.losses == 0

    def test_total_loss_never_succeeds(self, rng):
        model = LossModel(1.0, rng)
        assert not any(model.attempt_succeeds() for _ in range(100))
        assert model.losses == 100

    def test_statistics(self):
        model = LossModel(0.3, random.Random(2))
        n = 5000
        successes = sum(1 for _ in range(n) if model.attempt_succeeds())
        assert successes / n == pytest.approx(0.7, abs=0.03)

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            LossModel(1.5, rng)


class TestNetworkLoss:
    def test_lossy_network_drops_deliveries(self):
        engine = Engine()
        net = Network(
            engine,
            rngs=RngRegistry(4),
            loss_model=LossModel(1.0, random.Random(0)),
        )
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(50, 0)))
        got = []
        b.on(BeaconRequest, lambda n, r: got.append(1))
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert got == []

    def test_loss_statistics_on_network(self):
        engine = Engine()
        net = Network(
            engine,
            rngs=RngRegistry(4),
            loss_model=LossModel(0.25, random.Random(1)),
        )
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(50, 0)))
        got = []
        b.on(BeaconRequest, lambda n, r: got.append(1))
        n = 2000
        for _ in range(n):
            net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert len(got) / n == pytest.approx(0.75, abs=0.03)
