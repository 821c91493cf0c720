"""Tests for lossy channels and ARQ reliable delivery."""

import random

import pytest

from repro.errors import ConfigurationError, DeliveryError
from repro.obs import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.messages import BeaconRequest
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.reliable import LossModel, ReliableChannel
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

    def test_expected_attempts(self, rng):
        assert LossModel(0.5, rng).expected_attempts() == pytest.approx(2.0)
        assert LossModel(1.0, rng).expected_attempts() == float("inf")

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            LossModel(1.5, rng)


class TestReliableChannel:
    def make(self, loss_rate, *, retries=8, seed=3, ack=True):
        engine = Engine()
        channel = ReliableChannel(
            engine,
            LossModel(loss_rate, random.Random(seed)),
            max_retries=retries,
            retry_timeout_cycles=1000.0,
            ack_required=ack,
        )
        return engine, channel

    def test_lossless_delivers_immediately(self):
        engine, channel = self.make(0.0)
        delivered = []
        report = channel.send(lambda: delivered.append(engine.now()))
        assert report.delivered
        assert report.attempts == 1
        assert delivered == [0.0]

    def test_retries_until_success(self):
        engine, channel = self.make(0.6, retries=50)
        delivered = []
        report = channel.send(lambda: delivered.append(1))
        engine.run()
        assert report.delivered
        assert report.attempts >= 1
        assert delivered == [1]

    def test_retry_adds_latency(self):
        engine, channel = self.make(0.9, retries=200, seed=5)
        times = []
        report = channel.send(lambda: times.append(engine.now()))
        engine.run()
        assert report.delivered
        if report.attempts > 1:
            assert times[0] == pytest.approx(
                (report.attempts - 1) * 1000.0
            )

    def test_budget_exhaustion_raises(self):
        engine, channel = self.make(1.0, retries=3)
        failures = []
        with pytest.raises(DeliveryError, match="retry budget exhausted"):
            channel.send(lambda: None, on_failure=lambda: failures.append(1))
        engine.run()
        assert failures == [1]
        assert channel.counters.failed == 1

    def test_budget_exhaustion_report_mode(self):
        engine, channel = self.make(1.0, retries=3)
        failures = []
        report = channel.send(
            lambda: None,
            on_failure=lambda: failures.append(1),
            raise_on_exhaustion=False,
        )
        engine.run()
        assert not report.delivered
        assert report.attempts == 4
        assert failures == [1]
        assert channel.counters.failed == 1

    def test_backoff_grows_timeouts(self):
        engine = Engine()
        channel = ReliableChannel(
            engine,
            LossModel(1.0, random.Random(0)),
            max_retries=2,
            retry_timeout_cycles=100.0,
            backoff_factor=2.0,
        )
        report = channel.send(lambda: None, raise_on_exhaustion=False)
        # Timeouts 100, 200, 400 across the three attempts.
        assert report.completion_time == pytest.approx(700.0)

    def test_channel_counters(self):
        engine, channel = self.make(1.0, retries=2)
        channel.send(lambda: None, raise_on_exhaustion=False)
        assert channel.counters.sends == 1
        assert channel.counters.attempts == 3
        assert channel.counters.retries == 2
        assert channel.counters.failed == 1
        registry = MetricsRegistry()
        channel.record_metrics(registry)
        counters = registry.snapshot()["counters"]
        assert counters['arq_attempts_total{channel="channel"}'] == 3

    def test_delivery_probability_formula(self):
        _, channel = self.make(0.5, retries=3, ack=False)
        # 1 - 0.5^4
        assert channel.delivery_probability() == pytest.approx(1 - 0.5**4)

    def test_ack_halves_per_attempt_success(self):
        _, with_ack = self.make(0.5, retries=0, ack=True)
        _, without = self.make(0.5, retries=0, ack=False)
        assert with_ack.delivery_probability() == pytest.approx(0.25)
        assert without.delivery_probability() == pytest.approx(0.5)

    def test_empirical_delivery_matches_formula(self):
        engine, channel = self.make(0.5, retries=2, seed=11)
        n = 2000
        delivered = sum(
            1
            for _ in range(n)
            if channel.send(lambda: None, raise_on_exhaustion=False).delivered
        )
        assert delivered / n == pytest.approx(
            channel.delivery_probability(), abs=0.04
        )

    def test_bad_params_rejected(self):
        engine = Engine()
        loss = LossModel(0.1, random.Random(0))
        with pytest.raises(ConfigurationError):
            ReliableChannel(engine, loss, max_retries=-1)
        with pytest.raises(ConfigurationError):
            ReliableChannel(engine, loss, retry_timeout_cycles=0.0)
        with pytest.raises(ConfigurationError):
            ReliableChannel(engine, loss, backoff_factor=0.5)


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
