"""Tests for the AHLoS atomic/iterative multilateration baseline."""

import random
import statistics

import pytest

from repro.localization.atomic import iterative_multilateration
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


def grid_network(side=10, spacing=80.0, beacon_every=3, seed=2):
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(seed))
    rng = random.Random(seed)
    nid = 0
    for i in range(side):
        for j in range(side):
            nid += 1
            is_beacon = i % beacon_every == 0 and j % beacon_every == 0
            jitter = rng.uniform(-5, 5)
            net.add_node(
                Node(
                    nid,
                    Point(i * spacing + jitter, j * spacing + jitter),
                    is_beacon=is_beacon,
                )
            )
    return net


def left_anchored_network(side=10, spacing=70.0, seed=2):
    """Beacons only on the left edge: promotion must sweep rightward."""
    engine = Engine()
    net = Network(engine, rngs=RngRegistry(seed))
    rng = random.Random(seed)
    nid = 0
    for i in range(side):
        for j in range(side):
            nid += 1
            is_beacon = i < 2  # two dense beacon columns on the left
            jitter = rng.uniform(-5, 5)
            net.add_node(
                Node(
                    nid,
                    Point(i * spacing + jitter, j * spacing + jitter),
                    is_beacon=is_beacon,
                )
            )
    return net


class TestIterativeMultilateration:
    def test_solves_beyond_direct_beacon_range(self):
        net = left_anchored_network()
        rng = random.Random(3)
        result = iterative_multilateration(net, rng)
        # Iterative promotion reaches nodes a single atomic pass cannot:
        # rightmost columns are several radio ranges from any real beacon.
        assert result.rounds >= 2
        assert len(result.positions) > 0.5 * len(net.non_beacon_nodes())

    def test_positions_reasonably_accurate(self):
        net = grid_network(side=8, spacing=100.0, beacon_every=2)
        rng = random.Random(3)
        result = iterative_multilateration(net, rng)
        errors = [
            net.node(k).position.distance_to(v) for k, v in result.positions.items()
        ]
        assert statistics.median(errors) < 30.0

    def test_residual_gate_reduces_promotions(self):
        net = left_anchored_network()
        free = iterative_multilateration(net, random.Random(5))
        gated = iterative_multilateration(
            net, random.Random(5), residual_gate_ft=1.0
        )
        assert len(gated.positions) <= len(free.positions)

    def test_unsolved_tracked(self):
        net = grid_network(side=4, spacing=100.0, beacon_every=4)
        lonely = Node(7777, Point(90_000, 90_000))
        net.add_node(lonely)
        result = iterative_multilateration(net, random.Random(1))
        assert 7777 in result.unsolved

    def test_error_accumulates_over_rounds(self):
        # The Section 2.3 warning: promoted anchors inject their estimation
        # error into later rounds.
        net = grid_network(side=9, spacing=100.0, beacon_every=8)
        rng = random.Random(11)
        result = iterative_multilateration(net, rng)
        if result.rounds < 2:
            pytest.skip("deployment solved in one round; nothing to compare")
        first = result.promoted[0]
        last = result.promoted[-1]
        err = lambda ids: statistics.mean(  # noqa: E731
            net.node(i).position.distance_to(result.positions[i]) for i in ids
        )
        assert err(last) >= err(first) * 0.5  # later rounds are no magic fix
