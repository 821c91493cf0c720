"""Tests for network topology and delivery semantics."""

import pytest

from repro.errors import ConfigurationError, DeliveryError
from repro.sim.engine import Engine
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.network import Network, WormholeLink, uniform_ranging_error
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point


def make_network(engine=None, **kwargs):
    kwargs.setdefault("rngs", RngRegistry(5))
    return Network(engine or Engine(), **kwargs)


def collect_receptions(node):
    received = []
    node.on(BeaconRequest, lambda n, r: received.append(r))
    node.on(BeaconPacket, lambda n, r: received.append(r))
    return received


class TestTopology:
    def test_duplicate_id_rejected(self):
        net = make_network()
        net.add_node(Node(1, Point(0, 0)))
        with pytest.raises(ConfigurationError):
            net.add_node(Node(1, Point(5, 5)))

    def test_unknown_node_lookup(self):
        with pytest.raises(DeliveryError):
            make_network().node(42)

    def test_role_partitions(self):
        net = make_network()
        net.add_node(Node(1, Point(0, 0), is_beacon=True))
        net.add_node(Node(2, Point(1, 1)))
        assert [n.node_id for n in net.beacon_nodes()] == [1]
        assert [n.node_id for n in net.non_beacon_nodes()] == [2]

    def test_neighbors_respect_range(self):
        net = make_network()
        a = net.add_node(Node(1, Point(0, 0)))
        net.add_node(Node(2, Point(100, 0)))
        net.add_node(Node(3, Point(151, 0)))  # beyond 150 ft default
        assert [n.node_id for n in net.neighbors_of(a)] == [2]

    def test_nodes_within_grid_spans_cells(self):
        net = make_network()
        for i, x in enumerate((0, 149, 299, 449), start=1):
            net.add_node(Node(i, Point(x, 0)))
        found = net.nodes_within(Point(0, 0), 300)
        assert [n.node_id for n in found] == [1, 2, 3]

    def test_alias_routes_to_owner(self):
        net = make_network()
        owner = net.add_node(Node(1, Point(0, 0)))
        net.add_alias(1_000_000, 1)
        assert net.node(1_000_000) is owner

    def test_alias_collision_rejected(self):
        net = make_network()
        net.add_node(Node(1, Point(0, 0)))
        net.add_alias(50, 1)
        with pytest.raises(ConfigurationError):
            net.add_alias(50, 1)

    def test_alias_to_unknown_node_rejected(self):
        net = make_network()
        with pytest.raises(DeliveryError):
            net.add_alias(50, 99)


class TestUnicast:
    def test_in_range_delivery(self):
        engine = Engine()
        net = make_network(engine)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(50, 0)))
        received = collect_receptions(b)
        assert a.send(BeaconRequest(src_id=1, dst_id=2)) is None  # via Node.send
        engine.run()
        assert len(received) == 1
        assert received[0].packet.src_id == 1

    def test_out_of_range_dropped(self):
        engine = Engine()
        net = make_network(engine)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(500, 0)))
        received = collect_receptions(b)
        ok = net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert ok is False
        assert received == []

    def test_out_of_range_raises_when_strict(self):
        engine = Engine()
        net = make_network(engine, drop_out_of_range=False)
        a = net.add_node(Node(1, Point(0, 0)))
        net.add_node(Node(2, Point(500, 0)))
        with pytest.raises(DeliveryError):
            net.unicast(a, BeaconRequest(src_id=1, dst_id=2))

    def test_measured_distance_within_error_bound(self):
        engine = Engine()
        net = make_network(engine, max_ranging_error_ft=10.0)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(100, 0)))
        received = collect_receptions(b)
        for _ in range(20):
            net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert len(received) == 20
        for r in received:
            assert abs(r.measured_distance_ft - 100.0) <= 10.0

    def test_ranging_bias_applied(self):
        engine = Engine()
        net = make_network(engine, ranging_error_model=lambda d, rng: 0.0)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(100, 0)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2), ranging_bias_ft=42.0)
        engine.run()
        assert received[0].measured_distance_ft == pytest.approx(142.0)

    def test_measured_distance_never_negative(self):
        engine = Engine()
        net = make_network(engine, ranging_error_model=lambda d, rng: 0.0)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(10, 0)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2), ranging_bias_ft=-500.0)
        engine.run()
        assert received[0].measured_distance_ft == 0.0

    def test_delivery_delay_positive(self):
        engine = Engine()
        net = make_network(engine)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(100, 0)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert received[0].arrival_time > 0.0

    def test_extra_delay_shifts_arrival(self):
        engine = Engine()
        net = make_network(engine)
        a = net.add_node(Node(1, Point(0, 0)))
        b = net.add_node(Node(2, Point(100, 0)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2), extra_delay_cycles=1e6)
        engine.run()
        assert received[1].arrival_time - received[0].arrival_time == (
            pytest.approx(1e6)
        )


class TestWormholeDelivery:
    def _tunnel_net(self):
        engine = Engine()
        net = make_network(engine)
        net.add_wormhole(
            WormholeLink(end_a=Point(0, 0), end_b=Point(1000, 1000))
        )
        return engine, net

    def test_tunnel_bridges_far_nodes(self):
        engine, net = self._tunnel_net()
        a = net.add_node(Node(1, Point(10, 0)))
        b = net.add_node(Node(2, Point(1000, 1010)))
        received = collect_receptions(b)
        ok = net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert ok is True
        assert len(received) == 1
        assert received[0].transmission.via_wormhole is True

    def test_tunnelled_distance_measured_from_far_end(self):
        engine, net = self._tunnel_net()
        net.ranging_error = lambda d, rng: 0.0
        a = net.add_node(Node(1, Point(10, 0)))
        b = net.add_node(Node(2, Point(1000, 1010)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        # Distance from tunnel exit (1000,1000) to (1000,1010) = 10 ft.
        assert received[0].measured_distance_ft == pytest.approx(10.0)

    def test_near_nodes_get_direct_and_tunnelled_copy(self):
        engine, net = self._tunnel_net()
        a = net.add_node(Node(1, Point(10, 0)))
        b = net.add_node(Node(2, Point(60, 0)))  # near end_a too
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        # One direct copy; no tunnelled copy (dst not near far end).
        assert len(received) == 1
        assert received[0].transmission.via_wormhole is False

    def test_allow_wormhole_false_disables_tunnel(self):
        engine, net = self._tunnel_net()
        a = net.add_node(Node(1, Point(10, 0)))
        b = net.add_node(Node(2, Point(1000, 1010)))
        received = collect_receptions(b)
        ok = net.unicast(a, BeaconRequest(src_id=1, dst_id=2), allow_wormhole=False)
        engine.run()
        assert ok is False
        assert received == []

    def test_tunnel_latency_adds_delay(self):
        engine = Engine()
        net = make_network(engine)
        net.add_wormhole(
            WormholeLink(
                end_a=Point(0, 0), end_b=Point(1000, 1000), latency_cycles=5e5
            )
        )
        a = net.add_node(Node(1, Point(10, 0)))
        b = net.add_node(Node(2, Point(1000, 1010)))
        received = collect_receptions(b)
        net.unicast(a, BeaconRequest(src_id=1, dst_id=2))
        engine.run()
        assert received[0].transmission.extra_delay_cycles == pytest.approx(5e5)

    def test_wormhole_between(self):
        _, net = self._tunnel_net()
        assert net.wormhole_between(Point(10, 0), Point(1000, 1010)) is not None
        assert net.wormhole_between(Point(10, 0), Point(500, 500)) is None


class TestSpatialIndex:
    def test_partitions_sorted_despite_insertion_order(self):
        net = make_network()
        for node_id in (7, 2, 9, 4):
            net.add_node(Node(node_id, Point(0, 0), is_beacon=True))
        for node_id in (8, 1):
            net.add_node(Node(node_id, Point(0, 0)))
        assert [n.node_id for n in net.beacon_nodes()] == [2, 4, 7, 9]
        assert [n.node_id for n in net.non_beacon_nodes()] == [1, 8]

    def test_partition_views_cached_until_topology_changes(self):
        net = make_network()
        net.add_node(Node(1, Point(0, 0), is_beacon=True))
        first = net.beacon_nodes()
        assert net.beacon_nodes() is first  # cached tuple, no rebuild
        net.add_node(Node(2, Point(0, 0), is_beacon=True))
        rebuilt = net.beacon_nodes()
        assert rebuilt is not first
        assert [n.node_id for n in rebuilt] == [1, 2]

    def test_neighbor_index_follows_movement(self):
        net = make_network()
        node = net.add_node(Node(1, Point(500.0, 500.0)))
        anchor = net.add_node(Node(2, Point(0.0, 0.0)))
        net.update_position(node, Point(10.0, 0.0))
        assert anchor in net.neighbors_of(node)
        net.update_position(node, Point(900.0, 900.0))
        assert anchor not in net.neighbors_of(node)

    def test_counters_move(self):
        net = make_network()
        net.add_node(Node(1, Point(10, 0), is_beacon=True))
        before = net.stats.spatial_queries
        net.nodes_within(Point(0, 0), 100)
        net.nodes_within(Point(10, 0), 100)
        assert net.stats.spatial_queries == before + 2
        assert net.stats.distance_evals >= 2


class TestUniformRangingError:
    def test_bounds(self, rng):
        model = uniform_ranging_error(7.0)
        for _ in range(100):
            assert -7.0 <= model(100.0, rng) <= 7.0

    def test_rejects_negative_bound(self):
        with pytest.raises(ConfigurationError):
            uniform_ranging_error(-1.0)
