"""Per-node reachability parity: the batch core's field vs the scalar oracle.

Which beacons a node can exchange packets with — directly in range, or
through a wormhole — decides every probe and every beacon request
(§2.1, §4). The scalar oracle answers with a full scan
(``pipeline._reachable_beacons``), the batch core with one exact range
mask per trial (``_Field.fan_out``). The two must return
the same beacons in the same ``node_id`` order, or the cores schedule
different packets and draw their RNG streams in different orders. The
N' count (``_requester_counts``) has the same two sides.
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.sim.engine import Engine
from repro.sim.network import Network, WormholeLink
from repro.sim.node import Node
from repro.utils.geometry import Point, distance
from repro.vec.turbo import _Field

#: Small enough for a sub-second build; dense enough that the wormhole
#: actually extends some nodes' reach.
DEPLOYMENT = PipelineConfig(
    n_total=130,
    n_beacons=20,
    n_malicious=3,
    field_width_ft=420.0,
    field_height_ft=420.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
    wormhole_endpoints=((60.0, 60.0), (330.0, 300.0)),
    use_vectorized_core=False,
    seed=5,
)


def _oracle_ids(pipeline, node):
    return [beacon.node_id for beacon in pipeline._reachable_beacons(node)]


def _field_ids(field, node):
    _, beacon_rows = field.fan_out(np.array([field.row(node.node_id)]))
    return field.node_ids[beacon_rows].tolist()


class TestDeployment:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return SecureLocalizationPipeline(DEPLOYMENT).build()

    def test_same_beacons_same_order_for_every_node(self, pipeline):
        field = _Field(pipeline.network)
        for node in pipeline.network.nodes():
            assert _field_ids(field, node) == _oracle_ids(pipeline, node)

    def test_wormhole_extends_reachability(self, pipeline):
        # At least one querier must reach a beacon only through the
        # tunnel, otherwise this deployment does not exercise the links.
        r = DEPLOYMENT.comm_range_ft
        tunnel_only = 0
        for node in pipeline.agents:
            direct = {
                beacon.node_id
                for beacon in pipeline.network.beacon_nodes()
                if distance(node.position, beacon.position) <= r
            }
            tunnel_only += len(set(_oracle_ids(pipeline, node)) - direct)
        assert tunnel_only > 0

    def test_requester_counts_agree(self, pipeline):
        malicious_ids = {b.node_id for b in pipeline.malicious_beacons}
        field = _Field(pipeline.network)
        assert pipeline._requester_counts(malicious_ids) == (
            field.requester_counts(pipeline.malicious_beacons, malicious_ids)
        )


class TestBoundaries:
    """A hand-built field: every reach decided exactly at the boundary."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        network = Network(Engine())
        # A 90-120-150 triangle: exactly comm_range_ft in floating point.
        network.add_node(Node(1, Point(90.0, 120.0), is_beacon=True))
        network.add_node(Node(10, Point(0.0, 0.0)))
        # Querier 11 sits exactly comm_range_ft from the first tunnel's
        # near end; beacon 2 is in range of its far end.
        network.add_wormhole(
            WormholeLink(end_a=Point(600.0, 0.0), end_b=Point(2000.0, 0.0))
        )
        network.add_node(Node(11, Point(690.0, 120.0)))
        network.add_node(Node(2, Point(2000.0, 100.0), is_beacon=True))
        # Querier 12 is in range of both ends of the second tunnel, so
        # it reaches beacon 3 (near end_b) and beacon 4 (near end_a).
        network.add_wormhole(
            WormholeLink(end_a=Point(5000.0, 0.0), end_b=Point(5200.0, 0.0))
        )
        network.add_node(Node(12, Point(5100.0, 0.0)))
        network.add_node(Node(3, Point(5300.0, 0.0), is_beacon=True))
        network.add_node(Node(4, Point(4900.0, 0.0), is_beacon=True))
        pipeline = SecureLocalizationPipeline(PipelineConfig())
        pipeline.network = network
        return pipeline

    @pytest.mark.parametrize(
        "querier, expected",
        [(10, [1]), (11, [2]), (12, [3, 4])],
        ids=["beacon-at-range", "endpoint-at-range", "both-endpoints"],
    )
    def test_boundary_reach(self, pipeline, querier, expected):
        node = pipeline.network.node(querier)
        field = _Field(pipeline.network)
        assert _oracle_ids(pipeline, node) == expected
        assert _field_ids(field, node) == expected

    def test_every_node_agrees(self, pipeline):
        field = _Field(pipeline.network)
        for node in pipeline.network.nodes():
            assert _field_ids(field, node) == _oracle_ids(pipeline, node)
