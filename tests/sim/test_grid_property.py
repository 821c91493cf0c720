"""Property tests: grid spatial queries match a brute-force scan.

Hypothesis drives random fields through ``nodes_within`` and checks it
against the O(N) definition, deliberately covering the awkward
geometry: nodes exactly at the query radius (the radius is sometimes
snapped to an exact node distance), positions on grid-cell edges
(multiples of the 150 ft cell size), and negative coordinates reached
through ``update_position`` mobility moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.utils.geometry import Point, distance

#: The default radio range, hence the default grid cell size.
CELL = 150.0

# Coordinates biased toward the awkward spots: exact cell edges
# (multiples of the cell size, positive and negative) and values a hair
# on either side of an edge.
coordinate = st.one_of(
    st.floats(min_value=-450.0, max_value=1200.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, CELL, 2 * CELL, -CELL, -2 * CELL, 149.99999999, 150.00000001, -0.0]
    ),
)

node_spec = st.tuples(coordinate, coordinate, st.booleans())
field_spec = st.lists(node_spec, min_size=1, max_size=24)


def _build(specs):
    net = Network(Engine(), rngs=RngRegistry(1))
    nodes = [
        net.add_node(Node(i + 1, Point(x, y), is_beacon=beacon))
        for i, (x, y, beacon) in enumerate(specs)
    ]
    return net, nodes


def _brute_force_ids(nodes, center, radius):
    return sorted(
        n.node_id for n in nodes if distance(center, n.position) <= radius
    )


def _assert_queries_match(net, nodes, center, radius):
    assert [
        n.node_id for n in net.nodes_within(center, radius)
    ] == _brute_force_ids(nodes, center, radius)


@settings(max_examples=60, deadline=None)
@given(
    specs=field_spec,
    center=st.tuples(coordinate, coordinate),
    radius=st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
    boundary_node=st.integers(min_value=0, max_value=23),
    snap_radius_to_node=st.booleans(),
)
def test_queries_match_brute_force(
    specs, center, radius, boundary_node, snap_radius_to_node
):
    net, nodes = _build(specs)
    c = Point(*center)
    if snap_radius_to_node:
        # Exact-boundary case: the radius IS some node's distance, so
        # that node sits precisely on the query circle.
        radius = distance(c, nodes[boundary_node % len(nodes)].position)
    _assert_queries_match(net, nodes, c, radius)


@settings(max_examples=60, deadline=None)
@given(
    specs=field_spec,
    moves=st.lists(
        st.tuples(st.integers(min_value=0, max_value=23), coordinate, coordinate),
        max_size=8,
    ),
    center=st.tuples(coordinate, coordinate),
    radius=st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
)
def test_queries_match_after_mobility(specs, moves, center, radius):
    net, nodes = _build(specs)
    for index, x, y in moves:
        # Moves routinely land at negative coordinates and on cell edges.
        net.update_position(nodes[index % len(nodes)], Point(x, y))
    _assert_queries_match(net, nodes, Point(*center), radius)


@settings(max_examples=30, deadline=None)
@given(specs=field_spec)
def test_partitions_stay_sorted_and_complete(specs):
    net, nodes = _build(specs)
    beacon_ids = [n.node_id for n in net.beacon_nodes()]
    sensor_ids = [n.node_id for n in net.non_beacon_nodes()]
    assert beacon_ids == sorted(n.node_id for n in nodes if n.is_beacon)
    assert sensor_ids == sorted(n.node_id for n in nodes if not n.is_beacon)
    assert len(beacon_ids) + len(sensor_ids) == len(nodes)
