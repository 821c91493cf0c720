"""Network topology, neighbor queries, and packet delivery.

The :class:`Network` ties together the engine, the radio model, the ranging
error model, and any wormhole tunnels. Delivery semantics:

- **Direct unicast** succeeds when the destination is within the radio's
  communication range of the transmission origin.
- **Wormhole tunnelling** (paper Figure 1c and Section 4): a tunnel has two
  endpoints; a transmission originating within range of one endpoint is
  re-emitted at the other, reaching destinations within range of that far
  endpoint. The re-emitted signal physically emanates from the far endpoint,
  so receivers derive their ranging measurement from *its* position — which
  is exactly why replayed signals produce inconsistent distances.
- Every delivery computes a **measured distance**: true distance from the
  physical transmission origin, plus bounded ranging noise, plus any
  adversarial ranging bias carried by the transmission.
- An optional :class:`repro.faults.FaultInjector` perturbs delivery and
  measurement: packet copies can be dropped, and observed RTTs pick up
  jitter. With no injector the code path is byte-for-byte the
  fault-free one.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, DeliveryError
from repro.sim.engine import Engine
from repro.sim.messages import Packet
from repro.sim.node import Node
from repro.sim.radio import RadioModel, Reception, Transmission
from repro.sim.rng import RngRegistry
from repro.sim.timing import RttModel
from repro.sim.trace import TraceRecorder
from repro.utils.geometry import Point, distance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

#: Signature of a ranging-error model: (true_distance_ft, rng) -> error_ft.
RangingErrorModel = Callable[[float, "object"], float]


def uniform_ranging_error(max_error_ft: float) -> RangingErrorModel:
    """The paper's bounded-error model: error ~ U(-max_error, +max_error)."""
    if max_error_ft < 0:
        raise ConfigurationError(f"max_error_ft must be >= 0, got {max_error_ft}")

    def model(true_distance_ft: float, rng) -> float:
        return rng.uniform(-max_error_ft, max_error_ft)

    # Tag the closure so the batch core (repro.vec.turbo) can reproduce
    # its draws array-wide; every pipeline-built network uses this model.
    model.max_error_ft = max_error_ft

    return model


@dataclass
class NetworkCounters:
    """Hot-path operation counts maintained by :class:`Network`.

    Attributes:
        distance_evals: Euclidean distance computations performed by
            spatial queries and reference scans.
        grid_cells_visited: non-empty grid buckets inspected by
            ``nodes_within``.
        spatial_queries: grid-accelerated range queries issued.
        deliveries: packets actually handed to a receiving node.
    """

    distance_evals: int = 0
    grid_cells_visited: int = 0
    spatial_queries: int = 0
    deliveries: int = 0


@dataclass(frozen=True)
class WormholeLink:
    """A low-latency tunnel between two field locations.

    Attributes:
        end_a: one tunnel endpoint.
        end_b: the other endpoint.
        latency_cycles: extra delay the tunnel adds (visible to the RTT
            detector when large enough; the paper's wormhole "forwards
            every message ... immediately", i.e. small latency).
    """

    end_a: Point
    end_b: Point
    latency_cycles: float = 0.0

    def far_end(self, near: Point, comm_range_ft: float) -> Optional[Point]:
        """If ``near`` is within range of one endpoint, return the other."""
        if distance(near, self.end_a) <= comm_range_ft:
            return self.end_b
        if distance(near, self.end_b) <= comm_range_ft:
            return self.end_a
        return None


class Network:
    """The simulated sensing field.

    Args:
        engine: the event engine driving delivery.
        radio: shared radio parameters.
        rngs: named random streams ("ranging" is used for measurement noise).
        max_ranging_error_ft: the paper's maximum distance-measurement error
            (Section 4 uses 10 ft); used by the default error model.
        ranging_error_model: override for the noise distribution.
        trace: optional recorder of delivery/drop events.
        drop_out_of_range: when True (default) out-of-range unicasts are
            silently dropped like real radio; when False they raise, which
            is convenient in unit tests.
        fault_injector: optional :class:`repro.faults.FaultInjector`
            perturbing deliveries and RTT observations; None (default)
            keeps the fault-free paths untouched.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        radio: Optional[RadioModel] = None,
        rngs: Optional[RngRegistry] = None,
        max_ranging_error_ft: float = 10.0,
        ranging_error_model: Optional[RangingErrorModel] = None,
        rtt_model: Optional[RttModel] = None,
        trace: Optional[TraceRecorder] = None,
        drop_out_of_range: bool = True,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.engine = engine
        self.radio = radio if radio is not None else RadioModel()
        self.rngs = rngs if rngs is not None else RngRegistry(seed=0)
        self.max_ranging_error_ft = max_ranging_error_ft
        self.ranging_error = (
            ranging_error_model
            if ranging_error_model is not None
            else uniform_ranging_error(max_ranging_error_ft)
        )
        self.rtt_model = rtt_model if rtt_model is not None else RttModel()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.drop_out_of_range = drop_out_of_range
        #: Optional fault-injection layer (see :mod:`repro.faults`).
        #: ``None`` keeps every delivery/measurement path fault-free.
        self.fault_injector = fault_injector
        self._nodes: Dict[int, Node] = {}
        self._aliases: Dict[int, int] = {}
        self._wormholes: List[WormholeLink] = []
        self._grid: Dict[tuple, List[Node]] = {}
        self._cell = max(self.radio.comm_range_ft, 1.0)
        # Beacon/non-beacon partition, maintained incrementally by
        # add_node (role is fixed at registration) and kept sorted by
        # node_id; the tuples are the cached read views.
        self._beacons: List[Node] = []
        self._non_beacons: List[Node] = []
        self._beacons_view: Optional[Tuple[Node, ...]] = None
        self._non_beacons_view: Optional[Tuple[Node, ...]] = None
        #: Hot-path operation counters (distance evals, cells visited,
        #: queries, deliveries) — cheap enough to always stay on.
        self.stats = NetworkCounters()
        #: Optional observability hook: called as ``rtt_observer(rtt)``
        #: with every RTT the network hands out (after any fault
        #: perturbation — observers see what the node sees). The
        #: pipeline wires this to its ``rtt_cycles`` histogram; RNG-free.
        self.rtt_observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register ``node``; ids must be unique.

        The node's beacon/non-beacon role is read here, once; flipping
        ``node.is_beacon`` after registration is not supported.
        """
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        node.attach(self)
        self._grid.setdefault(self._cell_of(node.position), []).append(node)
        if node.is_beacon:
            bisect.insort(self._beacons, node, key=lambda n: n.node_id)
            self._beacons_view = None
        else:
            bisect.insort(self._non_beacons, node, key=lambda n: n.node_id)
            self._non_beacons_view = None
        return node

    def update_position(self, node: Node, new_position: Point) -> None:
        """Move a node and keep the spatial index fresh.

        The detecting-ID inference ablation (``bench_abl_inference.py``)
        moves its detector between probes with this.
        """
        if node.node_id not in self._nodes:
            raise DeliveryError(f"unknown node id {node.node_id}")
        old_cell = self._cell_of(node.position)
        new_cell = self._cell_of(new_position)
        node.position = new_position
        if old_cell != new_cell:
            bucket = self._grid.get(old_cell, [])
            if node in bucket:
                bucket.remove(node)
            self._grid.setdefault(new_cell, []).append(node)

    def add_wormhole(self, link: WormholeLink) -> None:
        """Install a wormhole tunnel in the field."""
        self._wormholes.append(link)

    @property
    def wormholes(self) -> List[WormholeLink]:
        """The installed tunnels (read-only by convention)."""
        return list(self._wormholes)

    def add_alias(self, alias_id: int, node_id: int) -> None:
        """Route packets addressed to ``alias_id`` to node ``node_id``.

        Used for detecting IDs (paper Section 2.1): a beacon node owns
        extra non-beacon identities; radio-wise they are the same device.
        """
        if alias_id in self._nodes or alias_id in self._aliases:
            raise ConfigurationError(f"identity {alias_id} already in use")
        if node_id not in self._nodes:
            raise DeliveryError(f"unknown node id {node_id}")
        self._aliases[alias_id] = node_id

    def node(self, node_id: int) -> Node:
        """Look up a node by id (aliases resolve to their owner)."""
        target = self._aliases.get(node_id, node_id)
        try:
            return self._nodes[target]
        except KeyError:
            raise DeliveryError(f"unknown node id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        """True when ``node_id`` is registered."""
        return node_id in self._nodes

    def nodes(self) -> List[Node]:
        """All registered nodes (stable id order)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def beacon_nodes(self) -> Tuple[Node, ...]:
        """All nodes flagged as beacons (id order; cached tuple)."""
        if self._beacons_view is None:
            self._beacons_view = tuple(self._beacons)
        return self._beacons_view

    def non_beacon_nodes(self) -> Tuple[Node, ...]:
        """All regular sensor nodes (id order; cached tuple)."""
        if self._non_beacons_view is None:
            self._non_beacons_view = tuple(self._non_beacons)
        return self._non_beacons_view

    def _cell_of(self, p: Point) -> tuple:
        return (int(math.floor(p.x / self._cell)), int(math.floor(p.y / self._cell)))

    def nodes_within(self, center: Point, radius_ft: float) -> List[Node]:
        """Nodes at distance <= radius from ``center`` (grid-accelerated).

        Results are sorted by ``node_id``.
        """
        # Prune with the bounding box of the query disc, padded by an
        # epsilon scaled to the operand magnitudes: the membership test
        # below uses the *rounded* float distance, which can admit a node
        # whose true distance is a few ulps past ``radius_ft`` — such a
        # node may sit one cell outside the exact box and must still be
        # visited (otherwise grid and brute-force results diverge).
        pad = 1e-9 * (abs(center.x) + abs(center.y) + radius_ft + 1.0)
        gx_min = int(math.floor((center.x - radius_ft - pad) / self._cell))
        gx_max = int(math.floor((center.x + radius_ft + pad) / self._cell))
        gy_min = int(math.floor((center.y - radius_ft - pad) / self._cell))
        gy_max = int(math.floor((center.y + radius_ft + pad) / self._cell))
        stats = self.stats
        stats.spatial_queries += 1
        found: List[Node] = []
        for gx in range(gx_min, gx_max + 1):
            for gy in range(gy_min, gy_max + 1):
                bucket = self._grid.get((gx, gy))
                if not bucket:
                    continue
                stats.grid_cells_visited += 1
                stats.distance_evals += len(bucket)
                for node in bucket:
                    if distance(center, node.position) <= radius_ft:
                        found.append(node)
        found.sort(key=lambda n: n.node_id)
        return found

    def neighbors_of(self, node: Node) -> List[Node]:
        """Nodes within communication range of ``node`` (excluding itself)."""
        return [
            n
            for n in self.nodes_within(node.position, self.radio.comm_range_ft)
            if n.node_id != node.node_id
        ]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def unicast(
        self,
        sender: Node,
        packet: Packet,
        *,
        tx_origin: Optional[Point] = None,
        ranging_bias_ft: float = 0.0,
        extra_delay_cycles: float = 0.0,
        replayed_by: Optional[int] = None,
        allow_wormhole: bool = True,
        fake_wormhole_symptoms: bool = False,
    ) -> bool:
        """Send ``packet`` to ``packet.dst_id``.

        Returns:
            True if at least one copy (direct or tunnelled) was scheduled
            for delivery, False if the packet was dropped.

        Raises:
            DeliveryError: when the destination id is unknown, or when the
                destination is out of range and ``drop_out_of_range`` is
                False.
        """
        dst = self.node(packet.dst_id)
        origin = tx_origin if tx_origin is not None else sender.position
        transmission = Transmission(
            packet=packet,
            tx_origin=origin,
            departure_time=self.engine.now(),
            ranging_bias_ft=ranging_bias_ft,
            replayed_by=replayed_by,
            via_wormhole=False,
            extra_delay_cycles=extra_delay_cycles,
            tx_node_id=sender.node_id,
            fake_wormhole_symptoms=fake_wormhole_symptoms,
        )

        delivered = False
        true_dist = distance(origin, dst.position)
        if true_dist <= self.radio.comm_range_ft:
            self._schedule_delivery(transmission, dst, true_dist)
            delivered = True

        if allow_wormhole:
            delivered = self._tunnel(transmission, dst) or delivered

        if not delivered:
            self.trace.record(
                self.engine.now(),
                "drop.out_of_range",
                src=sender.node_id,
                dst=dst.node_id,
                packet_kind=packet.kind(),
            )
            if not self.drop_out_of_range:
                raise DeliveryError(
                    f"node {dst.node_id} out of range of {origin} "
                    f"(d={true_dist:.1f} ft > {self.radio.comm_range_ft} ft)"
                )
        return delivered

    def broadcast(
        self,
        sender: Node,
        packet: Packet,
        *,
        tx_origin: Optional[Point] = None,
        extra_delay_cycles: float = 0.0,
    ) -> int:
        """Deliver ``packet`` to every node in radio range of the origin.

        Ignores the packet's ``dst_id`` (each receiver sees the same
        frame, as real radio broadcast does); wormhole tunnels replay the
        broadcast at their far end like any other transmission.

        Returns:
            Number of receivers the packet was scheduled for.
        """
        origin = tx_origin if tx_origin is not None else sender.position
        transmission = Transmission(
            packet=packet,
            tx_origin=origin,
            departure_time=self.engine.now(),
            extra_delay_cycles=extra_delay_cycles,
            tx_node_id=sender.node_id,
        )
        receivers = 0
        for node in self.nodes_within(origin, self.radio.comm_range_ft):
            if node.node_id == sender.node_id:
                continue
            self._schedule_delivery(
                transmission, node, distance(origin, node.position)
            )
            receivers += 1
        for link in self._wormholes:
            far = link.far_end(origin, self.radio.comm_range_ft)
            if far is None:
                continue
            replayed = Transmission(
                packet=packet,
                tx_origin=far,
                departure_time=transmission.departure_time,
                via_wormhole=True,
                extra_delay_cycles=extra_delay_cycles + link.latency_cycles,
                tx_node_id=sender.node_id,
            )
            for node in self.nodes_within(far, self.radio.comm_range_ft):
                if node.node_id == sender.node_id:
                    continue
                self._schedule_delivery(
                    replayed, node, distance(far, node.position)
                )
                receivers += 1
        return receivers

    def _tunnel(self, transmission: Transmission, dst: Node) -> bool:
        """Deliver a wormhole-replayed copy of ``transmission`` if possible."""
        delivered = False
        for link in self._wormholes:
            far = link.far_end(transmission.tx_origin, self.radio.comm_range_ft)
            if far is None:
                continue
            exit_dist = distance(far, dst.position)
            if exit_dist > self.radio.comm_range_ft:
                continue
            # The tunnelled copy physically leaves from the far endpoint and
            # pays the tunnel latency on top of whatever delay it had.
            replayed = Transmission(
                packet=transmission.packet,
                tx_origin=far,
                departure_time=transmission.departure_time,
                ranging_bias_ft=transmission.ranging_bias_ft,
                replayed_by=transmission.replayed_by,
                via_wormhole=True,
                extra_delay_cycles=transmission.extra_delay_cycles
                + link.latency_cycles,
                tx_node_id=transmission.tx_node_id,
                fake_wormhole_symptoms=transmission.fake_wormhole_symptoms,
            )
            self._schedule_delivery(replayed, dst, exit_dist)
            delivered = True
        return delivered

    def _schedule_delivery(
        self, transmission: Transmission, dst: Node, physical_dist: float
    ) -> None:
        injector = self.fault_injector
        if injector is not None and injector.drop_delivery():
            self.trace.record(
                self.engine.now(),
                "drop.fault",
                src=transmission.packet.src_id,
                dst=dst.node_id,
                packet_kind=transmission.packet.kind(),
            )
            return
        delay = (
            self.radio.packet_time_cycles(transmission.packet, physical_dist)
            + transmission.extra_delay_cycles
        )
        if transmission.packet.carries_ranging_signal:
            noise = self.ranging_error(
                physical_dist, self.rngs.stream("ranging")
            )
        else:
            # Nobody ranges on this packet: skip the noise draw so pure
            # control traffic (notice floods) stays RNG-neutral.
            noise = 0.0
        measured = max(
            0.0, physical_dist + noise + transmission.ranging_bias_ft
        )
        self.engine.schedule_in(
            delay,
            partial(self._finish_delivery, transmission, dst, measured),
            label=f"deliver:{transmission.packet.kind()}",
        )

    def _finish_delivery(
        self, transmission: Transmission, dst: Node, measured: float
    ) -> None:
        self.stats.deliveries += 1
        reception = Reception(
            packet=transmission.packet,
            arrival_time=self.engine.now(),
            measured_distance_ft=measured,
            transmission=transmission,
        )
        if self.trace.enabled:
            self.trace.record(
                self.engine.now(),
                "deliver",
                src=transmission.packet.src_id,
                dst=dst.node_id,
                packet_kind=transmission.packet.kind(),
                wormhole=transmission.via_wormhole,
                replayed=transmission.is_replayed(),
            )
        dst.handle(reception)

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def measure_rtt(
        self, requester: Node, responder_position: Point, extra_delay_cycles: float
    ) -> float:
        """Sample the register-level RTT of one request/reply exchange.

        Used by the local-replay detector: honest exchanges draw from the
        narrow hardware distribution; replayed ones carry ``extra_delay``.
        With a fault injector configured, the observation additionally
        picks up channel jitter — the §2.2.2 stress case where the true
        distribution no longer matches the calibrated Figure-4 window.
        """
        return self.observe_rtt(
            distance(requester.position, responder_position),
            extra_delay_cycles,
            self.engine.now(),
        )

    def observe_rtt(
        self, distance_ft: float, extra_delay_cycles: float, start_time: float
    ) -> float:
        """One exchange's observed RTT, from its distance and start time.

        Samples the model on the ``rtt`` stream, applies the fault
        injector's jitter, then feeds the ``rtt_observer``. The scalar
        core reaches it through :meth:`measure_rtt`; the batch core
        calls it for each RTT a rival detector asks for, with the reply
        wave's distances and arrival times.
        """
        sample = self.rtt_model.sample(
            self.rngs.stream("rtt"),
            distance_ft=distance_ft,
            extra_delay_cycles=extra_delay_cycles,
            start_time=start_time,
        )
        injector = self.fault_injector
        rtt = sample.rtt
        if injector is not None:
            rtt = injector.perturb_rtt(rtt)
        if self.rtt_observer is not None:
            self.rtt_observer(rtt)
        return rtt

    def record_metrics(self, registry) -> None:
        """Flush the hot-path counters into ``registry`` (end of trial).

        One ``net_<field>_total`` series per :class:`NetworkCounters` field.
        """
        for name, value in dataclasses.asdict(self.stats).items():
            registry.counter(f"net_{name}_total").inc(value)

    def wormhole_between(self, a: Point, b: Point) -> Optional[WormholeLink]:
        """The tunnel that connects the neighbourhoods of ``a`` and ``b``."""
        r = self.radio.comm_range_ft
        for link in self._wormholes:
            self.stats.distance_evals += 4
            a_near_a = distance(a, link.end_a) <= r
            a_near_b = distance(a, link.end_b) <= r
            b_near_a = distance(b, link.end_a) <= r
            b_near_b = distance(b, link.end_b) <= r
            if (a_near_a and b_near_b) or (a_near_b and b_near_a):
                return link
        return None
