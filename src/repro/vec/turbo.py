"""Array-built delivery waves: the batch core's detection and localization.

A detecting beacon (§2.1-§2.2) and a localizing sensor (§4) run the
same exchange, and so do both phases here. :func:`_exchange` sends a
request wave at the phase start, serves the delivered requests and
sends the reply wave back; :func:`_replay_cascade` passes the replies
the phase picks through the §2.2 replay filters: one RTT batch on the
``rtt`` stream, jittered in observation order as
``FaultInjector.perturb_rtt`` jitters each sample, the RTT observer,
the wormhole verdicts and each observer's local-replay window.
Detection picks its §2.1-inconsistent replies, with the §2.2.1 range
check as extra wormhole flags; localization picks every reply from an
unrevoked beacon.

Each wave collapses into array arithmetic: exact pairwise geometry
picks the copies (direct plus tunnelled, in the scalar ``unicast``
order), the fault-loss draws mask them in that same order,
one elementwise expression computes every arrival time, the
ranging-noise batch consumes its stream exactly as the scalar loop
would, and one stable argsort puts the copies in the engine's
``(time, seq)`` delivery order.

Building the request wave in full before the reply wave is exact even
where, in global event order, a late request arrives after an early
reply: reply handlers never transmit, and the streams drawn while
scheduling and serving (fault loss, ``ranging``, the adversary
strategies) are disjoint from those drawn while handling replies
(``rtt``, fault RTT, ``wormhole-detector``), so each stream
is consumed in the scalar order.

Python survives only where the scalar path is genuinely stateful per
item, and each of those loops runs in delivery order: malicious
responders (sticky strategy draws), first-seen wormhole pair verdicts
(sticky detector coin flips), indicted replies (alerts to the base
station), and dropped-copy and probe traces (observed trials only).
The request fan-out of both phases, the revoked-source filter and the
local-replay window are array operations whose per-node counters
advance by count. What a reply wave decides stays in columns, in
delivery order: a :class:`ProbeColumns` entry per judged probe reply
and a :class:`ReferenceColumns` entry per accepted localization reply.
:func:`_defer` leaves each node a pending slice of them, and a node
builds its records, a :class:`~repro.core.detecting.ProbeOutcome` per
probe reply or a
:class:`~repro.localization.references.LocationReference` per
accepted reply, only when something reads its ``probe_outcomes`` or
``references``. The metrics phase reads the localization columns
(:func:`accepted_references`), not the records, so an unobserved trial
builds none. All distances that feed protocol decisions or
measurements are computed with the correctly rounded scalar
``math.hypot``, so every float matches the scalar run bit for bit.

The paper detector's §2.1 check and §2.2 cascade run as array masks
over the reply wave. A rival detector (``pipeline.detector``) is one
more stateful actor: its own ``evaluate`` runs once per reply, in
delivery order, on an :class:`~repro.detectors.base.Exchange` built
from the wave's arrays, and each RTT it asks for is drawn on demand
through :meth:`~repro.sim.network.Network.observe_rtt`, the helper the
scalar ``measure_rtt`` also calls.

Both faults a config can carry run here: packet loss as the per-copy
mask above, RTT jitter inside the replay cascade.
:func:`repro.vec.vectorized_core_supported` sends flooded revocation
and event budgets to the scalar oracle.

One deliberate fidelity cut, documented in ``docs/PERFORMANCE.md``:
this path does not record per-delivery ``"deliver"`` trace events
(no protocol logic, invariant check, or metric consumes them). The
profiling counters (``stats.distance_evals``,
``stats.spatial_queries``) are credited with the batch kernels' actual
work, which differs from the scalar core's counts. Configs that
need full per-event traces must run observed, with
``use_vectorized_core=False``; an unobserved trial records no
protocol events on either core.

Paper section: §4 (simulation substrate for the batched pipeline)
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.strategy import ResponseKind
from repro.core.detecting import ProbeOutcome
from repro.detectors.base import Exchange
from repro.localization.references import LocationReference
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.radio import SPEED_OF_LIGHT_FT_PER_CYCLE
from repro.sim.timing import packet_transmission_cycles
from repro.utils.geometry import Point
from repro.vec.geometry import within_range_matrix
from repro.vec.measurement import (
    batched_rtt,
    batched_uniform,
    discrepancy_mask,
    raw_uniforms,
)
from repro.wormhole.detector import ProbabilisticWormholeDetector


def _exact_distances(ax, ay, bx, by) -> np.ndarray:
    """Correctly rounded elementwise distances (scalar ``math.hypot``).

    The subtractions are exact IEEE arithmetic either way; routing the
    hypotenuse through ``math.hypot`` keeps every distance bit-equal to
    the scalar substrate's :func:`repro.utils.geometry.distance`
    (``np.hypot`` can differ by a few ulps — enough to flip a range
    comparison or desynchronize a measured distance).
    """
    dx = np.asarray(ax, dtype=np.float64) - bx
    dy = np.asarray(ay, dtype=np.float64) - by
    return np.array(
        list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=np.float64
    )


class _Field:
    """One trial's geometry, shared by every wave of both phases.

    Holds the node columns (``node_ids``, ``xs``, ``ys``: row ``i`` of
    each describes the ``i``-th node in ``node_id`` order, the order
    ``Network.nodes()`` returns), node-id -> row resolution, exact
    per-node distances to every wormhole endpoint (scalar ``hypot``,
    so every endpoint-range predicate — ``far_end``'s first-match
    selection and ``wormhole_between``'s pairing — matches the scalar
    :class:`~repro.sim.network.Network` bit for bit), the reachability
    mask and the served claims, each built on first use, and the
    network's packet-loss and RTT-jitter fault models. The arrays are
    a snapshot: :func:`trial_field` builds one field per trial, and
    nothing in the pipeline moves a node or installs a tunnel after
    ``build``.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.engine = network.engine
        self.trace = network.trace
        self.radio = network.radio
        self.comm_range_ft = network.radio.comm_range_ft
        injector = network.fault_injector
        self.fault_loss = injector.loss if injector is not None else None
        self.rtt_fault = injector.rtt if injector is not None else None
        self.nodes = nodes = network.nodes()
        self.node_ids = np.array([n.node_id for n in nodes], dtype=np.int64)
        self.xs = np.array([n.position.x for n in nodes], dtype=np.float64)
        self.ys = np.array([n.position.y for n in nodes], dtype=np.float64)
        self.beacon_rows = np.flatnonzero([n.is_beacon for n in nodes])
        r = self.comm_range_ft
        #: Per link: (near_a, near_b, latency) over all node rows.
        self.links: List[Tuple[np.ndarray, np.ndarray, float]] = []
        for link in network.wormholes:
            da = _exact_distances(self.xs, self.ys, link.end_a.x, link.end_a.y)
            db = _exact_distances(self.xs, self.ys, link.end_b.x, link.end_b.y)
            self.links.append((da <= r, db <= r, link.latency_cycles))
        network.stats.distance_evals += 2 * len(nodes) * len(self.links)
        self._row_of = {node.node_id: row for row, node in enumerate(nodes)}
        self._reach = None

    def row(self, node_id: int) -> int:
        """Topology row of a (canonical) node id."""
        return self._row_of[node_id]

    def _reach_mask(self) -> np.ndarray:
        """The (nodes x beacons) reachability mask, built on first use.

        The exact ``pipeline._reachable_beacons`` membership: directly
        in range, or within range of one tunnel endpoint while the
        beacon is within range of the other (either direction, as in
        ``Network.wormhole_between``) — self excluded. Columns are in
        node-id order, matching the scalar target ordering.
        """
        if self._reach is None:
            rows = self.beacon_rows
            mask = within_range_matrix(
                self.xs[rows], self.ys[rows], self.xs, self.ys,
                self.comm_range_ft,
            )
            for near_a, near_b, _ in self.links:
                mask |= near_a[:, None] & near_b[rows][None, :]
                mask |= near_b[:, None] & near_a[rows][None, :]
            mask[rows, np.arange(rows.size)] = False
            self.network.stats.distance_evals += int(mask.size)
            self._reach = mask
        return self._reach

    @cached_property
    def claims(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What a served request claims by default, built on first use.

        Per row: the declared x and y (a beacon's advertised location,
        else the node's position), and whether the row is a malicious
        beacon, whose strategy may claim otherwise.
        """
        rows = self.beacon_rows
        beacons = [self.nodes[row] for row in rows.tolist()]
        decl_x = self.xs.copy()
        decl_y = self.ys.copy()
        decl_x[rows] = [beacon.declared_location.x for beacon in beacons]
        decl_y[rows] = [beacon.declared_location.y for beacon in beacons]
        malicious = np.zeros(len(self.nodes), dtype=bool)
        malicious[rows] = [isinstance(b, MaliciousBeacon) for b in beacons]
        return decl_x, decl_y, malicious

    def fan_out(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every (requester, reachable beacon) pair of the ``rows`` nodes.

        Row-major over their mask rows, so the pairs come in requester
        order, then beacon-id order: each requester's reachable beacons,
        sorted by id, concatenated (and counted as one spatial query per
        requester).

        Returns:
            Per pair: the requester's index into ``rows``, and the
            beacon's row. No ``rows``, no pairs: the mask is not built.
        """
        if rows.shape[0] == 0:
            return rows, rows
        self.network.stats.spatial_queries += rows.shape[0]
        requesters, columns = np.nonzero(self._reach_mask()[rows])
        return requesters, self.beacon_rows[columns]

    def requester_counts(self, beacons, excluded_ids) -> List[int]:
        """The N' scan: per beacon, the nodes in range not ``excluded_ids``.

        One range-mask call over ``beacons``, so a node on the range
        boundary is counted exactly when the scalar ``distance(...) <=
        comm_range_ft`` predicate counts it.
        """
        in_range = within_range_matrix(
            self.xs,
            self.ys,
            [beacon.position.x for beacon in beacons],
            [beacon.position.y for beacon in beacons],
            self.comm_range_ft,
        )
        in_range &= ~np.isin(
            self.node_ids, np.array(sorted(excluded_ids), dtype=np.int64)
        )
        return np.count_nonzero(in_range, axis=1).tolist()

    def transmit(self, n: int) -> np.ndarray:
        """Fault-loss draws for ``n`` scheduled copies, in scheduling order.

        ``_schedule_delivery`` draws one ``fault-loss`` coin per copy;
        the model's counter advances by count.

        Returns:
            Per copy: whether it survived the draw.
        """
        fault = self.fault_loss
        if fault is None:
            return np.ones(n, dtype=bool)
        kept = raw_uniforms(fault.rng, n) >= fault.rate
        fault.events += n - int(np.count_nonzero(kept))
        return kept

    def perturb_rtts(self, rtts: np.ndarray) -> np.ndarray:
        """``FaultInjector.perturb_rtt`` over one RTT batch.

        In the scalar order: each observation draws one jitter uniform
        from the fault-RTT stream, then the result is clamped at zero.
        The counter advances by count.
        """
        fault = self.rtt_fault
        if fault is None:
            return rtts
        n = rtts.shape[0]
        low, high = -fault.jitter_cycles, fault.jitter_cycles
        rtts = rtts + (low + (high - low) * raw_uniforms(fault.rng, n))
        fault.events += n
        # Python's max(0.0, x): x only when x > 0.0.
        return np.where(rtts > 0.0, rtts, 0.0)


class _Wave:
    """One wave of scheduled copies, expanded and sorted in bulk.

    The constructor performs what ``unicast`` + ``_schedule_delivery``
    do for every packet of a wave: copy expansion in scheduling order
    (direct first, then one tunnelled copy per wormhole, packet-major),
    the fault-loss draws over those copies, exact delays, the
    ranging-noise batch over the survivors, and the stable
    ``(time, seq)`` delivery sort.

    Attributes (per surviving *copy*, in delivery order):
        packet: index into the wave's logical-packet arrays.
        dst_row: receiving node row.
        dist: physical emitter-to-receiver distance (exact; for a
            tunnelled copy, from the exit endpoint — the reception's
            ``tx_origin``).
        extra: accumulated extra delay (reply masking + tunnel latency).
        via_wormhole: tunnelled-copy flag.
        time: arrival cycle.
        measured: receiver ranging estimate (noise batch applied).

    Drops (in scheduling order):
        lost_packet: packet index of each copy lost to the fault
            (``drop.fault``).
        undelivered: packet indices that had no copy in range at all
            (the scalar ``drop.out_of_range`` case; loss does not
            change it).
    """

    def __init__(
        self,
        field: _Field,
        packet_cls,
        now: np.ndarray,
        origin_rows: np.ndarray,
        dst_rows: np.ndarray,
        direct_dist: np.ndarray,
        extras: np.ndarray,
        biases: np.ndarray,
    ) -> None:
        count = origin_rows.shape[0]
        slots = 1 + len(field.links)
        valid = np.zeros((count, slots), dtype=bool)
        dists = np.zeros((count, slots), dtype=np.float64)
        extra_m = np.zeros((count, slots), dtype=np.float64)
        valid[:, 0] = direct_dist <= field.comm_range_ft
        dists[:, 0] = direct_dist
        extra_m[:, 0] = extras
        for index, ((near_a, near_b, latency), link) in enumerate(
            zip(field.links, field.network.wormholes), start=1
        ):
            # far_end checks end_a first: a sender near end_a exits at
            # end_b even when it is near both endpoints. The exit
            # distance is the *destination's* distance to that exit,
            # computed only for the copies this tunnel carries.
            sender_near_a = near_a[origin_rows]
            dst_near_exit = np.where(
                sender_near_a, near_b[dst_rows], near_a[dst_rows]
            )
            carried = (sender_near_a | near_b[origin_rows]) & dst_near_exit
            valid[:, index] = carried
            exits_b = sender_near_a[carried]
            receivers = dst_rows[carried]
            dists[carried, index] = _exact_distances(
                field.xs[receivers], field.ys[receivers],
                np.where(exits_b, link.end_b.x, link.end_a.x),
                np.where(exits_b, link.end_b.y, link.end_a.y),
            )
            extra_m[:, index] = extras + latency
        # Credited per packet and tunnel: every packet takes the exit
        # check, only the carried copies the exit distance.
        field.network.stats.distance_evals += count * len(field.links)
        # Copies in scheduling order index the (count, slots) grid
        # row-major; the loss draws keep a subset of them.
        copies = np.flatnonzero(valid.ravel())
        kept = field.transmit(copies.shape[0])
        self.lost_packet = copies[~kept] // slots
        self.undelivered = np.flatnonzero(~valid.any(axis=1))
        copies = copies[kept]
        dist = dists.ravel()[copies]
        extra = extra_m.ravel()[copies]
        # Scalar delay chain, elementwise: packet_time = airtime +
        # dist / c; delay = packet_time + extra; time = now + delay.
        airtime = field.radio.airtime_cycles(packet_cls(src_id=0, dst_id=0))
        packet_time = airtime + dist / SPEED_OF_LIGHT_FT_PER_CYCLE
        time = now[copies // slots] + (packet_time + extra)
        # The wave's ranging-noise batch is drawn in scheduling order;
        # every array after the sort is in delivery order.
        model = field.network.ranging_error
        noise = batched_uniform(
            field.network.rngs.stream("ranging"), copies.shape[0],
            -model.max_error_ft, model.max_error_ft,
        )
        order = np.argsort(time, kind="stable")
        copies = copies[order]
        self.packet = copies // slots
        self.via_wormhole = copies % slots > 0
        self.dst_row = dst_rows[self.packet]
        self.dist = dist[order]
        self.extra = extra[order]
        self.time = time[order]
        # The scalar max(0, dist + noise + bias), elementwise.
        self.measured = np.maximum(
            0.0, (self.dist + noise[order]) + biases[self.packet]
        )

    @property
    def count(self) -> int:
        """Number of scheduled (= delivered) copies."""
        return int(self.dist.shape[0])


def trial_field(pipeline) -> _Field:
    """The trial's one :class:`_Field`, built on first use.

    Held on the pipeline, so detection, localization and the N' count
    share one set-up and one reachability mask.
    """
    if pipeline._field is None:
        pipeline._field = _Field(pipeline.network)
    return pipeline._field


class ProbeColumns(NamedTuple):
    """Judged probe replies as columns, one entry per reply.

    Attributes (per reply, in delivery order):
        prober: the detecting beacon's row.
        detecting_id: the detecting ID the probe went out under.
        target_id: the probed beacon.
        decision: the decision label.
    """

    prober: np.ndarray
    detecting_id: np.ndarray
    target_id: np.ndarray
    decision: List[str]

    def records(self, indices: np.ndarray) -> List[ProbeOutcome]:
        """The replies at ``indices``, as records, in that order."""
        return list(
            map(
                ProbeOutcome,
                self.detecting_id[indices].tolist(),
                self.target_id[indices].tolist(),
                map(self.decision.__getitem__, indices.tolist()),
            )
        )


class ReferenceColumns(NamedTuple):
    """Accepted location references as columns, one entry per reference.

    Attributes (per reference, in the order the agents received them):
        agent: index of the receiving agent in the trial's agent list.
        beacon_id: the claimed source beacon.
        x, y: the claimed beacon location.
        measured: the measured distance.
        time: the arrival time.
    """

    agent: np.ndarray
    beacon_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    measured: np.ndarray
    time: np.ndarray

    def records(self, indices: np.ndarray) -> List[LocationReference]:
        """The references at ``indices``, as records, in that order."""
        return list(
            map(
                LocationReference,
                self.beacon_id[indices].tolist(),
                map(Point, self.x[indices].tolist(), self.y[indices].tolist()),
                self.measured[indices].tolist(),
                self.time[indices].tolist(),
            )
        )


def accepted_references(pipeline) -> ReferenceColumns:
    """What the agents' ``references`` hold, as columns.

    Every reply the localization waves accepted, in delivery order, less
    those whose source the oracle revoked since: oracle revocation
    purges them from every agent.
    """
    columns = pipeline._accepted_references
    if columns is None:
        ids = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
        return ReferenceColumns(ids, ids, values, values, values, values)
    revoked = pipeline._oracle_revoked
    live = ~np.isin(
        columns.beacon_id,
        np.fromiter(revoked, dtype=np.int64, count=len(revoked)),
    )
    return ReferenceColumns(*(column[live] for column in columns))


def _defer(nodes, rows: np.ndarray, build, attribute: str) -> None:
    """Leave each node its pending slice of one wave's records.

    Column entry ``i`` belongs to ``nodes[rows[i]]``. A stable sort on
    the rows groups the entries by node and keeps each group in
    delivery order. Each node's pending slice is ``(build, indices)``:
    its first read of ``attribute`` builds the records and appends
    them, as the scalar handlers append them one by one. A slice that
    an earlier call of the phase left pending is appended first.
    """
    if not rows.shape[0]:
        return
    order = np.argsort(rows, kind="stable")
    grouped = rows[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    pending = f"_pending_{attribute}"
    for row, start, end in zip(
        grouped[starts].tolist(),
        starts.tolist(),
        starts[1:].tolist() + [order.shape[0]],
    ):
        node = nodes[row]
        if getattr(node, pending) is not None:
            getattr(node, attribute)  # builds the earlier slice
        setattr(node, pending, (build, order[start:end]))


class _TurboPhase:
    """Shared bookkeeping for one turbo phase (two waves + finish)."""

    def __init__(self, pipeline) -> None:
        self.field = trial_field(pipeline)
        self.pipeline = pipeline
        self.total_events = 0
        self.max_time = pipeline.engine.now()
        self._received = np.zeros(len(self.field.nodes), dtype=np.int64)

    def account(
        self, wave: _Wave, now: np.ndarray, sender_ids: np.ndarray,
        src_ids: np.ndarray, dst_rows: np.ndarray, kind: str,
    ) -> None:
        """Trace one wave's drops and fold its deliveries into the sim.

        When the trial records its trace, the drops mirror the scalar
        ``drop.*`` traces in scheduling order. Per packet, at its
        schedule time: one ``drop.fault`` per lost copy, naming the
        packet's ``src_id`` (on a probe, the detecting ID), or one
        ``drop.out_of_range`` naming the sending node when no copy was
        in range. The wave's deliveries also count into the
        pipeline's ``vec_*`` counters.
        """
        trace = self.field.trace
        if trace.enabled:
            packets = np.concatenate([wave.lost_packet, wave.undelivered])
            kinds = ["drop.fault"] * wave.lost_packet.shape[0] + [
                "drop.out_of_range"
            ] * wave.undelivered.shape[0]
            node_ids = self.field.node_ids
            for index in np.argsort(packets, kind="stable").tolist():
                packet = packets[index]
                name = kinds[index]
                src = sender_ids if name == "drop.out_of_range" else src_ids
                trace.record(
                    float(now[packet]),
                    name,
                    src=int(src[packet]),
                    dst=int(node_ids[dst_rows[packet]]),
                    packet_kind=kind,
                )
        self.total_events += wave.count
        if wave.count:
            self.max_time = max(self.max_time, float(wave.time.max()))
        self.field.network.stats.deliveries += wave.count
        self._received += np.bincount(
            wave.dst_row, minlength=self._received.shape[0]
        )
        bump = self.pipeline._vec_bump
        bump("deliveries", wave.count)
        bump("noise_batched", wave.count)
        bump("waves", 1)

    def finish(self) -> None:
        """Fold event count, clock, and received counters into the sim."""
        nodes = self.field.nodes
        for row in np.flatnonzero(self._received):
            nodes[row].received_count += int(self._received[row])
        self.pipeline.engine.absorb_batch(self.total_events, self.max_time)


def _serve_wave(
    field: _Field, responder_rows: np.ndarray, requester_ids: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Serve every delivered request copy, in delivery order.

    Benign responders are served arithmetically
    (``requests_served``/``_sequence`` advanced by count — the
    per-reply ``sequence`` field feeds no protocol decision, so only
    the final counters must match); malicious responders run their real
    sticky strategy in a Python loop at the exact positions they occupy
    in that order, so their RNG consumption is scalar-exact.

    Returns per served request: the claimed x/y, ranging bias, extra
    reply delay and fake-wormhole-symptom flag of its reply.
    """
    nodes = field.nodes
    count = responder_rows.shape[0]
    biases = np.zeros(count, dtype=np.float64)
    extras = np.zeros(count, dtype=np.float64)
    fakes = np.zeros(count, dtype=bool)

    decl_x, decl_y, malicious = field.claims
    claimed_x = decl_x[responder_rows]
    claimed_y = decl_y[responder_rows]
    is_malicious = malicious[responder_rows]

    # Real sticky adversary decisions, at their delivery-order slots.
    responder_list = responder_rows.tolist()
    requester_list = requester_ids.tolist()
    for position in np.flatnonzero(is_malicious).tolist():
        beacon = nodes[responder_list[position]]
        requester = requester_list[position]
        decision = beacon.strategy.decide(requester)
        beacon.responses_by_kind[decision] += 1
        if decision is ResponseKind.NORMAL:
            point = beacon.position
        elif decision is ResponseKind.MALICIOUS:
            point = beacon.lie_location_for(requester)
            biases[position] = beacon.strategy.ranging_bias_ft
        elif decision is ResponseKind.MASK_WORMHOLE:
            point = beacon._far_location_for(requester)
            fakes[position] = True
        else:  # ResponseKind.MASK_LOCAL_REPLAY
            point = beacon.lie_location_for(requester)
            reply_bits = BeaconPacket(
                src_id=beacon.node_id, dst_id=0
            ).size_bits
            extras[position] = packet_transmission_cycles(reply_bits)
        claimed_x[position] = point.x
        claimed_y[position] = point.y

    # Per-responder protocol counters, by count.
    served = np.bincount(responder_rows, minlength=len(nodes))
    for row in np.flatnonzero(served):
        node = nodes[row]
        node.requests_served += int(served[row])
        node._sequence += int(served[row])

    return claimed_x, claimed_y, biases, extras, fakes


def _exchange(
    phase: _TurboPhase,
    src: np.ndarray,
    dst_rows: np.ndarray,
    origin_rows: np.ndarray,
) -> Tuple[_Wave, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One request/reply exchange, as two delivery waves.

    The request wave leaves each ``origin_rows`` node at the phase
    start for its ``dst_rows`` beacon, naming ``src`` as the requester
    (a detecting ID on a probe), with no ranging bias: pipeline
    requesters send at full power. Its drops are traced and its
    deliveries accounted (:meth:`_TurboPhase.account`); the delivered
    requests are served (:func:`_serve_wave`), and the reply wave goes
    back to the requesting nodes the same way.

    Returns:
        The reply wave, then per reply in its delivery order: the
        responder's id, the echoed requester identity, the claimed x
        and y, and the fake-wormhole-symptom flag.
    """
    field = phase.field
    count = src.shape[0]
    dists = _exact_distances(
        field.xs[origin_rows], field.ys[origin_rows],
        field.xs[dst_rows], field.ys[dst_rows],
    )
    field.network.stats.distance_evals += count
    now = np.full(count, field.engine.now(), dtype=np.float64)
    zeros = np.zeros(count)
    requests = _Wave(
        field, BeaconRequest, now, origin_rows, dst_rows, dists, zeros, zeros
    )
    phase.account(
        requests, now, field.node_ids[origin_rows], src, dst_rows,
        "BeaconRequest",
    )

    # One reply per delivered request, leaving when the request lands.
    responder_rows = requests.dst_row
    requester_rows = origin_rows[requests.packet]
    echoed = src[requests.packet]
    claimed_x, claimed_y, reply_biases, extras, fakes = _serve_wave(
        field, responder_rows, echoed
    )
    reply_src = field.node_ids[responder_rows]
    # A reply's direct distance is its request's (|dx|, |dy| are
    # identical either way, and hypot is sign-symmetric).
    replies = _Wave(
        field, BeaconPacket, requests.time, responder_rows, requester_rows,
        dists[requests.packet], extras, reply_biases,
    )
    phase.account(
        replies, requests.time, reply_src, reply_src, requester_rows,
        "BeaconPacket",
    )
    p = replies.packet
    return (
        replies, reply_src[p], echoed[p], claimed_x[p], claimed_y[p], fakes[p]
    )


def _wormhole_verdicts(
    detector: ProbabilisticWormholeDetector,
    evaluated: np.ndarray,
    fakes: np.ndarray,
    via_wormhole: np.ndarray,
    requester_ids: np.ndarray,
    src_ids: np.ndarray,
) -> np.ndarray:
    """Batched ``detector.detect`` over one reply batch, draw-exact.

    ``evaluated`` marks the copies the cascade actually hands to the
    detector (the §2.2.1 range check short-circuits the rest).
    ``checks``/``flags`` are bulk-incremented. RNG parity follows the
    scalar branch structure: faked symptoms flag without a draw; a
    genuinely tunnelled copy flips one ``p_d`` coin per first-seen
    (requester, target) pair against the live sticky verdict table; a
    clean copy draws nothing. The tunnel coins are the only draws, so
    the sparse loop below visits just those, in delivery order: each
    coin lands exactly where the scalar loop flips it.
    """
    flagged = np.zeros(evaluated.shape[0], dtype=bool)
    verdicts = detector._verdicts
    rng = detector._rng
    requester_list = requester_ids.tolist()
    src_list = src_ids.tolist()
    flagged[evaluated & fakes] = True
    for index in np.flatnonzero(evaluated & via_wormhole & ~fakes).tolist():
        key = (requester_list[index], src_list[index])
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = rng.random() < detector.p_d
            verdicts[key] = verdict
        flagged[index] = verdict
    detector.checks += int(np.count_nonzero(evaluated))
    detector.flags += int(np.count_nonzero(flagged))
    return flagged


def _replay_cascade(
    phase: _TurboPhase,
    replies: _Wave,
    subset: np.ndarray,
    src_ids: np.ndarray,
    fakes: np.ndarray,
    range_flagged: np.ndarray,
    wormhole_detector: ProbabilisticWormholeDetector,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The §2.2 replay filters over the replies ``subset`` picks.

    ``subset`` indexes the reply wave in delivery order; ``src_ids``
    and ``fakes`` are per reply in that order, ``range_flagged`` per
    subset reply (the §2.2.1 check, decisive on its own). In the scalar
    order: one RTT batch on the ``rtt`` stream, the fault jitter, the
    RTT observer, the wormhole verdicts over the replies the range
    check leaves open, then each observer's local-replay window over
    the replies no wormhole check flagged.

    Returns:
        Per subset reply: the observing node's row (the reply's
        receiver), and the wormhole (range or detector) and local-replay
        flags.
    """
    field = phase.field
    rows = replies.dst_row[subset]
    rtts = batched_rtt(
        field.network.rngs.stream("rtt"),
        field.network.rtt_model,
        replies.dist[subset],
        replies.extra[subset],
        replies.time[subset],
    )
    phase.pipeline._vec_bump("rtt_batched", int(subset.shape[0]))
    rtts = field.perturb_rtts(rtts)
    observe = field.network.rtt_observer
    if observe is not None:
        for rtt in rtts.tolist():
            observe(rtt)
    wormhole_flagged = range_flagged | _wormhole_verdicts(
        wormhole_detector,
        ~range_flagged,
        fakes[subset],
        replies.via_wormhole[subset],
        field.node_ids[rows],
        src_ids[subset],
    )
    local_flagged = np.zeros(subset.shape[0], dtype=bool)
    # ``LocalReplayDetector.is_replayed`` over the replies no wormhole
    # check flagged: one comparison against each observer's own window,
    # with its counters advanced by count.
    checked = np.flatnonzero(~wormhole_flagged)
    observer_rows, inverse = np.unique(rows[checked], return_inverse=True)
    windows = [
        field.nodes[row].filter_cascade.local_replay_detector
        for row in observer_rows.tolist()
    ]
    x_max = np.array(
        [window.calibration.x_max for window in windows], dtype=np.float64
    )
    replayed = rtts[checked] > x_max[inverse]
    local_flagged[checked] = replayed
    checks = np.bincount(inverse, minlength=len(windows)).tolist()
    flagged = np.bincount(inverse[replayed], minlength=len(windows)).tolist()
    for window, count, hits in zip(windows, checks, flagged):
        window.checks += count
        window.flagged += hits
    return rows, wormhole_flagged, local_flagged


def run_detection_turbo(pipeline) -> None:
    """The detection phase (§2.1-§2.2, §3.1) as two array-built waves."""
    phase = _TurboPhase(pipeline)
    field = phase.field

    # ------------------------------------------------------------------
    # Probe fan-out (scalar build order: prober, target, detecting id).
    # Every benign beacon holds m detecting ids.
    # ------------------------------------------------------------------
    beacons = pipeline.benign_beacons
    m = pipeline.config.m_detecting_ids
    prober_rows = np.array(
        [field.row(beacon.node_id) for beacon in beacons], dtype=np.int64
    )
    probers, targets = field.fan_out(prober_rows)
    for beacon, pairs in zip(
        beacons, np.bincount(probers, minlength=len(beacons)).tolist()
    ):
        beacon._next_nonce += pairs * m
    probes = probers.shape[0] * m
    pipeline._probes_sent += probes
    if probes == 0:
        phase.finish()
        return
    detecting_ids = np.array(
        [beacon.detecting_ids for beacon in beacons], dtype=np.int64
    )
    replies, src_ids, dst_ids, claimed_x, claimed_y, fakes = _exchange(
        phase,
        detecting_ids[probers].ravel(),
        np.repeat(targets, m),
        np.repeat(prober_rows[probers], m),
    )

    # ------------------------------------------------------------------
    # Judge probe replies in delivery order (§2.1, §2.2), then record
    # outcomes, traces and alerts (§3.1) in that order.
    # ------------------------------------------------------------------
    if pipeline.detector is None:
        decisions, consistent, indict = _paper_verdicts(
            phase, replies, src_ids, claimed_x, claimed_y, fakes
        )
    else:
        decisions, consistent, indict = _rival_verdicts(
            phase, replies, src_ids, dst_ids, claimed_x, claimed_y
        )

    nodes = field.nodes
    judged = ProbeColumns(replies.dst_row, dst_ids, src_ids, decisions)
    _defer(nodes, judged.prober, judged.records, "probe_outcomes")
    # Alerts go out in delivery order. An observed trial also traces
    # every probe, each ahead of the alert and revocation it causes.
    record = field.trace.record if field.trace.enabled else None
    visit = (
        np.arange(len(decisions)) if record is not None
        else np.flatnonzero(indict)
    )
    for index, row, detecting_id, target, time in zip(
        visit.tolist(),
        judged.prober[visit].tolist(),
        judged.detecting_id[visit].tolist(),
        judged.target_id[visit].tolist(),
        replies.time[visit].tolist(),
    ):
        prober = nodes[row]
        if record is not None:
            record(
                time,
                "probe",
                detector=prober.node_id,
                detecting_id=detecting_id,
                target=target,
                decision=decisions[index],
                signal_consistent=consistent[index],
            )
        if indict[index]:
            prober.report_alert(target, time=time)

    phase.finish()


def _paper_verdicts(
    phase: _TurboPhase, replies: _Wave, src_ids: np.ndarray,
    claimed_x: np.ndarray, claimed_y: np.ndarray, fakes: np.ndarray,
) -> Tuple[List[str], List[bool], np.ndarray]:
    """The paper's §2.1 check and §2.2 cascade over one reply wave.

    Array masks throughout: the discrepancy check over every reply,
    then :func:`_replay_cascade` over the inconsistent ones with the
    §2.2.1 range check (``knows_location=True``) as its range flags.
    The per-reply arrays are in delivery order.

    Returns per reply, in delivery order: the decision label, the §2.1
    consistency flag, and whether the prober indicts the target.
    """
    field = phase.field
    prober_rows = replies.dst_row
    calculated = _exact_distances(
        field.xs[prober_rows], field.ys[prober_rows], claimed_x, claimed_y,
    )
    field.network.stats.distance_evals += int(calculated.shape[0])
    # One §2.1 bound per distinct prober, fanned out to its replies.
    probers, per_reply = np.unique(prober_rows, return_inverse=True)
    thresholds = np.array(
        [field.nodes[row].signal_detector.max_error_ft for row in probers.tolist()],
        dtype=np.float64,
    )[per_reply]
    inconsistent = discrepancy_mask(calculated, replies.measured, thresholds)
    bad = np.flatnonzero(inconsistent)
    _, wormhole_flagged, local_flagged = _replay_cascade(
        phase, replies, bad, src_ids, fakes,
        calculated[bad] > field.comm_range_ft,
        phase.pipeline.benign_beacons[0].filter_cascade.wormhole_detector,
    )
    decisions = ["consistent"] * prober_rows.shape[0]
    for index, label in zip(
        bad.tolist(),
        np.where(
            wormhole_flagged,
            "replayed_wormhole",
            np.where(local_flagged, "replayed_local", "alert"),
        ).tolist(),
    ):
        decisions[index] = label
    indict = np.zeros(prober_rows.shape[0], dtype=bool)
    indict[bad] = ~(wormhole_flagged | local_flagged)
    return decisions, (~inconsistent).tolist(), indict


def _rival_verdicts(
    phase: _TurboPhase, replies: _Wave, src_ids: np.ndarray, dst_ids: np.ndarray,
    claimed_x: np.ndarray, claimed_y: np.ndarray,
) -> Tuple[List[str], List[bool], List[bool]]:
    """A rival detector's own ``evaluate``, once per reply, in delivery order.

    Each reply becomes the :class:`~repro.detectors.base.Exchange` the
    scalar reply handler builds, minus the ``reception`` the batch
    core does not have. Its ``rtt_provider`` draws that exchange's RTT
    through :meth:`~repro.sim.network.Network.observe_rtt` only when
    the rival asks, so the ``rtt`` and fault-RTT streams and the
    observer advance exactly as on the scalar core.

    Returns per reply, in delivery order: the verdict's decision label,
    §2.1 consistency flag and indictment.
    """
    nodes = phase.field.nodes
    observe_rtt = phase.field.network.observe_rtt
    evaluate = phase.pipeline.detector.evaluate
    decisions: List[str] = []
    consistent: List[bool] = []
    indict: List[bool] = []
    for row, detecting_id, target, x, y, measured, dist, extra, time in zip(
        replies.dst_row.tolist(), dst_ids.tolist(), src_ids.tolist(),
        claimed_x.tolist(), claimed_y.tolist(), replies.measured.tolist(),
        replies.dist.tolist(), replies.extra.tolist(), replies.time.tolist(),
    ):
        prober = nodes[row]
        verdict = evaluate(
            Exchange(
                detector_id=prober.node_id,
                detecting_id=detecting_id,
                target_id=target,
                detector_position=prober.position,
                declared_position=Point(x, y),
                measured_distance_ft=measured,
                reception=None,
                rtt_provider=partial(observe_rtt, dist, extra, time),
            )
        )
        decisions.append(verdict.decision)
        consistent.append(verdict.signal_consistent)
        indict.append(verdict.indict)
    return decisions, consistent, indict


def run_localization_turbo(pipeline) -> None:
    """The localization phase (§4 stage 1) as two array-built waves."""
    phase = _TurboPhase(pipeline)
    field = phase.field

    # ------------------------------------------------------------------
    # Beacon requests (scalar build order: agent, then target id order).
    # ------------------------------------------------------------------
    agents = pipeline.agents
    agent_rows = np.array(
        [field.row(agent.node_id) for agent in agents], dtype=np.int64
    )
    requesters, dst = field.fan_out(agent_rows)
    if dst.shape[0] == 0:
        phase.finish()
        return
    for agent, k in zip(
        agents, np.bincount(requesters, minlength=len(agents)).tolist()
    ):
        agent._next_nonce += k
    origin = agent_rows[requesters]
    replies, src_ids, _, claimed_x, claimed_y, fakes = _exchange(
        phase, field.node_ids[origin], dst, origin
    )

    # ------------------------------------------------------------------
    # Reference collection in delivery order (§2.2 filters, then §4).
    # ------------------------------------------------------------------
    # Revocation filtering precedes the RTT draw in the scalar handler,
    # and no new revocations occur during localization (only detecting
    # beacons alert), so filtering the whole batch up front is exact.
    # The batch core runs oracle revocation only, where every agent's
    # ``revoked_beacons`` is the pipeline's one revoked set.
    revoked = pipeline._oracle_revoked
    kept = np.flatnonzero(
        ~np.isin(
            src_ids,
            np.fromiter(revoked, dtype=np.int64, count=len(revoked)),
        )
    )
    # knows_location=False: no range check; every kept copy reaches the
    # wormhole detector.
    rows, wormhole_flagged, local_flagged = _replay_cascade(
        phase, replies, kept, src_ids, fakes,
        np.zeros(kept.shape[0], dtype=bool),
        agents[0].filter_cascade.wormhole_detector,
    )
    nodes = field.nodes
    rejected = wormhole_flagged | local_flagged
    counts = np.bincount(rows[rejected], minlength=len(nodes))
    for row in np.flatnonzero(counts).tolist():
        nodes[row].rejected_replays += int(counts[row])
    accepted = kept[~rejected]
    agent_of_row = np.empty(len(nodes), dtype=np.int64)
    agent_of_row[agent_rows] = np.arange(len(agents))
    references = ReferenceColumns(
        agent_of_row[rows[~rejected]],
        src_ids[accepted],
        claimed_x[accepted],
        claimed_y[accepted],
        replies.measured[accepted],
        replies.time[accepted],
    )
    _defer(agents, references.agent, references.records, "references")
    earlier = pipeline._accepted_references
    pipeline._accepted_references = (
        references if earlier is None
        else ReferenceColumns(*map(np.concatenate, zip(earlier, references)))
    )

    phase.finish()
