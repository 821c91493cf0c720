"""Array-built delivery waves: the batch core's detection and localization.

Each phase is two delivery waves (requests, then replies), and each
wave collapses into array arithmetic: exact pairwise geometry picks the
copies (direct plus tunnelled, in the scalar ``unicast`` order), the
link- and fault-loss draws mask them in that same order, one
elementwise expression computes every arrival time, one stable argsort
recovers the engine's ``(time, seq)`` delivery order, and the
ranging-noise / RTT batches consume their streams exactly as the
scalar loop would. RTT jitter, spikes and clock drift perturb each RTT
batch in observation order, as ``FaultInjector.perturb_rtt`` does per
sample.

Building the request wave in full before the reply wave is exact even
where, in global event order, a late request arrives after an early
reply: reply handlers never transmit, and the streams drawn while
scheduling and serving (``network-loss``, fault loss, ``ranging``,
the adversary strategies) are disjoint from those drawn while handling
replies (``rtt``, fault RTT, ``wormhole-detector``), so each stream
is consumed in the scalar order.

Python survives only where the scalar path is genuinely stateful per
item, and each of those loops runs in delivery order: malicious
responders (sticky strategy draws), first-seen wormhole pair verdicts
(sticky detector coin flips), probe-outcome and alert recording,
dropped-copy traces, and accepted reference construction. All
distances that feed protocol decisions or measurements are computed
with the correctly rounded scalar ``math.hypot``, so every float
matches the scalar run bit for bit.

The paper detector's §2.1 check and §2.2 cascade run as array masks
over the reply wave. A rival detector (``pipeline.detector``) is one
more stateful actor: its own ``evaluate`` runs once per reply, in
delivery order, on an :class:`~repro.detectors.base.Exchange` built
from the wave's arrays, and each RTT it asks for is drawn on demand
through :meth:`~repro.sim.network.Network.observe_rtt`, the helper the
scalar ``measure_rtt`` also calls.

Duplication, delivery delay and node crashes are not modelled here;
:func:`repro.vec.vectorized_core_supported` sends those configurations
to the scalar oracle.

One deliberate fidelity cut, documented in ``docs/PERFORMANCE.md``:
this path does not record per-delivery ``"deliver"`` trace events
(no protocol logic, invariant check, or metric consumes them). The
profiling counters (``stats.distance_evals``,
``stats.spatial_queries``) are credited with the batch kernels' actual
work, which differs from the scalar grid-walk counts. Configs that
need full per-event traces must run with ``use_vectorized_core=False``.

Paper section: §4 (simulation substrate for the batched pipeline)
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Tuple

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
from repro.vec.arrays import topology_arrays
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
    """Per-phase geometric context shared by both waves.

    Holds the SoA topology view, node-id -> row resolution, exact
    per-node distances to every wormhole endpoint (scalar ``hypot``,
    so every endpoint-range predicate — ``far_end``'s first-match
    selection and ``wormhole_reachable_beacon_ids``'s union — matches
    the scalar :class:`~repro.sim.network.Network` bit for bit), and
    the network's loss and RTT fault models.
    """

    def __init__(self, pipeline) -> None:
        network = pipeline.network
        self.pipeline = pipeline
        self.network = network
        self.engine = pipeline.engine
        self.trace = network.trace
        self.radio = network.radio
        self.comm_range_ft = network.radio.comm_range_ft
        injector = network.fault_injector
        self.link_loss = network.loss_model
        self.fault_loss = injector.loss if injector is not None else None
        self.rtt_fault = injector.rtt if injector is not None else None
        self.drift = injector.drift if injector is not None else None
        self.view = topology_arrays(network)
        self.nodes = network.nodes()
        self.beacon_rows = np.flatnonzero(self.view.is_beacon)
        r = self.comm_range_ft
        #: Per link: (near_a, near_b, latency) over all node rows.
        self.links: List[Tuple[np.ndarray, np.ndarray, float]] = []
        for link in network.wormholes:
            da = _exact_distances(
                self.view.xs, self.view.ys, link.end_a.x, link.end_a.y
            )
            db = _exact_distances(
                self.view.xs, self.view.ys, link.end_b.x, link.end_b.y
            )
            self.links.append((da <= r, db <= r, link.latency_cycles))
        network.stats.distance_evals += 2 * self.view.count * len(self.links)
        self._row_of = {
            int(node_id): row
            for row, node_id in enumerate(self.view.node_ids)
        }
        self._reach = None

    def row(self, node_id: int) -> int:
        """Topology row of a (canonical) node id."""
        return self._row_of[node_id]

    def reachable_beacon_rows(self, row: int) -> np.ndarray:
        """Rows of beacons reachable from node ``row``, sorted by id.

        The exact ``pipeline._reachable_beacons`` membership: directly
        in range, or within range of one tunnel endpoint while the
        beacon is within range of the other (both directions union, as
        in ``wormhole_reachable_beacon_ids``) — self excluded. Row
        order is node-id order, matching the scalar target ordering.
        """
        if self._reach is None:
            view = self.view
            rows = self.beacon_rows
            mask = within_range_matrix(
                view.xs[rows], view.ys[rows], view.xs, view.ys,
                self.comm_range_ft,
            )
            for near_a, near_b, _ in self.links:
                mask |= near_a[:, None] & near_b[rows][None, :]
                mask |= near_b[:, None] & near_a[rows][None, :]
            mask[rows, np.arange(rows.size)] = False
            self.network.stats.distance_evals += int(mask.size)
            self._reach = mask
        self.network.stats.spatial_queries += 1
        return self.beacon_rows[self._reach[row]]

    def transmit(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Loss draws for ``n`` scheduled copies, in scheduling order.

        ``_schedule_delivery`` draws the link loss (``network-loss``)
        for every copy, then the fault loss for the copies that
        survived it; each model's counters advance by count.

        Returns:
            ``(kept, by_fault)`` per copy: survived both draws, and
            lost to the fault (rather than the link).
        """
        kept = np.ones(n, dtype=bool)
        by_fault = np.zeros(n, dtype=bool)
        link = self.link_loss
        if link is not None:
            kept = raw_uniforms(link.rng, n) >= link.loss_rate
            link.attempts += n
            link.losses += n - int(np.count_nonzero(kept))
        fault = self.fault_loss
        if fault is not None:
            drawn = np.flatnonzero(kept)
            lost = drawn[raw_uniforms(fault.rng, drawn.shape[0]) < fault.rate]
            kept[lost] = False
            by_fault[lost] = True
            fault.events += int(lost.shape[0])
        return kept, by_fault

    def perturb_rtts(
        self, rtts: np.ndarray, observer_ids: np.ndarray
    ) -> np.ndarray:
        """``FaultInjector.perturb_rtt`` over one RTT batch.

        In the scalar order: the observer's clock drift scales each
        RTT first (derived per node, no shared stream); then each
        observation draws one jitter uniform and one spike coin (each
        only when enabled) from the fault-RTT stream, interleaved per
        observation; then the result is clamped at zero. Counters
        advance by count.
        """
        n = rtts.shape[0]
        drift = self.drift
        if drift is not None:
            ids, inverse = np.unique(observer_ids, return_inverse=True)
            factors = np.array(
                [1.0 + drift.drift_of(node_id) for node_id in ids.tolist()],
                dtype=np.float64,
            )
            rtts = rtts * factors[inverse]
            drift.events += n
        fault = self.rtt_fault
        if fault is None:
            return rtts
        jitter = fault.jitter_cycles > 0
        spikes = fault.spike_rate > 0
        width = int(jitter) + int(spikes)
        raws = raw_uniforms(fault.rng, width * n).reshape(n, width)
        if jitter:
            low, high = -fault.jitter_cycles, fault.jitter_cycles
            rtts = rtts + (low + (high - low) * raws[:, 0])
        if spikes:
            spiked = raws[:, -1] < fault.spike_rate
            rtts = np.where(spiked, rtts + fault.spike_cycles, rtts)
            fault.spikes += int(np.count_nonzero(spiked))
        fault.events += n
        # Python's max(0.0, x): x only when x > 0.0.
        return np.where(rtts > 0.0, rtts, 0.0)


class _Wave:
    """One wave of scheduled copies, expanded and sorted in bulk.

    The constructor performs what ``unicast`` + ``_schedule_delivery``
    do for every packet of a wave: copy expansion in scheduling order
    (direct first, then one tunnelled copy per wormhole, packet-major),
    the loss draws over those copies, exact delays, the ranging-noise
    batch over the survivors, and the stable ``(time, seq)`` delivery
    sort.

    Attributes (per surviving *copy*, in scheduling order):
        packet: index into the wave's logical-packet arrays.
        dst_row: receiving node row.
        dist: physical emitter-to-receiver distance (exact; for a
            tunnelled copy, from the exit endpoint — the reception's
            ``tx_origin``).
        extra: accumulated extra delay (reply masking + tunnel latency).
        via_wormhole: tunnelled-copy flag.
        time: arrival cycle.
        measured: receiver ranging estimate (noise batch applied).
        order: indices sorting copies into delivery order.

    Drops (in scheduling order):
        lost_packet: packet index of each copy lost to link or fault
            loss.
        lost_by_fault: per lost copy, lost to the fault (``drop.fault``)
            rather than the link (``drop.loss``).
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
        view = field.view
        count = origin_rows.shape[0]
        slots = 1 + len(field.links)
        valid = np.zeros((count, slots), dtype=bool)
        dists = np.zeros((count, slots), dtype=np.float64)
        extra_m = np.zeros((count, slots), dtype=np.float64)
        valid[:, 0] = direct_dist <= field.comm_range_ft
        dists[:, 0] = direct_dist
        extra_m[:, 0] = extras
        for index, (near_a, near_b, latency) in enumerate(
            field.links, start=1
        ):
            # far_end checks end_a first: a sender near end_a exits at
            # end_b even when it is near both endpoints. The exit
            # distance is the *destination's* distance to that exit.
            sender_near_a = near_a[origin_rows]
            dst_near_exit = np.where(
                sender_near_a, near_b[dst_rows], near_a[dst_rows]
            )
            valid[:, index] = (
                (sender_near_a | near_b[origin_rows]) & dst_near_exit
            )
            exit_x = np.where(
                sender_near_a,
                field.network.wormholes[index - 1].end_b.x,
                field.network.wormholes[index - 1].end_a.x,
            )
            exit_y = np.where(
                sender_near_a,
                field.network.wormholes[index - 1].end_b.y,
                field.network.wormholes[index - 1].end_a.y,
            )
            dists[:, index] = _exact_distances(
                view.xs[dst_rows], view.ys[dst_rows], exit_x, exit_y
            )
            extra_m[:, index] = extras + latency
        field.network.stats.distance_evals += count * len(field.links)
        # Copies in scheduling order index the (count, slots) grid
        # row-major; the loss draws keep a subset of them.
        copies = np.flatnonzero(valid.ravel())
        kept, by_fault = field.transmit(copies.shape[0])
        self.lost_packet = copies[~kept] // slots
        self.lost_by_fault = by_fault[~kept]
        self.undelivered = np.flatnonzero(~valid.any(axis=1))
        copies = copies[kept]
        self.packet = copies // slots
        self.via_wormhole = copies % slots > 0
        self.dst_row = dst_rows[self.packet]
        self.dist = dists.ravel()[copies]
        self.extra = extra_m.ravel()[copies]
        # Scalar delay chain, elementwise: packet_time = airtime +
        # dist / c; delay = packet_time + extra; time = now + delay.
        airtime = field.radio.airtime_cycles(packet_cls(src_id=0, dst_id=0))
        packet_time = airtime + self.dist / SPEED_OF_LIGHT_FT_PER_CYCLE
        self.time = now[self.packet] + (packet_time + self.extra)
        # The wave's ranging-noise batch, in scheduling order; measured
        # is the scalar max(0, dist + noise + bias) elementwise.
        model = field.network.ranging_error
        stream = field.network.rngs.stream("ranging")
        noise = batched_uniform(
            stream, self.dist.shape[0], -model.max_error_ft,
            model.max_error_ft,
        )
        self.measured = np.maximum(
            0.0, (self.dist + noise) + biases[self.packet]
        )
        self.order = np.argsort(self.time, kind="stable")
        pipeline = field.pipeline
        pipeline._vec_bump("deliveries", self.count)
        pipeline._vec_bump("noise_batched", self.count)
        pipeline._vec_bump("waves", 1)

    @property
    def count(self) -> int:
        """Number of scheduled (= delivered) copies."""
        return int(self.dist.shape[0])


class _TurboPhase:
    """Shared bookkeeping for one turbo phase (two waves + finish)."""

    def __init__(self, pipeline) -> None:
        self.field = _Field(pipeline)
        self.pipeline = pipeline
        self.total_events = 0
        self.max_time = pipeline.engine.now()
        self._received = np.zeros(self.field.view.count, dtype=np.int64)

    def account(self, wave: _Wave) -> None:
        """Fold one wave's deliveries into engine/network bookkeeping."""
        self.total_events += wave.count
        if wave.count:
            self.max_time = max(self.max_time, float(wave.time.max()))
        self.field.network.stats.deliveries += wave.count
        self._received += np.bincount(
            wave.dst_row, minlength=self._received.shape[0]
        )

    def record_drops(
        self, wave: _Wave, now: np.ndarray, sender_ids: np.ndarray,
        src_ids: np.ndarray, dst_rows: np.ndarray, kind: str,
    ) -> None:
        """Mirror the scalar ``drop.*`` traces, in scheduling order.

        Per packet, at its schedule time: one ``drop.loss`` or
        ``drop.fault`` per lost copy, naming the packet's ``src_id``
        (on a probe, the detecting ID), or one ``drop.out_of_range``
        naming the sending node when no copy was in range.
        """
        packets = np.concatenate([wave.lost_packet, wave.undelivered])
        kinds = [
            "drop.fault" if by_fault else "drop.loss"
            for by_fault in wave.lost_by_fault.tolist()
        ] + ["drop.out_of_range"] * wave.undelivered.shape[0]
        node_ids = self.field.view.node_ids
        record = self.field.trace.record
        for index in np.argsort(packets, kind="stable").tolist():
            packet = packets[index]
            name = kinds[index]
            src = sender_ids if name == "drop.out_of_range" else src_ids
            record(
                float(now[packet]),
                name,
                src=int(src[packet]),
                dst=int(node_ids[dst_rows[packet]]),
                packet_kind=kind,
            )

    def finish(self) -> None:
        """Fold event count, clock, and received counters into the sim."""
        nodes = self.field.nodes
        for row in np.flatnonzero(self._received):
            nodes[row].received_count += int(self._received[row])
        self.pipeline.engine.absorb_batch(self.total_events, self.max_time)


def _serve_wave(
    phase: _TurboPhase,
    request_wave: _Wave,
    req_src_ids: np.ndarray,
    req_origin_rows: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Serve every delivered request copy; build the reply packet arrays.

    Walks the request wave in delivery order. Benign responders are
    served arithmetically (``requests_served``/``_sequence`` advanced
    by count — the per-reply ``sequence`` field feeds no protocol
    decision, so only the final counters must match); malicious
    responders run their real sticky strategy in a Python loop at the
    exact positions they occupy in that order, so their RNG
    consumption is scalar-exact.

    Returns reply logical-packet arrays, one row per served request
    copy in delivery order: responder row, requester row, reply src id,
    reply dst id (the requester identity echoed from the request),
    claimed x/y, ranging bias, extra reply delay, fake-wormhole-symptom
    flag, and the reply's scheduling time (= request arrival).
    """
    field = phase.field
    order = request_wave.order
    packet = request_wave.packet[order]
    responder_rows = request_wave.dst_row[order]
    times = request_wave.time[order]
    src_ids = req_src_ids[packet]
    requester_rows = req_origin_rows[packet]
    nodes = field.nodes
    view = field.view
    count = packet.shape[0]

    reply_src = view.node_ids[responder_rows]
    biases = np.zeros(count, dtype=np.float64)
    extras = np.zeros(count, dtype=np.float64)
    fakes = np.zeros(count, dtype=bool)

    decl_x = view.xs.copy()
    decl_y = view.ys.copy()
    malicious_mask = np.zeros(view.count, dtype=bool)
    for row in field.beacon_rows:
        node = nodes[row]
        decl_x[row] = node.declared_location.x
        decl_y[row] = node.declared_location.y
        if isinstance(node, MaliciousBeacon):
            malicious_mask[row] = True
    claimed_x = decl_x[responder_rows]
    claimed_y = decl_y[responder_rows]
    is_malicious = malicious_mask[responder_rows]

    # Real sticky adversary decisions, at their delivery-order slots.
    responder_list = responder_rows.tolist()
    src_id_list = src_ids.tolist()
    for position in np.flatnonzero(is_malicious).tolist():
        beacon = nodes[responder_list[position]]
        requester = src_id_list[position]
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
    served = np.bincount(responder_rows, minlength=view.count)
    for row in np.flatnonzero(served):
        node = nodes[row]
        node.requests_served += int(served[row])
        node._sequence += int(served[row])

    return (
        responder_rows,
        requester_rows,
        reply_src,
        src_ids,
        claimed_x,
        claimed_y,
        biases,
        extras,
        fakes,
        times,
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
    clean copy draws a false-alarm coin only when ``false_alarm_rate``
    is positive. With a zero false-alarm rate (the paper's model) clean
    copies draw nothing, so the tunnel coins are the only draws and the
    sparse loop below visits just those; with a positive rate every
    evaluated copy may draw, so one ordered loop walks the whole batch
    — either way each coin lands exactly where the scalar loop flips
    it, because both loops run in delivery order.
    """
    flagged = np.zeros(evaluated.shape[0], dtype=bool)
    verdicts = detector._verdicts
    rng = detector._rng
    requester_list = requester_ids.tolist()
    src_list = src_ids.tolist()
    if detector.false_alarm_rate > 0.0:
        fakes_list = fakes.tolist()
        via_list = via_wormhole.tolist()
        rate = detector.false_alarm_rate
        for index in np.flatnonzero(evaluated).tolist():
            if fakes_list[index]:
                flagged[index] = True
            elif via_list[index]:
                key = (requester_list[index], src_list[index])
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = rng.random() < detector.p_d
                    verdicts[key] = verdict
                flagged[index] = verdict
            else:
                flagged[index] = rng.random() < rate
    else:
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


def run_detection_turbo(pipeline) -> None:
    """The detection phase (§2.1-§2.2, §3.1) as two array-built waves."""
    phase = _TurboPhase(pipeline)
    field = phase.field
    t0 = pipeline.engine.now()
    view = field.view

    # ------------------------------------------------------------------
    # Probe fan-out (scalar build order: prober, target, detecting id).
    # ------------------------------------------------------------------
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []
    prober_chunks: List[np.ndarray] = []
    nonce_chunks: List[np.ndarray] = []
    bias_chunks: List[np.ndarray] = []
    for beacon in pipeline.benign_beacons:
        row = field.row(beacon.node_id)
        targets = field.reachable_beacon_rows(row)
        m = len(beacon.detecting_ids)
        probes = targets.shape[0] * m
        if probes == 0:
            continue
        src_chunks.append(
            np.tile(
                np.array(beacon.detecting_ids, dtype=np.int64),
                targets.shape[0],
            )
        )
        dst_chunks.append(np.repeat(targets, m))
        prober_chunks.append(np.full(probes, row, dtype=np.int64))
        nonce_chunks.append(beacon._next_nonce + np.arange(probes))
        beacon._next_nonce += probes
        if beacon.probe_power_randomization_ft > 0.0:
            bias_chunks.append(
                batched_uniform(
                    pipeline.network.rngs.stream("probe-power"),
                    probes,
                    -beacon.probe_power_randomization_ft,
                    beacon.probe_power_randomization_ft,
                )
            )
        else:
            bias_chunks.append(np.zeros(probes, dtype=np.float64))
        pipeline._probes_sent += probes

    if not src_chunks:
        phase.finish()
        return
    req_src = np.concatenate(src_chunks)
    req_dst_rows = np.concatenate(dst_chunks)
    req_origin_rows = np.concatenate(prober_chunks)
    req_biases = np.concatenate(bias_chunks)
    req_dists = _exact_distances(
        view.xs[req_origin_rows],
        view.ys[req_origin_rows],
        view.xs[req_dst_rows],
        view.ys[req_dst_rows],
    )
    field.network.stats.distance_evals += int(req_dists.shape[0])
    req_now = np.full(req_src.shape[0], t0, dtype=np.float64)
    request_wave = _Wave(
        field, BeaconRequest, req_now, req_origin_rows, req_dst_rows,
        req_dists, np.zeros(req_src.shape[0]), req_biases,
    )
    phase.record_drops(
        request_wave, req_now, view.node_ids[req_origin_rows], req_src,
        req_dst_rows, "BeaconRequest",
    )
    phase.account(request_wave)

    # ------------------------------------------------------------------
    # Serve requests; build and deliver the reply wave.
    # ------------------------------------------------------------------
    (
        resp_rows, prober_rows, reply_src, reply_dst, claimed_x, claimed_y,
        biases, extras, fakes, reply_now,
    ) = _serve_wave(phase, request_wave, req_src, req_origin_rows)
    # Reply direct distance = request direct distance (|dx|, |dy| are
    # identical either way, and hypot is sign-symmetric).
    reply_direct = req_dists[request_wave.packet[request_wave.order]]
    reply_wave = _Wave(
        field, BeaconPacket, reply_now, resp_rows, prober_rows,
        reply_direct, extras, biases,
    )
    phase.record_drops(
        reply_wave, reply_now, reply_src, reply_src, prober_rows,
        "BeaconPacket",
    )
    phase.account(reply_wave)

    # ------------------------------------------------------------------
    # Judge probe replies in delivery order (§2.1, §2.2), then record
    # outcomes, traces and alerts (§3.1) in that order.
    # ------------------------------------------------------------------
    order = reply_wave.order
    rep = reply_wave.packet[order]
    times = reply_wave.time[order]
    d_prober_rows = prober_rows[rep]
    src_ids = reply_src[rep]
    dst_ids = reply_dst[rep]
    if pipeline.detector is None:
        decisions, consistent, indict = _paper_verdicts(
            field, reply_wave, d_prober_rows, src_ids, claimed_x[rep],
            claimed_y[rep], fakes[rep],
        )
    else:
        decisions, consistent, indict = _rival_verdicts(
            field, reply_wave, d_prober_rows, src_ids, dst_ids,
            claimed_x[rep], claimed_y[rep],
        )

    trace = field.trace
    nodes = field.nodes
    for row, detecting_id, target, time, decision, signal_consistent, alert in zip(
        d_prober_rows.tolist(), dst_ids.tolist(), src_ids.tolist(),
        times.tolist(), decisions, consistent, indict,
    ):
        prober = nodes[row]
        prober.probe_outcomes.append(
            ProbeOutcome(
                detecting_id=detecting_id, target_id=target, decision=decision
            )
        )
        trace.record(
            time,
            "probe",
            detector=prober.node_id,
            detecting_id=detecting_id,
            target=target,
            decision=decision,
            signal_consistent=signal_consistent,
        )
        if alert:
            prober.report_alert(target, time=time)

    phase.finish()


def _paper_verdicts(
    field: _Field, reply_wave: _Wave, prober_rows: np.ndarray,
    src_ids: np.ndarray, claimed_x: np.ndarray, claimed_y: np.ndarray,
    fakes: np.ndarray,
) -> Tuple[List[str], List[bool], List[bool]]:
    """The paper's §2.1 check and §2.2 cascade over one reply wave.

    Array masks throughout: the discrepancy check over every reply,
    one RTT batch over the inconsistent ones, the range check and the
    ordered wormhole-verdict walk, then the per-prober RTT filter. The
    per-reply arrays are in delivery order.

    Returns per reply, in delivery order: the decision label, the §2.1
    consistency flag, and whether the prober indicts the target.
    """
    pipeline = field.pipeline
    view = field.view
    order = reply_wave.order
    calculated = _exact_distances(
        view.xs[prober_rows], view.ys[prober_rows], claimed_x, claimed_y,
    )
    field.network.stats.distance_evals += int(calculated.shape[0])
    thresholds = np.array(
        [field.nodes[row].signal_detector.max_error_ft for row in prober_rows],
        dtype=np.float64,
    )
    inconsistent = discrepancy_mask(
        calculated, reply_wave.measured[order], thresholds
    )

    bad = np.flatnonzero(inconsistent)
    rtts = batched_rtt(
        field.network.rngs.stream("rtt"),
        field.network.rtt_model,
        reply_wave.dist[order][bad],
        reply_wave.extra[order][bad],
        reply_wave.time[order][bad],
    )
    pipeline._vec_bump("rtt_batched", int(bad.shape[0]))
    prober_ids = view.node_ids[prober_rows[bad]]
    rtts = field.perturb_rtts(rtts, prober_ids)
    # Hot Python loops below index these thousands of times; plain
    # lists hold the identical values without per-access conversion.
    rtts_list = rtts.tolist()
    prober_bad = prober_rows[bad].tolist()
    observer = field.network.rtt_observer
    if observer is not None:
        for position in range(len(prober_bad)):
            observer(rtts_list[position], field.nodes[prober_bad[position]])

    # The cascade over the inconsistent subset, knows_location=True:
    # the §2.2.1 range check is decisive on its own (no detector call).
    range_flagged = calculated[bad] > field.comm_range_ft
    detector_flagged = _wormhole_verdicts(
        pipeline.benign_beacons[0].filter_cascade.wormhole_detector,
        ~range_flagged,
        fakes[bad],
        reply_wave.via_wormhole[order][bad],
        prober_ids,
        src_ids[bad],
    )
    wormhole_flagged = range_flagged | detector_flagged
    local_flagged = np.zeros(bad.shape[0], dtype=bool)
    for position in np.flatnonzero(~wormhole_flagged).tolist():
        prober = field.nodes[prober_bad[position]]
        local_flagged[position] = (
            prober.filter_cascade.local_replay_detector.is_replayed(
                rtts_list[position]
            )
        )
    alerts = ~(wormhole_flagged | local_flagged)
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
    indict[bad] = alerts
    return decisions, (~inconsistent).tolist(), indict.tolist()


def _rival_verdicts(
    field: _Field, reply_wave: _Wave, prober_rows: np.ndarray,
    src_ids: np.ndarray, dst_ids: np.ndarray, claimed_x: np.ndarray,
    claimed_y: np.ndarray,
) -> Tuple[List[str], List[bool], List[bool]]:
    """A rival detector's own ``evaluate``, once per reply, in delivery order.

    Each reply becomes the :class:`~repro.detectors.base.Exchange` the
    scalar reply handler builds, minus the ``reception`` the batch
    core does not have. Its ``rtt_provider`` draws that exchange's RTT
    through :meth:`~repro.sim.network.Network.observe_rtt` only when
    the rival asks, so the ``rtt`` and fault-RTT streams, the drift
    counters and the observer advance exactly as on the scalar core.

    Returns per reply, in delivery order: the verdict's decision label,
    §2.1 consistency flag and indictment.
    """
    nodes = field.nodes
    observe_rtt = field.network.observe_rtt
    evaluate = field.pipeline.detector.evaluate
    order = reply_wave.order
    decisions: List[str] = []
    consistent: List[bool] = []
    indict: List[bool] = []
    for row, detecting_id, target, x, y, measured, dist, extra, time in zip(
        prober_rows.tolist(), dst_ids.tolist(), src_ids.tolist(),
        claimed_x.tolist(), claimed_y.tolist(),
        reply_wave.measured[order].tolist(), reply_wave.dist[order].tolist(),
        reply_wave.extra[order].tolist(), reply_wave.time[order].tolist(),
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
                rtt_provider=partial(observe_rtt, prober, dist, extra, time),
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
    t0 = pipeline.engine.now()
    view = field.view

    # ------------------------------------------------------------------
    # Beacon requests (scalar build order: agent, then target id order).
    # ------------------------------------------------------------------
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []
    agent_chunks: List[np.ndarray] = []
    for agent in pipeline.agents:
        row = field.row(agent.node_id)
        targets = field.reachable_beacon_rows(row)
        k = targets.shape[0]
        if k == 0:
            continue
        src_chunks.append(np.full(k, agent.node_id, dtype=np.int64))
        dst_chunks.append(targets)
        agent_chunks.append(np.full(k, row, dtype=np.int64))
        agent._next_nonce += k

    if not src_chunks:
        phase.finish()
        return
    req_src = np.concatenate(src_chunks)
    req_dst_rows = np.concatenate(dst_chunks)
    req_origin_rows = np.concatenate(agent_chunks)
    req_dists = _exact_distances(
        view.xs[req_origin_rows],
        view.ys[req_origin_rows],
        view.xs[req_dst_rows],
        view.ys[req_dst_rows],
    )
    field.network.stats.distance_evals += int(req_dists.shape[0])
    req_now = np.full(req_src.shape[0], t0, dtype=np.float64)
    request_wave = _Wave(
        field, BeaconRequest, req_now, req_origin_rows, req_dst_rows,
        req_dists, np.zeros(req_src.shape[0]), np.zeros(req_src.shape[0]),
    )
    phase.record_drops(
        request_wave, req_now, req_src, req_src, req_dst_rows,
        "BeaconRequest",
    )
    phase.account(request_wave)

    (
        resp_rows, agent_req_rows, reply_src, _reply_dst, claimed_x,
        claimed_y, biases, extras, fakes, reply_now,
    ) = _serve_wave(phase, request_wave, req_src, req_origin_rows)
    reply_direct = req_dists[request_wave.packet[request_wave.order]]
    reply_wave = _Wave(
        field, BeaconPacket, reply_now, resp_rows, agent_req_rows,
        reply_direct, extras, biases,
    )
    phase.record_drops(
        reply_wave, reply_now, reply_src, reply_src, agent_req_rows,
        "BeaconPacket",
    )
    phase.account(reply_wave)

    # ------------------------------------------------------------------
    # Reference collection in delivery order (§2.2 filters, then §4).
    # ------------------------------------------------------------------
    order = reply_wave.order
    rep = reply_wave.packet[order]
    times = reply_wave.time[order]
    measured = reply_wave.measured[order]
    d_agent_rows = agent_req_rows[rep]
    src_all = reply_src[rep]

    # Revocation filtering precedes the RTT draw in the scalar handler,
    # and no new revocations occur during localization (only detecting
    # beacons alert), so filtering the whole batch up front is exact.
    agents_by_row = {
        field.row(agent.node_id): agent for agent in pipeline.agents
    }
    src_list = src_all.tolist()
    agent_rows_list = d_agent_rows.tolist()
    kept = np.flatnonzero(
        np.array(
            [
                src_list[i]
                not in agents_by_row[agent_rows_list[i]].revoked_beacons
                for i in range(len(src_list))
            ],
            dtype=bool,
        )
    )
    rtts = batched_rtt(
        field.network.rngs.stream("rtt"),
        field.network.rtt_model,
        reply_wave.dist[order][kept],
        reply_wave.extra[order][kept],
        times[kept],
    )
    pipeline._vec_bump("rtt_batched", int(kept.shape[0]))
    agent_ids = view.node_ids[d_agent_rows[kept]]
    rtts = field.perturb_rtts(rtts, agent_ids)
    rtts_list = rtts.tolist()
    agent_kept = [agents_by_row[agent_rows_list[i]] for i in kept.tolist()]
    observer = field.network.rtt_observer
    if observer is not None:
        for position in range(len(agent_kept)):
            observer(rtts_list[position], agent_kept[position])

    # Cascade, knows_location=False: every kept copy reaches the
    # wormhole detector; survivors face the per-agent RTT filter.
    wormhole_flagged = _wormhole_verdicts(
        pipeline.agents[0].filter_cascade.wormhole_detector,
        np.ones(kept.shape[0], dtype=bool),
        fakes[rep][kept],
        reply_wave.via_wormhole[order][kept],
        agent_ids,
        src_all[kept],
    )
    local_flagged = np.zeros(kept.shape[0], dtype=bool)
    for position in np.flatnonzero(~wormhole_flagged).tolist():
        agent = agent_kept[position]
        local_flagged[position] = (
            agent.filter_cascade.local_replay_detector.is_replayed(
                rtts_list[position]
            )
        )
    rejected = wormhole_flagged | local_flagged

    counts = np.bincount(d_agent_rows[kept[rejected]], minlength=view.count)
    for row in np.flatnonzero(counts):
        agents_by_row[int(row)].rejected_replays += int(counts[row])

    claimed_kept_x = claimed_x[rep][kept].tolist()
    claimed_kept_y = claimed_y[rep][kept].tolist()
    measured_kept = measured[kept].tolist()
    times_kept = times[kept].tolist()
    src_kept = src_all[kept].tolist()
    for position in np.flatnonzero(~rejected).tolist():
        agent_kept[position].references.append(
            LocationReference(
                beacon_id=src_kept[position],
                beacon_location=Point(
                    claimed_kept_x[position],
                    claimed_kept_y[position],
                ),
                measured_distance_ft=measured_kept[position],
                received_at=times_kept[position],
            )
        )

    phase.finish()
