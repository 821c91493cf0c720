"""End-to-end secure location discovery (paper Section 4).

:class:`SecureLocalizationPipeline` deploys the paper's simulated network —
N sensor nodes in a square field, N_b beacons of which N_a are compromised,
a wormhole tunnel, detecting IDs, replay filters, base-station revocation —
runs the full protocol, and reports the evaluation metrics:

- **detection rate**: fraction of malicious beacons revoked;
- **false positive rate**: fraction of benign beacons revoked;
- **N'**: average number of requesting non-beacon nodes that accepted a
  (still-unrevoked) malicious beacon's misleading signal.

Phases:

1. *Collusion*: malicious beacons flood their false-alert quota at the
   base station (worst case: before any honest alert).
2. *Detection*: every benign beacon probes each beacon it can reach, once
   per detecting ID; surviving alerts drive revocations.
3. *Localization*: non-beacon nodes request beacon signals, filter
   replays, discard revoked beacons, and estimate positions.

Paper section: §4 (end-to-end simulation evaluation)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.attacks.collusion import ColludingReporters
from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.strategy import AdversaryStrategy
from repro.core.replay_filter import FilterDecision, ReplayFilterCascade
from repro.core.revocation import BaseStation, RevocationConfig
from repro.core.rtt import LocalReplayDetector, calibrate_rtt
from repro.core.detecting import DetectingBeacon
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.errors import ConfigurationError, InsufficientReferencesError
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.localization.beacon import NonBeaconAgent, purge_references
from repro.obs import Observability, ObserveConfig, linear_buckets
from repro.sim.engine import Engine
from repro.sim.network import Network, WormholeLink
from repro.sim.node import Node
from repro.sim.radio import RadioModel, Reception
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceRecorder
from repro.utils.geometry import Point, distance, random_point_in_rect
from repro.utils.validation import (
    check_int_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.wormhole.detector import ProbabilisticWormholeDetector

#: Fixed bucket bounds (cycles) for the ``rtt_cycles`` histograms. The
#: honest register-level RTT lives in roughly [15480, 17210] cycles
#: (RttModel defaults), so 250-cycle buckets tile 14k–18k finely enough
#: to reproduce the Figure-4 distribution shape, with a coarse tail
#: catching replayed/delayed/faulted exchanges. Fixed bounds (never
#: data-derived) are what keep worker histograms mergeable.
RTT_BUCKETS_CYCLES = linear_buckets(14_000.0, 250.0, 17) + (
    20_000.0,
    30_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
)

#: µTESLA key disclosures a flooded trial runs after detection: each
#: round advances one notice interval, then discloses its key.
NOTICE_ROUNDS = 4


@dataclass(frozen=True)
class PipelineConfig:
    """Deployment and protocol parameters (paper Section 4 defaults).

    The OCR of the paper dropped most digits; these values are the
    DESIGN.md reconstruction: 1000 nodes in a 1000x1000 ft field, 110
    beacons with 10 compromised (so benign beacons are 10% of all nodes),
    150 ft radio range, 10 ft maximum ranging error, m = 8 detecting IDs,
    wormhole detection rate 0.9, one wormhole (100,100)-(800,700).
    """

    n_total: int = 1_000
    n_beacons: int = 110
    n_malicious: int = 10
    field_width_ft: float = 1_000.0
    field_height_ft: float = 1_000.0
    comm_range_ft: float = 150.0
    max_ranging_error_ft: float = 10.0
    m_detecting_ids: int = 8
    tau_report: int = 2
    tau_alert: int = 2
    wormhole_p_d: float = 0.9
    p_prime: float = 0.2
    location_lie_ft: float = 100.0
    #: Which registered :mod:`repro.detectors` implementation judges
    #: probe replies. ``"paper"`` (default) is the §2.1+§2.2 reference
    #: suite, bit-identical to the pre-arena pipeline; rivals
    #: (``"mahalanobis"``, ``"noisy"``, ``"consistency"``) calibrate on
    #: the dedicated ``detector-calibration`` stream and share one
    #: instance across all detecting beacons. Every detector runs on
    #: both cores: the batch core runs the paper suite as array masks
    #: and calls a rival's own ``evaluate`` once per reply, in delivery
    #: order (see :mod:`repro.vec.turbo`).
    detector: str = "paper"
    wormhole_endpoints: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = (
        (100.0, 100.0),
        (800.0, 700.0),
    )
    collusion: bool = True
    rtt_calibration_samples: int = 2_000
    #: "oracle": revocations reach every node instantly (the paper's §3.2
    #: working assumption). "flood": revocation notices are disseminated
    #: as µTESLA-authenticated broadcasts relayed hop by hop — the
    #: mechanism behind the assumption, measurable under radio loss.
    revocation_dissemination: str = "oracle"
    notice_interval_cycles: float = 2_000_000.0
    #: Route the detection/localization phases and the metrics scans
    #: through the :mod:`repro.vec` batch kernels (the default fast
    #: path). Falls back to the scalar path silently for flooded
    #: revocation and event budgets (see
    #: :func:`repro.vec.vectorized_core_supported`); every fault runs
    #: on both. False selects the scalar event-driven oracle; results
    #: are bit-identical either way (parity rules in
    #: docs/PERFORMANCE.md).
    use_vectorized_core: bool = True
    #: Declarative fault-injection scenario (see :mod:`repro.faults` and
    #: docs/FAULTS.md), run on either core. ``None`` — or an all-zero
    #: :class:`FaultConfig` — leaves every code path bit-identical to
    #: the fault-free pipeline (asserted by
    #: tests/core/test_pipeline_faults.py).
    faults: Optional[FaultConfig] = None
    #: Hard cap on discrete events per trial; ``None`` = unbounded. A
    #: runaway flood of revocation notices then fails with a catchable
    #: :class:`repro.errors.BudgetExceededError` instead of running on.
    #: A budget runs on the scalar core, which counts every event.
    max_events: Optional[int] = None
    #: Observability switches (see :mod:`repro.obs`). ``None`` (default)
    #: keeps only the phase-timing spans, records no protocol events
    #: (``pipeline.trace`` stays empty) and exports nothing; an
    #: :class:`repro.obs.ObserveConfig` also records the protocol trace
    #: and collects span events, metrics and RTT histograms. Either way
    #: the layer draws zero randomness, so results are bit-identical to
    #: observe=None (asserted by tests/core/test_pipeline_observe.py).
    #: Excluded from result-cache keys for the same reason.
    observe: Optional[ObserveConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_events is not None:
            check_int_in_range(self.max_events, "max_events", 1)
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ConfigurationError(
                f"faults must be a FaultConfig or None, got {self.faults!r}"
            )
        if self.observe is not None and not isinstance(self.observe, ObserveConfig):
            raise ConfigurationError(
                f"observe must be an ObserveConfig or None, got {self.observe!r}"
            )
        if self.revocation_dissemination not in ("oracle", "flood"):
            raise ConfigurationError(
                "revocation_dissemination must be 'oracle' or 'flood', "
                f"got {self.revocation_dissemination!r}"
            )
        check_int_in_range(self.n_total, "n_total", 1)
        check_int_in_range(self.n_beacons, "n_beacons", 0, self.n_total)
        check_int_in_range(self.n_malicious, "n_malicious", 0, self.n_beacons)
        check_int_in_range(self.m_detecting_ids, "m_detecting_ids", 0)
        check_int_in_range(self.tau_report, "tau_report", 0)
        check_int_in_range(self.tau_alert, "tau_alert", 0)
        check_int_in_range(
            self.rtt_calibration_samples, "rtt_calibration_samples", 1
        )
        check_probability(self.wormhole_p_d, "wormhole_p_d")
        check_probability(self.p_prime, "p_prime")
        from repro.detectors import available_detectors

        if self.detector not in available_detectors():
            raise ConfigurationError(
                f"detector must be one of {available_detectors()}, "
                f"got {self.detector!r}"
            )
        # A non-finite length or interval would fail, or run unchecked,
        # deep inside a trial (and differently on the two cores).
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type in ("float", float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"{spec.name} must be finite, got {value!r}"
                )
        for end in self.wormhole_endpoints or ():
            if not all(map(math.isfinite, end)):
                raise ConfigurationError(
                    "wormhole_endpoints must be finite, "
                    f"got {self.wormhole_endpoints!r}"
                )
        check_positive(self.field_width_ft, "field_width_ft")
        check_positive(self.field_height_ft, "field_height_ft")
        check_positive(self.comm_range_ft, "comm_range_ft")
        check_non_negative(self.max_ranging_error_ft, "max_ranging_error_ft")
        check_non_negative(self.location_lie_ft, "location_lie_ft")
        # An oracle trial never reads the interval; reject it anyway, so
        # a config does not turn invalid when it switches to flooding.
        check_positive(self.notice_interval_cycles, "notice_interval_cycles")


@dataclass
class PipelineResult:
    """Evaluation metrics of one pipeline run.

    ``detection_rate`` / ``false_positive_rate`` are ``None`` when the
    respective beacon population is empty — the rate is undefined, and
    the aggregation layer excludes such trials rather than biasing the
    Monte-Carlo mean toward zero.
    """

    detection_rate: Optional[float]
    false_positive_rate: Optional[float]
    affected_non_beacons_per_malicious: float
    revoked_malicious: int
    revoked_benign: int
    alerts_accepted: int
    alerts_rejected: int
    probes_sent: int
    localization_errors_ft: List[float] = field(default_factory=list)
    affected_node_ids: Set[int] = field(default_factory=set)
    mean_requesters_per_malicious: float = 0.0

    @property
    def mean_localization_error_ft(self) -> float:
        """Average position error over solved non-beacon nodes."""
        if not self.localization_errors_ft:
            return float("nan")
        return sum(self.localization_errors_ft) / len(self.localization_errors_ft)


class SecureNonBeaconAgent(NonBeaconAgent):
    """A non-beacon node with the replay filters installed.

    Accepts a beacon signal only when the wormhole detector and the RTT
    local-replay detector both pass it (paper: both detectors are installed
    on "every beacon and non-beacon node").
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        key_manager: KeyManager,
        filter_cascade: ReplayFilterCascade,
    ) -> None:
        super().__init__(node_id, position, key_manager)
        self.filter_cascade = filter_cascade
        self.rejected_replays = 0
        self.accepted_misleading: List[int] = []

    def accepts(self, reception: Reception) -> bool:
        rtt = self._observe_rtt(reception)
        decision = self.filter_cascade.evaluate(
            reception, self.position, rtt, receiver_knows_location=False
        )
        if decision is not FilterDecision.ACCEPT:
            self.rejected_replays += 1
            return False
        return True

    def _observe_rtt(self, reception: Reception) -> float:
        if self.network is None:
            return 0.0
        tx = reception.transmission
        return self.network.measure_rtt(self, tx.tx_origin, tx.extra_delay_cycles)


class SecureLocalizationPipeline:
    """Builds and runs the full Section 4 simulation."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.rngs = RngRegistry(self.config.seed)
        #: The protocol event stream (probes, alerts, revocations, drops,
        #: deliveries, span markers). Recorded only when the trial is
        #: observed: with ``config.observe`` None it stays empty.
        self.trace = TraceRecorder(enabled=self.config.observe is not None)
        self.engine: Engine = Engine(event_budget=self.config.max_events)
        #: Built by :meth:`build` when the config enables faults; None on
        #: the (bit-identical) fault-free path.
        self.fault_injector: Optional[FaultInjector] = None
        self.key_manager = KeyManager()
        self.network: Optional[Network] = None
        self.base_station: Optional[BaseStation] = None
        self.benign_beacons: List[DetectingBeacon] = []
        self.malicious_beacons: List[MaliciousBeacon] = []
        self.agents: List[SecureNonBeaconAgent] = []
        #: The shared rival detector instance, or None on the paper path
        #: (where each beacon owns a PaperDetector); set by :meth:`build`.
        self.detector = None
        self.notice_distributor = None
        #: Oracle revocation's one revoked set: :meth:`build` hands it to
        #: every agent as its ``revoked_beacons`` (flooded revocation
        #: keeps per-agent sets, which the notices fill).
        self._oracle_revoked: Set[int] = set()
        self._built = False
        self._probes_sent = 0
        #: Lazily resolved: config switch AND supported envelope. None
        #: until first queried.
        self._vec_active: Optional[bool] = None
        #: Batch-path work counters (waves closed, deliveries batched,
        #: noise/RTT draws batched); folded into observability at
        #: finalize and into :meth:`profile_snapshot` as ``vec_*``.
        self._vec_counters: Dict[str, int] = {}
        #: The batch core's geometry of this trial, built on first use
        #: (see :func:`repro.vec.turbo.trial_field`).
        self._field = None
        #: The batch core's accepted localization replies, as columns
        #: (:class:`repro.vec.turbo.ReferenceColumns`); None until its
        #: localization phase runs. The metrics phase reads them.
        self._accepted_references = None
        #: The trial's span tree: its ``phase:*`` spans are the only
        #: phase timer (read back by :meth:`profile_snapshot`). With
        #: ``config.observe`` None it is timing-only: no span event
        #: reaches :attr:`trace` and nothing reaches its registry.
        self._observed = self.config.observe is not None
        self.obs = Observability(
            self.config.observe,
            trace=self.trace if self._observed else None,
            sim_clock=self.engine.now,
        )
        self._obs_finalized = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "SecureLocalizationPipeline":
        """Deploy the network; idempotent."""
        if self._built:
            return self
        cfg = self.config
        radio = RadioModel(comm_range_ft=cfg.comm_range_ft)
        if cfg.faults is not None and cfg.faults.enabled:
            # The injector seed derives from the pipeline seed, so one
            # (config, seed) pair still fully determines a faulted run;
            # fault streams are named, so they never perturb the draws
            # of the protocol/deployment streams.
            self.fault_injector = FaultInjector.from_config(
                cfg.faults, derive_seed(cfg.seed, "faults")
            )
        self.network = Network(
            self.engine,
            radio=radio,
            rngs=self.rngs,
            max_ranging_error_ft=cfg.max_ranging_error_ft,
            trace=self.trace,
            fault_injector=self.fault_injector,
        )

        # RTT calibration: attack-free and fault-free, as in Figure 4.
        # An observed trial records every calibration and exchange RTT
        # in fixed-bucket ``rtt_cycles`` histograms.
        calibration_observe = None
        if self._observed:
            registry = self.obs.registry
            calibration_observe = registry.histogram(
                "rtt_cycles", buckets=RTT_BUCKETS_CYCLES, kind="calibration"
            ).observe
            self.network.rtt_observer = registry.histogram(
                "rtt_cycles", buckets=RTT_BUCKETS_CYCLES, kind="exchange"
            ).observe
        # Calibrate at the radio range, not at zero separation: the RTT
        # includes a flight term that grows with distance, so a window
        # measured at 0 ft sits ~2 cycles below what an honest in-range
        # exchange can produce — with zero jitter the local-replay filter
        # would then flag honest beacons at the field's edge. Calibrating
        # at comm_range_ft makes x_max dominate every honest exchange
        # (the §2.2.2 honest-window invariant in repro.verify).
        calibration_sampler = None
        if self._vectorized_active():
            from repro.vec.measurement import batched_calibration_rtts

            calibration_sampler = batched_calibration_rtts
        calibration = calibrate_rtt(
            self.network.rtt_model,
            self.rngs.stream("rtt-calibration"),
            samples=cfg.rtt_calibration_samples,
            distance_ft=cfg.comm_range_ft,
            observe=calibration_observe,
            sampler=calibration_sampler,
        )
        if calibration_sampler is not None:
            self._vec_bump("calibration_rtts", cfg.rtt_calibration_samples)

        key_manager = self.key_manager

        def canonical_identity(identity: int) -> int:
            if key_manager.is_detecting_id(identity):
                return key_manager.owner_of_detecting_id(identity)
            return identity

        wormhole_detector = ProbabilisticWormholeDetector(
            cfg.wormhole_p_d,
            self.rngs.stream("wormhole-detector"),
            identity_resolver=canonical_identity,
        )
        signal_detector = MaliciousSignalDetector(
            max_error_ft=cfg.max_ranging_error_ft
        )
        # Rival detectors: one calibrated instance shared by every
        # detecting beacon (exchanges carry the beacon identity, so
        # per-pair state lives inside the detector). The paper path
        # passes None — each beacon wraps its own cascade objects in a
        # PaperDetector — and, since calibration draws only from the
        # dedicated "detector-calibration" stream, stays bit-identical.
        shared_detector = None
        if cfg.detector != "paper":
            from repro.detectors import DetectorContext, make_detector

            shared_detector = make_detector(cfg.detector)
            shared_detector.calibrate(
                DetectorContext(
                    max_ranging_error_ft=cfg.max_ranging_error_ft,
                    comm_range_ft=cfg.comm_range_ft,
                    rtt_model=self.network.rtt_model,
                    rtt_calibration=calibration,
                    rng=self.rngs.stream("detector-calibration"),
                )
            )
        self.detector = shared_detector
        self.base_station = BaseStation(
            self.key_manager,
            RevocationConfig(tau_report=cfg.tau_report, tau_alert=cfg.tau_alert),
            on_revoke=self._propagate_revocation,
            trace=self.trace,
        )

        deploy_rng = self.rngs.stream("deployment")
        field_point = lambda: random_point_in_rect(  # noqa: E731 - local shorthand
            deploy_rng, cfg.field_width_ft, cfg.field_height_ft
        )

        def make_cascade() -> ReplayFilterCascade:
            return ReplayFilterCascade(
                wormhole_detector=wormhole_detector,
                local_replay_detector=LocalReplayDetector(calibration),
                comm_range_ft=cfg.comm_range_ft,
            )

        next_id = 1
        # Benign beacons (ids 1 .. N_b - N_a).
        for _ in range(cfg.n_beacons - cfg.n_malicious):
            self.key_manager.enroll(next_id, is_beacon=True)
            beacon = DetectingBeacon(
                next_id,
                field_point(),
                self.key_manager,
                signal_detector=signal_detector,
                filter_cascade=make_cascade(),
                base_station=self.base_station,
                detecting_ids=self.key_manager.allocate_detecting_ids(
                    next_id, cfg.m_detecting_ids
                ),
                detector=shared_detector,
            )
            self.network.add_node(beacon)
            for did in beacon.detecting_ids:
                self.network.add_alias(did, beacon.node_id)
            self.benign_beacons.append(beacon)
            next_id += 1

        # Malicious beacons (the next N_a ids).
        for k in range(cfg.n_malicious):
            self.key_manager.enroll(next_id, is_beacon=True)
            strategy = AdversaryStrategy.with_effective(
                cfg.p_prime,
                location_lie_ft=cfg.location_lie_ft,
                seed=cfg.seed * 1_000 + k,
            )
            beacon = MaliciousBeacon(
                next_id, field_point(), self.key_manager, strategy
            )
            self.network.add_node(beacon)
            self.malicious_beacons.append(beacon)
            next_id += 1

        # Non-beacon nodes.
        for _ in range(cfg.n_total - cfg.n_beacons):
            self.key_manager.enroll(next_id)
            agent = SecureNonBeaconAgent(
                next_id, field_point(), self.key_manager, make_cascade()
            )
            self.network.add_node(agent)
            self.agents.append(agent)
            next_id += 1

        if cfg.wormhole_endpoints is not None:
            (ax, ay), (bx, by) = cfg.wormhole_endpoints
            self.network.add_wormhole(
                WormholeLink(end_a=Point(ax, ay), end_b=Point(bx, by))
            )

        if cfg.revocation_dissemination == "flood" and self.benign_beacons:
            from repro.core.notices import (
                NoticeDistributor,
                install_notice_handling,
            )

            gateway = self.benign_beacons[0]
            self.notice_distributor = NoticeDistributor(
                self.network,
                gateway,
                interval_cycles=cfg.notice_interval_cycles,
            )
            # Benign beacons relay and verify; malicious nodes do not
            # cooperate with the flood (worst case). Agents verify+apply.
            for node in self.benign_beacons + self.agents:
                install_notice_handling(
                    node,
                    self.notice_distributor.commitment,
                    interval_cycles=cfg.notice_interval_cycles,
                )
        else:
            self.notice_distributor = None
            for agent in self.agents:
                agent.revoked_beacons = self._oracle_revoked

        self._built = True
        return self

    def _propagate_revocation(self, beacon_id: int) -> None:
        """Disseminate one revocation per the configured mechanism."""
        if self.network is not None and self.network.has_node(beacon_id):
            self.network.node(beacon_id).revoked = True
        if self.notice_distributor is not None:
            # Flooded µTESLA notice: agents learn it (or not) over radio.
            self.notice_distributor.announce_revocation(beacon_id)
            return
        # Oracle mode: the paper's working assumption — every node learns
        # at once, through the revoked set all agents share.
        self._oracle_revoked.add(beacon_id)
        purge_references(self.agents, beacon_id)

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def _reachable_beacons(self, node: Node) -> List[Node]:
        """Beacons a node can exchange packets with (direct or tunnel).

        The scalar oracle's full O(N_b) scan with pairwise wormhole
        checks, in ``node_id`` order; the batch core's ``_Field.fan_out``
        must return the same beacons in the same order.
        """
        assert self.network is not None
        reachable: List[Node] = []
        stats = self.network.stats
        for beacon in self.network.beacon_nodes():
            if beacon.node_id == node.node_id:
                continue
            stats.distance_evals += 1
            if distance(node.position, beacon.position) <= self.config.comm_range_ft:
                reachable.append(beacon)
            elif (
                self.network.wormhole_between(node.position, beacon.position)
                is not None
            ):
                reachable.append(beacon)
        return reachable

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run_collusion(self) -> int:
        """Malicious beacons flood false alerts; returns accepted count."""
        if not self.config.collusion or not self.malicious_beacons:
            return 0
        assert self.base_station is not None
        reporters = ColludingReporters(
            reporter_ids=[b.node_id for b in self.malicious_beacons],
            tau_report=self.config.tau_report,
            tau_alert=self.config.tau_alert,
        )
        benign_ids = [b.node_id for b in self.benign_beacons]
        accepted = 0
        for reporter, target in reporters.concentrated_schedule(benign_ids):
            payload = BaseStation.alert_payload(reporter, target)
            tag = self.key_manager.sign_alert_payload(reporter, payload)
            if self.base_station.submit_alert(
                reporter, target, tag=tag, time=self.engine.now()
            ):
                accepted += 1
        return accepted

    def _vectorized_active(self) -> bool:
        """Whether this run goes through the :mod:`repro.vec` batch path.

        Resolved once per pipeline: the config switch must be on (the
        default) *and* the configuration must be inside the batch path's
        supported envelope (oracle revocation, no event budget). Flooded
        revocation and event budgets fall back to the scalar path
        silently — same results, scalar speed.
        """
        if self._vec_active is None:
            if not self.config.use_vectorized_core:
                self._vec_active = False
            else:
                from repro.vec import vectorized_core_supported

                self._vec_active = vectorized_core_supported(self.config)
        return self._vec_active

    def _vec_bump(self, name: str, amount: int) -> None:
        """Accumulate one batch-path work counter (hot path: one dict op)."""
        self._vec_counters[name] = self._vec_counters.get(name, 0) + amount

    def run_detection(self) -> None:
        """Every benign beacon probes each reachable beacon per detecting ID."""
        if self._vectorized_active():
            from repro.vec.turbo import run_detection_turbo

            run_detection_turbo(self)
            return
        for beacon in self.benign_beacons:
            for target in self._reachable_beacons(beacon):
                beacon.probe_all_ids(target.node_id)
                self._probes_sent += len(beacon.detecting_ids)
        self.engine.run()

    def run_localization(self) -> None:
        """Non-beacon nodes gather references and estimate positions."""
        if self._vectorized_active():
            from repro.vec.turbo import run_localization_turbo

            run_localization_turbo(self)
            return
        for agent in self.agents:
            for beacon in self._reachable_beacons(agent):
                agent.request_beacon(beacon.node_id)
        self.engine.run()

    def run_notice_dissemination(self) -> None:
        """Advance µTESLA intervals so flooded notices verify and apply."""
        if self.notice_distributor is None:
            return
        for _ in range(NOTICE_ROUNDS):
            deadline = self.engine.now() + self.config.notice_interval_cycles
            self.engine.run_until(deadline)
            self.notice_distributor.disclose_key()
        self.engine.run()

    def run(self) -> PipelineResult:
        """Build (if needed) and execute all phases, returning the metrics.

        Each phase runs inside a ``phase:<name>`` span nested under one
        ``trial`` span, observed or not; a phase that raises tags the
        exception with its span name. See :meth:`profile_snapshot` /
        :meth:`telemetry` for the aggregated views. End-of-trial
        counters are flushed into the registry via
        :meth:`finalize_observability`.
        """
        phases = (
            ("build", self.build),
            ("collusion", self.run_collusion),
            ("detection", self.run_detection),
            ("notices", self.run_notice_dissemination),
            ("localization", self.run_localization),
            ("metrics", self.collect_metrics),
        )
        with self.obs.span("trial", seed=self.config.seed):
            for name, step in phases:
                with self.obs.span(f"phase:{name}"):
                    result = step()
        self.finalize_observability()
        return result

    def close(self) -> None:
        """Break the trial's reference cycles; idempotent.

        Every node points back at its network, and the base station
        calls back into this pipeline. Clearing those links lets a
        finished trial be freed by reference counting alone, instead of
        waiting for a full (generation-2) garbage collection. Results,
        :meth:`profile_snapshot` and :meth:`telemetry` stay readable;
        running the trial's phases again does not.
        """
        if self.network is not None:
            for node in self.network.nodes():
                node.network = None
        if self.base_station is not None:
            self.base_station.on_revoke = None

    def finalize_observability(self) -> None:
        """Flush end-of-trial counters into the registry (idempotent).

        The hot paths accumulate into their existing plain-int structs
        (:class:`~repro.sim.network.NetworkCounters`, fault-model
        counters, §3.1 base-station counters);
        this one call folds them all into the mergeable registry, so
        observing adds no per-event registry work.
        """
        if self._obs_finalized or not self._observed:
            return
        self._obs_finalized = True
        registry = self.obs.registry
        self.engine.record_metrics(registry)
        registry.counter("probes_sent_total").inc(self._probes_sent)
        if self.network is not None:
            self.network.record_metrics(registry)
        if self.base_station is not None:
            self.base_station.record_metrics(registry)
        if self.fault_injector is not None:
            self.fault_injector.record_metrics(registry)
        for name in sorted(self._vec_counters):
            registry.counter("vec_batch_total", kind=name).inc(
                self._vec_counters[name]
            )

    def telemetry(self) -> dict:
        """The trial's exportable telemetry (empty dict when not observing).

        Shape: ``{"registry": <snapshot>, "spans": [...], "events":
        [...]}``. Events carry the full protocol stream only with
        ``observe.trace_events``; otherwise just the ``span.*`` markers,
        which keeps worker->parent payloads small in the parallel runner.
        """
        if not self._observed:
            return {}
        self.finalize_observability()
        data = self.obs.telemetry()
        include_all = self.obs.config.trace_events
        data["events"] = [
            event.to_dict()
            for event in self.trace
            if include_all or event.kind.startswith("span.")
        ]
        return data

    def profile_snapshot(self) -> dict:
        """Phase timings plus hot-path counters, as a JSON-ready dict.

        Counters fold in the network-level operation counts (distance
        evaluations, grid cells visited, spatial queries, deliveries),
        the probe total, the batch core's work counts (``vec_*``) and
        fault-injection event counts (``fault_*``), so one snapshot
        fully describes where a trial spent its work.
        Shape: ``{"phases": {...}, "counters": {...}}``; ``phases`` is the
        per-name sum of the ``phase:<name>`` spans' ``dur_wall_s``.
        """
        phases: Dict[str, float] = {}
        for span in self.obs.spans:
            kind, _, name = span["name"].partition(":")
            if kind == "phase":
                phases[name] = phases.get(name, 0.0) + span["dur_wall_s"]
        counters: Dict[str, int] = {}
        if self.network is not None:
            counters.update(asdict(self.network.stats))
        counters["probes"] = self._probes_sent
        for name in sorted(self._vec_counters):
            counters[f"vec_{name}"] = self._vec_counters[name]
        if self.fault_injector is not None:
            counters.update(self.fault_injector.counters())
        return {"phases": phases, "counters": counters}

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _requester_counts(self, malicious_ids: Set[int]) -> List[int]:
        """Per-malicious-beacon count of in-range agents + benign beacons."""
        assert self.network is not None
        cfg = self.config
        if self._vectorized_active():
            from repro.vec.turbo import trial_field

            return trial_field(self).requester_counts(
                self.malicious_beacons, malicious_ids
            )
        # The candidate list is hoisted out of the loop rather than
        # re-concatenated per malicious beacon.
        candidates = self.agents + self.benign_beacons
        return [
            len(
                [
                    a
                    for a in candidates
                    if distance(a.position, b.position) <= cfg.comm_range_ft
                ]
            )
            for b in self.malicious_beacons
        ]

    def collect_metrics(self) -> PipelineResult:
        """Compute the paper's evaluation metrics from the run."""
        assert self.base_station is not None
        assert self.network is not None
        cfg = self.config
        malicious_ids = {b.node_id for b in self.malicious_beacons}
        benign_ids = {b.node_id for b in self.benign_beacons}

        revoked_malicious = len(self.base_station.revoked & malicious_ids)
        revoked_benign = len(self.base_station.revoked & benign_ids)

        # N': non-beacon requesters holding a *misleading* accepted
        # reference from a malicious beacon the agent does not know is
        # revoked. Misleading = the measured/calculated discrepancy
        # exceeds the error bound at the agent's true position (a NORMAL
        # answer is consistent and, as the paper argues, harmless). In
        # oracle mode every revoked beacon's references were purged, so
        # this reduces to the paper's definition; in flooded mode an agent
        # the notice never reached still counts as affected.
        if self._vectorized_active():
            from repro.vec.localization import (
                batched_estimate_errors,
                misled_pairs,
            )
            from repro.vec.turbo import accepted_references

            references = accepted_references(self)
            victim_pairs, affected = misled_pairs(
                self.agents, references, malicious_ids,
                cfg.max_ranging_error_ft,
            )
            errors = batched_estimate_errors(self.agents, references)
        else:
            affected: Set[int] = set()
            victim_pairs = 0
            for agent in self.agents:
                for ref in agent.references:
                    if ref.beacon_id not in malicious_ids:
                        continue
                    if ref.beacon_id in agent.revoked_beacons:
                        continue
                    if abs(ref.residual_at(agent.position)) > cfg.max_ranging_error_ft:
                        affected.add(agent.node_id)
                        victim_pairs += 1
            errors = []
            for agent in self.agents:
                try:
                    agent.estimate_position()
                except InsufficientReferencesError:
                    continue
                errors.append(agent.location_error_ft())

        requesters = self._requester_counts(malicious_ids)
        mean_requesters = (
            sum(requesters) / len(requesters) if requesters else 0.0
        )

        accepted = self.base_station.accepted_alert_count()
        rejected = len(self.base_station.log) - accepted
        n_malicious = max(1, len(self.malicious_beacons))
        return PipelineResult(
            detection_rate=(
                revoked_malicious / len(malicious_ids) if malicious_ids else None
            ),
            false_positive_rate=(
                revoked_benign / len(benign_ids) if benign_ids else None
            ),
            affected_non_beacons_per_malicious=victim_pairs / n_malicious,
            revoked_malicious=revoked_malicious,
            revoked_benign=revoked_benign,
            alerts_accepted=accepted,
            alerts_rejected=rejected,
            probes_sent=self._probes_sent,
            localization_errors_ft=errors,
            affected_node_ids=affected,
            mean_requesters_per_malicious=mean_requesters,
        )
