"""Differential testing: production vs oracle over seeded scenarios.

Every generator below derives an independent :class:`random.Random` per
scenario from ``(seed, component, index)`` via
:func:`repro.sim.rng.derive_seed`, drives the production implementation
and the matching :mod:`repro.verify.oracles` reference over the same
inputs, and records a :class:`Divergence` for any disagreement. Scenario
draws are boundary-heavy: thresholds are hit exactly, one ulp past, and
far away, because the paper's rules are all strict inequalities.

:func:`differential_pipeline_axes` is the odd one out: it has no oracle.
It asserts the documented *semantics-neutrality* of two pipeline knobs
— ``observe`` and an all-zero ``faults`` config — by running the same
seeded deployment with each knob toggled and requiring bit-identical
metrics.

Paper section: §2.1, §2.2, §3.1, §4 (differential conformance)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation, RevocationConfig
from repro.core.rtt import LocalReplayDetector, RttCalibration, calibration_from_samples
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.errors import CalibrationError
from repro.sim.messages import BeaconPacket
from repro.sim.radio import Reception
from repro.sim.rng import derive_seed
from repro.sim.trace import TraceRecorder
from repro.utils.geometry import Point
from repro.verify.oracles import (
    OracleBaseStation,
    oracle_cascade,
    oracle_rtt_window,
    oracle_signal_check,
)
from repro.wormhole.detector import WormholeDetector


@dataclass(frozen=True)
class Divergence:
    """One production/oracle disagreement (or axis non-identity)."""

    component: str
    scenario: int
    detail: str


@dataclass
class DifferentialReport:
    """Outcome of one component's differential run."""

    component: str
    scenarios: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every scenario agreed."""
        return not self.divergences

    def summary(self) -> str:
        """One status line for CLI output."""
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return f"{self.component}: {self.scenarios} scenarios, {status}"


def _rng(seed: int, component: str, index: int) -> random.Random:
    return random.Random(derive_seed(seed, f"verify:{component}:{index}"))


# ----------------------------------------------------------------------
# §2.1 — distance-consistency check
# ----------------------------------------------------------------------
def differential_signal_check(
    scenarios: int = 1000, seed: int = 0
) -> DifferentialReport:
    """Production §2.1 check vs :func:`oracle_signal_check`."""
    report = DifferentialReport("signal_check", scenarios)
    for i in range(scenarios):
        rng = _rng(seed, "signal", i)
        own = Point(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0))
        declared = Point(
            own.x + rng.uniform(-300.0, 300.0), own.y + rng.uniform(-300.0, 300.0)
        )
        max_error = rng.choice([1e-6, 5.0, 10.0, rng.uniform(0.1, 50.0)])
        calculated = math.hypot(own.x - declared.x, own.y - declared.y)
        # Boundary-heavy measured distances: at the threshold, one ulp
        # past it, and uniformly around it.
        delta = rng.choice(
            [
                0.0,
                max_error,
                -max_error,
                math.nextafter(max_error, math.inf),
                math.nextafter(max_error, -math.inf),
                rng.uniform(-3.0 * max_error, 3.0 * max_error),
            ]
        )
        measured = max(0.0, calculated + delta)
        detector = MaliciousSignalDetector(max_error_ft=max_error)
        check = detector.check(own, declared, measured)
        expected = oracle_signal_check(
            own.x, own.y, declared.x, declared.y, measured, max_error
        )
        if check.is_malicious != expected:
            report.divergences.append(
                Divergence(
                    "signal_check",
                    i,
                    f"production={check.is_malicious} oracle={expected} "
                    f"(calculated={calculated!r}, measured={measured!r}, "
                    f"max_error={max_error!r})",
                )
            )
    return report


# ----------------------------------------------------------------------
# §2.2 — replay-filter cascade
# ----------------------------------------------------------------------
class _ScriptedWormholeDetector(WormholeDetector):
    """A detector whose verdict is fixed by the scenario, not by chance."""

    def __init__(self, verdict: bool) -> None:
        self.verdict = verdict

    def detect(self, reception: Reception, receiver_position: Point) -> bool:
        """The scripted verdict, regardless of the reception."""
        return self.verdict


def differential_cascade(
    scenarios: int = 1000, seed: int = 0
) -> DifferentialReport:
    """Production §2.2 cascade vs :func:`oracle_cascade`.

    The wormhole detector's coin flip is scripted per scenario so both
    sides see the same verdict; the declared-location distance and the
    observed RTT are drawn boundary-heavy around the radio range and the
    calibrated ``x_max``.
    """
    report = DifferentialReport("cascade", scenarios)
    comm_range = 150.0
    x_min, x_max = 15_480.0, 17_208.0
    calibration = RttCalibration(x_min=x_min, x_max=x_max, samples=1000)
    for i in range(scenarios):
        rng = _rng(seed, "cascade", i)
        knows_location = rng.random() < 0.5
        detector_flags = rng.random() < 0.5
        # Declared-location distance around the range boundary.
        dist = rng.choice(
            [
                rng.uniform(0.0, comm_range),
                comm_range,
                math.nextafter(comm_range, math.inf),
                rng.uniform(comm_range, 3.0 * comm_range),
            ]
        )
        angle = rng.uniform(0.0, 2.0 * math.pi)
        receiver = Point(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0))
        declared = Point(
            receiver.x + dist * math.cos(angle), receiver.y + dist * math.sin(angle)
        )
        rtt = rng.choice(
            [
                rng.uniform(x_min, x_max),
                x_max,
                math.nextafter(x_max, math.inf),
                x_max + rng.uniform(1.0, 200_000.0),
            ]
        )
        cascade = ReplayFilterCascade(
            wormhole_detector=_ScriptedWormholeDetector(detector_flags),
            local_replay_detector=LocalReplayDetector(calibration),
            comm_range_ft=comm_range,
        )
        packet = BeaconPacket(
            src_id=1, dst_id=2, claimed_location=(declared.x, declared.y)
        )
        # The cascade only reads the packet's claimed location; the
        # ground-truth transmission metadata is irrelevant here.
        reception = Reception(
            packet=packet,
            arrival_time=0.0,
            measured_distance_ft=dist,
            transmission=None,  # type: ignore[arg-type]
        )
        decision = cascade.evaluate(
            reception, receiver, rtt, receiver_knows_location=knows_location
        )
        expected = oracle_cascade(
            receiver_knows_location=knows_location,
            distance_to_declared_ft=receiver.distance_to(declared),
            comm_range_ft=comm_range,
            detector_flags=detector_flags,
            observed_rtt_cycles=rtt,
            x_max_cycles=x_max,
        )
        if decision.value != expected:
            report.divergences.append(
                Divergence(
                    "cascade",
                    i,
                    f"production={decision.value} oracle={expected} "
                    f"(knows={knows_location}, dist={dist!r}, "
                    f"flagged={detector_flags}, rtt={rtt!r})",
                )
            )
    return report


# ----------------------------------------------------------------------
# §2.2.2 — RTT window extraction
# ----------------------------------------------------------------------
def differential_rtt_window(
    scenarios: int = 1000, seed: int = 0
) -> DifferentialReport:
    """Production window extraction vs :func:`oracle_rtt_window`.

    Includes single-sample, duplicate-heavy, and empty inputs; for the
    empty case both sides must refuse (production with
    :class:`repro.errors.CalibrationError`).
    """
    report = DifferentialReport("rtt_window", scenarios)
    for i in range(scenarios):
        rng = _rng(seed, "window", i)
        n = rng.choice([0, 1, 2, rng.randint(3, 200)])
        values = [rng.uniform(10_000.0, 20_000.0) for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            values[rng.randrange(n)] = values[0]  # force a duplicate
        if n == 0:
            production_raised = False
            try:
                calibration_from_samples(iter(values))
            except CalibrationError:
                production_raised = True
            oracle_raised = False
            try:
                oracle_rtt_window(values)
            except ValueError:
                oracle_raised = True
            if not (production_raised and oracle_raised):
                report.divergences.append(
                    Divergence(
                        "rtt_window",
                        i,
                        "empty input: production_raised="
                        f"{production_raised} oracle_raised={oracle_raised}",
                    )
                )
            continue
        calibration = calibration_from_samples(iter(values))
        x_min, x_max, count = oracle_rtt_window(values)
        got = (calibration.x_min, calibration.x_max, calibration.samples)
        if got != (x_min, x_max, count):
            report.divergences.append(
                Divergence(
                    "rtt_window",
                    i,
                    f"production={got} oracle={(x_min, x_max, count)}",
                )
            )
    return report


# ----------------------------------------------------------------------
# §3.1 — base-station counter machine
# ----------------------------------------------------------------------
def differential_base_station(
    scenarios: int = 1000, seed: int = 0
) -> DifferentialReport:
    """Production :class:`BaseStation` vs :class:`OracleBaseStation`.

    Random alert sequences over small id pools (so quota exhaustion,
    threshold crossings, and post-revocation alerts all occur often);
    compares per-alert acceptance, both counter maps, the revoked set,
    and the revocation order from the production trace.
    """
    report = DifferentialReport("base_station", scenarios)
    for i in range(scenarios):
        rng = _rng(seed, "station", i)
        tau_report = rng.randint(0, 3)
        tau_alert = rng.randint(0, 3)
        ids = list(range(1, rng.randint(3, 9)))
        alerts = [
            (rng.choice(ids), rng.choice(ids))
            for _ in range(rng.randint(1, 60))
        ]
        trace = TraceRecorder()
        station = BaseStation(
            KeyManager(),
            RevocationConfig(tau_report=tau_report, tau_alert=tau_alert),
            trace=trace,
        )
        oracle = OracleBaseStation(tau_report=tau_report, tau_alert=tau_alert)
        for step, (detector, target) in enumerate(alerts):
            accepted = station.submit_alert(detector, target, verify=False)
            expected = oracle.submit(detector, target)
            if accepted != expected:
                report.divergences.append(
                    Divergence(
                        "base_station",
                        i,
                        f"alert {step} ({detector}->{target}): "
                        f"production={accepted} oracle={expected}",
                    )
                )
                break
        else:
            revoke_order = [e["target"] for e in trace.of_kind("revoke")]
            mismatches = []
            if station.revoked != oracle.revoked:
                mismatches.append(
                    f"revoked {station.revoked} != {oracle.revoked}"
                )
            if revoke_order != oracle.revocation_order:
                mismatches.append(
                    f"order {revoke_order} != {oracle.revocation_order}"
                )
            if station.alert_counters != oracle.alert_counters:
                mismatches.append("alert counters differ")
            if station.report_counters != oracle.report_counters:
                mismatches.append("report counters differ")
            if mismatches:
                report.divergences.append(
                    Divergence("base_station", i, "; ".join(mismatches))
                )
    return report


# ----------------------------------------------------------------------
# §4 — semantics-neutral pipeline axes
# ----------------------------------------------------------------------
def _metrics_equal(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Bit-identical metric dicts (NaN compares equal to NaN)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        va, vb = a[key], b[key]
        if math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


def differential_pipeline_axes(
    scenarios: int = 4,
    seed: int = 0,
    *,
    base_kwargs: Optional[dict] = None,
) -> DifferentialReport:
    """Bit-identity of the semantics-neutral pipeline knobs.

    For each scenario, one small randomized deployment runs three
    times: the default-core baseline, then ``observe=ObserveConfig()``
    and ``faults=FaultConfig()`` (all-zero) against it. Each pair of
    metric dicts must be identical to the last bit — these knobs are
    documented as changing *how* the pipeline computes, never *what*.
    """
    from repro.core.pipeline import PipelineConfig
    from repro.experiments.runner import execute_pipeline
    from repro.faults.config import FaultConfig
    from repro.obs import ObserveConfig

    report = DifferentialReport("pipeline_axes", scenarios)
    overrides = dict(base_kwargs or {})
    for i in range(scenarios):
        rng = _rng(seed, "axes", i)
        kwargs = dict(
            n_total=rng.randint(40, 70),
            n_beacons=rng.randint(8, 14),
            n_malicious=rng.randint(0, 3),
            field_width_ft=500.0,
            field_height_ft=500.0,
            m_detecting_ids=4,
            p_prime=rng.choice([0.1, 0.3, 0.6]),
            rtt_calibration_samples=500,
            seed=derive_seed(seed, f"axes-config:{i}") % (2**31),
        )
        kwargs.update(overrides)

        def run(**extra) -> Dict[str, float]:
            return execute_pipeline(PipelineConfig(**kwargs, **extra))

        baseline = run()
        variants: List[tuple] = [
            ("observe=ObserveConfig()", dict(observe=ObserveConfig())),
            ("faults=FaultConfig()", dict(faults=FaultConfig())),
        ]
        for label, extra in variants:
            metrics = run(**extra)
            if not _metrics_equal(baseline, metrics):
                diff_keys = sorted(
                    k
                    for k in baseline.keys() | metrics.keys()
                    if baseline.get(k) != metrics.get(k)
                )
                report.divergences.append(
                    Divergence(
                        "pipeline_axes",
                        i,
                        f"{label} diverged on {diff_keys}",
                    )
                )
    return report


def differential_vectorized_core(
    scenarios: int = 8, seed: int = 0
) -> DifferentialReport:
    """Bit-identity of the vectorized batch core against the scalar path.

    Each scenario builds one small randomized deployment and runs it
    twice per registered detector — ``use_vectorized_core`` off and on,
    on the same deployment and seed — cycling the wormhole axis every
    scenario and the fault envelope every other one (clean; packet
    loss with RTT jitter; packet loss alone). Each divergence names its
    detector. A config the
    batch core refuses (:func:`repro.vec.vectorized_core_supported`)
    is a divergence in itself: its "batch" run would be the scalar
    oracle compared with itself.
    The complete ``PipelineResult`` objects must compare equal — every
    rate, every localization error, every affected-node id, to the
    last bit. "Tolerance-identical" for this substrate *is* exact
    equality; ``docs/PERFORMANCE.md`` makes the argument (shared RNG
    streams consumed in scalar order, scalar ``math.hypot`` for every
    protocol-feeding distance, closed-form solver arithmetic).
    """
    import dataclasses as _dc

    from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
    from repro.detectors import available_detectors
    from repro.faults.config import FaultConfig
    from repro.vec import vectorized_core_supported

    report = DifferentialReport("vectorized_core", scenarios)
    for i in range(scenarios):
        rng = _rng(seed, "veccore", i)
        # 0: clean, 1: loss plus jitter, 2: loss alone
        envelope = (i // 2) % 3
        kwargs = dict(
            n_total=rng.randint(40, 70),
            n_beacons=rng.randint(8, 14),
            n_malicious=rng.randint(0, 3),
            field_width_ft=500.0,
            field_height_ft=500.0,
            m_detecting_ids=4,
            p_prime=rng.choice([0.1, 0.3, 0.6]),
            rtt_calibration_samples=500,
            seed=derive_seed(seed, f"veccore-config:{i}") % (2**31),
            wormhole_endpoints=(
                ((100.0, 100.0), (400.0, 350.0)) if i % 2 == 0 else None
            ),
        )
        if envelope == 1:
            kwargs["faults"] = FaultConfig(
                packet_loss_rate=0.05, rtt_jitter_cycles=750.0
            )
        elif envelope == 2:
            kwargs["faults"] = FaultConfig(packet_loss_rate=0.1)
        for detector in available_detectors():
            config = PipelineConfig(detector=detector, **kwargs)
            if not vectorized_core_supported(config):
                report.divergences.append(
                    Divergence(
                        "vectorized_core",
                        i,
                        f"detector={detector}: batch core refuses the "
                        "scenario; both runs would be the scalar oracle",
                    )
                )
                continue
            scalar = SecureLocalizationPipeline(
                _dc.replace(config, use_vectorized_core=False)
            ).run()
            vectorized = SecureLocalizationPipeline(
                _dc.replace(config, use_vectorized_core=True)
            ).run()
            if scalar != vectorized:
                diff_fields = sorted(
                    f.name
                    for f in _dc.fields(scalar)
                    if getattr(scalar, f.name) != getattr(vectorized, f.name)
                )
                report.divergences.append(
                    Divergence(
                        "vectorized_core",
                        i,
                        f"detector={detector}: scalar/vectorized results "
                        f"differ on {diff_fields}",
                    )
                )
    return report


#: Component name -> differential runner, in CLI order.
COMPONENTS: Dict[str, Callable[[int, int], DifferentialReport]] = {
    "signal_check": differential_signal_check,
    "cascade": differential_cascade,
    "rtt_window": differential_rtt_window,
    "base_station": differential_base_station,
}


def run_differential_suite(
    scenarios: int = 1000,
    seed: int = 0,
    *,
    axes_scenarios: int = 4,
    vec_scenarios: int = 8,
) -> List[DifferentialReport]:
    """Run every differential component plus the whole-pipeline checks.

    The oracle components run ``scenarios`` cases each; the two
    whole-pipeline bit-identity checks (semantics-neutral axes and the
    vectorized batch core) run their own, much smaller counts — each
    of their scenarios is a pair of full pipeline executions.
    """
    reports = [fn(scenarios, seed) for fn in COMPONENTS.values()]
    reports.append(differential_pipeline_axes(axes_scenarios, seed))
    reports.append(differential_vectorized_core(vec_scenarios, seed))
    return reports
