"""RTT calibration and the local-replay detector (paper Section 2.2.2).

Calibration reproduces the paper's Figure 4 methodology: measure the
register-level RTT many times under attack-free conditions, take the
empirical CDF, and extract ``x_min``/``x_max``. At run time the detector
declares a beacon signal *locally replayed* when the observed RTT exceeds
``x_max`` — a replay between benign neighbours must add at least one packet
transmission time, far above the ~4.5-bit-time width of the honest window.

Paper section: §2.2.2 (RTT calibration and local-replay detection)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.errors import CalibrationError, ConfigurationError
from repro.sim.timing import BIT_TIME_CYCLES, RttModel
from repro.utils.stats import Ecdf


@dataclass(frozen=True)
class RttCalibration:
    """The attack-free RTT window.

    Attributes:
        x_min: largest x with F(x) = 0 (minimum observed RTT, cycles).
        x_max: smallest x with F(x) = 1 (maximum observed RTT, cycles).
        samples: how many measurements backed the calibration.
    """

    x_min: float
    x_max: float
    samples: int

    def __post_init__(self) -> None:
        if self.x_min > self.x_max:
            raise CalibrationError(
                f"invalid calibration window: x_min={self.x_min} > x_max={self.x_max}"
            )
        if self.samples <= 0:
            raise CalibrationError(f"samples must be > 0, got {self.samples}")

    @property
    def window_cycles(self) -> float:
        """Width of the honest window (x_max - x_min)."""
        return self.x_max - self.x_min

    @property
    def window_bits(self) -> float:
        """The honest window expressed in bit transmission times.

        The paper reports ~4.5 bits: any replay delayed by more than this
        is detectable.
        """
        return self.window_cycles / BIT_TIME_CYCLES


def calibrate_rtt(
    model: RttModel,
    rng: random.Random,
    *,
    samples: int = 10_000,
    distance_ft: float = 0.0,
    observe: Optional[Callable[[float], None]] = None,
    sampler: Optional[
        Callable[[RttModel, random.Random, int, float], Iterable[float]]
    ] = None,
) -> RttCalibration:
    """Measure ``samples`` attack-free RTTs and extract the window.

    Mirrors the paper's experiment ("derived by measuring RTT 10,000
    times").

    Args:
        model: the register-level RTT hardware model to sample.
        rng: randomness source for the hardware jitter draws.
        samples: how many attack-free measurements to take.
        distance_ft: requester/responder separation during calibration.
        observe: optional RNG-free sink called with each calibration
            RTT — the observability layer feeds
            these into its ``rtt_cycles{kind="calibration"}`` histogram,
            reconstructing the Figure-4 distribution.
        sampler: optional replacement for the scalar draw loop, called
            as ``sampler(model, rng, samples, distance_ft)`` — the
            vectorized pipeline passes
            :func:`repro.vec.measurement.batched_calibration_rtts`,
            whose output (and resulting ``rng`` state) is bit-identical
            to the scalar loop. The observe hook applies after all
            draws in both paths, so the swap is order-safe.
    """
    if samples <= 0:
        raise ConfigurationError(f"samples must be > 0, got {samples}")
    if sampler is not None:
        rtts = list(sampler(model, rng, samples, distance_ft))
    else:
        rtts = model.sample_rtts(rng, samples, distance_ft=distance_ft)
    if observe is not None:
        for rtt in rtts:
            observe(rtt)
    return calibration_from_samples(rtts)


def calibration_from_samples(rtts: Iterable[float]) -> RttCalibration:
    """Build a calibration window from externally measured RTTs.

    The recorded ``samples`` count is always the *observed* number of
    measurements (``ecdf.n``) — the same convention
    :func:`calibrate_rtt` and :meth:`RttCalibrationTable.calibrate_pair`
    follow, so a window's provenance is comparable regardless of which
    path built it.

    Raises:
        CalibrationError: ``rtts`` is empty — a window extracted from
            zero measurements is meaningless.
    """
    rtts = list(rtts)
    if not rtts:
        raise CalibrationError(
            "cannot calibrate an RTT window from zero samples"
        )
    ecdf = Ecdf(rtts)
    return RttCalibration(x_min=ecdf.x_min, x_max=ecdf.x_max, samples=ecdf.n)


class RttCalibrationTable:
    """Per-hardware-pair calibration for heterogeneous networks (§2.2.2).

    The paper assumes one mote type "for simplicity" and notes the
    technique "can be easily extended to deal with different types of
    nodes". The extension: each (requester type, responder type) pair has
    its own honest RTT window, calibrated from the mixed hardware model;
    the detector for an exchange uses the window of that pair. Using one
    global window instead either misses replays (window from slow
    hardware, exchange on fast) or falsely flags honest exchanges (window
    from fast hardware, exchange on slow) — both failure modes are
    demonstrated in the tests.

    Type keys are arbitrary hashables. Entries are keyed by the
    **ordered** pair (requester type, responder type) and each direction
    is calibrated independently: d1/d4 are drawn from the requester's
    model and d2/d3 from the responder's. Note that the RTT *sum* is
    role-symmetric in distribution — either way each endpoint
    contributes exactly two delay draws — so the (A, B) and (B, A)
    windows agree in distribution and cannot be systematically
    asymmetric, even for different per-delay models. The two directions
    still hold distinct realized windows (independent calibration
    samples), and querying a direction that was never calibrated is an
    error rather than a silent fallback to its mirror.
    """

    def __init__(self) -> None:
        self._models: Dict[object, RttModel] = {}
        self._windows: Dict[tuple, RttCalibration] = {}

    def register_type(self, type_key: object, model: RttModel) -> None:
        """Declare a hardware type and its RTT delay model."""
        self._models[type_key] = model

    def types(self) -> list:
        """Registered hardware type keys."""
        return list(self._models)

    def calibrate_pair(
        self,
        requester_type: object,
        responder_type: object,
        rng: random.Random,
        *,
        samples: int = 5_000,
    ) -> RttCalibration:
        """Measure the honest window for one ordered type pair."""
        from repro.sim.timing import sample_mixed_rtt

        req = self._require_model(requester_type)
        resp = self._require_model(responder_type)
        if samples <= 0:
            raise ConfigurationError(f"samples must be > 0, got {samples}")
        rtts = [
            sample_mixed_rtt(req, resp, rng) for _ in range(samples)
        ]
        calibration = calibration_from_samples(rtts)
        self._windows[(requester_type, responder_type)] = calibration
        return calibration

    def calibrate_all(
        self, rng: random.Random, *, samples: int = 5_000
    ) -> None:
        """Calibrate every ordered pair of registered types."""
        for a in self._models:
            for b in self._models:
                self.calibrate_pair(a, b, rng, samples=samples)

    def window(
        self, requester_type: object, responder_type: object
    ) -> RttCalibration:
        """The calibrated window for an ordered type pair.

        Raises:
            CalibrationError: the pair was never calibrated.
        """
        try:
            return self._windows[(requester_type, responder_type)]
        except KeyError:
            raise CalibrationError(
                f"pair ({requester_type!r}, {responder_type!r}) "
                "was never calibrated"
            ) from None

    def detector_for(
        self, requester_type: object, responder_type: object
    ) -> "LocalReplayDetector":
        """A replay detector bound to the pair's window."""
        return LocalReplayDetector(self.window(requester_type, responder_type))

    def _require_model(self, type_key: object) -> RttModel:
        model = self._models.get(type_key)
        if model is None:
            raise CalibrationError(f"unknown hardware type {type_key!r}")
        return model


class LocalReplayDetector:
    """The run-time ``RTT > x_max`` test.

    Installed "on every beacon and non-beacon node" (Section 2.2.2): a
    requesting node measures the RTT of its beacon exchange and discards
    the reply as locally replayed when the RTT exceeds the calibrated
    maximum.
    """

    def __init__(self, calibration: Optional[RttCalibration]) -> None:
        self._calibration = calibration
        self.checks = 0
        self.flagged = 0

    @property
    def calibration(self) -> RttCalibration:
        """The active window.

        Raises:
            CalibrationError: when the detector was built without one.
        """
        if self._calibration is None:
            raise CalibrationError(
                "local replay detector used before RTT calibration"
            )
        return self._calibration

    def is_replayed(self, observed_rtt_cycles: float) -> bool:
        """True when the observed RTT falls outside the honest window."""
        self.checks += 1
        replayed = observed_rtt_cycles > self.calibration.x_max
        if replayed:
            self.flagged += 1
        return replayed

    def detection_margin_cycles(self, observed_rtt_cycles: float) -> float:
        """How far past x_max the observation lies (negative = honest)."""
        return observed_rtt_cycles - self.calibration.x_max
