"""The pluggable detector protocol and registry.

A :class:`Detector` consumes one probe **exchange** at a time — the
detecting identity, the target's declared location, the measured
distance, and a lazily measured round-trip time — and returns a
:class:`Verdict`: a decision label for the trace, whether the target
should be indicted to the base station, and the §2.1 consistency flag
that post-hoc invariant checkers rely on.

The lifecycle is ``calibrate -> evaluate (per exchange) -> diagnostics``:

1. :meth:`Detector.calibrate` runs once per pipeline with a
   :class:`DetectorContext` (error bound, radio range, the attack-free
   RTT window, and a dedicated named RNG stream). Detectors that need
   reference statistics — e.g. the Mahalanobis residual model — draw
   them here, on their own stream, so the paper path stays bit-identical.
2. :meth:`Detector.evaluate` maps one :class:`Exchange` to a
   :class:`Verdict`. The RTT is measured lazily (``exchange.rtt_cycles()``)
   because measuring it consumes RNG draws: the paper's detector only
   measures inconsistent signals, and rivals must be free to make the
   same economy.
3. :meth:`Detector.diagnostics` reports counters for reports/benches.

Rival detectors register under a short name (``register``); the
pipeline resolves :attr:`PipelineConfig.detector
<repro.core.pipeline.PipelineConfig>` through :func:`make_detector`.

Paper section: §2.1-§2.2 (generalised; the reference implementation is
the paper's detection suite, see :mod:`repro.detectors.paper`)
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional

from repro.core.rtt import RttCalibration
from repro.errors import ConfigurationError
from repro.sim.radio import Reception
from repro.sim.timing import RttModel
from repro.utils.geometry import Point

#: Decision labels shared by every detector. A detector may add its own
#: labels for non-indicting outcomes, but ``"consistent"`` is reserved
#: for exchanges that pass the §2.1 distance-consistency test and
#: ``"alert"`` for exchanges that indict — the trace invariants
#: (:mod:`repro.verify.invariants`) depend on that contract.
DECISION_CONSISTENT = "consistent"
DECISION_ALERT = "alert"


@dataclass
class Exchange:
    """One probe reply as seen by a detecting identity.

    Attributes:
        detector_id: the detecting beacon's primary (reporting) identity.
        detecting_id: the probing identity the reply answered.
        target_id: the beacon identity that sent the reply.
        detector_position: the detecting beacon's exact location.
        declared_position: the location claimed in the beacon packet.
        measured_distance_ft: the ranging estimate from the signal.
        reception: the raw reception (ground-truth metadata included),
            for filters that need the transmission context. ``None`` on
            the batch core, which builds no ``Reception`` objects: only
            :class:`~repro.detectors.paper.PaperDetector` reads it, and
            the batch core runs the paper suite as array masks without
            calling it.
        rtt_provider: measures the register-level RTT of this exchange.
            Calling it consumes RNG draws on the measurement stream, so
            detectors must call :meth:`rtt_cycles` (which memoizes) and
            only when they actually consult the RTT.
    """

    detector_id: int
    detecting_id: int
    target_id: int
    detector_position: Point
    declared_position: Point
    measured_distance_ft: float
    reception: Optional[Reception]
    rtt_provider: Callable[[], float]
    _rtt: Optional[float] = field(default=None, repr=False)

    def rtt_cycles(self) -> float:
        """The exchange's RTT, measured on first use and memoized."""
        if self._rtt is None:
            self._rtt = self.rtt_provider()
        return self._rtt


@dataclass(frozen=True)
class Verdict:
    """A detector's conclusion about one exchange.

    Attributes:
        decision: trace label (``"consistent"``, ``"alert"``, or a
            detector-specific non-indicting label such as
            ``"replayed_wormhole"``).
        indict: whether the detecting beacon should report the target.
        signal_consistent: the §2.1 distance-consistency outcome for
            this exchange — recorded next to the decision so the
            consistent-never-indicts invariant holds for every detector.
        detail: optional free-form diagnostic (e.g. a test statistic).
    """

    decision: str
    indict: bool
    signal_consistent: bool
    detail: str = ""

    def __post_init__(self) -> None:
        if self.indict and self.decision != DECISION_ALERT:
            raise ConfigurationError(
                f"indicting verdicts must use decision={DECISION_ALERT!r}, "
                f"got {self.decision!r}"
            )
        if self.decision == DECISION_CONSISTENT and not self.signal_consistent:
            raise ConfigurationError(
                "decision='consistent' requires signal_consistent=True"
            )


@dataclass(frozen=True)
class DetectorContext:
    """Everything a detector may calibrate against.

    Attributes:
        max_ranging_error_ft: the §2.1 maximum measurement error bound.
        comm_range_ft: the radio range (the §2.2.1 distance condition).
        rtt_model: the register-level RTT hardware model, for detectors
            that build their own honest-RTT reference statistics.
        rtt_calibration: the attack-free §2.2.2 window (x_min/x_max).
        rng: a dedicated named RNG stream (``"detector-calibration"``).
            Calibration draws happen here and nowhere else, so enabling
            a rival detector never perturbs the protocol streams.
    """

    max_ranging_error_ft: float
    comm_range_ft: float
    rtt_model: RttModel
    rtt_calibration: RttCalibration
    rng: random.Random


class Detector(abc.ABC):
    """Base class for pluggable malicious-beacon detectors.

    One instance serves a whole pipeline: :class:`Exchange` carries the
    detecting beacon's identity and position, so per-pair state (e.g. a
    sequential test's likelihood ratio) is keyed inside the detector.
    The paper's reference detector is the exception — it wraps each
    beacon's own filter-cascade objects and is built per beacon (see
    :mod:`repro.detectors.paper`).
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    def calibrate(self, context: DetectorContext) -> None:
        """Build reference statistics; default detectors need none."""

    @abc.abstractmethod
    def evaluate(self, exchange: Exchange) -> Verdict:
        """Judge one probe exchange."""

    def diagnostics(self) -> Dict[str, object]:
        """Counters and calibrated parameters for reports/benches."""
        return {}


_REGISTRY: Dict[str, Callable[[], Detector]] = {}


def register(cls: type) -> type:
    """Class decorator: add a :class:`Detector` subclass to the registry."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate detector name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def available_detectors() -> List[str]:
    """Registered detector names, sorted (``"paper"`` first)."""
    names = sorted(_REGISTRY)
    if "paper" in names:
        names.remove("paper")
        names.insert(0, "paper")
    return names


def make_detector(name: str) -> Detector:
    """Instantiate a registered detector by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector {name!r}; available: {available_detectors()}"
        ) from None
    return factory()
