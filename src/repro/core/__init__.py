"""The paper's primary contribution: detecting and revoking malicious beacons.

- :mod:`repro.core.signal_detector` — the measured-vs-calculated distance
  consistency check (Section 2.1);
- :mod:`repro.core.rtt` — RTT calibration and the local-replay detector
  (Section 2.2.2, Figure 4);
- :mod:`repro.core.replay_filter` — the full filtering cascade a detecting
  node runs before raising an alert (Section 2.2), also used by non-beacon
  nodes to decide whether to accept a beacon signal;
- :mod:`repro.core.detecting` — the detecting-beacon role that probes its
  neighbours under detecting IDs;
- :mod:`repro.core.revocation` — the base station's alert/report counters
  and revocation decision (Section 3.1);
- :mod:`repro.core.analysis` — every closed form behind Figures 5-10;
- :mod:`repro.core.pipeline` — the end-to-end secure-localization run that
  reproduces the paper's Section 4 simulation.

Paper section: §2-§4 (the paper's scheme, end to end)
"""

from repro.core.signal_detector import MaliciousSignalDetector, SignalVerdict
from repro.core.rtt import (
    LocalReplayDetector,
    RttCalibration,
    RttCalibrationTable,
    calibrate_rtt,
)
from repro.core.promoted import (
    GenerationAwareDetector,
    PromotedAnchor,
    uncertainty_for_generation,
)
from repro.core.notices import NoticeDistributor
from repro.core.replay_filter import FilterDecision, ReplayFilterCascade
from repro.core.detecting import DetectingBeacon
from repro.core.revocation import (
    AlertDecision,
    AlertRecord,
    BaseStation,
    CounterState,
    RevocationConfig,
    apply_alert,
    evaluate_alert,
)
from repro.core.distributed import (
    DistributedConfig,
    DistributedRevocationProtocol,
    RevocationLedger,
)
from repro.core import analysis
from repro.core.pipeline import PipelineConfig, PipelineResult, SecureLocalizationPipeline

__all__ = [
    "MaliciousSignalDetector",
    "SignalVerdict",
    "RttCalibration",
    "RttCalibrationTable",
    "LocalReplayDetector",
    "calibrate_rtt",
    "GenerationAwareDetector",
    "PromotedAnchor",
    "uncertainty_for_generation",
    "NoticeDistributor",
    "FilterDecision",
    "ReplayFilterCascade",
    "DetectingBeacon",
    "AlertDecision",
    "AlertRecord",
    "BaseStation",
    "CounterState",
    "RevocationConfig",
    "apply_alert",
    "evaluate_alert",
    "DistributedConfig",
    "DistributedRevocationProtocol",
    "RevocationLedger",
    "analysis",
    "PipelineConfig",
    "PipelineResult",
    "SecureLocalizationPipeline",
]
