"""Seam tests: the detector arena must not move the paper's numbers.

The load-bearing guarantee of the pluggable-detector refactor is that
``detector="paper"`` (the default) is **bit-identical** to the pre-arena
pipeline. The golden table below was captured from the pre-refactor
reply handler across seeds x wormhole on/off and pins every scalar
metric to full float precision; any change to the evaluation order
(e.g. measuring the RTT before the consistency check) burns RNG draws
differently and shows up here immediately.

The remaining tests pin the arena-wide seams: every registered detector
is deterministic under a fixed seed and insensitive to worker count,
unknown detector names fail at config time, and fault injection
composes with rival detectors deterministically. Which core runs each
detector is pinned in ``tests/vec``.
"""

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.detectors import available_detectors
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner, collect_metrics
from repro.faults import FaultConfig

#: The pre-refactor capture deployment.
SMALL = dict(
    n_total=160,
    n_beacons=24,
    n_malicious=5,
    field_width_ft=500.0,
    field_height_ft=500.0,
    m_detecting_ids=3,
    rtt_calibration_samples=300,
    use_vectorized_core=False,
)

WORMHOLE = ((100.0, 100.0), (400.0, 350.0))

#: (seed, wormhole on) -> (detection_rate, false_positive_rate,
#: affected_non_beacons_per_malicious, revoked_malicious, revoked_benign,
#: alerts_accepted, alerts_rejected, probes_sent,
#: mean_localization_error_ft) — captured from the pre-arena pipeline.
GOLDEN = {
    (0, True): (
        0.2, 0.2631578947368421, 3.4, 1, 5, 21, 0, 396, 441790.56434177246,
    ),
    (0, False): (
        0.2, 0.2631578947368421, 3.0, 1, 5, 21, 0, 312, 21.16977632159902,
    ),
    (1, True): (
        0.0, 0.2631578947368421, 5.8, 0, 5, 17, 0, 357, 69.45578761534301,
    ),
    (1, False): (
        0.0, 0.2631578947368421, 5.4, 0, 5, 17, 0, 285, 15.88618396560365,
    ),
    (7, True): (
        0.2, 0.2631578947368421, 5.2, 1, 5, 21, 0, 411, 9001559.210179534,
    ),
    (7, False): (
        0.2, 0.2631578947368421, 4.0, 1, 5, 20, 0, 282, 65919454.10490332,
    ),
}

GOLDEN_FIELDS = (
    "detection_rate",
    "false_positive_rate",
    "affected_non_beacons_per_malicious",
    "revoked_malicious",
    "revoked_benign",
    "alerts_accepted",
    "alerts_rejected",
    "probes_sent",
    "mean_localization_error_ft",
)

#: Faster deployment for the per-detector determinism sweeps.
TINY = dict(
    n_total=130,
    n_beacons=18,
    n_malicious=4,
    field_width_ft=460.0,
    field_height_ft=460.0,
    p_prime=0.5,
    rtt_calibration_samples=200,
    use_vectorized_core=False,
)


def run_metrics(**kwargs):
    return collect_metrics(
        SecureLocalizationPipeline(PipelineConfig(**kwargs)).run()
    )


class TestPaperBitIdentity:
    @pytest.mark.parametrize("seed,wormhole", sorted(GOLDEN))
    def test_default_pipeline_matches_pre_arena_goldens(self, seed, wormhole):
        config = PipelineConfig(
            seed=seed,
            wormhole_endpoints=WORMHOLE if wormhole else None,
            **SMALL,
        )
        assert config.detector == "paper"
        result = SecureLocalizationPipeline(config).run()
        observed = tuple(
            getattr(result, field) for field in GOLDEN_FIELDS[:-1]
        ) + (result.mean_localization_error_ft,)
        assert observed == GOLDEN[(seed, wormhole)]

    def test_explicit_paper_detector_is_the_default_path(self):
        kwargs = dict(SMALL, seed=0, wormhole_endpoints=WORMHOLE)
        assert run_metrics(detector="paper", **kwargs) == run_metrics(**kwargs)


class TestEveryDetectorDeterministic:
    @pytest.mark.parametrize("name", available_detectors())
    def test_same_seed_same_metrics(self, name):
        kwargs = dict(TINY, detector=name, seed=23)
        assert run_metrics(**kwargs) == run_metrics(**kwargs)

    @pytest.mark.parametrize("name", available_detectors())
    def test_worker_count_cannot_change_results(self, name):
        configs = [
            PipelineConfig(detector=name, seed=31 + i, **TINY)
            for i in range(4)
        ]
        keys = [f"seam:{name}:{c.seed}" for c in configs]

        def run(workers):
            with ExperimentRunner(n_workers=workers) as runner:
                return runner.run_pipeline_configs(configs, keys=keys)

        assert run(1) == run(2)


class TestDetectorConfig:
    def test_unknown_detector_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="detector"):
            PipelineConfig(detector="not-a-detector", seed=0, **TINY)


class TestFaultsCompose:
    @pytest.mark.parametrize("name", ["paper", "noisy"])
    def test_faulted_run_is_deterministic_per_detector(self, name):
        faults = FaultConfig(
            packet_loss_rate=0.05,
            rtt_jitter_cycles=200.0,
        )
        kwargs = dict(TINY, detector=name, seed=47, faults=faults)
        first = run_metrics(**kwargs)
        assert first == run_metrics(**kwargs)
        # Faults actually engaged: the faulted run differs from clean.
        assert first != run_metrics(**dict(TINY, detector=name, seed=47))
