"""The batch core is the default path; the scalar core is the oracle.

``PipelineConfig()`` runs through :mod:`repro.vec.turbo` for every
registered detector and every fault, and the two configurations
outside the batch envelope (flooded revocation, event budgets) fall
back to the scalar event loop with the switch still on. Only ``use_vectorized_core=False`` selects
the scalar oracle on purpose.
"""

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.detectors import available_detectors
from repro.obs import ObserveConfig

SMALL = dict(
    n_total=130,
    n_beacons=20,
    n_malicious=3,
    field_width_ft=420.0,
    field_height_ft=420.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
    wormhole_endpoints=((60.0, 60.0), (330.0, 300.0)),
    seed=5,
)

#: Every batch-path counter a default trial bumps.
TURBO_VEC_COUNTERS = {
    "vec_calibration_rtts",
    "vec_deliveries",
    "vec_noise_batched",
    "vec_rtt_batched",
    "vec_waves",
}


def _vec_counters(pipeline):
    counters = pipeline.profile_snapshot()["counters"]
    return {name for name in counters if name.startswith("vec_")}


def test_default_config_selects_the_batch_core():
    assert PipelineConfig().use_vectorized_core is True


def _spy_turbo(monkeypatch):
    """Record each turbo phase entry point the pipeline calls."""
    import repro.vec.turbo as turbo

    calls = []
    for name in ("run_detection_turbo", "run_localization_turbo"):
        original = getattr(turbo, name)

        def spy(pipeline, _name=name, _original=original):
            calls.append(_name)
            return _original(pipeline)

        monkeypatch.setattr(turbo, name, spy)
    return calls


def test_default_trial_runs_the_turbo_tier(monkeypatch):
    import repro.vec.turbo as turbo

    calls = _spy_turbo(monkeypatch)
    built = []

    class CountedField(turbo._Field):
        def __init__(self, network):
            built.append(network)
            super().__init__(network)

    monkeypatch.setattr(turbo, "_Field", CountedField)
    pipeline = SecureLocalizationPipeline(
        PipelineConfig(observe=ObserveConfig(), **SMALL)
    )
    pipeline.run()
    assert pipeline._vectorized_active()
    assert calls == ["run_detection_turbo", "run_localization_turbo"]
    # Detection, localization and the N' count share one field.
    assert built == [pipeline.network]
    assert _vec_counters(pipeline) == TURBO_VEC_COUNTERS
    counters = pipeline.obs.registry.snapshot()["counters"]
    assert {key for key in counters if key.startswith("vec_batch_total")} == {
        f'vec_batch_total{{kind="{name[len("vec_"):]}"}}'
        for name in TURBO_VEC_COUNTERS
    }


@pytest.mark.parametrize("detector", available_detectors())
def test_every_detector_runs_the_turbo_tier(monkeypatch, detector):
    calls = _spy_turbo(monkeypatch)
    pipeline = SecureLocalizationPipeline(
        PipelineConfig(detector=detector, **SMALL)
    )
    pipeline.run()
    assert pipeline._vectorized_active()
    assert calls == ["run_detection_turbo", "run_localization_turbo"]
    # Every benign beacon recorded its probe verdicts.
    assert all(beacon.probe_outcomes for beacon in pipeline.benign_beacons)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(revocation_dissemination="flood"),
        dict(max_events=10**9),
    ],
    ids=["flood", "max-events"],
)
def test_configs_outside_the_envelope_fall_back_to_scalar(overrides):
    config = PipelineConfig(**SMALL, **overrides)
    assert config.use_vectorized_core
    pipeline = SecureLocalizationPipeline(config)
    pipeline.run()
    assert not pipeline._vectorized_active()
    assert _vec_counters(pipeline) == set()
    # The scalar event loop did the work.
    assert pipeline.engine.events_processed > 0
