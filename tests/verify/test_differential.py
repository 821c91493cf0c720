"""Differential conformance: production must match the oracles.

CI runs the full 1000-scenario sweep through ``repro-verify``; here a
smaller seeded slice keeps the unit suite fast while still exercising
every component and the divergence-reporting plumbing.
"""

import math

import pytest

from repro.detectors import available_detectors
from repro.verify import (
    DifferentialReport,
    differential_base_station,
    differential_cascade,
    differential_pipeline_axes,
    differential_rtt_window,
    differential_signal_check,
    differential_vectorized_core,
    run_differential_suite,
)

SCENARIOS = 150


class TestComponents:
    @pytest.mark.parametrize(
        "component",
        [
            differential_signal_check,
            differential_cascade,
            differential_rtt_window,
            differential_base_station,
        ],
    )
    def test_no_divergences(self, component):
        report = component(SCENARIOS, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)
        assert report.scenarios == SCENARIOS

    @pytest.mark.parametrize(
        "component",
        [differential_signal_check, differential_base_station],
    )
    def test_seed_changes_scenarios_not_verdict(self, component):
        assert component(40, seed=1).ok
        assert component(40, seed=2).ok


@pytest.mark.slow
class TestPipelineAxes:
    def test_axes_bit_identical(self):
        report = differential_pipeline_axes(2, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)


@pytest.mark.slow
class TestVectorizedCore:
    def test_scalar_vs_vectorized_bit_identical(self):
        report = differential_vectorized_core(2, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)

    def test_every_registered_detector_is_compared(self, monkeypatch):
        from repro.core.pipeline import SecureLocalizationPipeline

        runs = []
        original = SecureLocalizationPipeline.run

        def spy(pipeline):
            config = pipeline.config
            runs.append((config.seed, config.detector, config.use_vectorized_core))
            return original(pipeline)

        monkeypatch.setattr(SecureLocalizationPipeline, "run", spy)
        assert differential_vectorized_core(1, seed=0).ok
        # One deployment and seed, both cores, every detector.
        assert len({seed for seed, _, _ in runs}) == 1
        assert [(name, core) for _, name, core in runs] == [
            (name, core)
            for name in available_detectors()
            for core in (False, True)
        ]

    def test_one_ulp_on_the_batch_core_is_reported(self, monkeypatch):
        # Non-vacuity: the scalar side must really be the scalar oracle.
        # Were it the default core, both sides would share the nudge.
        import repro.vec.localization as vec_localization

        batched = vec_localization.batched_estimate_errors

        def nudged(agents, references):
            return [
                math.nextafter(e, math.inf) for e in batched(agents, references)
            ]

        monkeypatch.setattr(vec_localization, "batched_estimate_errors", nudged)
        report = differential_vectorized_core(1, seed=0)
        # One divergence per detector, each naming it.
        assert [d.detail.split(":")[0] for d in report.divergences] == [
            f"detector={name}" for name in available_detectors()
        ]
        assert all(
            "localization_errors_ft" in d.detail for d in report.divergences
        )

    def test_scenario_the_batch_core_refuses_is_reported(self, monkeypatch):
        # Non-vacuity: a refused config would run the oracle twice.
        import repro.vec

        monkeypatch.setattr(
            repro.vec, "vectorized_core_supported", lambda config: False
        )
        report = differential_vectorized_core(1, seed=0)
        assert len(report.divergences) == len(available_detectors())
        assert all("refuses" in d.detail for d in report.divergences)


class TestReport:
    def test_summary_counts_divergences(self):
        report = DifferentialReport("demo", 5)
        assert report.ok
        assert "OK" in report.summary()

    def test_full_suite_shape(self):
        reports = run_differential_suite(
            10, seed=0, axes_scenarios=0, vec_scenarios=0
        )
        assert [r.component for r in reports] == [
            "signal_check",
            "cascade",
            "rtt_window",
            "base_station",
            "pipeline_axes",
            "vectorized_core",
        ]
        assert all(r.ok for r in reports)
