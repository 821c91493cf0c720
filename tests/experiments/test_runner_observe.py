"""Runner-level observability: merged registries, spans, errors, cache.

The headline property: the merged registry of a parallel run equals the
merged registry of a serial run *exactly* (JSON-identical), for any
worker count — wall-clock never leaks into the mergeable registry, and
``merge_snapshots`` is order-insensitive.
"""

import dataclasses
import json

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    cache_key,
)
from repro.errors import ConfigurationError
from repro.obs import ObserveConfig


def small_config(**overrides):
    """A scaled-down deployment that keeps tests fast."""
    defaults = dict(
        n_total=220,
        n_beacons=40,
        n_malicious=4,
        field_width_ft=500.0,
        field_height_ft=500.0,
        m_detecting_ids=4,
        rtt_calibration_samples=500,
        wormhole_endpoints=((50.0, 50.0), (400.0, 350.0)),
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


CONFIGS = [small_config(seed=seed) for seed in (5, 6, 7, 8)]
KEYS = [f"seed{seed}" for seed in (5, 6, 7, 8)]


class TestMergedRegistryParallelEqualsSerial:
    def test_two_workers_match_serial_exactly(self):
        serial = ExperimentRunner(n_workers=1, observe=True)
        serial_results = serial.run_pipeline_configs(CONFIGS, keys=KEYS)
        parallel = ExperimentRunner(n_workers=2, observe=ObserveConfig())
        parallel_results = parallel.run_pipeline_configs(CONFIGS, keys=KEYS)

        assert parallel_results == serial_results
        serial_merged = serial.stats.merged_registry()
        parallel_merged = parallel.stats.merged_registry()
        assert json.dumps(serial_merged, sort_keys=True) == json.dumps(
            parallel_merged, sort_keys=True
        )

    def test_merged_registry_sums_trials(self):
        runner = ExperimentRunner(observe=True)
        runner.run_pipeline_configs(CONFIGS[:2], keys=KEYS[:2])
        merged = runner.stats.merged_registry()

        total = 0
        for config in CONFIGS[:2]:
            pipeline = SecureLocalizationPipeline(
                dataclasses.replace(config, observe=ObserveConfig())
            )
            pipeline.run()
            total += pipeline.telemetry()["registry"]["counters"][
                "probes_sent_total"
            ]
        assert merged["counters"]["probes_sent_total"] == total

    def test_telemetry_entries_in_input_order(self):
        runner = ExperimentRunner(n_workers=2, observe=True)
        runner.run_pipeline_configs(CONFIGS, keys=KEYS)
        assert [t["key"] for t in runner.stats.telemetry] == KEYS
        assert [t["index"] for t in runner.stats.telemetry] == [0, 1, 2, 3]

    def test_run_spans_cover_every_task(self):
        runner = ExperimentRunner(observe=True)
        runner.run_pipeline_configs(CONFIGS[:2], keys=KEYS[:2])
        names = [span["name"] for span in runner.stats.run_spans]
        assert names == ["task:seed5", "task:seed6"]
        for span in runner.stats.run_spans:
            assert span["dur_wall_s"] >= 0.0
            assert span["attrs"]["ok"] is True


class TestUnobservedRunner:
    def test_no_telemetry_collected(self):
        runner = ExperimentRunner()
        results = runner.run_pipeline_configs(CONFIGS[:1], keys=KEYS[:1])
        assert results[0]
        assert runner.stats.telemetry == []
        assert runner.stats.run_spans == []
        assert runner.stats.merged_registry() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_observe_flag_validation(self):
        assert ExperimentRunner(observe=True).observe == ObserveConfig()
        assert ExperimentRunner(observe=False).observe is None
        with pytest.raises(ConfigurationError):
            ExperimentRunner(observe="yes")


class TestErrorPhaseAttribution:
    def test_trial_error_carries_active_span(self):
        # A tiny event budget blows up inside the detection phase.
        runner = ExperimentRunner(observe=True, keep_going=True)
        runner.run_pipeline_configs(
            [small_config(max_events=50)], keys=["budget"]
        )
        assert len(runner.stats.errors) == 1
        record = runner.stats.errors[0]
        assert record.error_type == "BudgetExceededError"
        assert record.phase == "phase:detection"
        assert record.to_dict()["phase"] == "phase:detection"

    def test_profile_tagging_is_the_unobserved_fallback(self):
        # Unobserved trials run the same phase spans (they are the
        # profile's timer), so the tag reads the same as observed.
        runner = ExperimentRunner(profile=True, keep_going=True)
        runner.run_pipeline_configs(
            [small_config(max_events=50)], keys=["budget"]
        )
        assert runner.stats.errors[0].phase == "phase:detection"


class TestCacheInteraction:
    def test_observe_not_part_of_cache_key(self):
        plain = small_config()
        observed = dataclasses.replace(plain, observe=ObserveConfig())
        assert cache_key(plain) == cache_key(observed)

    def test_seed_is_part_of_cache_key(self):
        assert cache_key(small_config(seed=5)) != cache_key(
            small_config(seed=6)
        )

    def test_telemetry_stored_as_entry_metadata(self, tmp_path):
        runner = ExperimentRunner(observe=True, cache_dir=tmp_path)
        results = runner.run_pipeline_configs(CONFIGS[:1], keys=KEYS[:1])
        key = cache_key(CONFIGS[0])
        entry = json.loads(ResultCache(tmp_path).path(key).read_text())
        assert "registry" in entry["telemetry"]
        assert (
            entry["telemetry"]["registry"]["counters"]["probes_sent_total"]
            > 0
        )

        # A fresh unobserved runner reads the same entry: metrics only.
        reader = ExperimentRunner(cache_dir=tmp_path)
        cached = reader.run_pipeline_configs(CONFIGS[:1], keys=KEYS[:1])
        assert cached == results
        assert reader.stats.cache_hits == 1
        assert reader.stats.telemetry == []
