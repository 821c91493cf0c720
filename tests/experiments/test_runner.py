"""Tests for the parallel experiment runner and its result cache.

Covers the determinism contract (parallel == serial, bit for bit), the
content-addressed cache (hit / miss / invalidation / corruption), the
timing hooks and progress callback, and a tiny end-to-end smoke workload
(``-m smoke``) that exercises 2 workers plus a temp cache dir inside the
tier-1 suite.
"""

import json

import pytest

import repro
from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.cli import main
from repro.experiments.montecarlo import run_trials, trial_seeds
from repro.experiments.runner import (
    PIPELINE_METRICS,
    ExperimentRunner,
    PipelineExperiment,
    ProgressEvent,
    ResultCache,
    RunStats,
    cache_key,
)
from repro.experiments.series import FigureData
from repro.experiments.sweeps import sweep_config_field
from repro.sim.rng import derive_seed

#: Small enough for sub-second pipeline runs; still a real deployment.
SMALL = dict(
    n_total=120,
    n_beacons=20,
    n_malicious=2,
    field_width_ft=400.0,
    field_height_ft=400.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
    wormhole_endpoints=None,
)

SMALL_CONFIG = PipelineConfig(seed=5, **SMALL)


def _double(x):
    """Module-level (hence picklable) toy task."""
    return 2 * x


class TestRunnerBasics:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(n_workers=0)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(n_workers=-2)

    def test_map_preserves_order_serial(self):
        runner = ExperimentRunner()
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert runner.stats.executed == 3

    def test_map_preserves_order_parallel(self):
        runner = ExperimentRunner(n_workers=2)
        assert runner.map(_double, list(range(7))) == [2 * i for i in range(7)]
        assert runner.stats.executed == 7

    def test_key_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner().map(_double, [1, 2], keys=["only-one"])

    def test_progress_and_timing_hooks(self):
        events = []
        runner = ExperimentRunner(progress=events.append)
        runner.map(_double, [1, 2], keys=["a", "b"])
        assert [e.key for e in events] == ["a", "b"]
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert events[-1].done == events[-1].total == 2
        assert not any(e.cached for e in events)
        assert set(runner.stats.task_seconds) == {"a", "b"}
        assert runner.stats.total_seconds >= 0.0


class TestCacheKey:
    def test_stable_for_equal_configs(self):
        assert cache_key(SMALL_CONFIG) == cache_key(PipelineConfig(seed=5, **SMALL))

    def test_changes_with_config_and_seed(self):
        base = cache_key(SMALL_CONFIG)
        assert base != cache_key(PipelineConfig(seed=6, **SMALL))
        assert base != cache_key(
            PipelineConfig(seed=5, **{**SMALL, "p_prime": 0.7})
        )

    def test_changes_with_code_version(self, monkeypatch):
        before = cache_key(SMALL_CONFIG)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache_key(SMALL_CONFIG) != before


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"detection_rate": 0.5}, config=SMALL_CONFIG)
        assert cache.get("k") == {"detection_rate": 0.5}

    def test_missing_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_corrupted_file_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1.0})
        cache.path("k").write_text("{not json")
        assert cache.get("k") is None
        cache.path("k").write_text(json.dumps({"schema": 999, "metrics": {}}))
        assert cache.get("k") is None
        cache.path("k").write_text(json.dumps({"schema": 1, "metrics": {"x": "NaN?"}}))
        assert cache.get("k") is None


class TestPipelineCaching:
    def test_hit_miss_and_invalidation(self, tmp_path):
        cold = ExperimentRunner(cache_dir=tmp_path)
        first = cold.run_pipeline_configs([SMALL_CONFIG])
        assert cold.stats.executed == 1
        assert cold.stats.cache_misses == 1 and cold.stats.cache_hits == 0
        assert set(first[0]) == set(PIPELINE_METRICS)

        warm = ExperimentRunner(cache_dir=tmp_path)
        second = warm.run_pipeline_configs([SMALL_CONFIG])
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
        assert second == first

        # A config change is a different content address: recompute.
        changed = ExperimentRunner(cache_dir=tmp_path)
        changed.run_pipeline_configs(
            [PipelineConfig(seed=5, **{**SMALL, "p_prime": 0.8})]
        )
        assert changed.stats.executed == 1 and changed.stats.cache_hits == 0

    def test_corrupted_entry_recomputes(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = runner.run_pipeline_configs([SMALL_CONFIG])
        runner.cache.path(cache_key(SMALL_CONFIG)).write_text("garbage")
        again = ExperimentRunner(cache_dir=tmp_path)
        second = again.run_pipeline_configs([SMALL_CONFIG])
        assert again.stats.executed == 1  # fell back to recompute
        assert second == first  # and rewrote a valid entry
        assert ExperimentRunner(cache_dir=tmp_path).run_pipeline_configs(
            [SMALL_CONFIG]
        ) == first

    def test_cached_progress_event(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run_pipeline_configs([SMALL_CONFIG])
        events = []
        runner = ExperimentRunner(cache_dir=tmp_path, progress=events.append)
        runner.run_pipeline_configs([SMALL_CONFIG], keys=["point"])
        assert events[0].cached and events[0].key == "point"


class TestParallelDeterminism:
    """The acceptance bar: parallel output is bit-identical to serial."""

    def test_sweep_parallel_equals_serial(self):
        serial = sweep_config_field(
            "p_prime", (0.2, 0.8), base=SMALL, trials=2, base_seed=7
        )
        parallel = sweep_config_field(
            "p_prime", (0.2, 0.8), base=SMALL, trials=2, base_seed=7,
            runner=ExperimentRunner(n_workers=2),
        )
        for label in serial.series:
            assert serial.series[label].x == parallel.series[label].x
            assert serial.series[label].y == parallel.series[label].y

    def test_run_trials_parallel_equals_serial(self):
        experiment = PipelineExperiment(overrides=SMALL)
        serial = run_trials(experiment, trials=3, base_seed=9)
        parallel = run_trials(
            experiment, trials=3, base_seed=9,
            runner=ExperimentRunner(n_workers=2),
        )
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].mean == parallel[name].mean
            assert serial[name].half_width == parallel[name].half_width

    def test_trial_seed_derivation_unchanged(self):
        # The exact historical formula — the cache and the parallel path
        # both depend on it never drifting silently.
        assert trial_seeds(3, base_seed=4) == [
            derive_seed(4, f"trial:{t}") % (2**31) for t in range(3)
        ]


class TestFigureDataJson:
    def test_roundtrip(self):
        fig = FigureData(
            figure_id="f", title="t", x_label="x", y_label="y", notes="n"
        )
        fig.new_series("a").append(1, 2)
        fig.new_series("b").append(3, 4)
        back = FigureData.from_dict(json.loads(json.dumps(fig.to_dict())))
        assert back.figure_id == "f" and back.notes == "n"
        assert back.series["a"].points() == [(1.0, 2.0)]
        assert back.series["b"].points() == [(3.0, 4.0)]

    def test_duplicate_labels_rejected(self):
        data = {
            "figure_id": "f",
            "series": [{"label": "a", "x": [], "y": []}] * 2,
        }
        with pytest.raises(ValueError):
            FigureData.from_dict(data)


class TestCliFlags:
    def test_workers_and_json_flags(self, tmp_path, capsys):
        code = main(
            [
                "figure05",
                "--quiet",
                "--workers",
                "2",
                "--out",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "figure05.json").read_text())
        assert payload["figure_id"] == "figure05"
        assert {s["label"] for s in payload["series"]} >= {"m=1", "m=8"}

    def test_workers_zero_means_cpu_count(self):
        import os

        from repro.experiments.cli import build_parser, make_runner

        args = build_parser().parse_args(["figure05", "--workers", "0"])
        assert make_runner(args).n_workers == (os.cpu_count() or 1)


class TestProfiledRuns:
    def test_profiles_collected_per_executed_trial(self):
        runner = ExperimentRunner(profile=True)
        results = runner.run_pipeline_configs([SMALL_CONFIG], keys=["t"])
        assert set(results[0]) == set(PIPELINE_METRICS)
        assert len(runner.stats.profiles) == 1
        summary = runner.stats.profile_summary()
        assert summary["trials"] == 1
        # Every pipeline phase was timed, and the hot-path counters moved.
        for phase in ("build", "detection", "localization", "metrics"):
            assert phase in summary["phases"]
        assert summary["counters"]["probes"] == int(results[0]["probes_sent"])
        assert summary["counters"]["distance_evals"] > 0
        assert summary["counters"]["deliveries"] > 0
        assert summary["counters"]["spatial_queries"] > 0

    def test_profiling_leaves_metrics_bit_identical(self):
        plain = ExperimentRunner().run_pipeline_configs([SMALL_CONFIG])
        profiled = ExperimentRunner(profile=True).run_pipeline_configs(
            [SMALL_CONFIG]
        )
        assert plain == profiled

    def test_cache_hits_contribute_no_profiles(self, tmp_path):
        cold = ExperimentRunner(profile=True, cache_dir=tmp_path)
        first = cold.run_pipeline_configs([SMALL_CONFIG])
        assert len(cold.stats.profiles) == 1
        warm = ExperimentRunner(profile=True, cache_dir=tmp_path)
        second = warm.run_pipeline_configs([SMALL_CONFIG])
        assert warm.stats.executed == 0
        assert warm.stats.profiles == []
        assert warm.stats.profile_summary()["trials"] == 0
        assert second == first

    @pytest.mark.parametrize("backend", ["pool", "queue"])
    def test_profiled_parallel_matches_serial(self, backend, tmp_path):
        serial = ExperimentRunner(profile=True)
        configs = [
            SMALL_CONFIG,
            PipelineConfig(seed=6, **SMALL),
        ]
        with ExperimentRunner(
            profile=True, n_workers=2, backend=backend, queue_dir=tmp_path
        ) as parallel:
            assert serial.run_pipeline_configs(configs) == (
                parallel.run_pipeline_configs(configs)
            )
        merged = parallel.stats.profile_summary()
        assert merged["trials"] == 2
        assert merged["counters"] == serial.stats.profile_summary()["counters"]
        assert set(merged["phases"]) == {
            "build", "collusion", "detection", "notices", "localization", "metrics"
        }


class TestProfileSummary:
    def test_empty(self):
        assert RunStats().profile_summary() == {
            "trials": 0,
            "phases": {},
            "counters": {},
        }

    def test_sums_phases_and_counters(self):
        stats = RunStats(
            profiles=[
                {"phases": {"build": 1.0, "detection": 2.0}, "counters": {"probes": 3}},
                {"phases": {"build": 0.5}, "counters": {"probes": 4, "deliveries": 1}},
            ]
        )
        assert stats.profile_summary() == {
            "trials": 2,
            "phases": {"build": 1.5, "detection": 2.0},
            "counters": {"probes": 7, "deliveries": 1},
        }


@pytest.mark.smoke
def test_smoke_parallel_figure_end_to_end(tmp_path):
    """One tiny figure benchmark, 2 workers, temp cache dir, end to end."""
    runner = ExperimentRunner(n_workers=2, cache_dir=tmp_path / "cache")
    kwargs = dict(
        p_grid=(0.2,),
        trials=2,
        config_kwargs=dict(SMALL),
    )
    fig = figures.figure12_sim_detection_rate(runner=runner, **kwargs)
    assert runner.stats.executed == 2
    assert set(fig.series) == {"simulation", "theory"}

    warm = ExperimentRunner(n_workers=2, cache_dir=tmp_path / "cache")
    again = figures.figure12_sim_detection_rate(runner=warm, **kwargs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 2
    assert again.series["simulation"].y == fig.series["simulation"].y
