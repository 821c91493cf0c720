"""The None-over-empty rate contract, end to end.

An undefined rate (detection rate with no malicious beacons, FP rate
with no benign beacons) must surface as ``None`` — never be coerced to
0 — at every layer it crosses: the pipeline result, the flattened
metric dict, the Monte-Carlo aggregation, the distributed queue
backend's merged results, the sweeps and Figures 12-14, and finally the
arena report, which renders it as "n/a". Each layer gets its own regression test here so a
future "helpful" ``or 0.0`` anywhere on the path fails loudly.
"""

import pytest

from repro.core.pipeline import (
    PipelineConfig,
    PipelineResult,
    SecureLocalizationPipeline,
)
from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.arena import _fmt, arena_headlines, render_arena_markdown
from repro.experiments.montecarlo import run_trials
from repro.experiments.runner import (
    ExperimentRunner,
    PipelineExperiment,
    collect_metrics,
)
from repro.experiments.sweeps import sweep_config_field

#: Small, fast deployment with no malicious beacons at all.
NO_MALICIOUS = dict(
    n_total=120,
    n_beacons=16,
    n_malicious=0,
    field_width_ft=420.0,
    field_height_ft=420.0,
    rtt_calibration_samples=200,
    wormhole_endpoints=None,
)


class TestPipelineLayer:
    def test_zero_malicious_detection_rate_is_none(self):
        result = SecureLocalizationPipeline(
            PipelineConfig(seed=11, **NO_MALICIOUS)
        ).run()
        assert result.detection_rate is None
        assert result.false_positive_rate == 0.0

    def test_all_malicious_false_positive_rate_is_none(self):
        config = PipelineConfig(
            seed=12, **{**NO_MALICIOUS, "n_beacons": 8, "n_malicious": 8}
        )
        result = SecureLocalizationPipeline(config).run()
        assert result.false_positive_rate is None
        # With no benign beacon to detect anything, the defined rate is 0.
        assert result.detection_rate == 0.0


class TestMetricDictLayer:
    def test_collect_metrics_omits_undefined_rates(self):
        result = PipelineResult(
            detection_rate=None,
            false_positive_rate=None,
            affected_non_beacons_per_malicious=0.0,
            revoked_malicious=0,
            revoked_benign=0,
            alerts_accepted=0,
            alerts_rejected=0,
            probes_sent=5,
        )
        metrics = collect_metrics(result)
        assert "detection_rate" not in metrics
        assert "false_positive_rate" not in metrics
        assert metrics["probes_sent"] == 5.0

    def test_defined_zero_is_kept(self):
        result = PipelineResult(
            detection_rate=0.0,
            false_positive_rate=0.0,
            affected_non_beacons_per_malicious=0.0,
            revoked_malicious=0,
            revoked_benign=0,
            alerts_accepted=0,
            alerts_rejected=0,
            probes_sent=5,
        )
        metrics = collect_metrics(result)
        # A *defined* 0.0 rate is data, not absence.
        assert metrics["detection_rate"] == 0.0
        assert metrics["false_positive_rate"] == 0.0


class TestMonteCarloLayer:
    def test_absent_metric_never_enters_the_aggregate(self):
        summaries = run_trials(
            PipelineExperiment(overrides=NO_MALICIOUS),
            trials=2,
            base_seed=5,
        )
        assert "detection_rate" not in summaries
        assert summaries["false_positive_rate"].n == 2

    def test_partially_present_metric_aggregates_over_defined_trials(self):
        def experiment(seed):
            # Odd seeds produce trials where the rate is undefined.
            metrics = {"probes_sent": float(seed)}
            if seed % 2 == 0:
                metrics["detection_rate"] = 1.0
            return metrics

        summaries = run_trials(
            lambda seed: experiment(seed % 4), trials=8, base_seed=0
        )
        assert summaries["probes_sent"].n == 8
        # Only the defined trials feed the mean — no zero-bias.
        assert summaries["detection_rate"].n < 8
        assert summaries["detection_rate"].mean == 1.0

    def test_all_trials_failed_raises_instead_of_empty(self):
        def boom(seed):
            raise ValueError("nope")

        runner = ExperimentRunner(keep_going=True)
        with pytest.raises(ConfigurationError):
            run_trials(boom, trials=2, base_seed=0, runner=runner)


class TestQueueBackendLayer:
    def test_merged_queue_results_preserve_missing_keys(self, tmp_path):
        experiment = PipelineExperiment(overrides=NO_MALICIOUS)
        serial = run_trials(experiment, trials=3, base_seed=9)
        queued = run_trials(
            experiment,
            trials=3,
            base_seed=9,
            runner=ExperimentRunner(
                backend="queue", n_workers=2, queue_dir=tmp_path / "q"
            ),
        )
        assert "detection_rate" not in queued
        assert set(serial) == set(queued)
        for name in serial:
            assert serial[name].mean == queued[name].mean
            assert serial[name].half_width == queued[name].half_width


class TestSweepLayer:
    def test_undefined_rate_leaves_the_point_out(self):
        fig = sweep_config_field(
            "p_prime",
            [0.2, 0.5],
            metrics=("detection_rate", "false_positive_rate"),
            base=NO_MALICIOUS,
        )
        assert fig.series["detection_rate"].x == []
        assert fig.series["false_positive_rate"].x == [0.2, 0.5]

    def test_failed_trial_is_skipped_not_averaged(self):
        # max_events=1 stops the first trial with a budget error; the
        # keep_going runner leaves its slot None.
        runner = ExperimentRunner(keep_going=True)
        fig = sweep_config_field(
            "max_events",
            [1, 10**9],
            metrics=("false_positive_rate",),
            base=NO_MALICIOUS,
            runner=runner,
        )
        assert len(runner.stats.errors) == 1
        assert fig.series["false_positive_rate"].x == [10.0**9]


class TestFigureLayer:
    def test_undefined_rate_leaves_the_simulated_point_out(self):
        fig = figures.figure12_sim_detection_rate(
            p_grid=(0.2,), config_kwargs=NO_MALICIOUS
        )
        assert fig.series["simulation"].x == []
        assert fig.series["theory"].x == [0.2]

    def test_failed_trial_is_recorded_and_left_out(self):
        runner = ExperimentRunner(keep_going=True)
        fig = figures.figure13_sim_affected(
            p_grid=(0.2,),
            config_kwargs={**NO_MALICIOUS, "max_events": 1},
            runner=runner,
        )
        assert [e.error_type for e in runner.stats.errors] == [
            "BudgetExceededError"
        ]
        assert fig.series["simulation"].x == []
        assert fig.series["theory"].x == []

    def test_roc_point_needs_both_rates_defined(self, monkeypatch):
        # Stand-in trials: at tau=1 both fail, at tau=2 neither defines
        # a detection rate, at tau=3 only the seed-17 trial does.
        def fake_pipeline(config):
            if config.tau_alert == 1:
                raise RuntimeError("injected")
            if config.tau_alert == 2 or config.seed != 17:
                return {"false_positive_rate": 0.25}
            return {"detection_rate": 0.5, "false_positive_rate": 0.25}

        monkeypatch.setattr(
            "repro.experiments.runner.execute_pipeline", fake_pipeline
        )
        runner = ExperimentRunner(keep_going=True)
        fig = figures.figure14_roc(
            n_as=(5,), tau_reports=(2,), tau_alerts=(1, 2, 3), trials=2,
            runner=runner,
        )
        assert len(runner.stats.errors) == 2
        [series] = fig.series.values()
        assert (series.x, series.y) == ([0.25], [0.5])


class TestArenaReportLayer:
    ARENA = {
        "p_grid": [0.2],
        "trials": 1,
        "headline_p": 0.2,
        "detectors": {
            "paper": {
                "grid": {
                    "0.2": {
                        "detection_rate": None,
                        "false_positive_rate": 0.125,
                        "affected_non_beacons_per_malicious": 0.0,
                    }
                },
                "headline": {
                    "detection_rate": None,
                    "false_positive_rate": 0.125,
                    "affected_non_beacons_per_malicious": 0.0,
                },
                "decisions": 10,
            }
        },
    }

    def test_fmt_renders_none_as_na(self):
        assert _fmt(None) == "n/a"
        assert _fmt(0.0) == "0.000"

    def test_markdown_renders_undefined_cells_as_na(self):
        report = render_arena_markdown(self.ARENA)
        assert "| paper | n/a | 0.125 | 0.00 | 10 |" in report
        assert "| paper | n/a |" in report.split("## Detection rate vs P'")[1]

    def test_headlines_keep_none_not_zero(self):
        headline = arena_headlines(self.ARENA)["arena"]["paper"]
        assert headline["detection_rate"] is None
        assert headline["false_positive_rate"] == 0.125
