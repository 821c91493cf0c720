"""Graceful degradation of the experiment runner under task failures."""

import json

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.montecarlo import run_trials
from repro.experiments.runner import ExperimentRunner, TrialError


def flaky_task(x):
    """Module-level (picklable) task that fails on one input."""
    if x == 2:
        raise ValueError(f"injected failure at {x}")
    return x * 10


def flaky_experiment(seed):
    """Picklable experiment failing on even trial seeds."""
    if seed % 2 == 0:
        raise RuntimeError("injected failure on even seed")
    return {"metric": float(seed)}


class TestFailFast:
    def test_default_raises_with_worker_context(self):
        runner = ExperimentRunner()
        with pytest.raises(ExperimentError) as excinfo:
            runner.map(flaky_task, [1, 2, 3])
        text = str(excinfo.value)
        assert "ValueError" in text
        assert "injected failure at 2" in text
        assert "worker traceback" in text

    def test_parallel_also_raises(self):
        runner = ExperimentRunner(n_workers=2)
        with pytest.raises(ExperimentError):
            runner.map(flaky_task, [1, 2, 3, 4])


class TestKeepGoing:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failure_mid_sweep_keeps_other_trials(self, n_workers):
        runner = ExperimentRunner(n_workers=n_workers, keep_going=True)
        results = runner.map(flaky_task, [1, 2, 3, 4])
        # The failed slot degrades to None; every other trial completed.
        assert results == [10, None, 30, 40]
        assert runner.stats.failed == 1
        [record] = runner.stats.errors
        assert isinstance(record, TrialError)
        assert record.index == 1
        assert record.key == "task:1"
        assert record.error_type == "ValueError"
        assert "injected failure at 2" in record.message
        assert "flaky_task" in record.traceback_text
        assert record.attempts == 1

    def test_error_record_serializes(self):
        runner = ExperimentRunner(keep_going=True)
        runner.map(flaky_task, [2])
        payload = json.dumps([e.to_dict() for e in runner.stats.errors])
        assert "injected failure" in payload

    def test_progress_reports_failure(self):
        events = []
        runner = ExperimentRunner(keep_going=True, progress=events.append)
        runner.map(flaky_task, [1, 2])
        assert [e.ok for e in events] == [True, False]


class TestRunTrialsDegradation:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_partial_aggregation(self, n_workers):
        runner = ExperimentRunner(n_workers=n_workers, keep_going=True)
        summaries = run_trials(
            flaky_experiment, trials=8, base_seed=1, runner=runner
        )
        failed = runner.stats.failed
        assert 0 < failed < 8
        assert summaries["metric"].n == 8 - failed

    def test_all_failed_raises(self):
        runner = ExperimentRunner(keep_going=True)
        with pytest.raises(ConfigurationError, match="failed"):
            run_trials(
                lambda seed: (_ for _ in ()).throw(RuntimeError("always")),
                trials=2,
                runner=runner,
            )


class TestKeepGoingCaching:
    def test_failed_pipeline_tasks_not_cached(self, tmp_path):
        # An impossible budget makes every pipeline raise; nothing may be
        # written back as a cached "result".
        from repro.core.pipeline import PipelineConfig

        config = PipelineConfig(
            n_total=60,
            n_beacons=12,
            n_malicious=2,
            rtt_calibration_samples=200,
            wormhole_endpoints=None,
            max_events=1,
        )
        runner = ExperimentRunner(keep_going=True, cache_dir=tmp_path)
        results = runner.run_pipeline_configs([config])
        assert results == [None]
        assert runner.stats.failed == 1
        assert runner.stats.errors[0].error_type == "BudgetExceededError"
        assert list(tmp_path.glob("*.json")) == []
