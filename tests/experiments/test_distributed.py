"""Tests for the distributed file-queue execution backend.

The acceptance bar mirrors the pool backend's: queue results are
bit-identical to serial for any worker count, in input order, including
after an injected worker crash under ``keep_going`` — with the crashed
task re-queued exactly once and never double-counted in the merged
telemetry. Also covers the shared result store (atomic concurrent
writers) and the standalone-worker CLI plumbing.
"""

import json
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.distributed import (
    CRASH_EXIT_CODE,
    MAX_REQUEUES,
    WORKER_LOST_ERROR,
    _b64_pickle,
    _b64_unpickle,
    _QueueLayout,
    _try_claim,
    allocate_run_dir,
)
from repro.experiments.runner import ExperimentRunner, ResultCache, cache_key

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

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


def _square(x):
    """Module-level (hence picklable) toy task."""
    return x * x


def _boom(x):
    """Toy task that fails on one specific payload."""
    if x == 2:
        raise ValueError("boom")
    return x * x


def _exit_on_two(x):
    """Toy task that kills the process running it on one payload."""
    if x == 2:
        os._exit(3)
    return x * x


#: Coordinates one keep-going queue run of ``_exit_on_two`` and prints
#: the results and error records as JSON.
_KILLER_COORDINATOR = """
import json, sys
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import _exit_on_two

runner = ExperimentRunner(
    backend="queue", n_workers=int(sys.argv[1]), queue_dir=sys.argv[2],
    keep_going=True,
)
results = runner.map(_exit_on_two, [1, 2, 3])
errors = [[e.index, e.error_type, e.attempts] for e in runner.stats.errors]
print(json.dumps({"results": results, "errors": errors}))
"""


def _cache_writer(args):
    """One concurrent-writer process: hammer the same cache key."""
    root, key, value, rounds = args
    cache = ResultCache(root)
    for _ in range(rounds):
        cache.put(key, value)
    return True


class TestConfigValidation:
    def test_backend_and_lease_timeout_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(backend="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            ExperimentRunner(backend="queue", lease_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(backend="queue", lease_timeout_s=-1)

    def test_pickle_roundtrip_helpers(self):
        payload = {"config": PipelineConfig(seed=1, **SMALL), "n": 3}
        assert _b64_unpickle(_b64_pickle(payload)) == payload


class TestQueueIdentity:
    """Queue output is bit-identical to serial for any worker count."""

    PAYLOADS = [7, 1, 5, 3, 9, 2]

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_map_matches_serial_in_input_order(self, tmp_path, n_workers):
        serial = ExperimentRunner().map(_square, self.PAYLOADS)
        runner = ExperimentRunner(
            backend="queue", n_workers=n_workers, queue_dir=tmp_path
        )
        assert runner.map(_square, self.PAYLOADS) == serial
        assert serial == [_square(p) for p in self.PAYLOADS]
        assert runner.stats.executed == len(self.PAYLOADS)
        # Every claim became exactly one completion across the fleet.
        counters = runner.stats.worker_registry()["counters"]
        completed = sum(
            v
            for k, v in counters.items()
            if k.startswith("queue_worker_completed_total")
        )
        assert completed == len(self.PAYLOADS)

    def test_pipeline_trials_match_serial(self, tmp_path):
        configs = [PipelineConfig(seed=s, **SMALL) for s in (5, 6, 7)]
        serial = ExperimentRunner().run_pipeline_configs(configs)
        runner = ExperimentRunner(
            backend="queue", n_workers=2, queue_dir=tmp_path
        )
        assert runner.run_pipeline_configs(configs) == serial
        assert runner.stats.executed == 3
        assert runner.stats.requeues == 0
        assert len(runner.stats.worker_snapshots) >= 1

    def test_task_failure_keep_going_matches_pool_semantics(self, tmp_path):
        runner = ExperimentRunner(
            backend="queue", n_workers=2, queue_dir=tmp_path, keep_going=True
        )
        results = runner.map(_boom, [1, 2, 3])
        assert results == [1, None, 9]
        assert [e.error_type for e in runner.stats.errors] == ["ValueError"]
        assert runner.stats.errors[0].index == 1


class TestQueueFailureModel:
    """Crash injection: the lost trial is re-queued, results unchanged."""

    def test_killed_worker_trial_requeued_exactly_once(self, tmp_path):
        configs = [PipelineConfig(seed=s, **SMALL) for s in (11, 12, 13, 14)]
        serial = ExperimentRunner(observe=True)
        expected = serial.run_pipeline_configs(configs)

        runner = ExperimentRunner(
            backend="queue",
            n_workers=2,
            queue_dir=tmp_path,
            keep_going=True,
            observe=True,
            lease_timeout_s=20.0,
            queue_crash_after={0: 1},  # worker w0 dies on its first claim
        )
        assert runner.run_pipeline_configs(configs) == expected
        assert runner.stats.requeues == 1
        assert runner.stats.errors == []
        # No double-count anywhere: per-trial telemetry merged across the
        # fleet is bit-identical to the serial runner's.
        assert runner.stats.merged_registry() == serial.stats.merged_registry()
        # And the fleet completed each task exactly once, despite the
        # crashed claim.
        counters = runner.stats.worker_registry()["counters"]
        completed = sum(
            v
            for k, v in counters.items()
            if k.startswith("queue_worker_completed_total")
        )
        assert completed == len(configs)
        # The crashed worker's subprocess really died with the injected
        # exit code (its summary never appeared; a replacement or the
        # surviving worker drained its shard).
        run_dir = next(tmp_path.glob("run-*"))
        assert not (run_dir / "workers" / "w0.json").exists()
        assert CRASH_EXIT_CODE == 17

    def test_all_workers_dead_still_terminates(self, tmp_path):
        # The only spawned worker crashes immediately; the coordinator
        # must field a replacement (or run inline) and still finish with
        # correct results rather than hang.
        runner = ExperimentRunner(
            backend="queue",
            n_workers=1,
            queue_dir=tmp_path,
            keep_going=True,
            queue_crash_after={0: 1},
        )
        assert runner.map(_square, [4, 6]) == [16, 36]
        assert runner.stats.requeues >= 1
        assert runner.stats.errors == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_worker_killing_task_settles_as_worker_lost(self, tmp_path, n_workers):
        # The coordinator runs in a child process: were it to run the
        # task itself, the task would kill the test process.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        child = subprocess.run(
            [sys.executable, "-c", _KILLER_COORDINATOR, str(n_workers), str(tmp_path)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        report = json.loads(child.stdout)
        assert report["results"] == [1, None, 9]
        # One death per claim of the task, until its re-queues run out.
        assert report["errors"] == [[1, WORKER_LOST_ERROR, MAX_REQUEUES + 1]]

    def test_workers_that_cannot_start_settle_as_worker_lost(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import distributed

        monkeypatch.setattr(
            distributed,
            "_worker_command",
            lambda *args: [sys.executable, "-c", "raise SystemExit(1)"],
        )
        runner = ExperimentRunner(
            backend="queue", n_workers=1, queue_dir=tmp_path, keep_going=True
        )
        assert runner.map(_square, [4, 6]) == [None, None]
        errors = runner.stats.errors
        assert [e.error_type for e in errors] == [WORKER_LOST_ERROR] * 2
        assert all("respawn budget" in e.message for e in errors)
        fail_fast = ExperimentRunner(
            backend="queue", n_workers=1, queue_dir=tmp_path
        )
        with pytest.raises(ExperimentError, match="respawn budget"):
            fail_fast.map(_square, [4])

    def test_exhausted_requeues_synthesize_worker_lost_error(self):
        from repro.experiments.distributed import _synthesize_lost

        ok, value, seconds, attempts = _synthesize_lost("task:3", MAX_REQUEUES + 1)
        assert not ok
        error_type, message, traceback_text, phase = value
        assert error_type == WORKER_LOST_ERROR
        assert str(MAX_REQUEUES) in message and "task:3" in traceback_text
        assert attempts == MAX_REQUEUES + 1 and phase == ""


class TestQueueSharedStore:
    """The cache as a multi-writer shared result store."""

    def test_queue_populates_shared_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        configs = [PipelineConfig(seed=s, **SMALL) for s in (21, 22)]
        runner = ExperimentRunner(
            backend="queue",
            n_workers=2,
            queue_dir=tmp_path / "queue",
            cache_dir=cache_dir,
        )
        first = runner.run_pipeline_configs(configs)
        assert runner.stats.cache_misses == 2

        warm = ExperimentRunner(cache_dir=cache_dir)
        assert warm.run_pipeline_configs(configs) == first
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 2

    def test_concurrent_writers_leave_a_valid_entry(self, tmp_path):
        # Regression: pre-atomic-rename puts could interleave two
        # writers' tmp files and leave a torn entry. Hammer one key from
        # several processes and require a clean, correct read afterward.
        value = {"detection_rate": 0.25, "probes_sent": 40.0}
        ctx = multiprocessing.get_context("spawn")
        args = [(str(tmp_path), "shared", value, 25)] * 4
        with ctx.Pool(4) as pool:
            assert all(pool.map(_cache_writer, args))
        cache = ResultCache(tmp_path)
        assert cache.get("shared") == value
        entry = json.loads(cache.path("shared").read_text())
        assert entry["metrics"] == value
        # No tmp droppings survive the renames.
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_put_failure_cleans_up_tmp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            cache.put("k", {"x": 1.0})
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert cache.get("k") is None


class TestQueueProtocol:
    """Low-level protocol pieces: run allocation and lease claims."""

    def test_allocate_run_dir_is_collision_free(self, tmp_path):
        first = allocate_run_dir(tmp_path)
        second = allocate_run_dir(tmp_path)
        assert first != second
        assert first.name.startswith("run-") and second.name.startswith("run-")

    def test_try_claim_single_winner(self, tmp_path):
        layout = _QueueLayout(tmp_path)
        layout.create()
        assert _try_claim(layout, "000001", "w0")
        assert not _try_claim(layout, "000001", "w1")
        owner = json.loads(layout.lease_path("000001").read_text())
        assert owner["worker"] == "w0" and owner["pid"] == os.getpid()

    def test_manifest_payloads_pickle_roundtrip(self):
        config = PipelineConfig(seed=3, **SMALL)
        assert pickle.loads(pickle.dumps(config)) == config
        assert cache_key(config) == cache_key(PipelineConfig(seed=3, **SMALL))


class TestWorkerCli:
    def test_runner_cli_accepts_queue_flags(self):
        from repro.experiments.cli import build_parser, make_runner

        args = build_parser().parse_args(
            [
                "figure05",
                "--backend",
                "queue",
                "--workers",
                "3",
                "--queue-dir",
                "/tmp/q",
                "--lease-timeout",
                "12.5",
            ]
        )
        runner = make_runner(args)
        assert runner.backend == "queue"
        assert runner.n_workers == 3
        assert str(runner.queue_dir) == "/tmp/q"
        assert runner.lease_timeout_s == 12.5

    def test_worker_mode_requires_no_target(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["--worker", "/tmp/q", "--once"])
        assert str(args.worker) == "/tmp/q" and args.target is None
