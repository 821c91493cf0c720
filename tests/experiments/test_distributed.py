"""Tests for the distributed file-queue execution backend.

The acceptance bar mirrors the pool backend's: queue results are
bit-identical to serial for any worker count, in input order, including
after an injected worker crash under ``keep_going`` — with the crashed
task re-queued exactly once and never double-counted in the merged
telemetry. Also covers the worker fleet's lifetime (reused across runs,
gone after ``close()``, garbage collection or a killed coordinator),
standalone workers (``--once``, and leaving a killed coordinator's run),
the claim order, the shared result store (atomic concurrent writers) and
the worker CLI plumbing.
"""

import gc
import json
import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.distributed import (
    CRASH_EXIT_CODE,
    MAX_REQUEUES,
    WORKER_LOST_ERROR,
    _atomic_write_json,
    _b64_pickle,
    _b64_unpickle,
    _QueueLayout,
    _try_claim,
    allocate_run_dir,
)
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    _InstrumentedTask,
    cache_key,
)
from repro.obs import ObserveConfig, merge_snapshots

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Environment for child interpreters that import this module.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
)

#: A fleet member that never claims: only a standalone worker can serve
#: the runs of a runner whose ``_worker_command`` returns this.
IDLE_MEMBER = [sys.executable, "-c", "import sys; sys.stdin.read()"]

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


def _slow_boom(x):
    """Fails at once on payload 2; every other payload takes 0.2 s."""
    if x == 2:
        raise ValueError("boom")
    time.sleep(0.2)
    return x * x


def _exit_on_two(x):
    """Toy task that kills the process running it on one payload."""
    if x == 2:
        os._exit(3)
    return x * x


def _nap(seconds):
    """Toy task that sleeps for its payload."""
    time.sleep(seconds)
    return seconds


def _alive(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    if not os.path.isdir("/proc/self"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _still_alive(pids, timeout_s=5.0):
    """The pids that are still alive after up to ``timeout_s`` seconds."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


@dataclass(frozen=True)
class _AfterExit:
    """Runs ``task`` once process ``pid`` has exited (picklable)."""

    pid: int
    task: Callable[[Any], Any]

    def __call__(self, payload):
        while _alive(self.pid):
            time.sleep(0.005)
        return self.task(payload)


#: Coordinates one keep-going queue run of ``_exit_on_two`` and prints
#: the results and error records as JSON.
_KILLER_COORDINATOR = """
import json, sys
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import _exit_on_two

with ExperimentRunner(
    backend="queue", n_workers=int(sys.argv[1]), queue_dir=sys.argv[2],
    keep_going=True,
) as runner:
    results = runner.map(_exit_on_two, [1, 2, 3])
errors = [[e.index, e.error_type, e.attempts] for e in runner.stats.errors]
print(json.dumps({"results": results, "errors": errors}))
"""

#: Runs one queue run, prints its fleet's pids, then idles until killed.
_IDLE_COORDINATOR = """
import json, sys, time
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import _square

with ExperimentRunner(
    backend="queue", n_workers=2, queue_dir=sys.argv[1]
) as runner:
    runner.map(_square, [1, 2, 3])
    fleet = runner._queue_fleet()
    print(json.dumps([proc.pid for _, proc in fleet.members]), flush=True)
    time.sleep(120)
"""

#: Spawns its fleet and prints the fleet's pids, then coordinates a run
#: of ``argv[2]`` naps of ``argv[3]`` seconds under lease timeout
#: ``argv[4]`` and prints the results. With 600 s naps the run outlasts
#: any test, which kills it mid-run.
_NAP_COORDINATOR = """
import json, sys
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import _nap

with ExperimentRunner(
    backend="queue", n_workers=2, queue_dir=sys.argv[1],
    lease_timeout_s=float(sys.argv[4]),
) as runner:
    fleet = runner._queue_fleet()
    print(json.dumps([proc.pid for _, proc in fleet.members]), flush=True)
    print(json.dumps(runner.map(_nap, [float(sys.argv[3])] * int(sys.argv[2]))))
"""

#: Coordinates one queue run of ``_square`` and prints its results.
_SQUARE_COORDINATOR = """
import json, sys
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import _square

with ExperimentRunner(
    backend="queue", n_workers=2, queue_dir=sys.argv[1]
) as runner:
    print(json.dumps(runner.map(_square, [1, 2, 3])))
"""

#: Coordinates one queue run of ``_square`` on a fleet whose only member
#: never claims, and prints its results.
_IDLE_FLEET_COORDINATOR = """
import json, sys
from repro.experiments import distributed
from repro.experiments.runner import ExperimentRunner
from tests.experiments.test_distributed import IDLE_MEMBER, _square

distributed._worker_command = lambda *args: IDLE_MEMBER
with ExperimentRunner(
    backend="queue", n_workers=1, queue_dir=sys.argv[1]
) as runner:
    print(json.dumps(runner.map(_square, [1, 2, 3])))
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
        with ExperimentRunner(
            backend="queue", n_workers=n_workers, queue_dir=tmp_path
        ) as runner:
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
        with ExperimentRunner(
            backend="queue", n_workers=2, queue_dir=tmp_path
        ) as runner:
            assert runner.run_pipeline_configs(configs) == serial
        assert runner.stats.executed == 3
        assert runner.stats.requeues == 0
        snapshots = runner.stats.worker_snapshots
        assert len(snapshots) >= 1
        # Each worker reports its own peak RSS: the coordinator's
        # RUSAGE_CHILDREN cannot see a fleet that is still running.
        assert all(entry["ru_maxrss"] > 0 for entry in snapshots)

    def test_task_failure_keep_going_matches_pool_semantics(self, tmp_path):
        with ExperimentRunner(
            backend="queue", n_workers=2, queue_dir=tmp_path, keep_going=True
        ) as runner:
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

        with ExperimentRunner(
            backend="queue",
            n_workers=2,
            queue_dir=tmp_path,
            keep_going=True,
            observe=True,
            lease_timeout_s=20.0,
            queue_crash_after={0: 1},  # worker w0 dies on its first claim
        ) as runner:
            # Every task waits for w0 to exit, so w1 cannot drain the
            # queue before w0 makes the claim that crashes it.
            worker_id, w0 = runner._queue_fleet().members[0]
            assert worker_id == "w0"
            task = _AfterExit(w0.pid, _InstrumentedTask(observe=ObserveConfig()))
            results = runner.map(task, configs)
        assert [result["metrics"] for result in results] == expected
        assert runner.stats.requeues == 1
        assert runner.stats.errors == []
        assert w0.returncode == CRASH_EXIT_CODE
        # No double-count anywhere: per-trial telemetry merged across the
        # fleet is bit-identical to the serial runner's.
        merged = merge_snapshots(result["telemetry"]["registry"] for result in results)
        assert merged == serial.stats.merged_registry()
        # And the fleet completed each task exactly once, despite the
        # crashed claim.
        counters = runner.stats.worker_registry()["counters"]
        completed = sum(
            v
            for k, v in counters.items()
            if k.startswith("queue_worker_completed_total")
        )
        assert completed == len(configs)
        # The crashed worker never wrote its summary.
        run_dir = next(tmp_path.glob("run-*"))
        assert not (run_dir / "workers" / "w0.json").exists()
        # The run was observed: the coordinator logged one task:* span per
        # task, the re-queued one included, under the run's trace id.
        records = [
            json.loads(line)
            for line in (run_dir / "coordinator.events.jsonl").read_text().splitlines()
        ]
        assert len(records) == len(configs)
        assert {record["trace_id"] for record in records} == {runner.stats.trace_id}

    def test_all_workers_dead_still_terminates(self, tmp_path):
        # The only spawned worker crashes immediately; the coordinator
        # must field a replacement (or run inline) and still finish with
        # correct results rather than hang.
        with ExperimentRunner(
            backend="queue",
            n_workers=1,
            queue_dir=tmp_path,
            keep_going=True,
            queue_crash_after={0: 1},
        ) as runner:
            assert runner.map(_square, [4, 6]) == [16, 36]
        assert runner.stats.requeues >= 1
        assert runner.stats.errors == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_worker_killing_task_settles_as_worker_lost(self, tmp_path, n_workers):
        # The coordinator runs in a child process: were it to run the
        # task itself, the task would kill the test process.
        child = subprocess.run(
            [sys.executable, "-c", _KILLER_COORDINATOR, str(n_workers), str(tmp_path)],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        report = json.loads(child.stdout)
        assert report["results"] == [1, None, 9]
        # One death per claim of the task, until its re-queues run out.
        assert report["errors"] == [[1, WORKER_LOST_ERROR, MAX_REQUEUES + 1]]
        # The lost task was withdrawn, so no worker claims it after STOP.
        tasks = (tmp_path / "run-0000" / "tasks").glob("*.json")
        assert sorted(path.stem for path in tasks) == ["000000", "000002"]

    def test_workers_that_cannot_start_settle_as_worker_lost(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import distributed

        monkeypatch.setattr(
            distributed,
            "_worker_command",
            lambda *args: [sys.executable, "-c", "raise SystemExit(1)"],
        )
        with ExperimentRunner(
            backend="queue", n_workers=1, queue_dir=tmp_path, keep_going=True
        ) as runner:
            assert runner.map(_square, [4, 6]) == [None, None]
        errors = runner.stats.errors
        assert [e.error_type for e in errors] == [WORKER_LOST_ERROR] * 2
        assert all("respawn budget" in e.message for e in errors)
        with ExperimentRunner(
            backend="queue", n_workers=1, queue_dir=tmp_path
        ) as fail_fast:
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


class TestWorkerFleet:
    """The fleet lives from a runner's first queue run to its close."""

    def test_fleet_serves_successive_runs(self, tmp_path):
        with ExperimentRunner(
            backend="queue", n_workers=2, queue_dir=tmp_path
        ) as runner:
            assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
            fleet = runner._queue_fleet()
            pids = [proc.pid for _, proc in fleet.members]
            assert runner.map(_square, [4, 5]) == [16, 25]
            assert [proc.pid for _, proc in fleet.members] == pids
        # Members print nothing, not even runpy's warning about running a
        # module the package had already imported.
        assert [(tmp_path / f"w{i}.log").read_text() for i in (0, 1)] == ["", ""]
        runs = sorted(tmp_path.glob("run-*"))
        assert len(runs) == 2
        publishers = {
            json.loads(path.read_text())["worker"]
            for run in runs
            for path in (run / "results").glob("*.json")
        }
        assert publishers <= {"w0", "w1"}

    def test_dead_member_is_replaced_under_a_fresh_id(self, tmp_path):
        with ExperimentRunner(
            backend="queue",
            n_workers=2,
            queue_dir=tmp_path,
            keep_going=True,
            queue_crash_after={0: 1},
        ) as runner:
            fleet = runner._queue_fleet()
            (_, w0), (_, w1) = fleet.members
            assert runner.map(_AfterExit(w0.pid, _square), [1, 2]) == [1, 4]
            assert runner.map(_square, [3]) == [9]
            assert [worker_id for worker_id, _ in fleet.members] == ["w2", "w1"]
            assert fleet.members[1][1] is w1
        assert runner.stats.requeues == 1 and runner.stats.errors == []

    def test_fail_fast_withdraws_the_open_tasks(self, tmp_path):
        payloads = [2] + list(range(3, 12))
        with ExperimentRunner(
            backend="queue", n_workers=1, queue_dir=tmp_path
        ) as runner:
            with pytest.raises(ExperimentError, match="boom"):
                runner.map(_slow_boom, payloads)
            run_dir = next(tmp_path.glob("run-*"))
            # The fleet stopped computing the failed run's tasks (the
            # one it held finishes), and it serves the next run.
            assert len(list((run_dir / "results").glob("*.json"))) < len(payloads)
            assert runner.map(_square, [3]) == [9]
        assert [path.stem for path in (run_dir / "tasks").glob("*.json")] == ["000000"]

    def test_close_stops_the_fleet_and_deletes_its_temporary_root(self):
        runner = ExperimentRunner(backend="queue", n_workers=2)
        assert runner._fleet is None  # nothing spawns before a queue run
        with runner:
            assert runner.map(_square, [1, 2]) == [1, 4]
            assert runner.map(_square, [3]) == [9]
            fleet = runner._fleet
            root = fleet.root
            # One root serves every run of the runner.
            assert len(list(root.glob("run-*"))) == 2
            procs = [proc for _, proc in fleet.members]
        assert not root.exists()
        assert all(proc.returncode == 0 for proc in procs)
        assert _still_alive([proc.pid for proc in procs]) == []

    def test_unclosed_runner_stops_its_fleet_when_collected(self, tmp_path):
        runner = ExperimentRunner(backend="queue", n_workers=2, queue_dir=tmp_path)
        assert runner.map(_square, [1, 2]) == [1, 4]
        pids = [proc.pid for _, proc in runner._queue_fleet().members]
        del runner
        gc.collect()
        assert _still_alive(pids) == []

    def test_fleet_exits_when_its_coordinator_is_killed(self, tmp_path):
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _IDLE_COORDINATOR, str(tmp_path)],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = json.loads(coordinator.stdout.readline())
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        finally:
            coordinator.kill()
            coordinator.wait(timeout=30)
            coordinator.stdout.close()
        assert _still_alive(pids) == []

    def test_run_of_a_killed_coordinator_strands_no_later_fleet(self, tmp_path):
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _NAP_COORDINATOR, str(tmp_path), "4", "600", "30"],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = json.loads(coordinator.stdout.readline())
            leases = tmp_path / "run-0000" / "leases"
            deadline = time.monotonic() + 60.0
            while len(list(leases.glob("*.lease"))) < 2:
                assert time.monotonic() < deadline, "the fleet never claimed"
                time.sleep(0.02)
        finally:
            coordinator.kill()
            coordinator.wait(timeout=30)
            coordinator.stdout.close()
        assert _still_alive(pids) == []
        # run-0000 never gets STOP and keeps two unclaimed tasks; the next
        # runner's fleet must not wait in it.
        assert not (tmp_path / "run-0000" / "STOP").exists()
        child = subprocess.run(
            [sys.executable, "-c", _SQUARE_COORDINATOR, str(tmp_path)],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        assert json.loads(child.stdout) == [1, 4, 9]

    def test_fleet_serves_the_run_of_a_suspended_coordinator(self, tmp_path):
        # The coordinator stops sweeping, so its heartbeat goes stale,
        # for longer than the lease timeout; its own fleet must still
        # finish the run, which no other worker may serve.
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _NAP_COORDINATOR, str(tmp_path), "8", "0.5", "1"],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            coordinator.stdout.readline()
            leases = tmp_path / "run-0000" / "leases"
            deadline = time.monotonic() + 60.0
            while not any(leases.glob("*.lease")):
                assert time.monotonic() < deadline, "the fleet never claimed"
                time.sleep(0.02)
            os.kill(coordinator.pid, signal.SIGSTOP)
            time.sleep(3.0)
            os.kill(coordinator.pid, signal.SIGCONT)
            out, _ = coordinator.communicate(timeout=60)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=30)
            coordinator.stdout.close()
        assert coordinator.returncode == 0
        assert json.loads(out) == [0.5] * 8

    def test_fleets_sharing_a_root_keep_to_their_own_runs(self, tmp_path):
        other = subprocess.Popen(
            [sys.executable, "-c", _IDLE_COORDINATOR, str(tmp_path)],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            other_pids = json.loads(other.stdout.readline())
            with ExperimentRunner(
                backend="queue", n_workers=2, queue_dir=tmp_path
            ) as runner:
                payloads = list(range(8))
                assert runner.map(_square, payloads) == [x * x for x in payloads]
                ids = [worker_id for worker_id, _ in runner._queue_fleet().members]
            # The other fleet stayed up and idle beside this run.
            assert all(_alive(pid) for pid in other_pids)
        finally:
            other.kill()
            other.wait(timeout=30)
            other.stdout.close()
        assert _still_alive(other_pids) == []
        # Worker ids are unique per root: the other fleet holds w0 and w1.
        assert ids == ["w2", "w3"]
        run_dir = tmp_path / "run-0001"
        publishers = {
            json.loads(path.read_text())["worker"]
            for path in (run_dir / "results").glob("*.json")
        }
        assert publishers <= set(ids)
        summaries = {path.stem for path in (run_dir / "workers").glob("*.json")}
        assert summaries <= set(ids)

    def test_standalone_worker_outlives_a_runner(self, tmp_path, monkeypatch):
        from repro.experiments import distributed

        standalone = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments",
                "--worker", str(tmp_path), "--worker-id", "s0",
            ],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        try:
            with ExperimentRunner(
                backend="queue", n_workers=1, queue_dir=tmp_path
            ) as runner:
                assert runner.map(_square, [1, 2]) == [1, 4]
            # This fleet's members never claim, so only s0 can serve.
            monkeypatch.setattr(
                distributed, "_worker_command", lambda *args: IDLE_MEMBER
            )
            with ExperimentRunner(
                backend="queue", n_workers=1, queue_dir=tmp_path
            ) as idle:
                assert idle.map(_square, [3, 4]) == [9, 16]
            assert standalone.poll() is None
        finally:
            standalone.kill()
            standalone.wait(timeout=30)

    def test_once_worker_serves_the_next_run_and_exits(self, tmp_path, monkeypatch):
        from repro.experiments import distributed

        standalone = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments",
                "--worker", str(tmp_path), "--worker-id", "s0", "--once",
            ],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        try:
            # This fleet's member never claims, so s0 serves every task.
            monkeypatch.setattr(
                distributed, "_worker_command", lambda *args: IDLE_MEMBER
            )
            with ExperimentRunner(
                backend="queue", n_workers=1, queue_dir=tmp_path
            ) as runner:
                assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert standalone.wait(timeout=30) == 0
        finally:
            if standalone.poll() is None:
                standalone.kill()
                standalone.wait(timeout=30)
        run_dir = tmp_path / "run-0000"
        publishers = {
            json.loads(path.read_text())["worker"]
            for path in (run_dir / "results").glob("*.json")
        }
        assert publishers == {"s0"}
        assert (run_dir / "workers" / "s0.json").exists()

    def test_standalone_worker_leaves_a_killed_coordinators_run(self, tmp_path):
        # As many endless tasks as fleet members, so once both are leased
        # the run has nothing left to claim; its coordinator then dies.
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _NAP_COORDINATOR, str(tmp_path), "2", "600", "2"],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pids = json.loads(coordinator.stdout.readline())
            leases = tmp_path / "run-0000" / "leases"
            deadline = time.monotonic() + 60.0
            while len(list(leases.glob("*.lease"))) < 2:
                assert time.monotonic() < deadline, "the fleet never claimed"
                time.sleep(0.02)
        finally:
            coordinator.kill()
            coordinator.wait(timeout=30)
            coordinator.stdout.close()
        assert _still_alive(pids) == []
        standalone = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments",
                "--worker", str(tmp_path), "--worker-id", "s0",
            ],
            cwd=REPO_ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        try:
            # s0 enters run-0000, which never gets STOP; it must leave once
            # the dead coordinator's heartbeat is 2 s old and serve the
            # next runner, whose own member never claims.
            child = subprocess.run(
                [sys.executable, "-c", _IDLE_FLEET_COORDINATOR, str(tmp_path)],
                cwd=REPO_ROOT,
                env=CHILD_ENV,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert child.returncode == 0, child.stdout + child.stderr
            assert json.loads(child.stdout) == [1, 4, 9]
            assert not (tmp_path / "run-0000" / "STOP").exists()
            assert (tmp_path / "run-0000" / "workers" / "s0.json").exists()
        finally:
            standalone.kill()
            standalone.wait(timeout=30)


class TestQueueSharedStore:
    """The cache as a multi-writer shared result store."""

    def test_queue_populates_shared_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        configs = [PipelineConfig(seed=s, **SMALL) for s in (21, 22)]
        with ExperimentRunner(
            backend="queue",
            n_workers=2,
            queue_dir=tmp_path / "queue",
            cache_dir=cache_dir,
        ) as runner:
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

    def test_claims_go_lowest_id_first(self, tmp_path):
        from repro.experiments.distributed import _claim_next

        layout = _QueueLayout(tmp_path)
        layout.create()
        for task_id in ("000002", "000000", "000001"):
            _atomic_write_json(layout.task_path(task_id), {"id": task_id})
        _atomic_write_json(layout.result_path("000000"), {"ok": True})
        assert _claim_next(layout, "w0") == {"id": "000001"}
        assert _claim_next(layout, "w1") == {"id": "000002"}
        assert _claim_next(layout, "w0") is None

    def test_published_task_is_never_claimed_again(self, tmp_path, monkeypatch):
        from repro.experiments import distributed

        layout = _QueueLayout(tmp_path)
        layout.create()
        _atomic_write_json(layout.task_path("000000"), {"id": "000000"})

        def publish_then_claim(layout, task_id, worker_id):
            # Another worker publishes the task and drops its lease
            # between this worker's scan and its claim.
            _atomic_write_json(layout.result_path(task_id), {"ok": True})
            return _try_claim(layout, task_id, worker_id)

        monkeypatch.setattr(distributed, "_try_claim", publish_then_claim)
        assert distributed._claim_next(layout, "w0") is None
        assert list(layout.leases.iterdir()) == []

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

        args = build_parser().parse_args(
            [
                "--worker", "/tmp/q", "--once",
                "--coordinator", "4242", "--crash-after-claims", "2",
            ]
        )
        assert str(args.worker) == "/tmp/q" and args.target is None
        assert args.coordinator == 4242 and args.crash_after_claims == 2
