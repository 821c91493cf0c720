"""Distributed work-queue execution backend: coordinator + workers.

``ExperimentRunner(backend="queue", n_workers=N)`` routes task execution
through this module instead of an in-process
:class:`~concurrent.futures.ProcessPoolExecutor`. A *coordinator* (the
runner's own process) writes task manifests into a file-queue directory;
*worker* processes claim, execute, and publish them. Because every task
is a pure function of its payload, the results are bit-identical to the
serial path for any worker count.

**The fleet.** A runner spawns its N workers (a :class:`WorkerFleet`) at
its first queue run and keeps them until ``ExperimentRunner.close()``,
so later runs pay no interpreter start-up. A fleet member is the
standalone worker program run with two more flags,
``python -m repro.experiments --worker ROOT --worker-id ID
--coordinator PID``: it serves only the runs whose ``meta.json`` names
its coordinator's pid, run after run, and exits when its stdin reaches
EOF. The runner closes the pipe on ``close()`` (a
:func:`weakref.finalize` does it for a runner that is never closed), and
the pipe also reaches EOF when the coordinator process dies. At the
start of each run the coordinator replaces dead members, each under a
fresh worker id; ids are unique per queue root, so fleets sharing a root
never share one. Workers started by hand (the same command without
``--coordinator``, possibly on other hosts sharing the filesystem) serve
every coordinator's runs and outlive any runner.

The file-queue protocol (one *run* per runner call; the fleet outlives
its runs)::

    <queue_dir>/run-0000/
        meta.json          # pickled task fn, lease timeout,
                           # coordinator pid; heartbeat = mtime
                           # refreshed by the coordinator
        tasks/<id>.json    # one manifest per task: index, key,
                           # pickled payload
        leases/<id>.lease  # exclusive claim (O_CREAT|O_EXCL), heartbeat
                           # = mtime refreshed by the owning worker
        results/<id>.json  # outcome, written atomically, then the lease
                           # is dropped; presence == task settled
        workers/<w>.json   # summary a worker writes as it leaves the run:
                           # worker id, peak RSS, metrics registry
        STOP               # sentinel: the run is over
    <queue_dir>/<w>.log    # a fleet member's stdout and stderr; created
                           # exclusively, which reserves the id <w>

Claiming is the only point of contention and it is atomic: a lease file
is created with ``O_CREAT | O_EXCL``, which exactly one claimant can
win. Everything else is rendered atomic by write-temp + ``os.replace``.

**Claim order.** Every worker claims the lowest-id task that has
neither a result nor a lease, so whichever worker is idle takes the next
task and a straggler's backlog never builds up. A task can be published,
and its lease dropped, between a worker's scan and its claim; the winner
of a claim therefore checks for a result once more and lets the task go
if one appeared, so a published task never runs again.

A worker serves the runs it finds in order; it leaves a run once STOP
is present and nothing is left to claim, and it never enters a run that
was already stopped when the worker started (nobody reads such a run any
more). A fleet member enters only the runs of its own coordinator: a
coordinator killed mid-run leaves a run that never gets STOP, and no
other runner's fleet may wait in it. A standalone worker leaves such a
run once the coordinator's heartbeat (``meta.json``'s mtime, refreshed
on every sweep of the coordinator) is older than the run's lease
timeout; it checks before each claim, so a dead run costs it at most
one task. A fleet member makes no such check: it ends with its
coordinator anyway, and it must not leave the run of a coordinator that
was only suspended, which no other worker may serve. At the end of a run
the coordinator withdraws every task manifest without a published result
(after fail-fast, or a task settled as lost), so the fleet stops
computing them, then touches STOP and waits for the summary of each live
fleet member that published a result in the run. A member still busy
after ``SUMMARY_TIMEOUT_S`` is killed, and the next run replaces it.

**Failure model.** A worker heartbeats each held lease (mtime) while
computing. The coordinator re-queues a task — unlinking its lease so
any worker can re-claim it — when the owning fleet member has exited
without publishing a result, or when the lease heartbeat has been stale
for ``lease_timeout_s`` (covering hung workers and standalone workers
the coordinator cannot wait on). Re-execution is safe because tasks are
deterministic and results content-equal; the coordinator settles every
task exactly once (keyed by task id), so metrics and merged telemetry
never double-count. After ``MAX_REQUEUES`` losses the task is recorded
as a :class:`~repro.experiments.runner.TrialError` (``WorkerLostError``)
under ``--keep-going``, or raises. While no fleet member is alive, the
coordinator spawns a replacement, up to ``MAX_RESPAWNS_PER_RUN`` per
run; once that budget is spent, every open task is settled as
``WorkerLostError``. The coordinator never runs a task itself, so a
task that kills its process kills only a worker, and the run always
terminates.

Workers never touch the result cache: the runner serves cache hits
before it enqueues anything and writes every executed miss itself.

**Observability.** Per-trial telemetry rides inside task results
exactly as in the pool backend; each worker additionally keeps a small
:class:`~repro.obs.MetricsRegistry` (claims, completions) whose
snapshot the coordinator collects into ``RunStats.worker_snapshots``
and merges order-insensitively via
:func:`~repro.obs.merge_snapshots` (``RunStats.worker_registry``).

**Live telemetry (observed runs).** The coordinator mints one trace id
per run and embeds a :class:`~repro.obs.TraceContext` in every task
manifest (``"trace"``: trace id + the coordinator's ``task:*`` span id),
workers adopt their worker id as the process span namespace (span ids
``"w0:1"`` — globally unique across the fleet) and append their executed
trials' completed spans to ``workers/<id>.events.jsonl``; the
coordinator writes its own ``task:*`` spans to
``coordinator.events.jsonl``. ``tools/stitch_trace.py`` merges those
JSONL logs into one Perfetto trace with cross-process parent edges.
Standalone workers and the coordinator can additionally serve live
``/metrics`` / ``/healthz`` / ``/spans`` scrapes (``--telemetry-port``;
see :class:`repro.obs.TelemetryServer`). None of this draws randomness
— queue results stay bit-identical to serial.
"""

from __future__ import annotations

import base64
import json
import os
import pathlib
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Lease losses tolerated per task before it is declared failed.
MAX_REQUEUES = 3

#: Replacement workers the coordinator may spawn per run. More than
#: ``MAX_REQUEUES``, so one worker-killing task on a single worker uses
#: up its requeues, and a replacement still finishes the other tasks.
MAX_RESPAWNS_PER_RUN = 8

#: Exit code of a fault-injected worker crash (``--crash-after-claims``).
CRASH_EXIT_CODE = 17

#: Seconds the coordinator waits, at the end of a run, for a fleet member
#: that published in it to leave the run before killing it.
SUMMARY_TIMEOUT_S = 10.0

#: Error type recorded for a task whose workers kept dying.
WORKER_LOST_ERROR = "WorkerLostError"

#: Seconds workers and the coordinator sleep when a poll finds nothing.
POLL_S = 0.02


def _b64_pickle(obj: Any) -> str:
    """Pickle ``obj`` and encode it for embedding in a JSON manifest."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _b64_unpickle(data: str) -> Any:
    """Invert :func:`_b64_pickle`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def _atomic_write_json(path: pathlib.Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON so readers never observe a torn file."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _read_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """Parse a JSON file, returning None when missing or torn mid-write."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class _QueueLayout:
    """Path arithmetic for one run directory of the file-queue protocol."""

    def __init__(self, run_dir: pathlib.Path) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.meta = self.run_dir / "meta.json"
        self.tasks = self.run_dir / "tasks"
        self.leases = self.run_dir / "leases"
        self.results = self.run_dir / "results"
        self.workers = self.run_dir / "workers"
        self.stop = self.run_dir / "STOP"

    def create(self) -> None:
        """Create the run directory tree (idempotent)."""
        for directory in (self.tasks, self.leases, self.results, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    def task_path(self, task_id: str) -> pathlib.Path:
        """The manifest file for ``task_id``."""
        return self.tasks / f"{task_id}.json"

    def lease_path(self, task_id: str) -> pathlib.Path:
        """The lease file for ``task_id``."""
        return self.leases / f"{task_id}.lease"

    def result_path(self, task_id: str) -> pathlib.Path:
        """The result file for ``task_id``."""
        return self.results / f"{task_id}.json"

    def worker_path(self, worker_id: str) -> pathlib.Path:
        """The exit-summary file for ``worker_id``."""
        return self.workers / f"{worker_id}.json"


def allocate_run_dir(queue_dir: pathlib.Path) -> pathlib.Path:
    """Claim a fresh ``run-NNNN`` namespace under ``queue_dir``.

    Allocation is an atomic ``mkdir``, so concurrent coordinators sharing
    one queue directory get disjoint runs.
    """
    queue_dir.mkdir(parents=True, exist_ok=True)
    seq = sum(1 for p in queue_dir.glob("run-*") if p.is_dir())
    while True:
        candidate = queue_dir / f"run-{seq:04d}"
        try:
            candidate.mkdir()
        except FileExistsError:
            seq += 1
            continue
        return candidate


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Heartbeat:
    """Background mtime refresher for a held lease.

    The coordinator treats a lease whose mtime is older than the run's
    ``lease_timeout_s`` as abandoned, so a worker computing a long task
    must keep touching its lease; a crashed worker stops touching it,
    which is the whole failure-detection signal.
    """

    def __init__(self, lease: pathlib.Path, interval_s: float) -> None:
        self.lease = lease
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                os.utime(self.lease)
            except OSError:
                return  # lease was revoked out from under us; stop quietly

    def start(self) -> None:
        """Begin refreshing the lease."""
        self._thread.start()

    def stop(self) -> None:
        """Stop refreshing (called before the lease is dropped)."""
        self._stop.set()
        self._thread.join(timeout=1.0)


def _try_claim(layout: _QueueLayout, task_id: str, worker_id: str) -> bool:
    """Attempt the atomic exclusive claim of ``task_id``."""
    try:
        fd = os.open(
            layout.lease_path(task_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(
            json.dumps({"worker": worker_id, "pid": os.getpid()}) + "\n"
        )
    return True


def _claim_next(
    layout: _QueueLayout, worker_id: str
) -> Optional[Dict[str, Any]]:
    """Claim the lowest-id open task and return its manifest.

    Returns None when nothing is claimable. A task is open while it has
    neither a result nor a lease. Another worker may publish a task and
    drop its lease between the scan and the claim, so a won claim is
    checked for a result once more; a task published meanwhile, or
    withdrawn by the coordinator, is let go.
    """
    for manifest_path in sorted(layout.tasks.glob("*.json")):
        task_id = manifest_path.stem
        result = layout.result_path(task_id)
        lease = layout.lease_path(task_id)
        if result.exists() or lease.exists():
            continue
        if not _try_claim(layout, task_id, worker_id):
            continue
        manifest = None if result.exists() else _read_json(manifest_path)
        if manifest is None:
            lease.unlink(missing_ok=True)
            continue
        return manifest
    return None


def _coordinator_is_stale(layout: _QueueLayout, timeout_s: float) -> bool:
    """Whether the run's coordinator heartbeat is older than ``timeout_s``.

    The heartbeat is ``meta.json``'s mtime, which the coordinator
    refreshes on every sweep; a run directory deleted under the worker
    counts as stale.
    """
    try:
        age = time.time() - layout.meta.stat().st_mtime
    except OSError:
        return True
    return age > timeout_s


def _serve_run(
    layout: _QueueLayout,
    worker_id: str,
    *,
    crash_after_claims: Optional[int],
    check_coordinator: bool,
    status: Optional[Dict[str, Any]] = None,
) -> None:
    """One worker's main loop over one run: claim, execute, publish.

    Exits when the run's STOP sentinel is present and nothing is left to
    claim, or, with ``check_coordinator``, when STOP is absent and the
    coordinator's heartbeat is older than the run's lease timeout (the
    coordinator died mid-run). On exit, writes the worker summary (the
    worker id, the process's peak RSS so far as ``resource`` reports
    it — KiB on Linux — and the worker's metrics-registry snapshot) for
    the coordinator to merge. Observed trials additionally log their
    completed spans to ``workers/<id>.events.jsonl`` for cross-process
    stitching. ``crash_after_claims`` counts this run's claims only.

    ``status`` (the live-telemetry hook from :func:`run_worker`) is
    updated in place with this run's registry/run dir/span ring so a
    concurrently scraping :class:`~repro.obs.TelemetryServer` sees
    current state.
    """
    from repro.experiments.runner import _timed_call
    from repro.obs import (
        MetricsRegistry,
        TraceContext,
        process_span_namespace,
        set_process_span_namespace,
        set_process_trace_context,
        span_event_lines,
    )
    from repro.obs.live import append_event_lines

    meta = None
    while meta is None or "fn_pickle" not in meta:
        meta = _read_json(layout.meta)
        if meta is None:
            time.sleep(POLL_S)
    fn = _b64_unpickle(meta["fn_pickle"])
    lease_timeout_s = float(meta.get("lease_timeout_s", 30.0))
    registry = MetricsRegistry()
    # Span ids minted in this process are namespaced by the worker id so
    # they are globally unique across the fleet (stitched traces never
    # collide); deterministic per process — same claims, same ids. The
    # previous namespace is restored on exit (in-process test workers).
    previous_namespace = process_span_namespace()
    set_process_span_namespace(worker_id)
    events_log = layout.workers / f"{worker_id}.events.jsonl"
    if status is not None:
        status["registry"] = registry
        status["run_dir"] = layout.run_dir
    claims = 0
    try:
        while True:
            if (
                check_coordinator
                and not layout.stop.exists()
                and _coordinator_is_stale(layout, lease_timeout_s)
            ):
                break
            manifest = _claim_next(layout, worker_id)
            if manifest is None:
                if layout.stop.exists():
                    break
                time.sleep(POLL_S)
                continue
            task_id = str(manifest["id"])
            claims += 1
            registry.counter(
                "queue_worker_claims_total", worker=worker_id
            ).inc()
            if crash_after_claims is not None and claims >= crash_after_claims:
                # Fault injection: die while still holding the lease, as
                # a power-cut worker would. The coordinator must notice
                # and re-queue this task.
                os._exit(CRASH_EXIT_CODE)
            lease = layout.lease_path(task_id)
            heartbeat = _Heartbeat(
                lease, interval_s=max(0.05, lease_timeout_s / 4.0)
            )
            heartbeat.start()
            trace_info = manifest.get("trace")
            if trace_info:
                # Adopt the coordinator's trace context for this task:
                # the trial's root span will carry trace_id plus the
                # coordinator task:* span as its remote parent.
                set_process_trace_context(TraceContext.from_dict(trace_info))
            try:
                outcome = _timed_call(fn, _b64_unpickle(manifest["payload_pickle"]))
            finally:
                heartbeat.stop()
                set_process_trace_context(None)
            ok, value, seconds, attempts = outcome
            telemetry = (
                value.get("telemetry")
                if ok and isinstance(value, dict)
                else None
            )
            if telemetry is not None and telemetry.get("spans"):
                append_event_lines(
                    events_log,
                    span_event_lines(
                        telemetry,
                        trial=str(manifest.get("key", task_id)),
                        process=worker_id,
                    ),
                )
                ring = status.get("ring") if status is not None else None
                if ring is not None:
                    ring.extend(telemetry["spans"])
            _atomic_write_json(
                layout.result_path(task_id),
                {
                    "ok": bool(ok),
                    "value_pickle": _b64_pickle(value),
                    "seconds": float(seconds),
                    "attempts": int(attempts),
                    "worker": worker_id,
                },
            )
            try:
                lease.unlink()
            except OSError:
                pass
            registry.counter(
                "queue_worker_completed_total", worker=worker_id
            ).inc()
    finally:
        import resource

        set_process_span_namespace(previous_namespace)
        _atomic_write_json(
            layout.worker_path(worker_id),
            {
                "worker": worker_id,
                "ru_maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "registry": registry.snapshot(),
            },
        )


def _find_run(
    queue_dir: pathlib.Path, served: set, coordinator: Optional[int]
) -> Optional[pathlib.Path]:
    """The next ``run-NNNN`` under the queue root a worker should serve.

    Returns None when there is none yet. Runs in ``served`` are skipped.
    With ``coordinator`` set (a fleet member), so are the runs another
    process coordinates; they join ``served``.
    """
    for candidate in sorted(queue_dir.glob("run-*")):
        if candidate in served:
            continue
        meta = _read_json(candidate / "meta.json")
        if meta is None:
            continue
        if coordinator is not None and meta.get("coordinator") != coordinator:
            served.add(candidate)
            continue
        return candidate
    return None


def run_worker(
    queue_dir: pathlib.Path,
    worker_id: str,
    *,
    crash_after_claims: Optional[int] = None,
    once: bool = False,
    coordinator: Optional[int] = None,
    telemetry_port: Optional[int] = None,
) -> int:
    """A queue worker: serve runs appearing under the root ``queue_dir``.

    Runs already stopped when the worker starts are skipped: their
    coordinators are done with them. With ``once=True`` the worker exits
    after its first run completes; otherwise it keeps watching for new
    runs until killed — the long-running multi-host deployment mode, and
    what each member of a :class:`WorkerFleet` runs. A fleet member
    passes its coordinator's pid as ``coordinator`` and serves only that
    coordinator's runs; a standalone worker (None) serves every run and
    leaves one whose coordinator's heartbeat went stale.
    ``crash_after_claims`` (fault injection) hard-crashes the worker at
    that claim of a run.
    ``telemetry_port`` (0 = ephemeral) attaches a
    :class:`~repro.obs.TelemetryServer` exposing this worker's registry,
    the served run's queue-liveness gauges, and a recent-span ring.
    Returns a process exit code.
    """
    queue_dir = pathlib.Path(queue_dir)
    served = {run for run in queue_dir.glob("run-*") if (run / "STOP").exists()}
    status: Dict[str, Any] = {
        "registry": None,
        "run_dir": None,
        "ring": None,
    }
    server = None
    if telemetry_port is not None:
        from repro.obs import (
            SpanRing,
            TelemetryServer,
            merge_snapshots,
            queue_liveness_snapshot,
        )

        status["ring"] = SpanRing()

        def _snapshot() -> Dict[str, Any]:
            parts = []
            if status["registry"] is not None:
                parts.append(status["registry"].snapshot())
            if status["run_dir"] is not None:
                parts.append(queue_liveness_snapshot(status["run_dir"]))
            return merge_snapshots(parts)

        server = TelemetryServer(
            _snapshot,
            health_fn=lambda: {
                "status": "ok",
                "worker": worker_id,
                "run": str(status["run_dir"] or ""),
            },
            spans_fn=status["ring"].recent,
            port=telemetry_port,
        ).start()
        print(f"telemetry: {server.url}", flush=True)
    try:
        while True:
            run_dir = _find_run(queue_dir, served, coordinator)
            if run_dir is None:
                time.sleep(POLL_S)
                continue
            _serve_run(
                _QueueLayout(run_dir),
                worker_id,
                crash_after_claims=crash_after_claims,
                check_coordinator=coordinator is None,
                status=status,
            )
            served.add(run_dir)
            if once:
                return 0
    finally:
        if server is not None:
            server.stop()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def process_alive(pid: int) -> bool:
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


@dataclass(frozen=True)
class AfterExit:
    """A task that runs ``task(payload)`` once process ``pid`` has exited.

    A fault-injection aid for ``queue_crash_after``: a run whose tasks
    all wait for the exit of the member set to crash cannot be drained
    by the other members before that member makes its crashing claim,
    so the crash and its re-queue happen on every run. Picklable, and
    importable by every fleet member.
    """

    pid: int
    task: Callable[[Any], Any]

    def __call__(self, payload: Any) -> Any:
        """Wait for ``pid`` to exit, then run the task."""
        while process_alive(self.pid):
            time.sleep(0.005)
        return self.task(payload)


def _worker_command(
    root: pathlib.Path, worker_id: str, crash_after_claims: Optional[int]
) -> List[str]:
    """The argv that launches one fleet member serving ``root``.

    It is the standalone worker program pinned to this process's runs;
    ``--coordinator`` also makes it exit when its stdin reaches EOF.
    """
    command = [
        sys.executable,
        "-m",
        "repro.experiments",
        "--worker",
        str(root),
        "--worker-id",
        worker_id,
        "--coordinator",
        str(os.getpid()),
    ]
    if crash_after_claims is not None:
        command += ["--crash-after-claims", str(crash_after_claims)]
    return command


def _spawn_worker(
    root: pathlib.Path, worker_id: str, crash_after_claims: Optional[int]
) -> Optional[subprocess.Popen]:
    """Launch one fleet member with ``repro`` importable and stdin piped.

    The member's log, ``<root>/<worker_id>.log``, is created exclusively;
    returns None, spawning nothing, when it exists (the id is taken).
    """
    import repro

    env = dict(os.environ)
    src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    try:
        log = open(  # noqa: SIM115 - handed to the subprocess for its lifetime
            root / f"{worker_id}.log", "xb"
        )
    except FileExistsError:
        return None
    try:
        return subprocess.Popen(
            _worker_command(root, worker_id, crash_after_claims),
            env=env,
            stdin=subprocess.PIPE,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    finally:
        log.close()


class WorkerFleet:
    """A runner's queue workers, alive from its first queue run to close.

    ``members`` holds one ``(worker_id, process)`` pair per position.
    The fleet serves this process's runs under ``root``: ``queue_dir``,
    or a temporary directory it makes and :meth:`close` deletes.
    ``crash_after`` (fault injection) maps a position to the claim
    count, counted per run, at which the first member spawned there
    hard-crashes; replacements never crash.
    """

    def __init__(
        self,
        queue_dir: Optional[pathlib.Path],
        n_workers: int,
        crash_after: Mapping[int, int],
    ) -> None:
        self.temporary = queue_dir is None
        self.root = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-queue-")
            if queue_dir is None
            else queue_dir
        )
        self.root.mkdir(parents=True, exist_ok=True)
        self._next_id = 0
        self.members = [
            self._spawn(crash_after.get(position))
            for position in range(n_workers)
        ]

    def _spawn(
        self, crash_after_claims: Optional[int] = None
    ) -> Tuple[str, subprocess.Popen]:
        """Spawn a member under the next id no process has used here.

        Ids are unique per root, not per fleet, so fleets sharing a root
        never mix their summaries, span ids or logs.
        """
        while True:
            worker_id = f"w{self._next_id}"
            self._next_id += 1
            proc = _spawn_worker(self.root, worker_id, crash_after_claims)
            if proc is not None:
                return worker_id, proc

    def dead_positions(self) -> List[int]:
        """Positions whose member has exited (reaped by this call)."""
        return [
            position
            for position, (_, proc) in enumerate(self.members)
            if proc.poll() is not None
        ]

    def replace(self, position: int) -> None:
        """Put a fresh worker, under a new id, in a dead member's place."""
        self.members[position][1].stdin.close()
        self.members[position] = self._spawn()

    def await_summaries(self, layout: _QueueLayout, worker_ids: set) -> None:
        """Wait until each live member in ``worker_ids`` has left the run.

        A member leaves a stopped run, writing its summary, once nothing
        is left to claim. One still busy after ``SUMMARY_TIMEOUT_S`` (say,
        a hung trial whose lease expired) is killed for the next run to
        replace.
        """
        deadline = time.monotonic() + SUMMARY_TIMEOUT_S
        waiting = [member for member in self.members if member[0] in worker_ids]
        while True:
            waiting = [
                (worker_id, proc)
                for worker_id, proc in waiting
                if proc.poll() is None
                and not layout.worker_path(worker_id).exists()
            ]
            if not waiting:
                return
            if time.monotonic() > deadline:
                for _, proc in waiting:
                    proc.kill()
                    proc.wait()
                return
            time.sleep(0.005)

    def close(self) -> None:
        """Stop every member, then delete a temporary root (idempotent).

        Closing a member's stdin ends it (see :func:`_worker_command`);
        one that has not exited within a few seconds is killed.
        """
        for _, proc in self.members:
            proc.stdin.close()
        for _, proc in self.members:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.members = []
        if self.temporary:
            shutil.rmtree(self.root, ignore_errors=True)


def _lease_is_stale(
    layout: _QueueLayout,
    task_id: str,
    dead_pids: set,
    lease_timeout_s: float,
) -> bool:
    """Whether ``task_id``'s lease belongs to a lost worker.

    A lease is stale when its owner is a spawned worker known to have
    exited, a same-host process that no longer exists, or — the generic
    cross-host signal — its heartbeat mtime is older than the lease
    timeout.
    """
    lease = layout.lease_path(task_id)
    try:
        age = time.time() - lease.stat().st_mtime
    except OSError:
        return False  # lease already gone
    owner = _read_json(lease) or {}
    pid = owner.get("pid")
    if isinstance(pid, int):
        if pid in dead_pids:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            pass  # e.g. a different-host pid namespace: rely on mtime
    return age > lease_timeout_s


def _synthesize_lost(
    key: str, requeues: int, *, budget_spent: bool = False
) -> Tuple[bool, Tuple[str, str, str, str], float, int]:
    """A failure outcome for a task whose workers kept disappearing.

    ``requeues`` counts the leases the task lost. ``budget_spent`` marks
    a task left open when the run's respawn budget ran out.
    """
    if budget_spent:
        message = (
            f"no live worker and the respawn budget "
            f"({MAX_RESPAWNS_PER_RUN} per run) ran out; "
            f"task lease lost {requeues} times"
        )
    else:
        message = (
            f"task lease lost {requeues} times (worker crash or stall); "
            f"giving up after {MAX_REQUEUES} re-queues"
        )
    return (
        False,
        (WORKER_LOST_ERROR, message, f"{WORKER_LOST_ERROR}: {message} [{key}]\n", ""),
        0.0,
        requeues,
    )


def execute_queue(
    runner,
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    pending: List[int],
    results: List[Any],
    task_keys: List[str],
    *,
    done_offset: int,
    total: int,
) -> None:
    """Coordinate one runner call over the file queue (backend="queue").

    Mirrors ``ExperimentRunner._execute``'s contract: runs
    ``fn(payloads[i])`` for every ``i`` in ``pending``, landing outcomes
    through ``runner._settle`` (results by index, stats, progress,
    fail-fast/keep-going semantics) — so callers cannot tell the
    backends apart except by the clock. The call is one run, served by
    the runner's fleet, whose dead members are replaced first.
    """
    fleet = runner._queue_fleet()
    for position in fleet.dead_positions():
        fleet.replace(position)
    run_dir = allocate_run_dir(fleet.root)
    layout = _QueueLayout(run_dir)
    layout.create()

    trace_id: Optional[str] = None
    span_mark = len(runner.stats.run_spans)
    if runner.observe is not None:
        # One trace per coordinator call; each manifest names the
        # coordinator's task:* span (id == index + 1, namespaced
        # "coord:") as the remote parent of the worker's trial span.
        from repro.obs import new_trace_id

        trace_id = new_trace_id()
        runner.stats.trace_id = trace_id
    runner._active_queue_run = run_dir
    task_ids: Dict[int, str] = {}
    for index in pending:
        task_id = f"{index:06d}"
        task_ids[index] = task_id
        manifest: Dict[str, Any] = {
            "id": task_id,
            "index": index,
            "key": task_keys[index],
            "payload_pickle": _b64_pickle(payloads[index]),
        }
        if trace_id is not None:
            manifest["trace"] = {
                "trace_id": trace_id,
                "parent_span_id": f"coord:{index + 1}",
            }
        _atomic_write_json(layout.task_path(task_id), manifest)
    _atomic_write_json(
        layout.meta,
        {
            "fn_pickle": _b64_pickle(fn),
            "lease_timeout_s": runner.lease_timeout_s,
            "tasks": len(pending),
            "coordinator": os.getpid(),
        },
    )

    settled: set = set()
    publishers: set = set()
    requeue_counts: Dict[int, int] = {}
    dead_pids: set = set()
    respawns = 0
    done = done_offset
    try:
        while len(settled) < len(pending):
            # The coordinator heartbeat: standalone workers leave a run
            # whose meta.json has not been touched for the lease timeout.
            os.utime(layout.meta)
            progressed = False
            for index in pending:
                if index in settled:
                    continue
                record = _read_json(layout.result_path(task_ids[index]))
                if record is None or "value_pickle" not in record:
                    continue
                outcome = (
                    bool(record["ok"]),
                    _b64_unpickle(record["value_pickle"]),
                    float(record["seconds"]),
                    int(record["attempts"]),
                )
                settled.add(index)
                publishers.add(record.get("worker"))
                done += 1
                progressed = True
                runner._settle(
                    index, task_keys[index], outcome, results, done, total
                )
            if len(settled) == len(pending):
                break

            # Reap dead fleet members; their leases expire immediately.
            dead = fleet.dead_positions()
            dead_pids.update(fleet.members[position][1].pid for position in dead)

            # Expire stale leases so the task becomes claimable again.
            for index in pending:
                if index in settled:
                    continue
                task_id = task_ids[index]
                if layout.result_path(task_id).exists():
                    continue
                lease = layout.lease_path(task_id)
                if not lease.exists():
                    continue
                if not _lease_is_stale(
                    layout, task_id, dead_pids, runner.lease_timeout_s
                ):
                    continue
                try:
                    lease.unlink()
                except OSError:
                    continue  # the owner finished or another expiry won
                runner.stats.requeues += 1
                requeue_counts[index] = requeue_counts.get(index, 0) + 1
                progressed = True
                if requeue_counts[index] > MAX_REQUEUES:
                    settled.add(index)
                    done += 1
                    runner._settle(
                        index,
                        task_keys[index],
                        _synthesize_lost(task_keys[index], requeue_counts[index]),
                        results,
                        done,
                        total,
                    )

            if len(dead) == len(fleet.members) and len(settled) < len(pending):
                if respawns < MAX_RESPAWNS_PER_RUN:
                    # Every fleet member died; field a replacement so
                    # the re-queued work still runs out-of-process.
                    fleet.replace(dead[0])
                    respawns += 1
                else:
                    for index in pending:
                        if index in settled or layout.result_path(
                            task_ids[index]
                        ).exists():
                            continue  # a published result settles next sweep
                        settled.add(index)
                        done += 1
                        runner._settle(
                            index,
                            task_keys[index],
                            _synthesize_lost(
                                task_keys[index],
                                requeue_counts.get(index, 0),
                                budget_spent=True,
                            ),
                            results,
                            done,
                            total,
                        )

            if not progressed:
                time.sleep(POLL_S)
    finally:
        for index in pending:
            task_id = task_ids[index]
            if not layout.result_path(task_id).exists():
                # Open (the run ended early) or settled as lost: withdraw
                # the task so the fleet does not go on computing it.
                layout.task_path(task_id).unlink(missing_ok=True)
        layout.stop.touch()
        fleet.await_summaries(layout, publishers)
        for summary_path in sorted(layout.workers.glob("*.json")):
            summary = _read_json(summary_path)
            if summary is None:
                continue
            runner.stats.worker_snapshots.append(summary)
        runner._active_queue_run = None
        if trace_id is not None:
            _write_coordinator_events(
                layout, runner, trace_id, span_mark
            )


def _write_coordinator_events(
    layout: _QueueLayout, runner, trace_id: str, span_mark: int
) -> None:
    """Log this call's coordinator ``task:*`` spans for trace stitching.

    Run spans are kept on the runner's relative wall clock with plain
    integer ids; here they are namespaced ``coord:<id>`` and anchored to
    the epoch so ``tools/stitch_trace.py`` can line them up with worker
    and service span logs (ids match the ``parent_span_id`` each task
    manifest carried).
    """
    from repro.obs import span_event_lines
    from repro.obs.live import append_event_lines

    spans = []
    for span in runner.stats.run_spans[span_mark:]:
        entry = dict(span)
        entry["id"] = f"coord:{span['id']}"
        entry["attrs"] = {**span.get("attrs", {}), "trace_id": trace_id}
        spans.append(entry)
    if not spans:
        return
    anchor = time.time() - (time.perf_counter() - runner._wall0)
    lines = span_event_lines(
        {"spans": spans, "wall0_epoch": anchor, "process": "coord"},
        trial="coordinator",
        process="coord",
    )
    append_event_lines(layout.run_dir / "coordinator.events.jsonl", lines)
