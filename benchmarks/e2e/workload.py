"""One benchmark workload run, in its own process (started by ``run.py``).

Usage (normally only ``run.py`` calls this)::

    python benchmarks/e2e/workload.py --workload paper_sweep --seed 0 \\
        --seconds 15 --trace 0 --out DIR --work DIR
    python benchmarks/e2e/workload.py --workload paper_sweep --setup-only

A run has up to three parts:

1. the **untraced pass**: a closed loop that issues the workload's
   operations (pipeline trials or revocation alerts), generated from
   ``--seed``, in whole rotations of its grid until ``--seconds`` have
   passed (one rotation with ``--trace 1``). Nothing is installed, so
   the end-to-end metrics come from here;
2. the **correctness cross-checks**, untimed;
3. with ``--trace 1``, the **traced pass**: a fixed number of the first
   operations again, inline, each run untraced, with observability on,
   and with the timing wrappers from ``tracing.py`` installed. The
   per-layer metrics come from here.

Every time is scaled to the reference host speed (see ``hostspeed.py``).
The last stdout line is one JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import time

import hostspeed

#: Set-up time is bracketed by two host-speed probes like any operation.
PROBE_AT_ENTRY = hostspeed.probe()
T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import numpy  # noqa: E402

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline  # noqa: E402
from repro.core.revocation import BaseStation, RevocationConfig  # noqa: E402
from repro.crypto.manager import KeyManager  # noqa: E402
from repro.experiments.arena import run_arena  # noqa: E402
from repro.experiments.runner import ExperimentRunner, collect_metrics  # noqa: E402
from repro.faults import FaultConfig  # noqa: E402
from repro.obs import ObserveConfig  # noqa: E402
from repro.revocation import RevocationService, make_backend  # noqa: E402
from repro.sim.rng import derive_seed  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = ("paper_sweep", "fault_sweep", "arena_queue", "revocation_stream")

#: Figure-12 P' grid of ``paper_sweep``.
P_GRID = (0.05, 0.2, 0.5, 0.8)
#: ``BENCH_faults`` envelopes of ``fault_sweep``: (packet loss, RTT jitter).
FAULT_ENVELOPES = tuple(
    (loss, jitter) for loss in (0.05, 0.15) for jitter in (250.0, 750.0)
)
#: Listed explicitly, so adding or deleting a detector leaves the work alone.
ARENA_DETECTORS = ("paper", "mahalanobis", "noisy")
QUEUE_WORKERS = 2
BATCH_SIZE = 256
#: Batches between two host-speed probes on ``revocation_stream``.
SEGMENT_BATCHES = 64
#: Enrolled beacon identities and alerts per episode: about four alerts
#: per detector and per target, where quota and revocation both fire.
N_BEACONS = 25_000
N_ALERTS = 100_000

#: Smoke-size overrides (``--smoke``), for the harness's own tests.
SMOKE_PIPELINE = {
    "n_total": 160,
    "n_beacons": 24,
    "n_malicious": 4,
    "rtt_calibration_samples": 200,
}
SMOKE_BEACONS = 400
SMOKE_ALERTS = 2_000

PHASES = ("build", "collusion", "detection", "notices", "localization", "metrics")

#: Per-layer count metrics read from the pipeline's own counters after a
#: traced trial: metric -> profile-snapshot counter.
PIPELINE_COUNTERS = {
    "network.deliveries": "deliveries",
    "network.distance_evals": "distance_evals",
    "network.spatial_queries": "spatial_queries",
    "vec.deliveries": "vec_deliveries",
    "vec.waves": "vec_waves",
    "faults.packet_loss": "fault_packet_loss",
    "faults.rtt_jitter": "fault_rtt_jitter",
}


@dataclasses.dataclass
class Check:
    """One correctness cross-check."""

    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class Measurement:
    """What the untraced pass measured; times are scaled (``hostspeed``)."""

    attempted: int
    failed: int
    completed: int
    wall_s: float
    latencies_s: Sequence[float]
    #: The same operations' unscaled wall time.
    raw_wall_s: float
    #: Median host-speed probe over the reference: 1.0 is uncontended.
    slowdown: float
    checks: List[Check] = dataclasses.field(default_factory=list)
    #: Per-layer numbers only the untraced pass can see.
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    core: Dict[str, int] = dataclasses.field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def keep_going(done: int, cycle: int, elapsed: float, seconds: float) -> bool:
    """Whether a closed loop issues another operation.

    It stops only after whole rotations of ``cycle`` operations, so every
    run covers the same mix, and at the rotation boundary nearest to
    ``seconds``; it always does at least one rotation. The pipeline
    workloads pass their scaled time, so a slow host does not shrink
    their sample of trials.
    """
    if done == 0 or done % cycle:
        return True
    return elapsed * (1.0 + 0.5 * cycle / done) < seconds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_targets() -> Tuple[List[tracing.Target], List[str]]:
    """The public names the traced pass wraps, and any it cannot list."""
    missing: List[str] = []
    detector_classes: List[type] = []
    try:
        from repro.detectors import available_detectors, make_detector

        detector_classes = sorted(
            {type(make_detector(name)) for name in available_detectors()},
            key=lambda cls: cls.__qualname__,
        )
    except (ImportError, AttributeError):
        missing.append("repro.detectors.available_detectors")
    targets = [
        tracing.Target("repro.core.pipeline", "calibrate_rtt", "rtt.calibrate", keep=True),
        *(
            tracing.Target(cls.__module__, f"{cls.__qualname__}.evaluate", "detectors.evaluate")
            for cls in detector_classes
        ),
        tracing.Target(
            "repro.core.replay_filter", "ReplayFilterCascade.evaluate", "replay_filter.evaluate"
        ),
        tracing.Target("repro.sim.engine", "Engine.run", "engine.run", keep=True),
        tracing.Target(
            "repro.localization.beacon", "NonBeaconAgent.estimate_position", "localization.solve"
        ),
        tracing.Target(
            "repro.vec.localization",
            "batched_estimate_errors",
            "localization.solve",
            keep=True,
            units=lambda args, result: len(args[0]),
        ),
        tracing.Target(
            "repro.revocation.service", "RevocationService.start", "service.start", keep=True
        ),
        tracing.Target(
            "repro.revocation.service", "RevocationService.flush", "service.flush", keep=True
        ),
        tracing.Target(
            "repro.revocation.service",
            "partition_waves",
            "service.partition",
            units=lambda args, result: len(result or ()),
        ),
        tracing.Target("repro.revocation.service", "apply_target", "service.apply"),
        tracing.Target(
            "repro.revocation.persistence", "MemoryBackend.append_records", "service.append"
        ),
        tracing.Target("repro.crypto.manager", "KeyManager.verify_alert_payload", "crypto.auth"),
    ]
    return targets, missing


# ----------------------------------------------------------------------
# Pipeline workloads
# ----------------------------------------------------------------------
def run_phases(config: PipelineConfig, recorder: tracing.SpanRecorder):
    """One trial inline: the six phase methods in ``run()`` order."""
    pipeline = SecureLocalizationPipeline(config)
    steps = (
        pipeline.build,
        pipeline.run_collusion,
        pipeline.run_detection,
        pipeline.run_notice_dissemination,
        pipeline.run_localization,
        pipeline.collect_metrics,
    )
    for phase, step in zip(PHASES, steps):
        with recorder.span(f"pipeline.{phase}"):
            value = step()
    return value, pipeline


def pipeline_counts(pipeline, counts: Dict[str, int], missing: List[str]) -> None:
    """Add one finished trial's work counters to ``counts``."""
    counts["engine.events"] = counts.get("engine.events", 0) + pipeline.engine.events_processed
    try:
        counters = pipeline.profile_snapshot()["counters"]
    except (AttributeError, KeyError):
        if "SecureLocalizationPipeline.profile_snapshot" not in missing:
            missing.append("SecureLocalizationPipeline.profile_snapshot")
        return
    for metric, counter in PIPELINE_COUNTERS.items():
        counts[metric] = counts.get(metric, 0) + int(counters.get(counter, 0))
    ran_vec = any(v for k, v in counters.items() if k.startswith("vec_"))
    counts["vec.trials"] = counts.get("vec.trials", 0) + int(ran_vec)


class PipelineWorkload:
    """Common ground of the three workloads whose operation is a trial."""

    name = ""
    #: Ops replayed by the traced pass.
    trace_count = 2

    def __init__(self, seed: int, work: pathlib.Path, smoke: bool) -> None:
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.runner = self.make_runner()

    def make_runner(self) -> ExperimentRunner:
        return ExperimentRunner(n_workers=1, keep_going=True)

    def close(self) -> None:
        self.runner.close()

    def trial_seed(self, label: str) -> int:
        return derive_seed(self.seed, f"{self.name}:{label}") % 2**31

    # -- traced pass ---------------------------------------------------
    def trace_ops(self) -> List[Any]:
        raise NotImplementedError

    def run_inline(self, config: PipelineConfig, observe: bool):
        if observe:
            config = dataclasses.replace(config, observe=ObserveConfig())
        t0 = time.perf_counter()
        result = SecureLocalizationPipeline(config).run()
        return time.perf_counter() - t0, result

    def run_traced(self, config, recorder, counts, missing):
        t0 = time.perf_counter()
        with recorder.span("trial"):
            result, pipeline = run_phases(config, recorder)
        seconds = time.perf_counter() - t0
        pipeline_counts(pipeline, counts, missing)
        return seconds, result

    def untraced_check(self, k: int, config, result) -> Optional[bool]:
        """Whether trace op ``k``'s result matches the untraced pass.

        None when the untraced pass did not run that op.
        """
        raise NotImplementedError


class SweepWorkload(PipelineWorkload):
    """A Monte-Carlo sweep through the serial ``ExperimentRunner``."""

    #: Trials in one rotation of the grid; a run does whole rotations,
    #: so every run covers the same mix of grid points.
    cycle = 1

    def __init__(self, seed: int, work: pathlib.Path, smoke: bool) -> None:
        super().__init__(seed, work, smoke)
        self.configs: List[PipelineConfig] = []
        self.results: List[Optional[Dict[str, float]]] = []

    def config(self, index: int) -> PipelineConfig:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        runner = self.runner
        scaler = hostspeed.Scaler()
        latencies: List[float] = []
        wall = raw = 0.0
        while keep_going(len(self.configs), self.cycle, wall, seconds):
            index = len(self.configs)
            key = f"{self.name}:{index}"
            self.configs.append(self.config(index))
            start = time.perf_counter()
            self.results += runner.run_pipeline_configs(self.configs[-1:], keys=[key])
            elapsed = time.perf_counter() - start
            factor = scaler.factor()
            raw += elapsed
            wall += elapsed * factor
            if self.results[-1] is not None:
                latencies.append(runner.stats.task_seconds[key] * factor)
        stats = runner.stats
        from repro.vec import vectorized_core_supported

        vec = sum(
            1
            for c in self.configs
            if getattr(c, "use_vectorized_core", False) and vectorized_core_supported(c)
        )
        return Measurement(
            attempted=len(self.configs),
            failed=len(stats.errors),
            completed=len(self.configs) - len(stats.errors),
            wall_s=wall,
            latencies_s=latencies,
            raw_wall_s=raw,
            slowdown=scaler.slowdown(),
            layer={"runner.overhead_pct": 100.0 * (raw - stats.total_seconds) / raw},
            core={"vec": vec, "scalar": len(self.configs) - vec},
        )

    def cross_check(self, measurement: Measurement) -> List[Check]:
        """Sampled trials rerun on the other core; metrics must agree."""
        rng = random.Random(derive_seed(self.seed, f"{self.name}:check"))
        checks = []
        for index in sorted(rng.sample(range(len(self.configs)), min(2, len(self.configs)))):
            config = self.configs[index]
            name = f"core_flip[{index}]"
            if "use_vectorized_core" not in {f.name for f in dataclasses.fields(config)}:
                checks.append(Check(name, True, "skipped: no use_vectorized_core field"))
                continue
            flipped = dataclasses.replace(
                config, use_vectorized_core=not config.use_vectorized_core
            )
            got = collect_metrics(SecureLocalizationPipeline(flipped).run())
            expected = self.results[index]
            ok = same_metrics(expected, got)
            checks.append(Check(name, ok, "" if ok else f"{expected} != {got}"))
        return checks

    def trace_ops(self) -> List[PipelineConfig]:
        return [self.config(i) for i in range(self.trace_count)]

    def untraced_check(self, k: int, config, result) -> Optional[bool]:
        if k >= len(self.results) or self.results[k] is None:
            return None
        return collect_metrics(result) == self.results[k]


def same_metrics(expected: Optional[Dict[str, float]], got: Dict[str, float]) -> bool:
    """Trial metrics equal across cores: exact, but for the mean error.

    The batched localization solver can differ from the scalar one in
    the last digits of an agent's error (paper_sweep, seed 6, trial 4:
    529.5505102120433 vs 529.5505102120442 ft), so the mean error is
    compared to 1e-9 relative; every other metric must be identical.
    """
    if expected is None or expected.keys() != got.keys():
        return False
    return all(
        math.isclose(expected[name], got[name], rel_tol=1e-9)
        if name == "mean_localization_error_ft"
        else expected[name] == got[name]
        for name in expected
    )


class PaperSweep(SweepWorkload):
    name = "paper_sweep"
    cycle = len(P_GRID)

    def config(self, index: int) -> PipelineConfig:
        return PipelineConfig(
            p_prime=P_GRID[index % len(P_GRID)],
            seed=self.trial_seed(str(index)),
            **(SMOKE_PIPELINE if self.smoke else {}),
        )


class FaultSweep(SweepWorkload):
    name = "fault_sweep"
    cycle = len(FAULT_ENVELOPES)

    def config(self, index: int) -> PipelineConfig:
        loss, jitter = FAULT_ENVELOPES[index % len(FAULT_ENVELOPES)]
        return PipelineConfig(
            p_prime=0.2,
            faults=FaultConfig(packet_loss_rate=loss, rtt_jitter_cycles=jitter),
            seed=self.trial_seed(str(index)),
            **(SMOKE_PIPELINE if self.smoke else {}),
        )


class ArenaQueue(PipelineWorkload):
    """Detector arena grids through the two-worker file queue.

    One operation of the closed loop is one ``run_arena`` call for one
    detector: its whole P' grid, one trial per point, as one queue run.
    Round ``r`` covers every detector on the same trial seeds.
    """

    name = "arena_queue"
    trace_count = 6

    def __init__(self, seed: int, work: pathlib.Path, smoke: bool) -> None:
        super().__init__(seed, work, smoke)
        #: (round, detector) -> that ``run_arena`` result.
        self.grids: Dict[Tuple[int, str], Dict[str, Any]] = {}
        self.config_kwargs = dict(SMOKE_PIPELINE) if smoke else None

    def make_runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            backend="queue",
            n_workers=QUEUE_WORKERS,
            keep_going=True,
            queue_dir=self.work / "queue",
        )

    def arena(self, round_index: int, detector: str, runner=None, **kwargs) -> Dict[str, Any]:
        return run_arena(
            [detector],
            trials=1,
            base_seed=self.trial_seed(str(round_index)),
            config_kwargs=self.config_kwargs,
            runner=runner,
            **kwargs,
        )

    def measure(self, seconds: float) -> Measurement:
        """Whole rotations of the detectors, so every run has the same mix.

        A trial's latency is its worker-side task time, scaled by the
        factor of the ``run_arena`` call it ran in.
        """
        stats = self.runner.stats
        scaler = hostspeed.Scaler(all_cpus=True)
        latencies: List[float] = []
        wall = raw = 0.0
        while keep_going(len(self.grids), len(ARENA_DETECTORS), wall, seconds):
            r, i = divmod(len(self.grids), len(ARENA_DETECTORS))
            detector = ARENA_DETECTORS[i]
            before = set(stats.task_seconds)
            start = time.perf_counter()
            self.grids[r, detector] = self.arena(r, detector, self.runner)
            elapsed = time.perf_counter() - start
            factor = scaler.factor()
            raw += elapsed
            wall += elapsed * factor
            failed_keys = {error.key for error in stats.errors}
            latencies += [
                s * factor
                for k, s in stats.task_seconds.items()
                if k not in before and k not in failed_keys
            ]
        attempted = len(stats.task_seconds)
        return Measurement(
            attempted=attempted,
            failed=len(stats.errors),
            completed=attempted - len(stats.errors),
            wall_s=wall,
            latencies_s=latencies,
            raw_wall_s=raw,
            slowdown=scaler.slowdown(),
            layer={
                "queue.busy_ratio": stats.total_seconds / (raw * QUEUE_WORKERS),
                "queue.requeues": stats.requeues,
                "queue.steals": stats.steals,
            },
            core={"vec": 0, "scalar": attempted},
        )

    def cell(self, r: int, detector: str, p: float) -> Optional[Dict[str, Any]]:
        grid = self.grids.get((r, detector))
        return None if grid is None else cell_of(grid, detector, p)

    def cross_check(self, measurement: Measurement) -> List[Check]:
        """Sampled cells rerun serially inline; results must agree."""
        rng = random.Random(derive_seed(self.seed, f"{self.name}:check"))
        cells = [
            (r, detector, p)
            for (r, detector), grid in self.grids.items()
            for p in grid["p_grid"]
        ]
        checks = []
        for r, detector, p in sorted(rng.sample(cells, 2)):
            serial = self.arena(r, detector, p_grid=[p])
            checks.append(
                Check(
                    f"serial_rerun[{r}:{detector}:p={p:g}]",
                    cell_of(serial, detector, p) == self.cell(r, detector, p),
                )
            )
        return checks

    def trace_ops(self) -> List[PipelineConfig]:
        from repro.experiments.arena import arena_configs

        by_detector = [
            arena_configs(
                detector,
                trials=1,
                base_seed=self.trial_seed("0"),
                config_kwargs=self.config_kwargs,
            )
            for detector in ARENA_DETECTORS
        ]
        interleaved = [config for point in zip(*by_detector) for config in point]
        return interleaved[: self.trace_count]

    def untraced_check(self, k: int, config, result) -> Optional[bool]:
        expected = self.cell(0, config.detector, config.p_prime)
        if expected is None:
            return None
        metrics = collect_metrics(result)
        return {name: metrics.get(name) for name in expected} == expected


def cell_of(arena: Dict[str, Any], detector: str, p: float) -> Dict[str, Any]:
    """One detector's metrics at one P' of a ``run_arena`` result."""
    return arena["detectors"][detector]["grid"][f"{float(p):g}"]


# ----------------------------------------------------------------------
# Revocation workload
# ----------------------------------------------------------------------
class RevocationStream:
    """MAC-signed alert episodes into the revocation service."""

    name = "revocation_stream"
    trace_count = 2

    def __init__(self, seed: int, work: pathlib.Path, smoke: bool) -> None:
        self.seed = seed
        self.n_beacons = SMOKE_BEACONS if smoke else N_BEACONS
        self.n_alerts = SMOKE_ALERTS if smoke else N_ALERTS
        self.key_manager = KeyManager()
        for beacon_id in range(1, self.n_beacons + 1):
            self.key_manager.enroll(beacon_id, is_beacon=True)
        self.loop = asyncio.new_event_loop()
        self.service = self.loop.run_until_complete(self.started_service())

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.loop.close()

    async def started_service(self, observe: bool = False) -> RevocationService:
        service = RevocationService(
            backend=make_backend("memory"),
            batch_size=BATCH_SIZE,
            key_manager=self.key_manager,
            observe=ObserveConfig() if observe else None,
        )
        await service.start()
        return service

    def stream(self, episode: int) -> List[Tuple[int, int, bytes, float]]:
        """Episode ``episode``'s signed alerts; signing is load generation."""
        rng = random.Random(derive_seed(self.seed, f"{self.name}:{episode}"))
        sign = self.key_manager.sign_alert_payload
        alerts = []
        for i in range(self.n_alerts):
            detector = rng.randint(1, self.n_beacons)
            target = rng.randint(1, self.n_beacons)
            tag = sign(detector, BaseStation.alert_payload(detector, target))
            alerts.append((detector, target, tag, float(i)))
        return alerts

    async def drive(
        self, service: RevocationService, alerts, scaler: Optional[hostspeed.Scaler]
    ) -> Tuple[float, float, array, int]:
        """One client, closed loop: submit a batch, await its flush.

        Every ``SEGMENT_BATCHES`` batches end at a host-speed probe, and
        that segment's times are scaled by its factor; with no scaler
        (an episode scaled as a whole) they are not. Returns the scaled
        and the raw time spent in batches, the scaled per-alert
        latencies and the number of failed alerts.
        """
        latencies = array("d")
        segment = array("d")
        futures = []
        clock = time.perf_counter
        wall = raw = segment_s = 0.0
        starts = range(0, len(alerts), BATCH_SIZE)
        for n, start in enumerate(starts, 1):
            sent = []
            t0 = clock()
            for detector, target, tag, when in alerts[start : start + BATCH_SIZE]:
                sent.append(clock())
                futures.append(
                    await service.submit(detector, target, tag=tag, verify=True, time=when)
                )
            await service.flush()
            done = clock()
            segment_s += done - t0
            segment.extend([done - t for t in sent])
            if n % SEGMENT_BATCHES == 0 or n == len(starts):
                factor = scaler.factor() if scaler else 1.0
                raw += segment_s
                wall += segment_s * factor
                latencies.extend([s * factor for s in segment])
                segment = array("d")
                segment_s = 0.0
        await service.stop()
        failed = sum(
            1 for f in futures if not f.done() or f.cancelled() or f.exception() is not None
        )
        return wall, raw, latencies, failed

    def reference(self, alerts) -> Tuple[BaseStation, float]:
        """The in-process base station fed the same signed stream."""
        station = BaseStation(self.key_manager, RevocationConfig())
        t0 = time.perf_counter()
        for detector, target, tag, when in alerts:
            station.submit_alert(detector, target, tag=tag, verify=True, time=when)
        return station, time.perf_counter() - t0

    def measure(self, seconds: float) -> Measurement:
        latencies = array("d")
        checks = []
        scaler = hostspeed.Scaler()
        wall = raw = reference_s = 0.0
        attempted = failed = accepted = episodes = 0
        service = self.service
        t0 = time.perf_counter()
        while keep_going(episodes, 1, time.perf_counter() - t0, seconds):
            if service is None:
                service = self.loop.run_until_complete(self.started_service())
            alerts = self.stream(episodes)
            scaled, timed, lat, fails = self.loop.run_until_complete(
                self.drive(service, alerts, scaler)
            )
            wall += scaled
            raw += timed
            latencies.extend(lat)
            attempted += len(alerts)
            failed += fails
            accepted += sum(1 for record in service.decisions if record.accepted)
            station, station_s = self.reference(alerts)
            reference_s += station_s * scaler.factor()
            checks.append(
                Check(
                    f"base_station[{episodes}]",
                    station.state == service.counter_state()
                    and station.log == service.decisions,
                )
            )
            service = None
            episodes += 1
        self.service = None
        return Measurement(
            attempted=attempted,
            failed=failed,
            completed=attempted - failed,
            wall_s=wall,
            latencies_s=latencies,
            raw_wall_s=raw,
            slowdown=scaler.slowdown(),
            checks=checks,
            layer={
                "service.accept_ratio": accepted / attempted,
                "service.decision_ms_p99": 1e3 * percentile(latencies, 0.99),
                "basestation.alerts_per_s": attempted / reference_s,
            },
        )

    def cross_check(self, measurement: Measurement) -> List[Check]:
        return measurement.checks

    def trace_ops(self) -> List[int]:
        return list(range(self.trace_count))

    def episode(self, alerts, observe: bool, recorder=None):
        """One episode inline, timed from before ``service.start()``."""

        async def run():
            t0 = time.perf_counter()
            with recorder.span("episode") if recorder else nullcontext():
                service = await self.started_service(observe)
                _, _, _, failed = await self.drive(service, alerts, None)
            wall = time.perf_counter() - t0
            return wall, (failed, service.decisions, service.counter_state())

        return self.loop.run_until_complete(run())

    def run_inline(self, episode: int, observe: bool):
        return self.episode(self.stream(episode), observe)

    def run_traced(self, episode: int, recorder, counts, missing):
        return self.episode(self.stream(episode), False, recorder)

    def untraced_check(self, k: int, episode, outcome) -> Optional[bool]:
        return None


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (PaperSweep, FaultSweep, ArenaQueue, RevocationStream)
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(measurement: Measurement, setup_s: float, rss_mb: float) -> Dict[str, list]:
    return {
        "ops_per_s": [measurement.completed / measurement.wall_s, "1/s"],
        "op_ms_p50": [1e3 * percentile(measurement.latencies_s, 0.50), "ms"],
        "setup_s": [setup_s, "s"],
        "peak_rss_mb": [rss_mb, "MB"],
    }


def trace_pass(workload, measurement: Measurement, out: pathlib.Path) -> Tuple[Dict[str, list], List[str], List[Check]]:
    """Replay the first ops paired: off, observe-on, and traced.

    Shares (``_pct``) are of the traced operations' unscaled wall time;
    the ratios and ``trace.wall_s`` use scaled times.
    """
    recorder = tracing.SpanRecorder()
    targets, missing = layer_targets()
    counts: Dict[str, int] = {}
    scaler = hostspeed.Scaler()
    off_s = on_s = traced_s = traced_raw_s = 0.0
    checks = []
    ops = workload.trace_ops()
    for k, op in enumerate(ops):
        recorder.trial = f"{workload.name}:{k}"
        runs = {}
        for observe in (False, True) if k % 2 == 0 else (True, False):
            seconds, result = workload.run_inline(op, observe)
            runs[observe] = (seconds * scaler.factor(), result)
        with tracing.traced(targets, recorder) as patches:
            seconds, traced = workload.run_traced(op, recorder, counts, missing)
        for name in patches.missing:
            if name not in missing:
                missing.append(name)
        off_s += runs[False][0]
        on_s += runs[True][0]
        traced_s += seconds * scaler.factor()
        traced_raw_s += seconds
        same = traced == runs[False][1] == runs[True][1]
        matches_untraced = workload.untraced_check(k, op, traced)
        checks.append(
            Check(
                f"traced_equal[{k}]",
                same and matches_untraced is not False,
                "" if same else "traced, untraced and observed results differ",
            )
        )
    recorder.write_chrome_trace(out / f"{workload.name}-seed{workload.seed}.trace.json")

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced_raw_s

    total, calls = recorder.total_s, recorder.calls
    layer: Dict[str, list] = {
        "trace.wall_s": [traced_s, "s"],
        "trace.ops": [len(ops), "count"],
        "trace.overhead_ratio": [traced_s / off_s, "ratio"],
        "trace.missing_wrappers": [len(missing), "count"],
        "obs.observe_on_ratio": [on_s / off_s, "ratio"],
    }
    for phase in PHASES:
        layer[f"pipeline.{phase}_pct"] = [pct(total(f"pipeline.{phase}")), "%"]
    layer.update(
        {
            "rtt.calibrate_pct": [pct(total("rtt.calibrate")), "%"],
            "detectors.evaluate_calls": [calls("detectors.evaluate"), "count"],
            "detectors.evaluate_pct": [pct(total("detectors.evaluate")), "%"],
            "detectors.plumbing_pct": [
                pct(max(0.0, total("pipeline.detection") - total("detectors.evaluate"))),
                "%",
            ],
            "replay_filter.evaluate_calls": [calls("replay_filter.evaluate"), "count"],
            "replay_filter.evaluate_pct": [pct(total("replay_filter.evaluate")), "%"],
            "engine.events": [counts.get("engine.events", 0), "count"],
            "engine.run_pct": [pct(total("engine.run")), "%"],
            "localization.solves": [recorder.units("localization.solve"), "count"],
            "localization.solve_pct": [pct(total("localization.solve")), "%"],
            "service.start_pct": [pct(total("service.start")), "%"],
            "service.flush_pct": [pct(total("service.flush")), "%"],
            "service.partition_pct": [pct(total("service.partition")), "%"],
            "service.waves": [recorder.units("service.partition"), "count"],
            "service.apply_calls": [calls("service.apply"), "count"],
            "service.apply_pct": [pct(total("service.apply")), "%"],
            "service.append_calls": [calls("service.append"), "count"],
            "service.append_pct": [pct(total("service.append")), "%"],
            "service.fanout_pct": [pct(recorder.self_s("service.flush")), "%"],
            "crypto.auth_calls": [calls("crypto.auth"), "count"],
            "crypto.auth_pct": [pct(total("crypto.auth")), "%"],
        }
    )
    for metric in (*PIPELINE_COUNTERS, "vec.trials"):
        layer[metric] = [counts.get(metric, 0), "count"]
    untraced_units = {
        "runner.overhead_pct": "%",
        "queue.busy_ratio": "ratio",
        "queue.requeues": "count",
        "queue.steals": "count",
        "service.accept_ratio": "ratio",
        "service.decision_ms_p99": "ms",
        "basestation.alerts_per_s": "1/s",
    }
    for metric, unit in untraced_units.items():
        layer[metric] = [measurement.layer.get(metric, 0), unit]
    layer["host.slowdown"] = [measurement.slowdown, "ratio"]
    return layer, missing, checks


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."))
    parser.add_argument("--work", type=pathlib.Path, default=pathlib.Path("."))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument(
        "--setup-only", action="store_true", help="report set-up time and exit"
    )
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required unless --setup-only")

    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.work, args.smoke)
    raw_setup_s = time.perf_counter() - T_ENTRY
    setup_s = raw_setup_s * 2.0 * hostspeed.REFERENCE_S / (PROBE_AT_ENTRY + hostspeed.probe())
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        # A traced run needs one rotation untraced, for its cross-checks
        # and for the numbers only the untraced pass can see.
        measurement = workload.measure(0.0 if args.trace else args.seconds)
        rss_mb = peak_rss_mb()
        checks = workload.cross_check(measurement)
        record: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": bool(args.trace),
            "host": host_facts(),
            "core": measurement.core,
            "attempted": measurement.attempted,
            "failed": measurement.failed,
            "end_to_end": end_to_end(measurement, setup_s, rss_mb),
            "unscaled": {
                "wall_s": measurement.raw_wall_s,
                "setup_s": raw_setup_s,
                "slowdown": measurement.slowdown,
            },
            "missing": [],
        }
        if args.trace:
            layer, missing, trace_checks = trace_pass(workload, measurement, args.out)
            record["per_layer"] = layer
            record["missing"] = missing
            checks += trace_checks
        record["checks"] = [dataclasses.asdict(check) for check in checks]
    finally:
        workload.close()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
