"""Revocation-service throughput and decision latency (BENCH_revocation.json).

Correctness before speed, as everywhere in this repo: the bench first
replays a captured §4 pipeline alert stream through the single-writer
service and asserts bit-identity with the in-process ``BaseStation`` — in
``--quick`` mode (CI) that identity check is the whole bench.

The full run then measures, per persistence backend:

- **sustained alerts/sec**: a synthetic high-cardinality stream
  submitted in ``BATCH_SIZE`` batches, each committed by an explicit
  ``RevocationService.flush``;
- **decision latency**: the wall-clock time of each batch commit — the
  interval between a batch's last submission and its futures resolving,
  which is exactly the latency an alert's decision observes — reported
  as p50/p95/p99/max in milliseconds;
- **recovery**: records/sec replayed from a cold ledger (the restart
  path).

Results land in ``BENCH_revocation.json`` at the repo root;
``docs/PERFORMANCE.md`` cites them.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import platform
import random
import time

from repro.core.pipeline import PipelineConfig
from repro.core.revocation import BaseStation, RevocationConfig
from repro.crypto.manager import KeyManager
from repro.revocation import (
    BACKEND_KINDS,
    RevocationService,
    capture_stream,
    make_backend,
    replay_stream,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_revocation.json"

#: Ingestion batch size for the throughput/latency measurements.
BATCH_SIZE = 256
#: Synthetic stream size (full mode).
N_ALERTS = 20_000
#: Synthetic ID space (about four alerts per detector and per target).
N_NODES = 5_000


def synthetic_stream(seed, n_alerts, n_nodes):
    """A deterministic high-cardinality (detector, target, time) stream."""
    rng = random.Random(seed)
    return [
        (rng.randrange(n_nodes), rng.randrange(n_nodes), float(i))
        for i in range(n_alerts)
    ]


def assert_identity(batch_size=32):
    """Replay a captured pipeline stream; assert service == BaseStation."""
    stream = capture_stream(
        PipelineConfig(
            n_total=160,
            n_beacons=24,
            n_malicious=4,
            rtt_calibration_samples=200,
            seed=5,
        )
    )
    for restart_after in (None, len(stream.alerts) // 2):
        report = replay_stream(
            stream,
            batch_size=batch_size,
            restart_after=restart_after,
            snapshot_every=16,
        )
        assert report.identical, report.to_dict()
    return stream


async def _ingest_batched(service, alerts, batch_size):
    """Ingest in explicit batches, timing each batch commit."""
    latencies = []
    for start in range(0, len(alerts), batch_size):
        batch = alerts[start : start + batch_size]
        for detector, target, tm in batch:
            await service.submit(detector, target, time=tm)
        t0 = time.perf_counter()
        await service.flush()
        latencies.append(time.perf_counter() - t0)
    return latencies


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    index = min(
        len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def measure_backend(kind, alerts, tmp_root, expected_state):
    """Throughput + batch-commit latency for one persistence backend."""
    backend = make_backend(kind, tmp_root / f"bench-{kind}")

    async def _run():
        service = RevocationService(
            RevocationConfig(),
            backend=backend,
            batch_size=len(alerts) + 1,  # explicit flushes only
        )
        await service.start()
        t0 = time.perf_counter()
        latencies = await _ingest_batched(service, alerts, BATCH_SIZE)
        seconds = time.perf_counter() - t0
        state = service.counter_state().to_dict()
        await service.stop()
        return seconds, latencies, state

    try:
        seconds, latencies, state = asyncio.run(_run())
        assert state == expected_state, f"{kind}: state diverged"
        latencies.sort()
        return {
            "alerts": len(alerts),
            "batch_size": BATCH_SIZE,
            "seconds": round(seconds, 4),
            "alerts_per_sec": round(len(alerts) / seconds),
            "batch_commit_latency_ms": {
                "p50": round(1e3 * _percentile(latencies, 0.50), 3),
                "p95": round(1e3 * _percentile(latencies, 0.95), 3),
                "p99": round(1e3 * _percentile(latencies, 0.99), 3),
                "max": round(1e3 * latencies[-1], 3),
            },
        }
    finally:
        backend.close()


def measure_recovery(alerts, tmp_root, expected_state):
    """Cold-start recovery rate from a fully committed sqlite ledger."""
    backend = make_backend("sqlite", tmp_root / "bench-recovery")

    async def _commit():
        service = RevocationService(
            RevocationConfig(),
            backend=backend,
            batch_size=BATCH_SIZE,
        )
        await service.start()
        await service.ingest(alerts)
        await service.stop()

    async def _recover():
        service = RevocationService(RevocationConfig(), backend=backend)
        t0 = time.perf_counter()
        await service.start()
        seconds = time.perf_counter() - t0
        state = service.counter_state().to_dict()
        await service.stop()
        return seconds, state

    try:
        asyncio.run(_commit())
        seconds, state = asyncio.run(_recover())
        assert state == expected_state, "recovery: state diverged"
        return {
            "records": len(alerts),
            "seconds": round(seconds, 4),
            "records_per_sec": round(len(alerts) / seconds),
        }
    finally:
        backend.close()


def baseline_station_state(alerts):
    """The in-process ground-truth state (and its alerts/sec, for scale)."""
    key_manager = KeyManager()
    station = BaseStation(key_manager, RevocationConfig())
    t0 = time.perf_counter()
    for detector, target, tm in alerts:
        station.submit_alert(detector, target, verify=False, time=tm)
    seconds = time.perf_counter() - t0
    return station.state.to_dict(), {
        "alerts": len(alerts),
        "seconds": round(seconds, 4),
        "alerts_per_sec": round(len(alerts) / seconds),
    }


def test_revocation_service_bench(quick, tmp_path):
    """Identity always; throughput/latency into BENCH_revocation.json (full)."""
    stream = assert_identity()
    print(
        f"\nidentity: {len(stream.alerts)}-alert pipeline stream replayed "
        "bit-identically (with and without restart)"
    )
    if quick:
        return

    alerts = synthetic_stream(1, N_ALERTS, N_NODES)
    expected_state, baseline = baseline_station_state(alerts)
    backends = {
        kind: measure_backend(kind, alerts, tmp_path, expected_state)
        for kind in BACKEND_KINDS
    }
    recovery = measure_recovery(alerts, tmp_path, expected_state)
    data = {
        "schema": 1,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": {
            "in_process_base_station": baseline,
            "service": backends,
            "recovery": recovery,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data["benchmarks"], indent=2, sort_keys=True))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        test_revocation_service_bench(False, pathlib.Path(tmp))
