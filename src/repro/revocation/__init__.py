"""Revocation as a service: the §3.1 base station, durable and replayable.

The paper's base station is an in-process counter machine
(:class:`repro.core.revocation.BaseStation`). This package promotes it
to a standalone trust service while preserving its decisions bit for
bit:

- :mod:`repro.revocation.service` — an asyncio ingestion front-end that
  batches alert submissions and commits each batch with a single
  writer: MAC check, then the same
  :func:`repro.core.revocation.apply_alert` transition the base station
  runs, in submission order, on one counter state;
- :mod:`repro.revocation.persistence` — pluggable durability (memory /
  JSONL / SQLite) behind an append-only decision ledger plus periodic
  state snapshots, so a restarted service reconverges bit-identically;
- :mod:`repro.revocation.replay` — capture §4 pipeline alert streams
  and replay them through the service, asserting identity with the
  in-process base station (any batch size, any backend, with or
  without an injected crash).

See ``docs/REVOCATION.md`` for the architecture, and
``benchmarks/bench_revocation.py`` for throughput/latency numbers.

Paper section: §3.1 (alert quotas, suspiciousness counters, revocation)
"""

from repro.revocation.persistence import (
    BACKEND_KINDS,
    JsonlBackend,
    LEDGER_SCHEMA_VERSION,
    MemoryBackend,
    PersistenceBackend,
    SqliteBackend,
    make_backend,
)
from repro.revocation.replay import (
    CapturedStream,
    ReplayReport,
    capture_stream,
    capture_streams,
    replay_stream,
    replay_sweep,
)
from repro.revocation.service import RevocationService

__all__ = [
    "BACKEND_KINDS",
    "CapturedStream",
    "JsonlBackend",
    "LEDGER_SCHEMA_VERSION",
    "MemoryBackend",
    "PersistenceBackend",
    "ReplayReport",
    "RevocationService",
    "SqliteBackend",
    "capture_stream",
    "capture_streams",
    "make_backend",
    "replay_stream",
    "replay_sweep",
]
