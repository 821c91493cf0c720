"""Pluggable persistence backends for the revocation service.

The service's durability model is a classic write-ahead pair:

- an **append-only decision ledger** — one record per processed alert
  (sequence number, detector, target, fate, revocation flag), appended
  in batch-commit units;
- an occasional **state snapshot** — the full
  :class:`repro.core.revocation.CounterState` plus the sequence number
  it covers, so recovery replays only the ledger tail.

Three backends implement the same :class:`PersistenceBackend` interface:

========== ============================= ==================================
backend    storage                        when to use
========== ============================= ==================================
memory     Python lists/dicts             tests, benches, ephemeral runs
jsonl      ``ledger.jsonl`` + snapshot    audit-friendly, grep-able, rsync-
           JSON under a directory         able; append is one write+flush
sqlite     one SQLite database file       transactional batch commits,
                                          fast seek to a sequence number
========== ============================= ==================================

All three give the same guarantee: a ledger append returns only after the
records are durable at the backend's level (memory: in the object; jsonl:
flushed to the OS; sqlite: committed), so a service restarted from
snapshot + ledger reconverges bit-identically to an uninterrupted run
(asserted in ``tests/revocation/test_recovery.py``).

Paper section: §3.1 (the base station's alert/report bookkeeping, made
durable)
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.errors import ConfigurationError

#: Ledger/snapshot schema version; bump on incompatible layout changes.
LEDGER_SCHEMA_VERSION = 1


class PersistenceBackend:
    """Interface the revocation service persists through.

    Subclasses implement an append-only ledger of JSON-ready record
    dicts (each carrying a unique, increasing ``"seq"``) plus a single
    replaceable snapshot document. ``append_records`` must be atomic at
    batch granularity as far as feasible for the medium: recovery
    tolerates a torn *trailing* record (jsonl) but never a torn prefix.
    """

    kind = "abstract"

    def append_records(self, records: List[Dict[str, Any]]) -> None:
        """Durably append one batch of ledger records (in order)."""
        raise NotImplementedError

    def read_records(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield ledger records with ``seq > after_seq`` in seq order."""
        raise NotImplementedError

    def write_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Replace the snapshot document (atomic replace semantics)."""
        raise NotImplementedError

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The current snapshot document, or None when none exists."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any file handles (idempotent; memory backend: no-op)."""

    def __enter__(self) -> "PersistenceBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryBackend(PersistenceBackend):
    """In-process persistence: survives service restarts that reuse the
    same backend object (which is exactly what the crash-recovery tests
    simulate), not process death. The zero-dependency default.
    """

    kind = "memory"

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.snapshot: Optional[Dict[str, Any]] = None

    def append_records(self, records: List[Dict[str, Any]]) -> None:
        """Append a batch to the in-memory ledger list."""
        self.records.extend(dict(r) for r in records)

    def read_records(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield retained records past ``after_seq``."""
        for record in self.records:
            if record["seq"] > after_seq:
                yield dict(record)

    def write_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Retain the snapshot document."""
        self.snapshot = json.loads(json.dumps(snapshot))

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The retained snapshot document, if any."""
        return None if self.snapshot is None else dict(self.snapshot)


class JsonlBackend(PersistenceBackend):
    """Append-only ``ledger.jsonl`` plus ``snapshot.json`` in a directory.

    The ledger is one JSON object per line, appended with an explicit
    flush per batch; the snapshot lands via unique-temp +
    :func:`os.replace`, so a reader (or a recovering service) never sees
    a torn snapshot. A torn trailing ledger line — a crash mid-append —
    is detected and ignored during replay.
    """

    kind = "jsonl"

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.ledger_path = self.root / "ledger.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self._handle = open(self.ledger_path, "a", encoding="utf-8")

    def append_records(self, records: List[Dict[str, Any]]) -> None:
        """Append one line per record and flush the batch."""
        for record in records:
            self._handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        self._handle.flush()

    def read_records(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Parse the ledger file, skipping a torn trailing line."""
        if not self.ledger_path.is_file():
            return
        with open(self.ledger_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn trailing line is a crash artifact; anything
                    # after it cannot be trusted either.
                    return
                if record.get("seq", 0) > after_seq:
                    yield record

    def write_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Write snapshot.json atomically (temp + os.replace)."""
        tmp = self.snapshot_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.snapshot_path)

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """Parse snapshot.json; a missing/corrupt file is simply absent."""
        try:
            return json.loads(self.snapshot_path.read_text())
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


class SqliteBackend(PersistenceBackend):
    """One SQLite database holding the ledger and the snapshot.

    Batch appends commit in a single transaction (``executemany`` under
    one ``COMMIT``), so a crash never leaves a partial batch visible.
    The primary key on ``seq`` doubles as the replay cursor.
    """

    kind = "sqlite"

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS ledger ("
            "seq INTEGER PRIMARY KEY, record TEXT NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshot ("
            "id INTEGER PRIMARY KEY CHECK (id = 1), document TEXT NOT NULL)"
        )
        self._conn.commit()

    def append_records(self, records: List[Dict[str, Any]]) -> None:
        """Insert the batch inside one transaction."""
        self._conn.executemany(
            "INSERT INTO ledger (seq, record) VALUES (?, ?)",
            [
                (
                    record["seq"],
                    json.dumps(record, sort_keys=True, separators=(",", ":")),
                )
                for record in records
            ],
        )
        self._conn.commit()

    def read_records(self, after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Select ledger rows past the cursor, ordered by seq."""
        cursor = self._conn.execute(
            "SELECT record FROM ledger WHERE seq > ? ORDER BY seq",
            (after_seq,),
        )
        for (text,) in cursor:
            yield json.loads(text)

    def write_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Upsert the single snapshot row."""
        self._conn.execute(
            "INSERT INTO snapshot (id, document) VALUES (1, ?) "
            "ON CONFLICT (id) DO UPDATE SET document = excluded.document",
            (json.dumps(snapshot, sort_keys=True),),
        )
        self._conn.commit()

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The snapshot row's document, or None."""
        row = self._conn.execute(
            "SELECT document FROM snapshot WHERE id = 1"
        ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def close(self) -> None:
        """Close the database connection (idempotent)."""
        try:
            self._conn.close()
        except sqlite3.ProgrammingError:
            pass


#: Backend kinds :func:`make_backend` accepts (the CLI mirrors these).
BACKEND_KINDS = ("memory", "jsonl", "sqlite")


def make_backend(
    kind: str, path: Optional[Union[str, pathlib.Path]] = None
) -> PersistenceBackend:
    """Construct a backend by name.

    ``memory`` ignores ``path``; ``jsonl`` treats it as a directory;
    ``sqlite`` as a database file path (``revocation.sqlite`` inside a
    directory path). Raises :class:`repro.errors.ConfigurationError` on
    an unknown kind or a missing required path.
    """
    if kind == "memory":
        return MemoryBackend()
    if path is None:
        raise ConfigurationError(f"backend {kind!r} needs a path")
    path = pathlib.Path(path)
    if kind == "jsonl":
        return JsonlBackend(path)
    if kind == "sqlite":
        if path.is_dir() or path.suffix == "":
            path = path / "revocation.sqlite"
        return SqliteBackend(path)
    raise ConfigurationError(
        f"unknown persistence backend {kind!r}; expected one of {BACKEND_KINDS}"
    )
