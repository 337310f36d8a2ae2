"""The SQLite job store: persistence behind resumable batches.

A :class:`~repro.service.MigrationService` with a ``job_store`` appends one
record per job lifecycle transition (``submitted`` with the rebuild
``spec``, ``running`` at dispatch, ``settled`` with the terminal snapshot),
plus lease-journal, ``event`` and ``degraded`` records (see
:mod:`repro.jobstore.base`).  The store folds each record at write time:

* ``jobs`` — one row per job name: the latest lifecycle record (JSON),
  the sticky ``spec``/``tenant``/``fingerprint`` identity fields that
  survive later records omitting them, the current ``status``, and an
  ``updated`` sequence giving replay order; indexed by tenant, status,
  fingerprint and ``updated``.  ``GET /jobs?tenant=…&status=…`` is a WHERE
  clause, not a scan.
* ``events`` — the persisted typed session event stream, primary-keyed on
  ``(job, seq)`` (monotonic per job; SSE ``Last-Event-ID`` replay is a
  ``seq > ?`` range scan).
* ``leases`` — the latest lease-journal record per job: after a crash, a
  lease that was not released marks work that was in flight.
* ``annotations`` — batch-wide records with no job name (``degraded``
  ladder steps), kept for post-mortem only.

So the store keeps each job's latest standing and latest lease, not the
history of transitions and lease grants.  Job names are the keys:
resubmitting a name overwrites the earlier job's standing.

Durability: WAL journal mode; ``fsync=True`` maps to
``PRAGMA synchronous=FULL``, ``fsync=False`` to ``NORMAL`` (append latency
over surviving power loss).  Connections are opened with
``check_same_thread=False`` and every statement runs under one
process-level lock: the store is shared by the service's submit path, the
scheduler's lease journal, and the server's event publisher, all on
different threads.  Several handles — several services, or processes — may
share one file: ``updated`` is assigned inside the write, so replay order
is one sequence across them.

``spec`` payloads are Python pickles: the store is a local operational
artifact (like a WAL), not an interchange format — do not open stores from
untrusted sources.  Specs are versioned (``"<version>:<base64>"``) so that
resuming a store written by an incompatible code generation fails loudly in
:func:`~repro.jobstore.base.decode_job` instead of unpickling garbage.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from typing import Optional

from repro.jobstore.base import (
    EVENT_RECORD_TYPE,
    LEASE_RECORD_TYPES,
    TERMINAL_STATUSES,
    JobRecordWriter,
    JobStoreFormatError,
    StoredJob,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    name        TEXT PRIMARY KEY,
    tenant      TEXT NOT NULL DEFAULT '',
    status      TEXT NOT NULL DEFAULT 'pending',
    fingerprint TEXT NOT NULL DEFAULT '',
    priority    INTEGER,
    deadline    REAL,
    spec        TEXT,
    pin         TEXT,
    last        TEXT NOT NULL DEFAULT '{}',
    updated     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant      ON jobs (tenant);
CREATE INDEX IF NOT EXISTS idx_jobs_status      ON jobs (status);
CREATE INDEX IF NOT EXISTS idx_jobs_fingerprint ON jobs (fingerprint);
CREATE INDEX IF NOT EXISTS idx_jobs_updated     ON jobs (updated);
CREATE TABLE IF NOT EXISTS events (
    job     TEXT NOT NULL,
    seq     INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (job, seq)
);
CREATE TABLE IF NOT EXISTS leases (
    job    TEXT PRIMARY KEY,
    worker TEXT,
    expiry REAL,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS annotations (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    record TEXT NOT NULL
);
"""

#: The first bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"


def _not_a_store(path: str) -> JobStoreFormatError:
    """The error for a path that names something other than a SQLite store."""
    return JobStoreFormatError(
        f"{path} is not a SQLite job store; a log of the JSONL store retired "
        "in API 5.0.0 converts only with a release before API 10.0.0"
    )


class SQLiteJobStore(JobRecordWriter):
    """Indexed job store over one SQLite database file.

    Raises :exc:`JobStoreFormatError` when *path* exists but is not a
    SQLite database (say, a JSONL log of an earlier version).
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True):
        self.path = str(path)
        self.fsync = fsync
        try:
            with open(self.path, "rb") as handle:
                header = handle.read(len(_SQLITE_HEADER))
        except FileNotFoundError:
            header = b""  # nothing there yet: sqlite3 creates the file
        if header and header != _SQLITE_HEADER:
            raise _not_a_store(self.path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(
            "PRAGMA synchronous=%s" % ("FULL" if fsync else "NORMAL")
        )
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ---------------------------------------------------------------- writing
    def append(self, record: dict) -> None:
        """Fold one record into the store (the replay rule, at write time).

        Lifecycle records upsert the job row (sticky identity fields
        survive records that omit them) and take the next ``updated``
        sequence number; lease records upsert the lease row; event records
        insert into ``events``.
        """
        kind = record.get("type")
        name = record.get("job")
        with self._lock:
            if kind in LEASE_RECORD_TYPES and isinstance(name, str):
                self._conn.execute(
                    "INSERT INTO leases (job, worker, expiry, record) "
                    "VALUES (?, ?, ?, ?) "
                    "ON CONFLICT(job) DO UPDATE SET worker=excluded.worker, "
                    "expiry=excluded.expiry, record=excluded.record",
                    (
                        name,
                        record.get("worker"),
                        record.get("expiry"),
                        json.dumps(record, sort_keys=True),
                    ),
                )
            elif kind == EVENT_RECORD_TYPE and isinstance(name, str):
                self._conn.execute(
                    "INSERT OR REPLACE INTO events (job, seq, payload) "
                    "VALUES (?, ?, ?)",
                    (
                        name,
                        int(record.get("seq", 0)),
                        json.dumps(record.get("event") or {}, sort_keys=True),
                    ),
                )
            elif isinstance(name, str):
                fingerprint = record.get("fingerprint") or (record.get("pin") or {}).get(
                    "source"
                )
                pin = record.get("pin")
                self._conn.execute(
                    "INSERT INTO jobs (name, tenant, status, fingerprint, priority,"
                    " deadline, spec, pin, last, updated)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?,"
                    "  (SELECT COALESCE(MAX(updated), 0) + 1 FROM jobs))"
                    " ON CONFLICT(name) DO UPDATE SET"
                    "  tenant = CASE WHEN excluded.tenant != ''"
                    "    THEN excluded.tenant ELSE jobs.tenant END,"
                    "  status = excluded.status,"
                    "  fingerprint = CASE WHEN excluded.fingerprint != ''"
                    "    THEN excluded.fingerprint ELSE jobs.fingerprint END,"
                    "  priority = COALESCE(excluded.priority, jobs.priority),"
                    "  deadline = COALESCE(excluded.deadline, jobs.deadline),"
                    "  spec = COALESCE(excluded.spec, jobs.spec),"
                    "  pin = COALESCE(excluded.pin, jobs.pin),"
                    "  last = excluded.last,"
                    "  updated = excluded.updated",
                    (
                        name,
                        record.get("tenant") or "",
                        record.get("status", "pending"),
                        fingerprint or "",
                        record.get("priority"),
                        record.get("deadline"),
                        record.get("spec"),
                        json.dumps(pin, sort_keys=True) if pin is not None else None,
                        json.dumps(record, sort_keys=True),
                    ),
                )
            else:
                # Batch-wide annotation (e.g. `degraded`): no job standing.
                self._conn.execute(
                    "INSERT INTO annotations (record) VALUES (?)",
                    (json.dumps(record, sort_keys=True),),
                )
            self._conn.commit()

    # ---------------------------------------------------------------- reading
    def _stored(self, row: tuple) -> StoredJob:
        name, tenant, fingerprint, spec, last, lease = row
        return StoredJob(
            name=name,
            last=json.loads(last) if last else {},
            spec=spec,
            lease=json.loads(lease) if lease else None,
            tenant=tenant or "",
            fingerprint=fingerprint or "",
        )

    _SELECT = (
        "SELECT j.name, j.tenant, j.fingerprint, j.spec, j.last, l.record "
        "FROM jobs j LEFT JOIN leases l ON l.job = j.name"
    )

    def load_jobs(self) -> dict[str, StoredJob]:
        """Every job's standing, in ``updated`` order.

        Includes annotation-only standings — lease-journal entries for names
        with no lifecycle record yet (a fleet whose ``lease_log`` is this
        store).
        """
        with self._lock:
            rows = self._conn.execute(self._SELECT + " ORDER BY j.updated").fetchall()
            orphans = self._conn.execute(
                "SELECT l.job, '', '', NULL, NULL, l.record FROM leases l "
                "WHERE l.job NOT IN (SELECT name FROM jobs) ORDER BY l.job"
            ).fetchall()
        return {row[0]: self._stored(row) for row in list(rows) + list(orphans)}

    def query_jobs(
        self,
        *,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> list[StoredJob]:
        """Filtered job standings — an indexed WHERE clause, not a scan."""
        clauses, params = [], []
        if tenant is not None:
            clauses.append("j.tenant = ?")
            params.append(tenant)
        if status is not None:
            clauses.append("j.status = ?")
            params.append(status)
        if fingerprint is not None:
            clauses.append("j.fingerprint = ?")
            params.append(fingerprint)
        sql = self._SELECT
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY j.updated"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._stored(row) for row in rows]

    # ---------------------------------------------------------------- events
    def load_events(self, job_name: str, *, after: int = 0) -> list[tuple[int, dict]]:
        """The persisted event stream of one job with ``seq > after``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, payload FROM events WHERE job = ? AND seq > ?"
                " ORDER BY seq",
                (job_name, after),
            ).fetchall()
        return [(seq, json.loads(payload)) for seq, payload in rows]

    def last_event_seq(self, job_name: str) -> int:
        """Highest persisted event ``seq`` for *job_name* (0 when none)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM events WHERE job = ?",
                (job_name,),
            ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------- compaction
    def compact(self) -> int:
        """Drop what no standing needs any more, without changing one.

        The row-per-job design folds lifecycle history at write time, so
        compaction removes the remaining residue: released leases, leases
        of settled jobs, event logs of settled jobs, and accumulated batch
        annotations.  An open lease on an unsettled job stays (in-flight
        evidence).  Returns the number of rows removed.
        """
        terminal = sorted(TERMINAL_STATUSES)
        settled = "SELECT name FROM jobs WHERE status IN (%s)" % ", ".join("?" * len(terminal))
        with self._lock:
            removed = 0
            cursor = self._conn.execute(
                "DELETE FROM leases WHERE json_extract(record, '$.type') = 'released'"
                f" OR job IN ({settled})",
                terminal,
            )
            removed += cursor.rowcount
            cursor = self._conn.execute(
                f"DELETE FROM events WHERE job IN ({settled})", terminal
            )
            removed += cursor.rowcount
            cursor = self._conn.execute("DELETE FROM annotations")
            removed += cursor.rowcount
            self._conn.commit()
            self._conn.execute("VACUUM")
        return removed

    def close(self) -> None:
        with self._lock:
            self._conn.close()
