"""The job store: persistence behind resumable batches, over SQLite.

Public surface:

* :class:`SQLiteJobStore` — the store (jobs/events/leases tables, WAL
  mode, tenant/status/fingerprint indexes);
* :func:`open_job_store` — opens a store from a path or ``sqlite:`` URL;
* :func:`migrate_jsonl_to_sqlite` — one-shot import of a job log written by
  the JSONL store that API 5.0.0 retired;
* the shared vocabulary from :mod:`repro.jobstore.base`
  (``encode_job``/``decode_job``, :class:`StoredJob`, the record-type
  constants, :exc:`JobStoreFormatError`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Union

from repro.jobstore.base import (
    EVENT_RECORD_TYPE,
    LEASE_RECORD_TYPES,
    SPEC_FORMAT_VERSION,
    SUPPORTED_SPEC_VERSIONS,
    TERMINAL_STATUSES,
    JobRecordWriter,
    JobStoreFormatError,
    StoredJob,
    decode_job,
    encode_job,
    job_pin,
    source_fingerprint,
)
from repro.jobstore.sqlite import SQLiteJobStore, _not_a_store


def open_job_store(
    target: Union[str, os.PathLike, Any], *, fsync: bool = True
) -> Any:
    """Open the job store at *target*.

    * an object that already quacks like a store (has ``append`` and
      ``load_jobs``) passes through unchanged;
    * ``sqlite:PATH`` / ``sqlite://PATH`` and every other path open
      :class:`SQLiteJobStore`;
    * a ``jsonl:`` URL or a ``*.jsonl`` path names a log of the retired
      JSONL store and raises :exc:`JobStoreFormatError` — import it once
      with :func:`migrate_jsonl_to_sqlite`.  So does an existing file that
      is not a SQLite database.
    """
    if hasattr(target, "append") and hasattr(target, "load_jobs"):
        return target
    path = os.fspath(target)
    lowered = path.lower()
    if lowered.startswith("sqlite:"):
        path = path[len("sqlite:") :].removeprefix("//")
    elif lowered.startswith("jsonl:") or lowered.endswith(".jsonl"):
        raise _not_a_store(path)
    return SQLiteJobStore(path, fsync=fsync)


def migrate_jsonl_to_sqlite(
    jsonl_path: Union[str, os.PathLike],
    sqlite_path: Union[str, os.PathLike],
    *,
    fsync: bool = True,
) -> SQLiteJobStore:
    """Import a job log of the retired JSONL store into a SQLite store.

    Records are appended in file order, so the store's fold-at-write
    reaches the standings the JSONL replay reached: each job's latest
    lifecycle record with its sticky spec, tenant and fingerprint, its
    latest lease, and its event log.  A line that does not parse — the
    torn tail of a writer that died mid-append — is skipped.  The log is
    left untouched; delete it once satisfied.
    """
    with open(jsonl_path, "r", encoding="utf-8") as log:
        store = SQLiteJobStore(sqlite_path, fsync=fsync)
        for line in log:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            store.append(record)
    return store


__all__ = [
    "EVENT_RECORD_TYPE",
    "LEASE_RECORD_TYPES",
    "SPEC_FORMAT_VERSION",
    "SUPPORTED_SPEC_VERSIONS",
    "TERMINAL_STATUSES",
    "JobRecordWriter",
    "JobStoreFormatError",
    "SQLiteJobStore",
    "StoredJob",
    "decode_job",
    "encode_job",
    "job_pin",
    "migrate_jsonl_to_sqlite",
    "open_job_store",
    "source_fingerprint",
]
