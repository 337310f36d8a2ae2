"""The job store: persistence behind resumable batches, over SQLite.

Public surface:

* :class:`SQLiteJobStore` — the store (jobs/events/leases tables, WAL
  mode, tenant/status/fingerprint indexes);
* :func:`open_job_store` — opens a store from a path or ``sqlite:`` URL;
* the shared vocabulary from :mod:`repro.jobstore.base`
  (``encode_job``/``decode_job``, :class:`StoredJob`, the record-type
  constants, :exc:`JobStoreFormatError`).
"""

from __future__ import annotations

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
    * a ``jsonl:`` URL or a ``*.jsonl`` path names a log of the JSONL store
      retired in API 5.0.0 and raises :exc:`JobStoreFormatError`.  So does
      an existing file that is not a SQLite database.
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
    "open_job_store",
    "source_fingerprint",
]
