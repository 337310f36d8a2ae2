"""Shared vocabulary of the job store.

The store speaks one *record* vocabulary: ``submitted`` / ``running`` /
``settled`` lifecycle records, the ``leased`` / ``lease_heartbeat`` /
``released`` lease journal, ``degraded`` batch annotations, and ``event``
records persisting the typed session event stream.
:class:`~repro.jobstore.sqlite.SQLiteJobStore` folds them at write time
into per-job :class:`StoredJob` standings, which
:meth:`~repro.service.MigrationService.resume` and the fleet's lease
recovery read back.

This module holds the record-type constants, the versioned ``spec``
encoding, :class:`StoredJob`, and :class:`JobRecordWriter` — the mixin
that builds the canonical record shapes and funnels them through the
store's ``append``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

#: ``JobStatus`` values that mean the job will never run again.
TERMINAL_STATUSES = frozenset(
    {"done", "failed", "cancelled", "expired", "quarantined", "incompatible"}
)

#: Record types that annotate work assignment without changing lifecycle
#: standing (the lease journal; see :class:`JobRecordWriter`).
LEASE_RECORD_TYPES = frozenset({"leased", "lease_heartbeat", "released"})

#: Record type persisting one typed session event (``seq``-numbered per
#: job) — an annotation, like lease records: it never changes standing.
EVENT_RECORD_TYPE = "event"

#: Version written into new ``spec`` fields.  Bump when the pickled
#: MigrationJob shape changes incompatibly; old stores then fail loudly on
#: resume instead of resurrecting half-compatible jobs.
SPEC_FORMAT_VERSION = 3

#: Versions this code generation can still decode.  Version 1 is the
#: unprefixed bare-base64 format of earlier stores (no colon in the base64
#: alphabet, so the two formats cannot be confused); version 2 pickles lack
#: the ``tenant``/``workload`` job fields, which resume re-derives.
SUPPORTED_SPEC_VERSIONS = frozenset({1, 2, SPEC_FORMAT_VERSION})


class JobStoreFormatError(RuntimeError):
    """A ``spec`` field is from an incompatible format version or corrupt."""


def encode_job(job: Any) -> str:
    """Pickle a job spec into the store's versioned ``spec`` field."""
    encoded = base64.b64encode(pickle.dumps(job)).decode("ascii")
    return f"{SPEC_FORMAT_VERSION}:{encoded}"


def decode_job(spec: str) -> Any:
    """Rebuild a job spec from a ``spec`` field (trusted local stores only).

    Raises :class:`JobStoreFormatError` for an unsupported format version or
    a corrupt payload — loudly, because silently unpickling a spec written
    by an incompatible code generation is how resume corrupts a batch.
    """
    prefix, sep, rest = spec.partition(":")
    if sep and prefix.isdigit():
        version, encoded = int(prefix), rest
    else:
        version, encoded = 1, spec
    if version not in SUPPORTED_SPEC_VERSIONS:
        raise JobStoreFormatError(
            f"job spec format v{version} is not supported by this code "
            f"generation (supported: {sorted(SUPPORTED_SPEC_VERSIONS)}); "
            f"rerun the batch instead of resuming it"
        )
    try:
        return pickle.loads(base64.b64decode(encoded.encode("ascii"), validate=True))
    except (binascii.Error, ValueError, pickle.UnpicklingError, EOFError) as error:
        raise JobStoreFormatError(f"job spec payload is corrupt: {error}") from error


def source_fingerprint(program: Any) -> str:
    """Stable short fingerprint of one source program (pin/index key)."""
    from repro.lang.pretty import format_program

    return hashlib.sha256(format_program(program).encode("utf-8")).hexdigest()[:16]


def job_pin(job: Any) -> Optional[dict]:
    """The verifiable identity of a job spec, stored next to the pickle.

    ``source`` is the source-program fingerprint, ``target`` the target
    schema's name, ``workload`` the registry workload the job was built
    from (when the submitter recorded one).  Resume recomputes the pin from
    the decoded spec — and, for registry-built jobs, from the *current*
    registry — and refuses to run jobs whose pins no longer match
    (:attr:`~repro.service.JobStatus.INCOMPATIBLE`), instead of trusting a
    pickle that decoded into something other than what was submitted.
    """
    program = getattr(job, "source_program", None)
    if program is None:
        return None
    pin = {"source": source_fingerprint(program)}
    target = getattr(job, "target_schema", None)
    if target is not None and getattr(target, "name", ""):
        pin["target"] = target.name
    workload = getattr(job, "workload", None)
    if workload:
        pin["workload"] = workload
    return pin


@dataclass
class StoredJob:
    """One job's standing in the store."""

    name: str
    #: The latest lifecycle record (its ``status`` decides resumability).
    last: dict = field(default_factory=dict)
    #: The pickled job spec from the submission record, if any.
    spec: Optional[str] = None
    #: The latest lease-journal record, if any (``leased`` /
    #: ``lease_heartbeat`` / ``released``) — purely informational.
    lease: Optional[dict] = None
    #: The submitting tenant (empty for tenant-less direct submissions).
    tenant: str = ""
    #: Source-program fingerprint from the submission pin (index key).
    fingerprint: str = ""

    @property
    def status(self) -> str:
        return self.last.get("status", "pending")

    @property
    def settled(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def resumable(self) -> bool:
        """Unfinished and reconstructable: the job to rerun on resume.

        Includes ``running`` standings — after a crash, a job interrupted
        mid-run is exactly what resume must rerun.  Live-service adoption
        uses the stricter :attr:`deferred` instead.
        """
        return not self.settled and self.spec is not None

    @property
    def deferred(self) -> bool:
        """Submitted but never dispatched: safe for a live service to adopt.

        A ``running`` standing is excluded — on a *shared* store it means
        some other live service currently owns the job, and adopting it
        would double-execute; only a post-crash :meth:`MigrationService.resume`
        may claim running jobs (the crashed owner is gone by definition).
        """
        return self.status == "pending" and self.spec is not None


class JobRecordWriter:
    """Record-shape builders over one ``append`` (a mixin).

    Subclasses implement ``append(record)``;
    :class:`~repro.jobstore.sqlite.SQLiteJobStore` folds each record into
    its tables.
    """

    def append(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def record_submitted(self, handle, job) -> None:
        """Persist a submission: the pending snapshot plus the rebuild spec."""
        record = handle.to_dict(include_program=False)
        record.update(
            type="submitted",
            priority=job.priority,
            deadline=job.deadline,
            spec=encode_job(job),
        )
        tenant = getattr(job, "tenant", "")
        if tenant:
            record["tenant"] = tenant
        pin = job_pin(job)
        if pin is not None:
            record["pin"] = pin
            record["fingerprint"] = pin["source"]
        self.append(record)

    def record_running(self, handle) -> None:
        self.append({"type": "running", "job": handle.job.name, "status": "running"})

    def record_settled(self, handle, *, include_program: bool = True) -> None:
        record = handle.to_dict(include_program=include_program)
        record["type"] = "settled"
        self.append(record)

    # ---------------------------------------------------------- lease journal
    # Under distributed execution the store is also the lease journal: a
    # fleet grants a job to one worker until ``expiry`` (``leased``), the
    # worker's heartbeat renews it (``lease_heartbeat``), and ``released``
    # ends it with ``outcome`` "done", "failed" or "lost" (the worker
    # vanished and the job is re-leased elsewhere).  The store keeps the
    # latest lease per job: one that is not ``released`` after a crash
    # marks work that was in flight.
    def record_leased(self, job_name: str, worker_id: str, expiry: float) -> None:
        self.append(
            {"type": "leased", "job": job_name, "worker": worker_id, "expiry": expiry}
        )

    def record_lease_heartbeat(self, job_name: str, worker_id: str, expiry: float) -> None:
        self.append(
            {
                "type": "lease_heartbeat",
                "job": job_name,
                "worker": worker_id,
                "expiry": expiry,
            }
        )

    def record_lease_released(self, job_name: str, worker_id: str, outcome: str) -> None:
        self.append(
            {"type": "released", "job": job_name, "worker": worker_id, "outcome": outcome}
        )

    def record_degraded(
        self, from_mode: str, to_mode: str, reason: str, *, jobs: Any = ()
    ) -> None:
        """Journal one degradation-ladder step (fleet -> pool -> inline).

        Batch-wide annotation, not a per-job lifecycle record: it carries a
        ``jobs`` *list* instead of a ``job`` name, so replay — which keys on
        the string ``job`` field — skips it by construction and no job's
        standing changes.
        """
        self.append(
            {
                "type": "degraded",
                "from": from_mode,
                "to": to_mode,
                "reason": reason,
                "jobs": list(jobs),
            }
        )

    # -------------------------------------------------------------- events
    def record_event(self, job_name: str, seq: int, payload: dict) -> None:
        """Persist one typed session event (``seq`` is per-job monotonic).

        The server's SSE replay (``Last-Event-ID``) reads these back with
        ``load_events``; like lease records they are annotations — a job's
        lifecycle standing never depends on its event log.
        """
        self.append(
            {"type": EVENT_RECORD_TYPE, "job": job_name, "seq": seq, "event": payload}
        )
