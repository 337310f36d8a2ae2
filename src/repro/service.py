"""Multi-job migration service: batches of synthesis jobs over shared state.

The :class:`MigrationService` facade accepts batches of
:class:`MigrationJob`\\ s and schedules them through the unified execution
layer (:mod:`repro.exec`), sharing process-global artifacts across jobs:

* **Compiled-program caches** — one
  :class:`~repro.engine.compiler.ProgramCompiler` per process serves every
  job; its cache is keyed by (schema signature, function AST), so jobs over
  the same schema family skip recompilation entirely (this is where the
  multi-job throughput win over N independent ``migrate()`` calls comes
  from, alongside job-level parallelism).  Each job's
  ``SynthesisResult.cache.compiled_function_hits`` counts the closures it
  reused, so cross-job sharing is observable per job.
* **Counterexample pools** — pooled failing inputs are shared between jobs
  with the *same source program* (pools are keyed by the program
  fingerprint: an invocation sequence is only meaningful against the
  function suite that produced it).  Re-migrating one program toward several
  candidate target schemas screens later jobs with the earlier jobs'
  counterexamples.
* **Source-output caches** — the bounded LRU over source-program outputs is
  shared across all jobs of a process (entries are keyed by program
  fingerprint, so cross-job reuse is sound).

Scheduling: jobs dispatch in ``(priority, deadline, submission order)``
order — lower :attr:`MigrationJob.priority` first, earlier deadlines
breaking ties.  :attr:`MigrationJob.deadline` (seconds from ``run()``) is a
per-job completion deadline: it clips the job's ``time_limit`` so a running
job times out at the deadline, and a job still queued when its deadline
passes settles as :attr:`JobStatus.EXPIRED` without running.

Execution modes — the *same* scheduler, channels and semantics, different
transports:

* ``max_workers <= 1`` — jobs run **in-process**, one
  :class:`~repro.core.session.SynthesisSession` at a time, events delivered
  through the direct (synchronous callback) transport.
* ``max_workers > 1`` — jobs run on **worker processes**.  Typed session
  events stream *live* through the queue transport (``on_event`` fires
  mid-job, from the router thread), and ``JobHandle.cancel()`` reaches a
  running worker through the cross-process cancel flag — the session winds
  down cooperatively at its next completion iteration or tested sequence,
  exactly like the in-process mode.  Shared artifacts live in per-process
  globals.
* ``workers=["host:port", ...]`` — jobs run on **remote workers** (a
  :class:`~repro.exec.remote.RemoteFleet` of ``repro.worker`` processes,
  possibly on other machines) over the socket transport, with the same
  streaming, cancellation and retry semantics; counterexample pools sync by
  value (snapshots out, discoveries back) since there is no shared memory,
  and the job store doubles as the fleet's lease journal.

The service parallelizes *across* jobs; each job is one sequential
:class:`~repro.core.session.SynthesisSession`.

Persistence: construct the service with ``job_store=<path>`` and every job's
lifecycle (submission with a rebuildable spec, dispatch, terminal snapshot)
is recorded in a SQLite job store (:mod:`repro.jobstore`).  After an interruption
— process killed mid-batch, machine rebooted — ``MigrationService.resume(path)``
reconstructs a service from the store: settled jobs come back as *restored*
handles (their recorded responses intact, nothing rerun) and only the
unfinished jobs are resubmitted; calling ``run()`` then finishes the batch,
appending to the same store.
"""

from __future__ import annotations

import copy
import enum
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.config import SynthesisConfig
from repro.core.result import SynthesisResult
from repro.core.session import (
    ExecutionDegraded,
    SessionCore,
    SessionEvent,
    SynthesisSession,
)
from repro.datamodel.schema import Schema
from repro.engine.compiler import ProgramCompiler
from repro.exec import ExecutorUnavailable, TaskState, WorkScheduler
from repro.exec.remote import RemoteFleet
from repro.jobstore import (
    JobStoreFormatError,
    SQLiteJobStore,
    decode_job,
    job_pin,
    open_job_store,
)
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.testing_cache import CounterexamplePool, SourceOutputCache


@dataclass
class MigrationJob:
    """One schema-migration request: migrate *source_program* to *target_schema*.

    *priority* orders dispatch within a batch (lower runs first; ties run in
    submission order).  *deadline* is a wall-clock completion budget in
    seconds, measured from ``MigrationService.run()``: the job must settle by
    then — it clips the job's ``time_limit`` when the job starts, and expires
    the job outright if it is still queued when the deadline passes.
    """

    name: str
    source_program: Program
    target_schema: Schema
    config: Optional[SynthesisConfig] = None
    priority: int = 0
    deadline: Optional[float] = None
    #: The submitting tenant, for multi-tenant fronts ("" = direct/untenanted).
    #: Stored specs from format v2 predate this field — always read it with
    #: ``getattr(job, "tenant", "")``.
    tenant: str = ""
    #: The registry workload this job was built from, when the submitter
    #: knows it (the server records it so resume can re-pin the job against
    #: the *current* registry).  Read with ``getattr(job, "workload", None)``.
    workload: Optional[str] = None


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"          # the job ran to completion (the result says whether
    #                        synthesis itself succeeded, timed out, or failed)
    FAILED = "failed"      # the job raised an error before producing a result
    CANCELLED = "cancelled"
    EXPIRED = "expired"    # the job's deadline passed while it was still queued
    QUARANTINED = "quarantined"  # poison job: repeatedly killed its workers
    INCOMPATIBLE = "incompatible"  # resume refused the stored spec: format
    #                                version, registry drift, or pin mismatch


class JobHandle:
    """Progress/result handle for one submitted job."""

    def __init__(self, job: MigrationJob):
        self.job = job
        self.status = JobStatus.PENDING
        self.result: Optional[SynthesisResult] = None
        self.error: str = ""
        self._cancel = threading.Event()
        self._session: Optional[SynthesisSession] = None
        self._task = None  # the scheduler TaskHandle, while running
        self._wall_deadline: Optional[float] = None
        #: The stored response payload of a handle rebuilt from a job store
        #: (``to_dict`` serves it verbatim; ``result`` stays ``None``).
        self._restored: Optional[dict] = None
        #: The job store already holds this handle's terminal snapshot.
        self._settled_recorded = False

    @classmethod
    def from_record(cls, record: dict) -> "JobHandle":
        """Rebuild a settled handle from its job-store terminal snapshot.

        The handle reports the recorded status/error and serves the recorded
        response from :meth:`to_dict`; the deserialized ``result`` object is
        not reconstructed (``to_dict()["result"]`` carries the payload).
        """
        job = MigrationJob(
            name=record.get("job", "?"), source_program=None, target_schema=None
        )
        handle = cls(job)
        try:
            handle.status = JobStatus(record.get("status", "done"))
        except ValueError:
            handle.status = JobStatus.DONE
        handle.error = record.get("error", "")
        handle._restored = {
            key: value for key, value in record.items() if key not in ("type", "spec")
        }
        handle._settled_recorded = True
        return handle

    @property
    def restored(self) -> bool:
        """Was this handle rebuilt from a job store rather than run here?"""
        return self._restored is not None

    def cancel(self) -> None:
        """Request cancellation.

        Pending jobs are skipped.  A running job — in-process *or* inside a
        pooled worker — winds down cooperatively at its next completion-loop
        iteration or tested sequence: the request crosses the process
        boundary through the execution layer's shared cancel flag and the
        job settles with a partial, ``cancelled`` result.
        """
        self._cancel.set()
        if self._session is not None:
            self._session.cancel()
        if self._task is not None:
            self._task.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def done(self) -> bool:
        return self.status in (
            JobStatus.DONE,
            JobStatus.FAILED,
            JobStatus.CANCELLED,
            JobStatus.EXPIRED,
            JobStatus.QUARANTINED,
            JobStatus.INCOMPATIBLE,
        )

    def _mark_running(self) -> None:
        if self.status is JobStatus.PENDING:
            self.status = JobStatus.RUNNING

    def to_dict(self, *, include_program: bool = True) -> dict:
        """The service's JSON-ready response shape for this job."""
        if self._restored is not None:
            # Deep copy: live handles build a fresh payload per call, so a
            # caller mutating one response must not bleed into later calls.
            return copy.deepcopy(self._restored)
        return {
            "job": self.job.name,
            "status": self.status.value,
            "error": self.error,
            "result": (
                self.result.to_dict(include_program=include_program)
                if self.result is not None
                else None
            ),
        }


@dataclass
class _JobTask:
    """One job shipped to a service worker (pool process or remote peer)."""

    name: str
    source_program: Program
    target_schema: Schema
    config: SynthesisConfig
    #: Absolute completion deadline (``time.time()`` base), or ``None``.
    wall_deadline: Optional[float] = None
    #: The parent's accumulated counterexamples for this job's source program
    #: (cache sync: workers merge the snapshot instead of assuming shared
    #: process memory — which remote peers by definition lack).
    pool_snapshot: list = field(default_factory=list)


@dataclass
class _JobOutcome:
    """A worker's reply: the result plus the cache deltas to merge back.

    ``counterexamples`` are only the sequences *this* job discovered (the
    shipped snapshot is already in the parent's pool), so the parent-side
    merge stays O(new discoveries) per job regardless of pool size.
    """

    result: SynthesisResult
    counterexamples: list = field(default_factory=list)
    #: Source-program fingerprint keying the parent pool to merge into.
    source_key: str = ""


#: Per-worker-process cross-job counterexample pools, keyed by source-program
#: fingerprint (sequences only transfer between jobs migrating the same
#: source program).
_process_pools: dict[str, CounterexamplePool] = {}

#: Per-worker-process source-output cache, shared across the jobs a worker
#: runs (keys include the program fingerprint, so cross-job reuse is sound).
_worker_source_cache: Optional[SourceOutputCache] = None

#: Per-worker-process program compiler (compiled execution backend): its
#: compiled-closure cache is keyed by (schema signature, function value), so
#: reuse works even though each pickled job carries fresh program objects.
_worker_compiler: Optional[ProgramCompiler] = None


def _worker_cache(max_entries: int) -> SourceOutputCache:
    global _worker_source_cache
    if _worker_source_cache is None:
        _worker_source_cache = SourceOutputCache(max_entries)
    elif max_entries > _worker_source_cache.max_entries:
        # Capacity only grows (put() reads max_entries live), mirroring the
        # in-process service: replacing the cache on a smaller request would
        # throw away the cross-job reuse this process global exists for.
        _worker_source_cache.max_entries = max_entries
    return _worker_source_cache


def _worker_program_compiler(config: SynthesisConfig) -> Optional[ProgramCompiler]:
    global _worker_compiler
    if config.execution_backend != "compiled":
        return None
    if _worker_compiler is None:
        _worker_compiler = ProgramCompiler()
    return _worker_compiler


def _shared_pool_for(
    pools: dict[str, CounterexamplePool], source_key: str, config: SynthesisConfig
) -> Optional[CounterexamplePool]:
    """Fetch/create the cross-job pool for one source program.

    Serves both the in-process service pools and the per-worker-process
    globals (same lookup rules, different dict).  The pool's *entries*
    persist across jobs — that is the sharing — but its reporting counters
    are reset per job, so each ``SynthesisResult.cache`` reflects that job's
    own screening.
    """
    if not config.counterexample_pool:
        return None
    pool = pools.get(source_key)
    if pool is None:
        pool = CounterexamplePool(config.pool_max_size)
        pools[source_key] = pool
    elif pool.max_size != config.pool_max_size:
        # A job with a different cap gets a re-capped pool carrying the
        # entries earlier jobs discovered (merge evicts down to the new cap)
        # — never an empty one; the sharing is the point of the service.
        resized = CounterexamplePool(config.pool_max_size)
        resized.merge(pool.snapshot())
        pool = resized
        pools[source_key] = pool
        pool.stats = type(pool.stats)()
    else:
        pool.stats = type(pool.stats)()
    return pool


def _clip_to_deadline(
    config: SynthesisConfig, wall_deadline: Optional[float]
) -> SynthesisConfig:
    """Fold an absolute completion deadline into the job's ``time_limit``."""
    if wall_deadline is None:
        return config
    remaining = max(0.0, wall_deadline - time.time())
    if config.time_limit is None or remaining < config.time_limit:
        config = replace(config, time_limit=remaining)
    return config


def _run_job_in_worker(task: _JobTask, ctx) -> _JobOutcome:
    """Service worker entry point: run one job over the process-shared artifacts.

    *ctx* is the scheduler-provided :class:`~repro.exec.WorkContext`: typed
    session events stream out through ``ctx.emit`` (live, when the parent
    subscribed) and the cross-process cancel flag comes in as the session's
    cancel signal.  The same entry point serves pool processes and remote
    workers — cache sync is explicit either way: the parent's accumulated
    counterexamples arrive in ``task.pool_snapshot`` and merge into this
    process's pool for the source program; sequences discovered here travel
    back in the :class:`_JobOutcome` (the compiled-closure cache stays
    process-local — closures cannot cross a process boundary — but its
    hit/miss deltas surface on ``result.cache`` to prove reuse remotely).
    """
    config = _clip_to_deadline(task.config, task.wall_deadline)
    source_key = format_program(task.source_program)
    pool = _shared_pool_for(_process_pools, source_key, config)
    if pool is not None and task.pool_snapshot:
        pool.merge(task.pool_snapshot)
        # Stats must reflect this job's own screening, not the snapshot.
        pool.stats.added = 0
        pool.stats.duplicates = 0
    core = SessionCore(
        task.source_program,
        task.target_schema,
        config,
        pool=pool,
        source_cache=_worker_cache(config.source_cache_max_entries),
        compiler=_worker_program_compiler(config),
    )
    session = SynthesisSession(
        task.source_program,
        task.target_schema,
        config,
        core=core,
        on_event=ctx.emit if ctx.streaming else None,
        cancel_signal=ctx.cancel_event,
    )
    result = session.run()
    fresh: list = []
    if pool is not None:
        # Ship back only sequences this job discovered (the snapshot is
        # already in the parent's pool).
        seen = set(task.pool_snapshot)
        fresh = [sequence for sequence in pool.snapshot() if sequence not in seen]
    return _JobOutcome(result=result, counterexamples=fresh, source_key=source_key)


class MigrationService:
    """Facade running batches of migration jobs with shared artifacts.

    Usage::

        service = MigrationService(max_workers=4)
        handles = service.submit_batch(jobs)
        service.run()                    # blocks until every job settles
        responses = [h.to_dict() for h in handles]

    or, as a one-call convenience, ``service.migrate_batch(jobs)``.

    ``on_event`` receives ``(job_name, event)`` for every typed session
    event, in both execution modes: synchronously on the running thread
    in-process, live from the event-router thread when jobs run on worker
    processes.  Delivery is exactly-once in crash-free runs; if a worker
    process crashes mid-job and the scheduler retries it, the retried job
    re-streams from the start, so consumers see that job's prefix again
    (at-least-once under crashes).

    *job_store* (a path, a ``sqlite:`` URL or a
    :class:`~repro.jobstore.SQLiteJobStore`) enables the persistent batch
    log — see the module docstring and :meth:`MigrationService.resume`.  A
    log of the retired JSONL store raises
    :exc:`~repro.jobstore.JobStoreFormatError`; import it first with
    :func:`~repro.jobstore.migrate_jsonl_to_sqlite`.  *max_pending_events*
    bounds the pooled modes' shared event queue (backpressure; see
    :mod:`repro.exec.channel`).

    *workers* turns the service into the front of a **remote fleet**: a list
    of ``"host:port"`` addresses of listening ``repro.worker`` processes (or
    a pre-built :class:`~repro.exec.remote.RemoteFleet`, e.g. one listening
    for ``--connect`` registrations).  Jobs then dispatch over the socket
    transport with the exact semantics of the pooled mode — live events,
    cross-process cancel, crash retry (here: lease re-grant when a worker
    vanishes) — and the job store doubles as the fleet's lease journal.
    """

    def __init__(
        self,
        *,
        max_workers: int = 0,
        default_config: Optional[SynthesisConfig] = None,
        on_event: Optional[Callable[[str, SessionEvent], None]] = None,
        job_store: SQLiteJobStore | str | None = None,
        max_pending_events: Optional[int] = None,
        workers: Union[Sequence[str], RemoteFleet, None] = None,
        age_after: Optional[float] = None,
        age_step: int = 1,
    ):
        self.max_workers = max_workers
        self.default_config = default_config or SynthesisConfig()
        self._on_event = on_event
        if job_store is not None:
            # Paths and URLs open a SQLite store; store objects pass through.
            job_store = open_job_store(job_store)
        self._store = job_store
        self.max_pending_events = max_pending_events
        #: Anti-starvation aging forwarded to every scheduler this service
        #: builds (see :class:`~repro.exec.scheduler.WorkScheduler`): a
        #: pending job's priority improves by ``age_step`` per ``age_after``
        #: seconds waited, so weighted fair-share fronts cannot starve
        #: low-weight tenants.
        self.age_after = age_after
        self.age_step = age_step
        if workers is not None and not isinstance(workers, RemoteFleet):
            workers = RemoteFleet(workers=tuple(workers))
            self._owns_fleet = True
        else:
            self._owns_fleet = False
        self._fleet: Optional[RemoteFleet] = workers
        if self._fleet is not None and self._fleet.lease_log is None:
            # The batch log is the lease journal: one file tells the whole
            # story of who ran what, and a crashed coordinator's open leases
            # are visible right next to the jobs they belong to.
            self._fleet.lease_log = self._store
        self._handles: list[JobHandle] = []
        # In-process shared artifacts (the worker-process equivalents live in
        # this module's globals).
        self._compiler = ProgramCompiler()
        self._pools: dict[str, CounterexamplePool] = {}
        self._source_cache = SourceOutputCache(self.default_config.source_cache_max_entries)

    # ------------------------------------------------------------- submission
    def submit(self, job: MigrationJob) -> JobHandle:
        handle = JobHandle(job)
        self._handles.append(handle)
        if self._store is not None:
            self._store.record_submitted(handle, job)
        return handle

    def submit_batch(self, jobs: Iterable[MigrationJob]) -> list[JobHandle]:
        return [self.submit(job) for job in jobs]

    def submit_deferred(self, job: MigrationJob) -> None:
        """Record *job* in the store without tracking or running it here.

        The record-only half of the deferred-submission pattern: the job
        exists only as a ``submitted`` store record until a later
        :meth:`adopt_unfinished` (on this service or another over the same
        store) or :meth:`resume` (after a restart) picks it up.  Requires a
        job store.
        """
        if self._store is None:
            raise ValueError("submit_deferred requires a job_store")
        self._store.record_submitted(JobHandle(job), job)

    @classmethod
    def resume(
        cls,
        path: "SQLiteJobStore | str",
        *,
        max_workers: int = 0,
        default_config: Optional[SynthesisConfig] = None,
        on_event: Optional[Callable[[str, SessionEvent], None]] = None,
        max_pending_events: Optional[int] = None,
        age_after: Optional[float] = None,
        age_step: int = 1,
    ) -> "MigrationService":
        """Reconstruct an interrupted batch from its job store.

        Jobs whose latest record is terminal come back as restored handles —
        their recorded responses are served verbatim and they are **not**
        rerun.  Unfinished jobs (still pending, or interrupted mid-run) are
        rebuilt from their stored specs, **re-pinned** (below) and
        resubmitted *without* a duplicate submission record; call
        :meth:`run` on the returned service to finish the batch (new
        lifecycle records append to the same store).

        Re-pinning: a stored spec is an old pickle, and the code or workload
        registry may have moved since it was written.  Each spec is decoded
        through the format-version gate, then verified against the identity
        pin recorded at submission — and, for registry-built jobs (spec
        carries a ``workload`` name), against the *current* registry: the
        workload must still exist and its source program must still
        fingerprint to the recorded pin, in which case the job is re-pointed
        at the current registry objects.  Jobs that fail any gate settle
        immediately as :attr:`JobStatus.INCOMPATIBLE` — a loud terminal
        status in the store — instead of running a spec that no longer means
        what it meant.
        """
        service = cls(
            max_workers=max_workers,
            default_config=default_config,
            on_event=on_event,
            job_store=path,
            max_pending_events=max_pending_events,
            age_after=age_after,
            age_step=age_step,
        )
        for stored in service._store.load_jobs().values():
            if stored.settled:
                service._handles.append(JobHandle.from_record(stored.last))
            elif stored.resumable:
                # Bypass submit(): the store already has this job's
                # submission record (no duplicates).
                service._handles.append(service._repin(stored))
            # Unfinished jobs without a spec (foreign/damaged records) are
            # unrecoverable; they stay out of the resumed batch.
        service._record_settled()  # INCOMPATIBLE verdicts land immediately
        return service

    def _repin(self, stored) -> JobHandle:
        """Decode and re-verify one stored spec; INCOMPATIBLE on any drift."""

        def incompatible(reason: str) -> JobHandle:
            handle = JobHandle(
                MigrationJob(name=stored.name, source_program=None, target_schema=None)
            )
            handle.status = JobStatus.INCOMPATIBLE
            handle.error = reason
            return handle

        try:
            job = decode_job(stored.spec)
        except JobStoreFormatError as error:
            return incompatible(str(error))
        # Old-format pickles (v2) predate the tenant/workload fields; give
        # the attributes real slots so downstream getattr-free code works.
        job.__dict__.setdefault("tenant", stored.tenant)
        job.__dict__.setdefault("workload", None)
        stored_pin = (stored.last or {}).get("pin") or (
            {"source": stored.fingerprint} if stored.fingerprint else None
        )
        workload_name = getattr(job, "workload", None)
        if workload_name:
            # Registry-built job: re-pin against the *current* registry.
            from repro.workloads import get_benchmark

            try:
                benchmark = get_benchmark(workload_name)
            except KeyError:
                return incompatible(
                    f"workload {workload_name!r} is gone from the registry"
                )
            current_pin = job_pin(
                MigrationJob(
                    name=stored.name,
                    source_program=benchmark.source_program,
                    target_schema=job.target_schema,
                )
            )
            if stored_pin is not None and stored_pin.get("source") != current_pin["source"]:
                return incompatible(
                    f"workload {workload_name!r} no longer matches the stored pin "
                    f"(stored {stored_pin.get('source')}, registry {current_pin['source']})"
                )
            job.source_program = benchmark.source_program
        elif stored_pin is not None:
            recomputed = job_pin(job)
            if recomputed is None or recomputed.get("source") != stored_pin.get("source"):
                return incompatible(
                    "stored spec no longer matches its submission pin "
                    f"(stored {stored_pin.get('source')}, decoded "
                    f"{recomputed.get('source') if recomputed else None})"
                )
        return JobHandle(job)

    def adopt_unfinished(self) -> list[JobHandle]:
        """Rescan the job store and submit stored unfinished jobs not yet here.

        The live-service complement of :meth:`resume`: a front that accepts
        record-only ("deferred") submissions — written to the store by
        another service instance or another process — calls this to pull
        them into the running batch.  Only *deferred* standings are adopted
        (latest record still ``pending``): a ``running`` record means some
        live service owns that job right now, and adopting it would
        double-execute — claiming interrupted-mid-run jobs is
        :meth:`resume`'s post-crash prerogative.  Job names decide identity;
        adopted jobs go through :meth:`submit`, so the store records a fresh
        submission (the latest record wins).
        """
        if self._store is None:
            return []
        known = {handle.job.name for handle in self._handles}
        adopted: list[JobHandle] = []
        for stored in self._store.load_jobs().values():
            if stored.name not in known and stored.deferred:
                adopted.append(self.submit(decode_job(stored.spec)))
        return adopted

    @property
    def handles(self) -> list[JobHandle]:
        return list(self._handles)

    def cancel_all(self) -> None:
        for handle in self._handles:
            if not handle.done:
                handle.cancel()

    # -------------------------------------------------------------- execution
    def run(self) -> list[JobHandle]:
        """Run every pending job to a settled state; returns all handles."""
        pending = [handle for handle in self._handles if handle.status is JobStatus.PENDING]
        if not pending:
            return self.handles
        started = time.time()
        for handle in pending:
            deadline = handle.job.deadline
            handle._wall_deadline = None if deadline is None else started + deadline
        try:
            if self._fleet is not None or self.max_workers > 1:
                pending = self._run_pooled(pending)
            if pending:
                self._run_inline(pending)
        finally:
            self._record_settled()
        return self.handles

    def close(self) -> None:
        """Release the remote fleet, if this service constructed one.

        A fleet passed in as an object is borrowed and stays open (its owner
        may be sharing it across services); only address-list fleets are
        closed here.  Safe to call repeatedly; ``with MigrationService(...)``
        does it on exit.
        """
        if self._fleet is not None and self._owns_fleet:
            self._fleet.close()

    def __enter__(self) -> "MigrationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------ persistence
    def _job_started(self, handle: JobHandle) -> None:
        was_pending = handle.status is JobStatus.PENDING
        handle._mark_running()
        if was_pending and self._store is not None:
            self._store.record_running(handle)

    def _record_settled(self) -> None:
        """Append terminal snapshots for every newly settled handle."""
        if self._store is None:
            return
        for handle in self._handles:
            if handle.done and not handle._settled_recorded:
                # Flag only after the append succeeds: a failed write (disk
                # full) stays unrecorded and is retried by the next run().
                self._store.record_settled(handle)
                handle._settled_recorded = True

    def migrate_batch(self, jobs: Iterable[MigrationJob]) -> list[SynthesisResult]:
        """Submit, run, and return the results of *jobs* (in submission order).

        Raises ``RuntimeError`` for jobs that failed before producing a
        result; prefer ``submit_batch`` + ``run`` + handles when partial
        failure must be tolerated.
        """
        handles = self.submit_batch(jobs)
        self.run()
        results = []
        for handle in handles:
            if handle.result is None:
                raise RuntimeError(
                    f"job {handle.job.name!r} {handle.status.value}: {handle.error or 'no result'}"
                )
            results.append(handle.result)
        return results

    # --------------------------------------------------------------- plumbing
    def _job_config(self, job: MigrationJob) -> SynthesisConfig:
        return job.config or self.default_config

    def _subscriber(self, job_name: str):
        """The tagged per-job event subscriber, or ``None`` when unobserved."""
        if self._on_event is None:
            return None
        service_callback = self._on_event

        def deliver(event: SessionEvent, _name=job_name) -> None:
            service_callback(_name, event)

        return deliver

    def _apply_task(self, handle: JobHandle) -> bool:
        """Map a settled scheduler task back onto its job handle.

        Returns ``False`` when the task never settled (executor-failure
        unwind left it PENDING) so the caller can re-run it inline.
        """
        task = handle._task
        if task is None:
            return True
        if task.state in (TaskState.PENDING, TaskState.RUNNING):
            # Never settled: the executor-failure unwind left it queued (or
            # mid-flight on a broken pool, which produced no result either
            # way) — hand it to the inline fallback.
            handle._task = None
            handle.status = JobStatus.PENDING
            return False
        handle._task = None
        if task.state is TaskState.DONE:
            outcome = task.result
            if isinstance(outcome, _JobOutcome):
                # Pooled/remote workers reply with cache deltas attached:
                # fold the fresh counterexamples into the parent-side pool so
                # later jobs over the same source program — and later
                # snapshots shipped to workers — screen with them.
                result: SynthesisResult = outcome.result
                if outcome.counterexamples and outcome.source_key:
                    parent_pool = self._pools.get(outcome.source_key)
                    if parent_pool is None:
                        parent_pool = CounterexamplePool(
                            self._job_config(handle.job).pool_max_size
                        )
                        self._pools[outcome.source_key] = parent_pool
                    parent_pool.merge(outcome.counterexamples)
            else:
                result = outcome
            if (
                result.cancelled
                and not handle.cancelled
                and handle._wall_deadline is not None
                and time.time() >= handle._wall_deadline
            ):
                # The scheduler's deadline nudge (not the user) raised the
                # cancel signal: report the truthful outcome — the job ran
                # out of its deadline budget.
                result.cancelled = False
                result.timed_out = True
            handle.result = result
            handle.status = JobStatus.CANCELLED if result.cancelled else JobStatus.DONE
        elif task.state is TaskState.FAILED:
            handle.status = JobStatus.FAILED
            handle.error = task.error
        elif task.state is TaskState.CANCELLED:
            handle.status = JobStatus.CANCELLED
        elif task.state is TaskState.QUARANTINED:
            # The scheduler stopped re-leasing a job that kept killing its
            # workers; surface the quarantine (and its cause) on the handle.
            handle.status = JobStatus.QUARANTINED
            handle.error = task.error or "job quarantined after killing workers"
        else:  # EXPIRED
            handle.status = JobStatus.EXPIRED
            handle.error = "job deadline expired"
        return True

    # ----------------------------------------------------------- in-process
    def _execute_job(self, handle: JobHandle, ctx) -> SynthesisResult:
        """Run one job in-process over the service-shared artifacts."""
        job = handle.job
        config = _clip_to_deadline(self._job_config(job), handle._wall_deadline)
        self._job_started(handle)
        # Honor the job's cache-size knob without discarding shared
        # entries: capacity only grows (put() reads max_entries live, so
        # growing in place is safe).  A smaller request is already
        # satisfied by the larger shared cache; shrinking it would throw
        # away the cross-job reuse the service exists for.
        if config.source_cache_max_entries > self._source_cache.max_entries:
            self._source_cache.max_entries = config.source_cache_max_entries
        core = SessionCore(
            job.source_program,
            job.target_schema,
            config,
            pool=_shared_pool_for(self._pools, format_program(job.source_program), config),
            source_cache=self._source_cache,
            compiler=self._compiler if config.execution_backend == "compiled" else None,
        )
        session = SynthesisSession(
            job.source_program,
            job.target_schema,
            config,
            core=core,
            on_event=ctx.emit if ctx.streaming else None,
            cancel_signal=ctx.cancel_event,
        )
        handle._session = session
        try:
            if handle.cancelled:  # cancelled between scheduling and dispatch
                session.cancel()
            return session.run()
        finally:
            handle._session = None

    def _run_inline(self, pending: list[JobHandle]) -> None:
        with WorkScheduler(
            max_workers=0, age_after=self.age_after, age_step=self.age_step
        ) as scheduler:
            submitted: list[JobHandle] = []
            for handle in pending:
                if handle.cancelled:
                    handle.status = JobStatus.CANCELLED
                    continue
                job = handle.job

                def run_job(_payload, ctx, _handle=handle) -> SynthesisResult:
                    return self._execute_job(_handle, ctx)

                handle._task = scheduler.submit(
                    run_job,
                    priority=job.priority,
                    deadline=handle._wall_deadline,
                    on_event=self._subscriber(job.name),
                    name=job.name,
                )
                submitted.append(handle)
            scheduler.drain()
            for handle in submitted:
                self._apply_task(handle)

    # -------------------------------------------------------------- pooled
    def _run_pooled(self, pending: list[JobHandle]) -> list[JobHandle]:
        """Run jobs on workers (pool or fleet); returns handles for inline fallback."""
        runnable: list[JobHandle] = []
        for handle in pending:
            if handle.cancelled:
                handle.status = JobStatus.CANCELLED
            else:
                runnable.append(handle)
        if not runnable:
            return []
        resilience = self.default_config.resilience

        def note_degrade(from_mode: str, to_mode: str, reason: str) -> None:
            # One rung down the degradation ladder: journal it next to the
            # job records (auditable trail), then tell every still-unsettled
            # job's subscriber so streaming clients see the switch live.
            unsettled = [
                handle.job.name
                for handle in runnable
                if handle.status in (JobStatus.PENDING, JobStatus.RUNNING)
            ]
            if self._store is not None:
                try:
                    self._store.record_degraded(
                        from_mode, to_mode, reason, jobs=unsettled
                    )
                except OSError:  # pragma: no cover - journal is best-effort
                    pass
            event = ExecutionDegraded(
                from_mode=from_mode, to_mode=to_mode, reason=reason
            )
            for name in unsettled:
                deliver = self._subscriber(name)
                if deliver is not None:
                    deliver(event)

        scheduler_options = {
            "retry": resilience.retry,
            "timeout": resilience.timeout,
            "age_after": self.age_after,
            "age_step": self.age_step,
        }
        if self.max_pending_events is not None:
            scheduler_options["max_pending_events"] = self.max_pending_events
        if self._fleet is not None:
            # Fleet width is the workers' live capacity (max_workers, when
            # set, clamps it); the fleet object is borrowed by the scheduler
            # so it survives for the next run() over the same batch store.
            scheduler_options["fleet"] = self._fleet
            scheduler_options["max_workers"] = max(0, self.max_workers)
            # First ladder rung (fleet -> local pool) lives in the scheduler;
            # the pool -> inline rung below is service-owned, because only
            # the service may run jobs in-process without leaking worker
            # globals into the parent.  Keep the pool at >= 2 for that reason.
            scheduler_options["degrade"] = resilience.degrade_ladder
            scheduler_options["degrade_workers"] = max(2, resilience.degrade_workers)
            scheduler_options["on_degrade"] = note_degrade
        else:
            # Never clamp below 2: a 1-job batch must still run on a worker
            # process (the scheduler's inline mode would execute the pooled
            # entry point in the parent, leaking worker-process globals there).
            scheduler_options["max_workers"] = max(2, min(self.max_workers, len(runnable)))
        with WorkScheduler(**scheduler_options) as scheduler:
            for handle in runnable:
                job = handle.job
                config = self._job_config(job)
                source_key = format_program(job.source_program)
                parent_pool = (
                    self._pools.get(source_key) if config.counterexample_pool else None
                )
                handle._task = scheduler.submit(
                    _run_job_in_worker,
                    _JobTask(
                        name=job.name,
                        source_program=job.source_program,
                        target_schema=job.target_schema,
                        config=config,
                        wall_deadline=handle._wall_deadline,
                        pool_snapshot=(
                            parent_pool.snapshot() if parent_pool is not None else []
                        ),
                    ),
                    priority=job.priority,
                    deadline=handle._wall_deadline,
                    on_event=self._subscriber(job.name),
                    on_start=lambda _handle=handle: self._job_started(_handle),
                    name=job.name,
                )
                if handle.cancelled:
                    # cancel() raced the submit loop: with _task unset it
                    # could only record the request — propagate it now.
                    handle._task.cancel()
            try:
                scheduler.drain()
            except ExecutorUnavailable as error:
                # Last ladder rung: every worker backend is gone — finish the
                # unsettled jobs in-process (sequentially) after recording
                # the step so the batch trail explains why.
                unfinished = [
                    handle for handle in runnable if not self._apply_task(handle)
                ]
                if unfinished:
                    note_degrade(
                        "fleet" if scheduler.fleet is not None else "pool",
                        "inline",
                        str(error) or type(error).__name__,
                    )
                return unfinished
            for handle in runnable:
                self._apply_task(handle)
        return []


def migrate_batch(
    jobs: Iterable[MigrationJob],
    *,
    max_workers: int = 0,
    default_config: Optional[SynthesisConfig] = None,
) -> list[SynthesisResult]:
    """One-call batch migration over a throwaway :class:`MigrationService`."""
    service = MigrationService(max_workers=max_workers, default_config=default_config)
    return service.migrate_batch(jobs)
