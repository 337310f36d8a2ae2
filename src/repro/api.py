"""The stable, versioned public API of the repro synthesizer.

``repro.api`` is the compatibility surface for programmatic consumers (the
examples, the eval harness, and service deployments): everything exported
here follows the ``API_VERSION`` contract — additive changes bump the minor
version, breaking changes bump the major version and are called out in
EXPERIMENTS.md.  Internals (``repro.core.*``, ``repro.completion.*``, …)
may be refactored freely between releases; import from this module instead.

Three levels of entry:

* :func:`migrate` — the one-call blocking convenience: a thin drain of a
  session, returning byte-identical results to the streaming path.
* :class:`SynthesisSession` — one run as a re-entrant stream of typed
  progress events with cooperative cancellation and a run-wide deadline.
  It tries value correspondences one at a time, most likely first, and
  stops at the first that completes (the paper's Algorithm 1).
* :class:`MigrationService` / :class:`MigrationJob` — batches of jobs
  scheduled through the unified execution layer (:mod:`repro.exec`) with
  cross-job artifact sharing, priorities, deadlines, job-level parallelism
  (local worker processes or a remote fleet), live cross-process event
  streaming and mid-job cancellation — plus a persistent
  :class:`SQLiteJobStore` (``job_store=PATH``) enabling
  :meth:`MigrationService.resume`: an interrupted batch restarts running
  only its unfinished jobs.

Version 2.0.0 — "streaming everywhere".  Breaking (the major bump):

* ``SynthesisSession`` no longer ignores the config's parallel worker
  count — a session over a parallel configuration now runs the wave
  front-end and streams merged events (1.x sessions silently ran such
  configs sequentially; the wave front-end itself is gone since 4.0.0);
* the separate parallel entry point is gone: ``migrate()`` /
  ``Synthesizer.synthesize`` drain a session in all configurations, and
  ``repro.core.synthesize_parallel`` no longer exists;
* in parallel mode ``on_event`` fires from the event-router thread rather
  than the consuming thread (sequential behaviour is unchanged).

Additive in 2.0.0: a JSONL job store (retired in 5.0.0) +
``MigrationService(job_store=...)`` +
``MigrationService.resume(path)`` + ``JobHandle.restored``; queue-transport
backpressure (``max_pending_events``, channel high-water/drop counters);
scheduler crash recovery (bounded per-task retries instead of wholesale
sequential fallback, surfacing as ``JobStatus.FAILED`` after retries
exhaust); ``--scheduler-workers`` eval-harness table runs over the shared
:class:`~repro.exec.WorkScheduler`.

Additive in 2.1.0 — "distributed execution": the socket transport and
remote-worker fleets.  ``MigrationService(workers=["host:port", ...])``
drives jobs on ``python -m repro.worker`` processes (other machines
included) with unchanged streaming/cancellation/retry semantics; a
config-level fleet address list pointed wave-parallel exploration at the
same fleets (removed in 4.0.0); :class:`RemoteFleet` is the reusable
fleet handle (dial-out or listening topology).  The job store doubles as the fleet's lease journal
(``leased`` / ``lease_heartbeat`` / ``released`` records), job specs are
format-versioned (incompatible stores fail loudly on resume), and
``compact()`` folds settled history into snapshot lines.
``SynthesisResult.to_dict`` gained a ``scheduler`` field exposing
execution-layer counters for wave-parallel runs (removed in 4.0.0).

Additive in 2.2.0 — "chaos-hardened execution": unified resilience
policies and deterministic fault injection.  :class:`RetryPolicy` /
:class:`TimeoutPolicy` / :class:`ResilienceConfig`
(``SynthesisConfig.resilience``) replace the layer-local retry counters:
jittered exponential backoff on crash retries, optional per-run retry
budgets, and poison-task quarantine (``JobStatus.QUARANTINED`` /
``TaskState.QUARANTINED``) for tasks that repeatedly kill their workers.
The graceful-degradation ladder (fleet -> local pool -> in-process)
finishes batches against dead fleets with identical results; each rung
emits an :class:`ExecutionDegraded` session event and journals a
``degraded`` record to the job store.  :class:`FaultPlan` /
:class:`FaultSpec` (``repro.exec.faults``) inject seeded, reproducible
faults — connection drops, frame truncation/corruption, heartbeat stalls,
slow tasks — at the wire/worker seams (``REPRO_FAULT_PLAN`` env for worker
processes).  ``SynthesisResult.to_dict`` gained a ``resilience`` sub-dict
for wave-parallel runs (removed in 4.0.0).

Additive in 2.3.0 — "the service front": the async multi-tenant HTTP
server and the indexed store backend.  :mod:`repro.server` serves a
:class:`MigrationService` over asyncio HTTP/1.1 (stdlib; the app is a
minimal ASGI callable) — API-key tenants with per-tenant quotas
(:class:`~repro.server.TenantQuota`: queue depth, concurrent running,
token-bucket submit rate → ``429``), weighted fair scheduling (stride
priorities over the existing scheduler plus the new anti-starvation
``age_after``/``age_step`` aging knobs on :class:`MigrationService` and
``WorkScheduler``), and ``GET /jobs/{id}/events`` SSE streaming of the
typed session events with monotonic ids and gap-free ``Last-Event-ID``
resume, bridged through bounded shed-and-count asyncio queues.  The job
store gained the indexed :class:`SQLiteJobStore` (jobs/events/leases
tables, WAL, tenant/status/fingerprint indexes) behind
:func:`open_job_store`, next to the JSONL log, with
:func:`migrate_jsonl_to_sqlite`; 5.0.0 made it the only store.
``MigrationService.resume`` now **re-pins** stored specs: format-version
gate, then pin verification against the submission fingerprint — and, for
registry-built jobs (``MigrationJob.workload``), against the *current*
workload registry — settling drifted jobs as the new loud
``JobStatus.INCOMPATIBLE`` terminal status instead of unpickling blind.
``MigrationJob`` gains ``tenant`` and ``workload`` fields (spec format
v3; v1/v2 stores still resume).

Breaking in 3.0.0 — "one fast engine, one reference": the columnar
execution backend is retired, leaving ``"compiled"`` (the default) and
``"interpreter"`` (the semantics reference).

* ``SynthesisConfig(execution_backend="columnar")`` now raises
  ``ValueError`` when the run starts, and the HTTP front answers ``400``
  at submission.
* ``SynthesisResult.to_dict()`` (its ``cache`` sub-dict) loses
  ``sequences_screened_batched`` and ``screening_batch_high_water``.
* Stored 2.x job specs that name columnar settle ``FAILED`` on resume.

Breaking in 4.0.0 — "one synthesis loop": wave-parallel
value-correspondence exploration is retired.  A session tries one value
correspondence at a time, as Algorithm 1 does; parallelism lives across
jobs, in :class:`MigrationService`.

* ``SynthesisConfig(parallel_workers=…)``, ``parallel_wave_size=…`` and
  ``execution_fleet=…`` now raise ``TypeError``.  Use
  ``MigrationService(max_workers=N)`` or ``MigrationService(workers=[...])``
  instead.
* ``SynthesisResult`` loses ``parallel_workers_used``, ``scheduler``,
  ``degradations`` and ``faults_injected``; ``to_dict()`` loses
  ``parallel_workers_used``, ``scheduler`` and ``resilience``.
* ``repro.exec`` loses ``OrderedEventMerger``,
  ``WorkScheduler.submit(on_retry=)`` and
  ``WorkScheduler.drain(wait_deadline=)``.
* ``POST /jobs`` answers ``400`` to ``config.parallel_workers``.
* Stored 3.x job specs still resume: their pickled configs carry the three
  retired fields as inert attributes that nothing reads.

Breaking in 5.0.0 — "one job store, one VC engine":

* ``JobStore`` (the JSONL log) and the ``jsonl:`` scheme are gone.  Any
  path given as ``job_store=``, to ``MigrationService.resume`` or to
  ``python -m repro.server --store`` opens :class:`SQLiteJobStore`.  A
  ``jsonl:`` URL, a ``*.jsonl`` path or an existing file that is not a
  SQLite database raises ``JobStoreFormatError``; convert an old log once
  with :func:`migrate_jsonl_to_sqlite`.
* The store keeps each job's latest lifecycle record and latest lease,
  not the line-by-line transition and lease-grant history.
* ``SynthesisConfig.vc_engine`` is gone: value correspondences always come
  from the factored best-first enumeration, which yields the MaxSAT
  encoding's optimum order (the MaxSAT engine stays as its test
  reference).  ``SynthesisConfig(vc_engine=…)`` raises ``TypeError`` and
  ``POST /jobs`` answers ``400`` to ``config.vc_engine``.  Stored 4.x
  configs that carry it are ignored: the attribute is inert.
"""

from __future__ import annotations

from repro.core.config import SynthesisConfig
from repro.core.result import AttemptRecord, SynthesisResult
from repro.core.session import (
    TERMINAL_EVENTS,
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    CandidateRejected,
    ExecutionDegraded,
    SessionEvent,
    SketchGenerated,
    SketchRejected,
    Solved,
    SynthesisSession,
    VcSelected,
)
from repro.core.synthesizer import Synthesizer, migrate
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.policy import ResilienceConfig, RetryPolicy, TimeoutPolicy
from repro.exec.remote import RemoteFleet
from repro.jobstore import (
    SQLiteJobStore,
    migrate_jsonl_to_sqlite,
    open_job_store,
)
from repro.server import (
    ServerApp,
    ServerThread,
    ServiceFront,
    Tenant,
    TenantQuota,
    TenantRegistry,
)
from repro.service import (
    JobHandle,
    JobStatus,
    MigrationJob,
    MigrationService,
    migrate_batch,
)

#: Semantic version of this surface (not of the package implementation).
API_VERSION = "5.0.0"

__all__ = [
    "API_VERSION",
    # configuration + results
    "AttemptRecord",
    "SynthesisConfig",
    "SynthesisResult",
    # blocking entry points
    "Synthesizer",
    "migrate",
    # streaming session + event taxonomy
    "SynthesisSession",
    "SessionEvent",
    "VcSelected",
    "SketchGenerated",
    "SketchRejected",
    "CandidateRejected",
    "Solved",
    "BudgetTimeout",
    "BudgetExhausted",
    "Cancelled",
    "ExecutionDegraded",
    "TERMINAL_EVENTS",
    # multi-job service facade + persistence + distributed execution
    "MigrationService",
    "MigrationJob",
    "JobHandle",
    "JobStatus",
    "SQLiteJobStore",
    "open_job_store",
    "migrate_jsonl_to_sqlite",
    "RemoteFleet",
    "migrate_batch",
    # the service front (repro.server)
    "ServiceFront",
    "ServerApp",
    "ServerThread",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    # resilience policies + fault injection
    "RetryPolicy",
    "TimeoutPolicy",
    "ResilienceConfig",
    "FaultPlan",
    "FaultSpec",
]
