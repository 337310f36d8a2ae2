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
minimal ASGI callable; a threaded server since 9.0.0) — API-key tenants
with per-tenant quotas (:class:`~repro.server.TenantQuota`: queue depth,
concurrent running, token-bucket submit rate → ``429``), weighted fair
scheduling (stride priorities over the existing scheduler plus
``age_after``/``age_step`` aging knobs on :class:`MigrationService` and
``WorkScheduler``, removed in 9.0.0), and ``GET /jobs/{id}/events`` SSE
streaming of the typed session events with monotonic ids and gap-free
``Last-Event-ID`` resume, bridged through bounded shed-and-count queues.  The job
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

Breaking in 6.0.0 — "one cross-process transport": ``max_workers=N``
(service, scheduler, ``--scheduler-workers``) runs N worker processes
forked from the caller, each holding one end of a socketpair to a private
fleet, over the socket transport and lease model remote fleets use.  The
multiprocessing-queue transport, the process pool and its break recovery
are gone.

* ``repro.exec`` loses ``QueueChannel``, ``FlagSignal``, ``ChannelStats``,
  ``DEFAULT_MAX_PENDING_EVENTS``, ``install_worker_transport``,
  ``worker_context`` and ``DEFAULT_MAX_RETRIES``, and
  ``WorkScheduler.channel_stats()``, ``TaskPort.slot`` and
  ``TaskPort.release(recycle=)`` are gone.
* ``WorkScheduler(max_pending_events=…)``, ``WorkScheduler(max_retries=…)``,
  ``MigrationService(max_pending_events=…)``,
  ``MigrationService.resume(max_pending_events=…)`` and
  ``RetryPolicy(max_retries=…)`` raise ``TypeError``.  Stored configs whose
  pickled ``RetryPolicy`` carries ``max_retries`` still resume: the
  attribute is inert.
* A crashed worker process is charged to the tasks it held, not to every
  task in flight.  A task that keeps killing its workers settles
  ``QUARANTINED`` (``JobStatus.QUARANTINED``) with a ``WorkerLost`` error
  after ``RetryPolicy.quarantine_after`` re-leases, where it used to
  settle ``FAILED`` with ``BrokenProcessPool``.
* ``SchedulerStats`` loses ``pool_rebuilds`` and ``events_high_water``
  (and the eval scheduler table its ``PoolRebuilds`` and ``EventsHWM``
  columns).  Lost local workers count in ``workers_lost``;
  ``events_dropped`` stays and reads 0.
* Pooled ``on_event`` callbacks run on one receiver thread per worker, so
  callbacks for different jobs may now run at the same time.  Callbacks
  for one job stay sequential and in order.  A callback that counts or
  writes shared state needs its own lock.

Breaking in 7.0.0 — "one bounded checker": bounded testing and the
verifier's deeper pass run one state-deduplicated walk
(``BoundedTester.first_failing``), and three incremental-testing options
that no caller set are gone.  Trajectories are unchanged.

* ``SynthesisConfig(pool_max_size=…)``, ``pool_screening_budget=…`` and
  ``source_cache_max_entries=…`` raise ``TypeError``, and ``POST /jobs``
  answers ``400`` to them.  Pools hold 256 counterexamples, screening
  tries at most 64 of them per candidate, and source caches hold 100,000
  entries.  Stored 6.x configs that carry the fields still resume: the
  attributes are inert.
* ``BoundedTester(pool_screening_budget=…)`` and
  ``SketchCompleter(use_mfi=…)`` raise ``TypeError``.  A tester screens
  at most 64 pooled sequences, as sessions always did; a completer that
  blocks full models sets the ``use_mfi = False`` class attribute, as
  ``EnumerativeCompleter`` does.
* ``repro.engine.make_runner`` is gone: use
  ``make_loader(backend, compiler)(program).run_sequence(sequence)``.
* ``repro.equivalence.VerifierStatistics`` is gone: ``BoundedVerifier.stats``
  is a ``TesterStatistics``.  A verifier without a shared ``source_cache``
  keeps a private one across calls.  A verifier builds its tester at the
  first ``verify()``, so an unknown ``execution_backend`` raises
  ``ValueError`` there rather than in the constructor.
* ``TesterStatistics.sequences_executed`` counts only sequences run one at
  a time (screening, the randomized phase), and ``source_cache_hits`` now
  includes prefix-state hits during testing.  Interrupt hooks are polled
  once per block of the exhaustive walk rather than once per sequence.

Additive in 7.1.0 — "learning across value correspondences": a rejected
attempt that proved its failure becomes a *nogood*, the images its failing
functions' sketches read, and the session's enumerator skips every later
value correspondence that agrees with it.  Skipped correspondences do not
count toward ``max_value_correspondences``.  Trajectories that try more
than one correspondence change (EXPERIMENTS.md lists the moved pins).

* ``AttemptRecord.nogood`` (``None`` or a ``repro.core.Nogood``:
  ``functions`` plus the partial ``mapping``), serialized by ``to_dict()``
  under ``"nogood"``.
* ``CompletionResult.refuted``: the functions a proven UNSAT depends on
  (``None`` unless the search ended UNSAT), and ``CompletionResult.limit``.
* ``ValueCorrespondenceEnumerator.block(partial)`` and
  ``FactoredVcEnumerator.block(partial)``; ``SketchGenerationError`` gains
  ``function`` and ``reads``, and ``ProgramSketch`` gains ``reads``.
* New failure reasons: an attempt stopped by ``max_iterations_per_sketch``
  reports ``"iteration limit reached"`` and one stopped by
  ``sketch_time_limit`` reports ``"sketch time limit reached"`` (both used
  to read ``"no equivalent completion"``); a run whose enumerator runs dry
  because of nogoods ends ``BudgetExhausted`` with ``"value correspondences
  exhausted; the rest agree with recorded nogoods of …"`` naming their
  functions.
* ``ValueCorrespondenceEnumerator.produced`` (never read) is gone.

Breaking in 8.0.0 — "one job runner, one ladder owner": every service job
runs through one runner over an explicit artifact set (a compiler, the
counterexample pools and a source-output cache), inline and in worker
processes alike, and :meth:`MigrationService.run` alone walks the
degradation ladder (fleet -> pool -> inline).  A scheduler drain settles
every task or raises ``ExecutorUnavailable``.  Trajectories are unchanged.

* ``WorkScheduler(degrade=…)``, ``degrade_workers=…``, ``on_degrade=…``
  and ``deadline_grace=…``, ``ResilienceConfig(degrade_ladder=…)`` and
  ``degrade_workers=…``, ``TimeoutPolicy(deadline_grace=…)``,
  ``nudge_delay=…``, ``connect_timeout=…`` and ``handshake_timeout=…``,
  and ``RetryPolicy(retry_budget=…)`` raise ``TypeError``.  The ladder is
  always on; the deadline nudge and grace are the constants
  ``repro.exec.NUDGE_DELAY`` and ``DEADLINE_GRACE``.  Stored configs whose
  pickled policies carry a retired field still resume: the attribute is
  inert.
* ``SchedulerStats.degradations`` and the ``Degraded`` column of the eval
  scheduler table are gone.
* ``repro.exec`` loses ``TIMEOUT_ERRORS`` and ``FuturesTimeoutError``.
* ``QuotaGate`` loses ``may_dispatch``, ``job_dispatched``,
  ``job_settled`` and ``counts()`` (the running count nothing updated);
  ``queued()`` reports the queued count and ``forget()`` frees a slot.
* Jobs carried to the next rung run as new scheduler tasks (their retry
  and aging counts restart), a job started on a fleet that then died
  records ``running`` again on the next rung, and the fleet -> pool
  ``ExecutionDegraded`` event and ``degraded`` record name only the jobs
  the fleet left unsettled.
* Fixed: one ``POST /jobs`` charges all its jobs to the rate limit at the
  request's arrival instant, and ``adopt_unfinished`` (and
  ``POST /resume``) settles a bad deferred record ``INCOMPATIBLE``
  instead of aborting the scan.

Breaking in 9.0.0 — "one concurrency model in the service front": the
HTTP front is the standard library's threaded server, one thread per
connection, and its handlers call the front and the job store directly.
The asyncio HTTP adapter and the ASGI app are gone.  Trajectories are
unchanged.

* :mod:`repro.server` loses ``ServerApp`` (also gone from this module),
  ``serve`` and ``ClientDisconnected``.
* ``ServiceFront.start()`` and ``EventHub(store)`` take no event loop,
  and ``Subscription.queue`` is a bounded ``queue.Queue``, filled on the
  publishing thread.
* Scheduler priority aging is gone: ``WorkScheduler(age_after=…)`` and
  ``age_step=…``, the same two keywords on ``MigrationService``,
  ``MigrationService.resume`` and ``ServiceFront`` raise ``TypeError``,
  ``python -m repro.server --age-after`` is refused, and
  ``SchedulerStats.tasks_aged`` is gone.  Each runner cycle of the front
  drains every job it promoted, so aging only reordered jobs inside one
  cycle and never decided whether a job ran.
* Observable differences: a malformed ``Content-Length`` (empty,
  non-numeric or negative) answers ``400`` and closes the connection,
  where the adapter dropped it without a response; responses carry
  ``Server`` and ``Date`` headers; the server runs one thread per
  connection.
* Fixed: ``POST /jobs`` answers ``400`` to a ``deadline`` that is not
  ``null`` or a finite number of seconds ≥ 0 (a string used to stop the
  runner thread), and ``config`` may set ``time_limit``,
  ``sketch_time_limit`` and ``null`` for ``Optional`` fields (each is
  checked against the field's annotation).

Changed in 9.0.1 — "distinct state pairs": bounded testing and the
verifier's exhaustive phase walk the distinct (source state, candidate
state) pairs breadth-first, and count the sequences they skip by
arithmetic.  Verdicts, failing sequences, counts, raised errors and
trajectories are unchanged.

* The ``source_cache`` shared by a run's tester and verifier (and by a
  service's same-source jobs) holds one source state graph per source
  fingerprint and execution backend, charged one entry per state and per
  memoized query output, next to the single-sequence outputs of pool
  screening and the randomized phase.  So
  ``SynthesisResult.cache.source_cache_entries`` counts states, memoized
  outputs and sequence entries, and ``source_cache_hits`` counts source
  outputs served from either rather than executed.
* Interrupt hooks are polled once per state pair and update name the
  walk extends and once per state pair it checks for a query.
* Fixed: a job with a non-finite ``deadline`` (``float("inf")``) runs as a
  job without one on every rung (two such jobs under ``max_workers=2``
  made ``run()`` raise ``OverflowError``), and ``POST /jobs`` answers
  ``400`` naming the field to a body that is not an object, a
  ``benchmark`` that is not a string, a ``variants`` that is not an
  integer ≥ 0 and a ``config`` that is not an object (they answered
  ``500``).
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
API_VERSION = "9.0.1"

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
