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

Around the service: :class:`ServiceFront` / :class:`ServerThread` serve it
over HTTP to :class:`Tenant`\\ s with :class:`TenantQuota`\\ s
(:mod:`repro.server`), :class:`RetryPolicy` / :class:`TimeoutPolicy` set
crash retries and fleet start-up, and :class:`FaultPlan` /
:class:`FaultSpec` inject seeded faults.

Version history: EXPERIMENTS.md, section *Service API*, records every
additive and breaking change of this surface, newest first.
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
from repro.exec.policy import RetryPolicy, TimeoutPolicy
from repro.exec.remote import RemoteFleet
from repro.jobstore import SQLiteJobStore, open_job_store
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
API_VERSION = "10.0.0"

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
    "FaultPlan",
    "FaultSpec",
]
