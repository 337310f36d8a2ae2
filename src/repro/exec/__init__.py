"""The unified execution layer: event channels + the work scheduler.

``repro.exec`` is the one place dispatch lives.  The multi-job
:class:`~repro.service.MigrationService` and the evaluation harness's
``--scheduler-workers`` table runs schedule their work through
:class:`WorkScheduler`, and stream typed session events through one of two
channel transports: :class:`DirectChannel` in-process, and
:class:`SocketChannel` across process boundaries — for the scheduler's own
local worker processes and for remote fleets alike.  A scheduler runs its
tasks on the one backend it was built for, or raises
:class:`ExecutorUnavailable`; where unsettled work goes next is its
client's decision (the service's fleet → pool → inline ladder).  See the
module docstrings of :mod:`repro.exec.scheduler`,
:mod:`repro.exec.channel`, :mod:`repro.exec.wire` and
:mod:`repro.exec.remote` for the scheduling model, lease and crash-retry
semantics and the delivery guarantees.
"""

from repro.exec.channel import (
    DirectChannel,
    TaskPort,
    WorkContext,
    build_work_context,
    run_streamed_task,
)
from repro.exec.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.exec.policy import RetryPolicy, TimeoutPolicy
from repro.exec.remote import (
    FleetUnavailable,
    RemoteFleet,
    SocketChannel,
    WorkerLost,
)
from repro.exec.scheduler import (
    DEADLINE_GRACE,
    NUDGE_DELAY,
    ExecutorUnavailable,
    SchedulerStats,
    TaskHandle,
    TaskState,
    WorkScheduler,
)
from repro.exec.wire import WIRE_VERSION

__all__ = [
    # channels
    "DirectChannel",
    "SocketChannel",
    "TaskPort",
    "WorkContext",
    "build_work_context",
    "run_streamed_task",
    # remote fleet
    "RemoteFleet",
    "WorkerLost",
    "FleetUnavailable",
    "WIRE_VERSION",
    # scheduler
    "WorkScheduler",
    "TaskHandle",
    "TaskState",
    "SchedulerStats",
    "ExecutorUnavailable",
    "DEADLINE_GRACE",
    "NUDGE_DELAY",
    # resilience policies + fault injection
    "RetryPolicy",
    "TimeoutPolicy",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
]
