"""The unified execution layer: event channels + the work scheduler.

``repro.exec`` is the one place dispatch lives.  The multi-job
:class:`~repro.service.MigrationService` and the evaluation harness's
``--scheduler-workers`` table runs schedule their work through
:class:`WorkScheduler`, and stream typed session events through the channel
transports (:class:`DirectChannel` in-process, :class:`QueueChannel` across
worker-process boundaries, :class:`SocketChannel` across machines) — see
the module docstrings of :mod:`repro.exec.scheduler`,
:mod:`repro.exec.channel`, :mod:`repro.exec.wire` and
:mod:`repro.exec.remote` for the scheduling model, backpressure policy,
crash-retry / lease semantics and the delivery guarantees.
"""

from repro.exec.channel import (
    DEFAULT_MAX_PENDING_EVENTS,
    ChannelStats,
    DirectChannel,
    FlagSignal,
    QueueChannel,
    TaskPort,
    WorkContext,
    build_work_context,
    install_worker_transport,
    run_streamed_task,
    worker_context,
)
from repro.exec.compat import TIMEOUT_ERRORS, FuturesTimeoutError
from repro.exec.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.exec.policy import ResilienceConfig, RetryPolicy, TimeoutPolicy
from repro.exec.remote import (
    FleetUnavailable,
    RemoteFleet,
    SocketChannel,
    WorkerLost,
)
from repro.exec.scheduler import (
    DEADLINE_GRACE,
    DEFAULT_MAX_RETRIES,
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
    "QueueChannel",
    "SocketChannel",
    "TaskPort",
    "WorkContext",
    "FlagSignal",
    "ChannelStats",
    "DEFAULT_MAX_PENDING_EVENTS",
    "build_work_context",
    "install_worker_transport",
    "run_streamed_task",
    "worker_context",
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
    "DEFAULT_MAX_RETRIES",
    # resilience policies + fault injection
    "RetryPolicy",
    "TimeoutPolicy",
    "ResilienceConfig",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    # compat
    "FuturesTimeoutError",
    "TIMEOUT_ERRORS",
]
