"""The unified priority/deadline work scheduler.

One :class:`WorkScheduler` serves every dispatch in the code base — the
job batches of :class:`~repro.service.MigrationService` and the eval
harness's ``--scheduler-workers`` Table 1 runs.  Both are *clients* of this
module: they submit :class:`TaskHandle`\\ s and map settled states back to
their own result shapes, while ordering, dispatch, deadline enforcement,
cancellation plumbing and executor lifecycle live here once.

Scheduling model:

* **Priority** — pending tasks are held in a heap ordered by
  ``(priority, deadline, submission order)``: lower priority values dispatch
  first, earlier deadlines break priority ties, submission order breaks the
  rest.  With equal priorities the scheduler is strictly FIFO.
* **Deadline** — an absolute ``time.time()`` instant (wall clock, comparable
  across processes).  A task whose deadline has passed when it reaches the
  front of the queue is marked :attr:`TaskState.EXPIRED` without being
  dispatched.  A *running* task is expected to self-limit (clients thread
  the deadline into the work payload); the scheduler adds a cooperative
  nudge — :data:`NUDGE_DELAY` past the deadline it raises the task's
  cancel signal, and :data:`DEADLINE_GRACE` later it stops waiting and
  marks the task EXPIRED (the worker process winds down via the cancel
  signal rather than being killed).
* **Cancellation** — :meth:`TaskHandle.cancel` removes a pending task from
  contention and raises the cooperative cancel signal of a running one,
  across the process boundary when pooled (a ``cancel`` frame on the
  worker's connection).
* **Events** — tasks submitted with an ``on_event`` subscriber stream their
  typed events live through the channel transport matching the execution
  mode: :class:`~repro.exec.channel.DirectChannel` inline, the fleet's
  :class:`~repro.exec.remote.SocketChannel` otherwise.  A task only settles
  after its event stream is fully drained, so a ``DONE`` handle never has
  events still in flight.

Execution modes mirror the clients' needs: ``max_workers <= 1`` runs tasks
inline on the draining thread (closures allowed, zero transport overhead).
Every other mode leases tasks to a fleet of socket workers (work functions
must be module-level picklables taking ``(payload, ctx)``): ``fleet=``
supplies a :class:`~repro.exec.remote.RemoteFleet`, and ``max_workers > 1``
without one starts a private :class:`~repro.exec.remote.LocalFleet` of
worker processes forked from this one.  Clients see the identical handle,
event and settle semantics over every backend.

Crash recovery: a worker that dies (connection drop) or goes silent (lease
expiry) fails only the leases it held, with
:class:`~repro.exec.remote.WorkerLost`; the scheduler charges each of those
tasks one retry and re-leases it with its priority and deadline preserved.
A task that loses more than ``retry.quarantine_after`` workers settles
:attr:`TaskState.QUARANTINED` with the ``WorkerLost`` error attached, while
the rest of the queue keeps running.  The local fleet forks a replacement
for every worker it loses, so capacity returns to ``max_workers``.

A drain either settles every task or raises :class:`ExecutorUnavailable`:
when worker processes cannot be *started*, or a fleet loses every worker,
every unsettled task goes back to PENDING and the error surfaces.  The
scheduler never moves work to another backend itself; deciding where
unsettled work runs next (the degradation ladder) is the client's job
(see :meth:`repro.service.MigrationService.run`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.exec.channel import DirectChannel
from repro.exec.policy import RetryPolicy, TimeoutPolicy
from repro.exec.remote import FleetUnavailable, LocalFleet, RemoteFleet, WorkerLost

#: Seconds past a task's deadline before the scheduler raises its cancel
#: signal, so the task's own deadline handling (which reports a truthful
#: "timed out") wins the race against the cooperative nudge.
NUDGE_DELAY = 1.0

#: Seconds past the nudge before the scheduler stops waiting for a running
#: task (the task's own deadline handling normally wins the race; the grace
#: only matters for wedged workers).  Also bounds the wait for a settling
#: task's event stream to drain.
DEADLINE_GRACE = 5.0


class ExecutorUnavailable(RuntimeError):
    """Worker processes cannot be started or have collectively failed."""


@dataclass
class SchedulerStats:
    """Lifetime counters of one :class:`WorkScheduler`."""

    tasks_submitted: int = 0
    tasks_done: int = 0
    tasks_failed: int = 0
    tasks_cancelled: int = 0
    tasks_expired: int = 0
    #: Re-leases after a worker was lost mid-task (crash recovery).
    task_retries: int = 0
    #: Poison tasks settled QUARANTINED after repeatedly killing workers.
    tasks_quarantined: int = 0
    #: Workers declared lost (connection drop / lease expiry) on this
    #: scheduler's watch, local or remote.
    workers_lost: int = 0
    #: Events shed by the transport.  Always 0: TCP flow control blocks a
    #: fast producer instead of dropping its events.
    events_dropped: int = 0


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"        # the work function raised; see ``error`` / ``exception``
    CANCELLED = "cancelled"  # cancelled before producing a result
    EXPIRED = "expired"      # deadline passed before dispatch or before settling
    QUARANTINED = "quarantined"  # poison task: killed too many workers


#: States in which a task will never run (again).
SETTLED_STATES = (
    TaskState.DONE,
    TaskState.FAILED,
    TaskState.CANCELLED,
    TaskState.EXPIRED,
    TaskState.QUARANTINED,
)


class TaskHandle:
    """One scheduled unit of work: state, result, and cancellation control."""

    def __init__(
        self,
        scheduler: "WorkScheduler",
        task_id: int,
        fn: Callable,
        payload: Any,
        *,
        name: str = "",
        priority: int = 0,
        deadline: Optional[float] = None,
        on_event: Optional[Callable[[Any], None]] = None,
        on_start: Optional[Callable[[], None]] = None,
    ):
        self._scheduler = scheduler
        self.task_id = task_id
        self.fn = fn
        self.payload = payload
        self.name = name or f"task-{task_id}"
        self.priority = priority
        # A non-finite deadline is no deadline: ``inf`` would become an
        # infinite wait() timeout, and NaN compares false with every instant.
        self.deadline = deadline if deadline is not None and math.isfinite(deadline) else None
        self.on_event = on_event
        self.on_start = on_start
        #: Crash retries charged to this task (one per lost worker).
        self.retries = 0
        #: Workers this task was leased to that were then lost (drives
        #: poison-task quarantine).
        self.worker_losses = 0
        self.state = TaskState.PENDING
        self.result: Any = None
        self.error: str = ""
        #: The exception object a FAILED task's work function raised (already
        #: unpickled on the parent side for pooled tasks; ``WorkerLost`` for a
        #: QUARANTINED one).
        self.exception: Optional[BaseException] = None
        self._cancel_requested = False
        self._nudged = False  # deadline passed: cancel signal already raised
        self._not_before = 0.0  # retry backoff: earliest re-dispatch instant
        self._port = None

    @property
    def done(self) -> bool:
        return self.state in SETTLED_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def cancel(self) -> None:
        """Request cancellation: pending tasks are skipped, running ones get
        their cooperative cancel signal raised (cross-process when pooled)."""
        with self._scheduler._lock:
            self._cancel_requested = True
            # Raise the signal while still holding the lock: once _settle()
            # clears _port, a settled task never sends a stray cancel.
            if self._port is not None:
                self._port.cancel()

    def _sort_key(self) -> tuple:
        deadline = float("inf") if self.deadline is None else self.deadline
        return (self.priority, deadline, self.task_id)


# ---------------------------------------------------------------- scheduler
class WorkScheduler:
    """Priority/deadline scheduler over inline or fleet execution.

    Usage::

        with WorkScheduler(max_workers=4) as scheduler:
            handles = [scheduler.submit(fn, payload, priority=i) for i, payload in ...]
            scheduler.drain()
        # every handle is now settled: DONE / FAILED / CANCELLED / EXPIRED /
        # QUARANTINED — or drain() raised ExecutorUnavailable with every
        # unsettled handle back in PENDING

    ``drain`` may be called repeatedly; the worker processes stay warm
    across drains until the scheduler closes.
    """

    def __init__(
        self,
        *,
        max_workers: int = 0,
        fleet: Union[RemoteFleet, Sequence[str], None] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
    ):
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout if timeout is not None else TimeoutPolicy()
        self.max_workers = max_workers
        self.stats = SchedulerStats()
        self._retry_rng = self.retry.rng()
        self._next_ready: Optional[float] = None
        # The fleet tasks are leased to.  A list of "host:port" addresses
        # builds a fleet this scheduler owns (and closes); a RemoteFleet
        # instance is borrowed from the caller.  Without either, pooled
        # drains start a LocalFleet (see _ensure_executor), also owned.
        if fleet is not None and not isinstance(fleet, RemoteFleet):
            fleet = RemoteFleet(
                workers=tuple(fleet),
                start_timeout=self.timeout.start_timeout,
                retry=self.retry,
            )
            self._owns_fleet = True
        else:
            self._owns_fleet = False
        self._fleet: Optional[RemoteFleet] = fleet
        # Loss counter baseline: a borrowed fleet outlives schedulers, so this
        # scheduler only reports workers lost on *its* watch.
        self._fleet_lost_baseline = 0 if fleet is None else fleet.workers_lost
        self._lock = threading.Lock()
        self._heap: list[tuple[tuple, TaskHandle]] = []
        self._ids = itertools.count(1)
        self._closed = False

    @property
    def pooled(self) -> bool:
        return self.max_workers > 1 or self._fleet is not None

    def _slots(self) -> int:
        """Concurrent dispatch width: the fleet's live capacity (clamped by
        ``max_workers`` when set), re-read each fill pass so a shrinking
        fleet stops receiving new leases."""
        capacity = self._fleet.capacity
        if self.max_workers > 0:
            capacity = min(capacity, self.max_workers)
        return capacity

    # ------------------------------------------------------------ submission
    def submit(
        self,
        fn: Callable,
        payload: Any = None,
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        on_event: Optional[Callable[[Any], None]] = None,
        on_start: Optional[Callable[[], None]] = None,
        name: str = "",
    ) -> TaskHandle:
        """Queue ``fn(payload, ctx)`` for execution; returns its handle.

        *deadline* is an absolute ``time.time()`` instant.  *on_event*
        subscribes to the task's live event stream; *on_start* fires on the
        draining thread when the task is dispatched.  In pooled mode *fn* and
        *payload* must be picklable (*fn* by module-level reference).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            handle = TaskHandle(
                self,
                next(self._ids),
                fn,
                payload,
                name=name,
                priority=priority,
                deadline=deadline,
                on_event=on_event,
                on_start=on_start,
            )
            heapq.heappush(self._heap, (handle._sort_key(), handle))
            self.stats.tasks_submitted += 1
        return handle

    # -------------------------------------------------------------- draining
    def drain(self) -> None:
        """Run every queued task to a settled state, or raise.

        A worker lost mid-drain is handled internally: its tasks are
        re-leased (and a local worker replaced), or quarantined once they
        have killed too many workers — no exception surfaces.  Raises
        :class:`ExecutorUnavailable` only when worker processes cannot be
        *started*, or a fleet loses every worker; every unsettled task is
        returned to PENDING state first, so the caller can run it elsewhere.
        """
        if self.pooled:
            self._drain_pooled()
        else:
            self._drain_inline()

    # ---------------------------------------------------------------- inline
    def _pop_dispatchable(self, *, respect_backoff: bool = True) -> Optional[TaskHandle]:
        """Pop the next PENDING task, settling cancelled/expired ones en route.

        Tasks still inside their retry-backoff window are skipped over (and
        pushed back) rather than dispatched; ``self._next_ready`` records
        the earliest such instant so the drain loop can sleep toward it
        instead of spinning.  Inline drains pass ``respect_backoff=False``
        (no workers to protect, and an inline drain must always terminate).
        """
        deferred: list[TaskHandle] = []
        found: Optional[TaskHandle] = None
        with self._lock:
            while self._heap:
                _key, task = heapq.heappop(self._heap)
                if task.state is not TaskState.PENDING:
                    continue
                now = time.time()
                if task._cancel_requested:
                    task.state = TaskState.CANCELLED
                    self.stats.tasks_cancelled += 1
                    continue
                if task.deadline is not None and now >= task.deadline:
                    task.state = TaskState.EXPIRED
                    self.stats.tasks_expired += 1
                    continue
                if respect_backoff and task._not_before > now:
                    deferred.append(task)
                    continue
                found = task
                break
            for task in deferred:
                heapq.heappush(self._heap, (task._sort_key(), task))
            self._next_ready = (
                min(task._not_before for task in deferred) if deferred else None
            )
        return found

    def _drain_inline(self) -> None:
        channel = DirectChannel()
        while True:
            task = self._pop_dispatchable(respect_backoff=False)
            if task is None:
                return
            port = channel.bind(task.task_id, task.on_event)
            with self._lock:
                task._port = port
                task.state = TaskState.RUNNING
                if task._cancel_requested:  # raced with cancel() during bind
                    port.cancel()
            if task.on_start is not None:
                task.on_start()
            try:
                value = task.fn(task.payload, port.context)
            except Exception as error:  # noqa: BLE001 - task isolation boundary
                self._settle(task, TaskState.FAILED, exception=error)
            else:
                self._settle(task, TaskState.DONE, value=value)

    # ---------------------------------------------------------------- pooled
    def _ensure_executor(self) -> RemoteFleet:
        """Start the fleet tasks are leased to: the caller's, or a local one."""
        if self._fleet is None:
            self._fleet = LocalFleet(
                self.max_workers, start_timeout=self.timeout.start_timeout
            )
            self._owns_fleet = True
        try:
            self._fleet.ensure_started()
        except FleetUnavailable as error:
            raise ExecutorUnavailable(str(error)) from error
        return self._fleet

    def _drain_pooled(self) -> None:
        inflight: dict[Any, TaskHandle] = {}
        try:
            self._drain_pooled_loop(self._ensure_executor(), inflight)
        except ExecutorUnavailable:
            # No worker can run them: hand every unsettled task back as
            # PENDING so the client can run it elsewhere.
            for task in inflight.values():
                self._requeue(task)
            raise

    def _retry_lost(self, task: TaskHandle, error: BaseException) -> None:
        """Re-lease one task whose worker vanished, or quarantine it.

        Only the lost worker's own leases come here — a peer in flight on
        another worker is never charged.  The stale channel binding is
        dropped and the task requeued with priority and deadline preserved,
        dispatchable again after its backoff delay.

        A task that keeps killing its workers is poison, not unlucky: past
        ``retry.quarantine_after`` lost workers it settles QUARANTINED
        instead of being handed yet another worker to take down.
        """
        task.retries += 1
        task.worker_losses += 1
        if task.worker_losses > self.retry.quarantine_after:
            self._settle(task, TaskState.QUARANTINED, exception=error)
            return
        self.stats.task_retries += 1
        task._not_before = time.time() + self.retry.backoff_delay(
            task.retries, self._retry_rng
        )
        self._requeue(task)

    def _drain_pooled_loop(self, fleet: RemoteFleet, inflight: dict) -> None:
        channel = fleet.channel
        while True:
            try:
                fleet.replenish()
            except FleetUnavailable as error:
                raise ExecutorUnavailable(str(error)) from error
            # Fill free slots in (priority, deadline, submission) order.
            while len(inflight) < self._slots():
                task = self._pop_dispatchable()
                if task is None:
                    break
                port = channel.bind(task.task_id, task.on_event)
                try:
                    future = fleet.submit(
                        task.task_id,
                        port.streaming,
                        task.fn,
                        task.payload,
                        name=task.name,
                        deadline=task.deadline,
                    )
                except FleetUnavailable as error:
                    # Zero live workers: requeue without a retry charge
                    # (this task never ran).
                    port.release()
                    self._requeue(task)
                    raise ExecutorUnavailable(str(error)) from error
                with self._lock:
                    task._port = port
                    task.state = TaskState.RUNNING
                    if task._cancel_requested:  # raced with cancel()
                        port.cancel()
                if task.on_start is not None:
                    task.on_start()
                inflight[future] = task
            if not inflight:
                with self._lock:
                    if not self._heap:
                        return
                    next_ready = self._next_ready
                if next_ready is not None:
                    # Everything pending is inside its backoff window: sleep
                    # toward the earliest re-dispatch instead of spinning.
                    time.sleep(min(0.25, max(0.01, next_ready - time.time())))
                    continue
                if fleet.capacity == 0:
                    # Work is queued but every worker is gone: wait for a
                    # (re)connection rather than spinning; give up loudly on
                    # the same timeout registration uses.
                    if not fleet.wait_for_capacity(fleet.start_timeout):
                        raise ExecutorUnavailable(
                            "fleet lost every worker with tasks still queued"
                        )
                continue  # heap still holds tasks (all popped ones settled)

            now = time.time()
            timeout = self._wait_timeout(inflight.values(), now)
            done, _pending = futures_wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                task = inflight.pop(future)
                error = future.exception(timeout=0)
                if isinstance(error, WorkerLost):
                    # Scoped to one worker's leases: charge a retry and
                    # re-lease, no teardown (the fleet dropped the dead link).
                    self._retry_lost(task, error)
                else:
                    self._settle_pooled(task, future)
            self._enforce_deadlines(inflight)

    def _wait_timeout(self, tasks, now: float) -> Optional[float]:
        """How long to block in ``wait()``: until the next deadline of interest.

        For a task not yet nudged that is deadline + nudge delay (so the
        cooperative nudge fires on time); for an already-nudged task it is
        the further grace before abandoning it.
        """
        horizon: Optional[float] = None
        for task in tasks:
            cutoff = task.deadline
            if cutoff is None:
                continue
            cutoff += NUDGE_DELAY
            if task._nudged:
                cutoff += DEADLINE_GRACE
            horizon = cutoff if horizon is None else min(horizon, cutoff)
        if horizon is None:
            return None
        return max(0.05, horizon - now)

    def _enforce_deadlines(self, inflight: dict) -> None:
        """Nudge and, past the grace, abandon running tasks that overran."""
        now = time.time()
        for future, task in list(inflight.items()):
            cutoff = task.deadline
            if cutoff is None or now < cutoff + NUDGE_DELAY:
                continue
            if not task._nudged:
                task._nudged = True
                if task._port is not None:
                    task._port.cancel()  # cooperative nudge across the process boundary
            if now >= cutoff + NUDGE_DELAY + DEADLINE_GRACE:
                del inflight[future]
                if future.done():
                    # It finished while we decided: keep the real outcome.
                    self._settle_pooled(task, future)
                    continue
                port = task._port
                with self._lock:
                    task._port = None
                    task.state = TaskState.EXPIRED
                    task.error = "deadline expired"
                    self.stats.tasks_expired += 1
                if port is not None:
                    port.release()

    def _settle_pooled(self, task: TaskHandle, future) -> None:
        try:
            value = future.result(timeout=0)
        except Exception as error:  # noqa: BLE001 - task isolation boundary
            self._settle(task, TaskState.FAILED, exception=error)
        else:
            self._settle(task, TaskState.DONE, value=value)

    # ------------------------------------------------------------- settling
    def _settle(
        self,
        task: TaskHandle,
        state: TaskState,
        *,
        value: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        port = task._port
        if port is not None and state in (TaskState.DONE, TaskState.FAILED):
            # The work function ran to an outcome: deliver the tail of its
            # event stream before the task reads as settled — a DONE handle
            # must never have events still in flight.  (A task cancelled
            # before it started never opened a stream.)
            port.wait_drained(timeout=DEADLINE_GRACE)
        with self._lock:
            task._port = None
            task.state = state
            task.result = value
            if exception is not None:
                task.exception = exception
                task.error = f"{type(exception).__name__}: {exception}"
            if state is TaskState.DONE:
                self.stats.tasks_done += 1
            elif state is TaskState.FAILED:
                self.stats.tasks_failed += 1
            elif state is TaskState.CANCELLED:
                self.stats.tasks_cancelled += 1
            elif state is TaskState.EXPIRED:
                self.stats.tasks_expired += 1
            elif state is TaskState.QUARANTINED:
                self.stats.tasks_quarantined += 1
        if port is not None:
            # Release only after ``task._port`` is cleared under the lock, so
            # a concurrent cancel() sees either the live port or none.
            port.release()

    def _requeue(self, task: TaskHandle) -> None:
        """Return an unsettled task to PENDING (re-lease or executor unwind)."""
        with self._lock:
            port = task._port
            task._port = None
            task.state = TaskState.PENDING
            heapq.heappush(self._heap, (task._sort_key(), task))
        if port is not None:
            port.release()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._fleet is not None:
            self.stats.workers_lost += self._fleet.workers_lost - self._fleet_lost_baseline
            if self._owns_fleet:
                self._fleet.close()

    def __enter__(self) -> "WorkScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
