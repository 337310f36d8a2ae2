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
  nudge — past the deadline it raises the task's cancel signal, and past
  ``deadline + grace`` it stops waiting and marks the task EXPIRED (the
  worker process winds down via the cancel signal rather than being killed).
* **Cancellation** — :meth:`TaskHandle.cancel` removes a pending task from
  contention and raises the cooperative cancel signal of a running one,
  across the process boundary when pooled (see
  :class:`~repro.exec.channel.FlagSignal`).
* **Events** — tasks submitted with an ``on_event`` subscriber stream their
  typed events live through the channel transport matching the execution
  mode: :class:`~repro.exec.channel.DirectChannel` inline,
  :class:`~repro.exec.channel.QueueChannel` under the process pool.  A task
  only settles after its event stream is fully drained, so a ``DONE`` handle
  never has events still in flight.

Execution modes mirror the clients' needs: ``max_workers <= 1`` runs tasks
inline on the draining thread (closures allowed, zero transport overhead);
``max_workers > 1`` runs them on a fork-based process pool (work functions
must be module-level picklables taking ``(payload, ctx)``); ``fleet=``
swaps the pool for a :class:`~repro.exec.remote.RemoteFleet` of socket
workers behind the same drain loop — clients see the identical handle,
event and settle semantics over every backend.

Crash recovery: when the pool *breaks* mid-drain (a worker process died),
the scheduler rebuilds the pool and channel and requeues just the affected
in-flight tasks with their priority and deadline preserved, up to
``max_retries`` crash incidents per task; a task that exhausts its retries
settles :attr:`TaskState.FAILED` with the pool-break error attached, while
the rest of the queue keeps running.  (A broken pool cannot attribute the
crash, so every task in flight at the incident shares the blame — the bound
is per task, not per culprit.)  Only when worker processes cannot be
*started* at all does :meth:`WorkScheduler.drain` still raise
:class:`ExecutorUnavailable`, with every unsettled task back in PENDING
state so the client can fall back to inline execution.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.exec.channel import (
    DEFAULT_MAX_PENDING_EVENTS,
    ChannelStats,
    DirectChannel,
    QueueChannel,
    close_worker_stream,
    install_worker_transport,
    run_streamed_task,
    worker_context,
)
from repro.exec.compat import TIMEOUT_ERRORS  # noqa: F401  (re-exported surface)
from repro.exec.policy import RetryPolicy, TimeoutPolicy
from repro.exec.remote import FleetUnavailable, RemoteFleet, WorkerLost

#: Seconds a running task is granted past its deadline before the scheduler
#: stops waiting for it (the task's own deadline handling normally wins the
#: race; the grace only matters for wedged workers).
DEADLINE_GRACE = 5.0

#: Seconds past a task's deadline before the scheduler raises its cancel
#: signal.  Tasks are expected to self-limit *at* the deadline (clients fold
#: it into the session time limit); the delay keeps the self-limit path —
#: which reports a truthful "timed out" — from racing the cooperative nudge,
#: whose cancel signal would read as a cancellation instead.
NUDGE_DELAY = 1.0

#: Pool-break incidents one task may survive (and be requeued after) before
#: it settles FAILED.
DEFAULT_MAX_RETRIES = 2


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
    #: Requeues caused by pool-break incidents (crash recovery).
    task_retries: int = 0
    #: Poison tasks settled QUARANTINED after repeatedly killing workers.
    tasks_quarantined: int = 0
    #: Degradation-ladder steps taken (fleet -> pool) by this scheduler.
    degradations: int = 0
    #: Times the worker pool (and its channel) was rebuilt after a break.
    pool_rebuilds: int = 0
    #: Remote workers declared lost (connection drop / lease expiry) while
    #: this scheduler was driving a fleet backend.
    workers_lost: int = 0
    #: Channel-load counters folded in when a channel is torn down.
    events_high_water: int = 0
    events_dropped: int = 0
    #: Priority boosts applied by the anti-starvation aging sweep
    #: (``age_after``): one count per task per boost.
    tasks_aged: int = 0


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
        self.deadline = deadline
        self.on_event = on_event
        self.on_start = on_start
        #: Pool-break incidents this task was in flight for (crash retries).
        self.retries = 0
        #: Remote workers this task was leased to that were then lost
        #: (drives poison-task quarantine, separately from pool breaks).
        self.worker_losses = 0
        self.state = TaskState.PENDING
        self.result: Any = None
        self.error: str = ""
        #: The exception object a FAILED task's work function raised (already
        #: unpickled on the parent side for pooled tasks).
        self.exception: Optional[BaseException] = None
        self._cancel_requested = False
        self._nudged = False  # deadline passed: cancel signal already raised
        self._not_before = 0.0  # retry backoff: earliest re-dispatch instant
        self._enqueued = time.time()  # aging reference instant
        self._age_credits = 0  # aging boosts already applied
        self._port = None
        self._future = None

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
            # Raise the signal while still holding the lock (it is a cheap
            # flag write): once _settle() clears _port and recycles the
            # cancel slot, a stale port reference here could otherwise cancel
            # whatever unrelated task received the slot.
            if self._port is not None:
                self._port.cancel()

    def _sort_key(self) -> tuple:
        deadline = float("inf") if self.deadline is None else self.deadline
        return (self.priority, deadline, self.task_id)


# ---------------------------------------------------------------- executors
def _mp_context():
    """The multiprocessing context shared by the channel and the pool.

    One selection point on purpose: the queue/flag primitives a
    :class:`~repro.exec.channel.QueueChannel` creates are inherited by the
    pool's workers, so both MUST come from the same context.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _make_executor(
    workers: int,
    *,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """A fork-based process pool (spawn where fork is unavailable)."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_mp_context(),
        initializer=initializer,
        initargs=initargs,
    )


def _pooled_entry(task_id: int, slot: int, streaming: bool, fn: Callable, payload: Any):
    """Worker-process entry point: rebuild the context, run, close the stream."""
    ctx = worker_context(task_id, slot, streaming)
    return run_streamed_task(fn, payload, ctx, lambda: close_worker_stream(task_id))


# ---------------------------------------------------------------- scheduler
class WorkScheduler:
    """Priority/deadline scheduler over inline or pooled execution.

    Usage::

        with WorkScheduler(max_workers=4) as scheduler:
            handles = [scheduler.submit(fn, payload, priority=i) for i, payload in ...]
            scheduler.drain()
        # every handle is now settled: DONE / FAILED / CANCELLED / EXPIRED

    ``drain`` may be called repeatedly; the worker pool stays warm across
    drains until the scheduler closes.
    """

    def __init__(
        self,
        *,
        max_workers: int = 0,
        deadline_grace: float = DEADLINE_GRACE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        max_pending_events: int = DEFAULT_MAX_PENDING_EVENTS,
        fleet: Union[RemoteFleet, Sequence[str], None] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
        degrade: bool = False,
        degrade_workers: int = 2,
        on_degrade: Optional[Callable[[str, str, str], None]] = None,
        age_after: Optional[float] = None,
        age_step: int = 1,
    ):
        # The unified policies are the source of truth; the bare
        # ``deadline_grace`` / ``max_retries`` knobs survive as shorthand
        # for building one-field policies.
        self.retry = retry if retry is not None else RetryPolicy(max_retries=max_retries)
        self.timeout = (
            timeout if timeout is not None else TimeoutPolicy(deadline_grace=deadline_grace)
        )
        self.max_workers = max_workers
        self.deadline_grace = self.timeout.deadline_grace
        self.max_retries = self.retry.max_retries
        self.max_pending_events = max_pending_events
        #: Walk the fleet -> pool degradation ladder on ExecutorUnavailable
        #: instead of raising (opt-in: the service enables it and still owns
        #: the final inline rung).
        self.degrade = degrade
        self.degrade_workers = max(1, degrade_workers)
        self.on_degrade = on_degrade
        #: Anti-starvation aging: every ``age_after`` seconds a still-pending
        #: task waits, its priority improves by ``age_step`` (lower sorts
        #: first), so low-weight tenants behind a firehose of high-priority
        #: work eventually reach the front.  ``None`` disables the sweep.
        self.age_after = age_after
        self.age_step = max(1, age_step)
        self._last_age_sweep = 0.0
        self.stats = SchedulerStats()
        self._retry_rng = self.retry.rng()
        self._next_ready: Optional[float] = None
        # The executor backend: a local process pool (fleet=None) or a remote
        # worker fleet — both drive the same drain loop; only _ensure_channel,
        # _ensure_executor and the per-task-crash handling differ.  A list of
        # "host:port" addresses builds a fleet this scheduler owns (and
        # closes); a RemoteFleet instance is borrowed from the caller.
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
        self._channel = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def pooled(self) -> bool:
        return self.max_workers > 1 or self._fleet is not None

    @property
    def fleet(self) -> Optional[RemoteFleet]:
        """The remote-fleet backend, or ``None`` when running locally."""
        return self._fleet

    def _slots(self) -> int:
        """Concurrent dispatch width: pool size, or the fleet's live capacity
        (optionally clamped by ``max_workers``), re-read each fill pass so a
        shrinking fleet stops receiving new leases."""
        if self._fleet is None:
            return self.max_workers
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
        """Run every queued task to a settled state.

        A pool that *breaks* mid-drain (worker crash) is handled internally:
        the pool is rebuilt and the affected tasks are retried up to
        ``max_retries``, after which they settle FAILED with the pool-break
        error attached — no exception surfaces.  Raises
        :class:`ExecutorUnavailable` only when worker processes cannot be
        *started* at all; every unsettled task is returned to PENDING state
        first, so the caller can retry on a fresh scheduler or fall back to
        inline execution.

        With ``degrade=True`` an unavailable *fleet* does not surface at
        all: the scheduler steps down the degradation ladder (fleet ->
        local pool), notifies ``on_degrade`` and finishes the drain on the
        next rung.  Only when the bottom rung is also unavailable does
        :class:`ExecutorUnavailable` escape (clients own the final inline
        step — running their work functions in-process is a client
        decision, not a scheduler one).
        """
        while True:
            try:
                if self.pooled:
                    self._drain_pooled()
                else:
                    self._drain_inline()
                return
            except ExecutorUnavailable as error:
                if not self._degrade_step(error):
                    raise

    def _degrade_step(self, error: BaseException) -> bool:
        """Take one step down the ladder; True when the drain should retry.

        The scheduler's ladder has exactly one step — fleet -> local
        process pool.  The pool -> inline rung belongs to the clients: the
        service must not run worker-process entrypoints in its own process
        (they mutate process globals), so it reruns the unsettled jobs
        through its own in-process path instead.
        """
        if not self.degrade or self._fleet is None:
            return False
        fleet = self._fleet
        reason = str(error) or type(error).__name__
        with self._lock:
            # Fold the fleet's loss counter now (close() won't see it).
            self.stats.workers_lost += fleet.workers_lost - self._fleet_lost_baseline
            self._fleet = None
            # The fleet's channel belongs to the fleet: drop the reference
            # without closing it, so _ensure_channel builds a QueueChannel.
            self._channel = None
            self.stats.degradations += 1
            if self.max_workers <= 1:
                self.max_workers = self.degrade_workers
        if self._owns_fleet:
            fleet.close()
            self._owns_fleet = False
        if self.on_degrade is not None:
            try:
                self.on_degrade("fleet", "pool" if self.pooled else "inline", reason)
            except Exception:  # noqa: BLE001 - observer isolation
                pass
        return True

    # ---------------------------------------------------------------- inline
    def _pop_dispatchable(self, *, respect_backoff: bool = True) -> Optional[TaskHandle]:
        """Pop the next PENDING task, settling cancelled/expired ones en route.

        Tasks still inside their retry-backoff window are skipped over (and
        pushed back) rather than dispatched; ``self._next_ready`` records
        the earliest such instant so the drain loop can sleep toward it
        instead of spinning.  Inline drains pass ``respect_backoff=False``
        (no pool to protect, and an inline drain must always terminate).
        """
        if self.age_after is not None:
            self._age_pending()
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

    def _age_pending(self) -> None:
        """Boost the priority of tasks that have waited ≥ ``age_after``.

        One ``age_step`` boost per full ``age_after`` interval waited
        (tracked per task, so repeated sweeps never double-credit).  The
        sweep itself is throttled to half an interval, and the heap is
        rebuilt only when some priority actually moved — the common case
        (nothing aged) is one timestamp comparison.
        """
        now = time.time()
        if now - self._last_age_sweep < self.age_after / 2.0:
            return
        with self._lock:
            self._last_age_sweep = now
            moved = False
            for _key, task in self._heap:
                if task.state is not TaskState.PENDING:
                    continue
                earned = int((now - task._enqueued) / self.age_after)
                if earned > task._age_credits:
                    task.priority -= (earned - task._age_credits) * self.age_step
                    self.stats.tasks_aged += earned - task._age_credits
                    task._age_credits = earned
                    moved = True
            if moved:
                self._heap = [(task._sort_key(), task) for _key, task in self._heap]
                heapq.heapify(self._heap)

    def _drain_inline(self) -> None:
        channel = self._ensure_channel()
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
    def _ensure_channel(self):
        if self._channel is None:
            if self._fleet is not None:
                self._channel = self._fleet.channel
            elif self.pooled:
                capacity = max(32, 4 * self.max_workers)
                try:
                    self._channel = QueueChannel(
                        _mp_context(), capacity, max_pending_events=self.max_pending_events
                    )
                except (OSError, ValueError) as error:  # pragma: no cover - env-specific
                    raise ExecutorUnavailable(str(error)) from error
            else:
                self._channel = DirectChannel()
        return self._channel

    def _ensure_executor(self):
        if self._fleet is not None:
            try:
                self._fleet.ensure_started()
            except FleetUnavailable as error:
                # Same contract as a pool that cannot start: the caller keeps
                # its degrade-to-inline fallback.
                raise ExecutorUnavailable(str(error)) from error
            return self._fleet
        if self._executor is None:
            channel = self._ensure_channel()
            try:
                self._executor = _make_executor(
                    self.max_workers,
                    initializer=install_worker_transport,
                    initargs=channel.initializer_args(),
                )
            except (OSError, ValueError) as error:
                raise ExecutorUnavailable(str(error)) from error
        return self._executor

    def _drain_pooled(self) -> None:
        inflight: dict[Any, TaskHandle] = {}
        while True:
            channel = self._ensure_channel()
            try:
                executor = self._ensure_executor()
                self._drain_pooled_loop(channel, executor, inflight)
                return
            except BrokenProcessPool as error:
                # A worker process died and took the pool with it.  Rebuild
                # the pool (and its channel — a worker killed mid-put can
                # leave the shared queue corrupted) and retry just the tasks
                # that were in flight; the rest of the queue is untouched.
                victims = list(inflight.values())
                inflight.clear()
                self._rebuild_after_break()
                for task in victims:
                    self._abandon_port(task)
                    task.retries += 1
                    if task.retries > self.max_retries or not self._retry_budget_left():
                        self._settle(task, TaskState.FAILED, exception=error)
                    else:
                        self._charge_retry(task)
            except ExecutorUnavailable:
                # The pool cannot be (re)started at all: hand every unsettled
                # task back as PENDING so the client can fall back inline.
                for task in inflight.values():
                    self._requeue(task)
                raise

    def _retry_budget_left(self) -> bool:
        """Whether the scheduler-wide retry budget still allows a requeue."""
        budget = self.retry.retry_budget
        return budget is None or self.stats.task_retries < budget

    def _charge_retry(self, task: TaskHandle) -> None:
        """Charge one crash retry and requeue with its backoff window set."""
        self.stats.task_retries += 1
        task._not_before = time.time() + self.retry.backoff_delay(
            task.retries, self._retry_rng
        )
        self._requeue(task)

    def _retry_lost(self, task: TaskHandle, error: BaseException) -> None:
        """Re-lease one task whose remote worker vanished (fleet backend).

        Mirrors the pool-break victim handling — abandon the stale channel
        binding, charge a crash retry, requeue with priority and deadline
        preserved — but per task: losing one worker must not tear down the
        surviving fleet the way a broken pool tears down the pool.

        A task that keeps killing its workers is poison, not unlucky: past
        ``retry.quarantine_after`` lost workers (or once the scheduler-wide
        retry budget is spent) it settles QUARANTINED instead of being
        handed yet another worker to take down.
        """
        self._abandon_port(task)
        task.retries += 1
        task.worker_losses += 1
        if task.worker_losses > self.retry.quarantine_after or not self._retry_budget_left():
            self._settle(task, TaskState.QUARANTINED, exception=error)
            return
        self._charge_retry(task)

    def _rebuild_after_break(self) -> None:
        self.stats.pool_rebuilds += 1
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._channel is not None:
            self._fold_channel_stats(self._channel)
            self._channel.close()
            self._channel = None

    def _abandon_port(self, task: TaskHandle) -> None:
        """Detach a task from its (dead) channel binding without settling it."""
        with self._lock:
            port = task._port
            task._port = None
            task._future = None
        if port is not None:
            port.release(recycle=False)

    def _fold_channel_stats(self, channel) -> None:
        stats: Optional[ChannelStats] = getattr(channel, "stats", None)
        if stats is not None:
            self.stats.events_high_water = max(
                self.stats.events_high_water, stats.high_water_mark
            )
            self.stats.events_dropped += stats.dropped_events

    def _drain_pooled_loop(self, channel, executor, inflight: dict) -> None:
        while True:
            # Fill free slots in (priority, deadline, submission) order.
            while len(inflight) < self._slots():
                task = self._pop_dispatchable()
                if task is None:
                    break
                port = channel.bind(task.task_id, task.on_event)
                try:
                    if self._fleet is not None:
                        future = self._fleet.submit(
                            task.task_id,
                            port.streaming,
                            task.fn,
                            task.payload,
                            name=task.name,
                            deadline=task.deadline,
                        )
                    else:
                        future = executor.submit(
                            _pooled_entry,
                            task.task_id,
                            port.slot,
                            port.streaming,
                            task.fn,
                            task.payload,
                        )
                except BrokenProcessPool:
                    # Pool died between drains: requeue without a retry charge
                    # (this task never ran) and let the crash handler rebuild.
                    port.release(recycle=False)
                    self._requeue(task)
                    raise
                except (OSError, RuntimeError) as error:
                    # FleetUnavailable lands here too: a fleet with zero live
                    # workers is the remote analogue of an unstartable pool.
                    port.release(recycle=False)
                    self._requeue(task)
                    raise ExecutorUnavailable(str(error)) from error
                with self._lock:
                    task._port = port
                    task._future = future
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
                if self._fleet is not None and self._fleet.capacity == 0:
                    # Work is queued but every worker is gone: wait for a
                    # (re)connection rather than spinning; give up loudly on
                    # the same timeout registration uses.
                    if not self._fleet.wait_for_capacity(self._fleet.start_timeout):
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
                if self._fleet is not None and not future.cancelled():
                    error = future.exception(timeout=0)
                    if isinstance(error, WorkerLost):
                        # The remote analogue of a pool break, scoped to one
                        # worker's leases: charge a retry and re-lease, no
                        # teardown (the fleet already dropped the dead link).
                        self._retry_lost(task, error)
                        continue
                try:
                    self._settle_pooled(task, future)
                except BrokenProcessPool:
                    # Put the task back among the crash victims so the break
                    # handler charges and requeues it with the others.
                    inflight[future] = task
                    raise
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
            cutoff += self.timeout.nudge_delay
            if task._nudged:
                cutoff += self.deadline_grace
            horizon = cutoff if horizon is None else min(horizon, cutoff)
        if horizon is None:
            return None
        return max(0.05, horizon - now)

    def _enforce_deadlines(self, inflight: dict) -> None:
        """Nudge and, past the grace, abandon running tasks that overran."""
        now = time.time()
        for future, task in list(inflight.items()):
            cutoff = task.deadline
            if cutoff is None or now < cutoff + self.timeout.nudge_delay:
                continue
            if not task._nudged:
                task._nudged = True
                if task._port is not None:
                    task._port.cancel()  # cooperative nudge across the process boundary
            if now >= cutoff + self.timeout.nudge_delay + self.deadline_grace:
                future.cancel()
                if future.done() and not future.cancelled():
                    # It finished while we decided: keep the real outcome.
                    del inflight[future]
                    try:
                        self._settle_pooled(task, future)
                    except BrokenProcessPool:
                        # Same hazard as the drain loop's settle: leave the
                        # task among the crash victims, never stuck RUNNING.
                        inflight[future] = task
                        raise
                    continue
                del inflight[future]
                port = task._port
                with self._lock:
                    task._port = None
                    task.state = TaskState.EXPIRED
                    task.error = "deadline expired"
                    self.stats.tasks_expired += 1
                if port is not None:
                    port.release(recycle=False)

    def _settle_pooled(self, task: TaskHandle, future) -> None:
        try:
            value = future.result(timeout=0)
        except FuturesCancelledError:
            self._settle(task, TaskState.CANCELLED)
        except TIMEOUT_ERRORS:  # pragma: no cover - future reported done
            self._settle(task, TaskState.EXPIRED)
        except BrokenProcessPool:
            raise  # crash-recovery is the drain loop's job, not a task failure
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
            port.wait_drained(timeout=self.deadline_grace)
        with self._lock:
            task._port = None
            task._future = None
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
            # Release only after ``task._port`` is cleared under the lock: a
            # concurrent cancel() must never reach a recycled slot that now
            # belongs to an unrelated task.
            port.release()

    def _requeue(self, task: TaskHandle) -> None:
        """Return an unsettled task to PENDING (executor-failure unwind)."""
        with self._lock:
            port = task._port
            task._port = None
            task._future = None
            task.state = TaskState.PENDING
            heapq.heappush(self._heap, (task._sort_key(), task))
        if port is not None:
            port.release(recycle=False)

    # ------------------------------------------------------------- lifecycle
    def channel_stats(self) -> Optional[ChannelStats]:
        """Load counters of the live channel (``None`` before first dispatch).

        After :meth:`close`, the final counters are folded into
        :attr:`stats` (``events_high_water`` / ``events_dropped``).
        """
        channel = self._channel
        return None if channel is None else getattr(channel, "stats", None)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._channel is not None:
            self._fold_channel_stats(self._channel)
            if self._fleet is None:
                # A fleet's channel belongs to the fleet (it may outlive this
                # scheduler when borrowed); everything else is ours to close.
                self._channel.close()
            self._channel = None
        if self._fleet is not None:
            self.stats.workers_lost += self._fleet.workers_lost - self._fleet_lost_baseline
            if self._owns_fleet:
                self._fleet.close()

    def __enter__(self) -> "WorkScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
