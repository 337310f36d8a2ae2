"""Transport-agnostic event channels for the unified execution layer.

A channel carries two signals between the scheduler (parent side) and a
scheduled work function (worker side), independently of where the worker
runs:

* **events out** — the work function calls :meth:`WorkContext.emit` with
  typed session events; the parent delivers each event to the per-task
  subscriber callback, in emission order;
* **cancel in** — the parent calls :meth:`TaskPort.cancel`; the work
  function observes it through :attr:`WorkContext.cancel_event`, an object
  with the ``threading.Event`` read/write surface (``is_set()`` / ``set()``)
  that the session machinery already polls inside completion loops and
  bounded testing.

Two transports implement the contract:

* :class:`DirectChannel` — in-process: ``emit`` invokes the subscriber
  synchronously on the calling thread and cancellation is a plain
  ``threading.Event``.  This is the zero-overhead transport for inline
  execution (and the reference for cross-transport equivalence tests).
* :class:`QueueChannel` — cross-process: events travel through one shared
  ``multiprocessing.Queue`` drained by a parent-side router thread, and
  cancellation is a slot in a shared flag array that worker-side
  :class:`FlagSignal` objects poll (a single shared-memory byte read, cheap
  enough for per-candidate polling).  Queue and flags must be created
  *before* the worker processes start and installed in each worker via the
  pool initializer (:func:`install_worker_transport`) — multiprocessing
  primitives can only be shared by inheritance, not sent through task
  pickles.

Backpressure: the shared queue is **bounded** (``max_pending_events``), so a
slow ``on_event`` consumer can no longer buffer events unboundedly in the
parent.  Producers follow a block-with-timeout policy — ``emit`` blocks up
to ``put_timeout`` seconds for a free queue slot and then *drops* the event
(the drop is counted).  Delivery is therefore exactly-once while the
consumer keeps up and at-most-once under sustained backpressure.  The
transport's end-of-stream marker is exempt from the drop policy (it blocks
with a generously extended timeout — 4x ``put_timeout``, at least 10 s —
because task settling waits for it).  If even the extended wait expires
(consumer wedged for tens of seconds) the marker is abandoned and recovery
falls to the parent's bounded drain wait.
:attr:`QueueChannel.stats` reports the observed ``high_water_mark`` of
pending events and the number of ``dropped_events`` (maintained lock-free
in shared memory by the producers, so both are best-effort
approximations).

Delivery semantics shared by both transports: per-task event order is
preserved; a task's port reports :meth:`TaskPort.wait_drained` true only
after every event the worker emitted (terminated by an end-of-stream marker
in the queue transport) has been handed to the subscriber, so a settled task
never has events still in flight.  Subscriber callbacks run on the emitting
thread under :class:`DirectChannel` and on the router thread under
:class:`QueueChannel`; callbacks that raise are isolated per event (the
error is recorded on the port, the router keeps running).
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from queue import Full
from typing import Any, Callable, Dict, Optional

from repro.exec import faults

#: Default bound on events pending in a queue transport (see QueueChannel).
DEFAULT_MAX_PENDING_EVENTS = 1024

#: Default seconds a producer blocks for a free queue slot before dropping.
DEFAULT_PUT_TIMEOUT = 5.0

#: Slots of the shared producer-side counter array.
_STAT_HIGH_WATER = 0
_STAT_DROPPED = 1


@dataclass(frozen=True)
class ChannelStats:
    """Observed load of one event channel (best-effort, see module docs)."""

    #: Highest number of events seen pending in the transport at once.
    high_water_mark: int = 0
    #: Events load-shed by producers after ``put_timeout`` expired.
    dropped_events: int = 0
    #: The configured queue bound (0 = unbounded / not applicable).
    max_pending_events: int = 0


class _EOS:
    """Queue payload marking the end of one task's event stream.

    The *class object itself* is the sentinel: classes pickle by reference,
    so identity (``event is _EOS``) survives the worker→parent queue hop —
    and unlike ``None`` it can never collide with a legitimate event payload.
    """


class FlagSignal:
    """A ``threading.Event``-shaped view of one slot in a shared flag array.

    Both sides may ``set()`` it: the parent to request cancellation, the
    worker when the session itself decides to cancel.  A negative slot is
    the "no cancellation channel" degenerate case (``is_set`` stays false).
    """

    __slots__ = ("_flags", "_slot")

    def __init__(self, flags, slot: int):
        self._flags = flags
        self._slot = slot

    def is_set(self) -> bool:
        return self._slot >= 0 and bool(self._flags[self._slot])

    def set(self) -> None:
        if self._slot >= 0:
            self._flags[self._slot] = True


class WorkContext:
    """What a scheduled work function receives alongside its payload.

    ``emit`` forwards one typed event to the parent-side subscriber (a no-op
    when the task has no subscriber — ``streaming`` says which, so workers
    can skip building events entirely when nobody listens).  ``cancel_event``
    is the cooperative cancellation signal to poll / pass into session
    machinery.
    """

    __slots__ = ("emit", "cancel_event", "streaming")

    def __init__(
        self,
        emit: Callable[[Any], None],
        cancel_event,
        streaming: bool,
    ):
        self.emit = emit
        self.cancel_event = cancel_event
        self.streaming = streaming


class TaskPort:
    """Parent-side per-task endpoint of a channel binding."""

    def __init__(
        self,
        channel,
        task_id: int,
        slot: int,
        streaming: bool,
        context: Optional[WorkContext],
        cancel_signal,
    ):
        self._channel = channel
        self.task_id = task_id
        self.slot = slot
        self.streaming = streaming
        #: The worker-side context, for transports where parent and worker
        #: share an address space (``None`` for cross-process transports,
        #: where the worker rebuilds it from the installed globals).
        self.context = context
        self._cancel_signal = cancel_signal
        #: Last exception raised by the subscriber callback, if any.
        self.subscriber_error: Optional[BaseException] = None

    def cancel(self) -> None:
        """Raise the cooperative cancel signal for this task."""
        self._cancel_signal.set()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every emitted event has been delivered (or timeout)."""
        return self._channel._wait_drained(self, timeout)

    def release(self, *, recycle: bool = True) -> None:
        """Unsubscribe the task; *recycle* returns its cancel slot to the pool.

        Pass ``recycle=False`` for abandoned tasks whose worker may still be
        polling the slot — the slot is leaked for the channel's lifetime
        instead of being handed to an unrelated task.
        """
        self._channel._release(self, recycle)


# ------------------------------------------------------------------ direct
class DirectChannel:
    """In-process transport: synchronous callbacks, ``threading.Event`` cancel."""

    transport = "direct"

    def bind(self, task_id: int, on_event: Optional[Callable[[Any], None]]) -> TaskPort:
        cancel_signal = threading.Event()
        port = TaskPort(self, task_id, -1, on_event is not None, None, cancel_signal)

        if on_event is None:
            emit: Callable[[Any], None] = lambda _event: None
        else:

            def emit(event: Any) -> None:
                # Same isolation contract as the queue transport's router: a
                # raising subscriber is recorded, not propagated into the
                # work function — the two transports must not diverge in
                # whether a buggy callback fails the task.
                try:
                    on_event(event)
                except Exception as error:  # noqa: BLE001 - isolation boundary
                    port.subscriber_error = error

        port.context = WorkContext(emit, cancel_signal, on_event is not None)
        return port

    def _wait_drained(self, port: TaskPort, timeout: Optional[float]) -> bool:
        return True  # synchronous delivery: nothing can be in flight

    def _release(self, port: TaskPort, recycle: bool) -> None:
        pass

    def close(self) -> None:
        pass

    @property
    def stats(self) -> ChannelStats:
        """Synchronous delivery: nothing is ever pending, nothing drops."""
        return ChannelStats()


# ------------------------------------------------------------------- queue
class QueueChannel:
    """Cross-process transport over one shared queue plus a cancel-flag array.

    The parent constructs the channel, hands ``(queue, flags)`` to the worker
    pool's initializer, and binds one :class:`TaskPort` per dispatched task.
    A daemon router thread drains the queue and fans events out to the bound
    subscribers; the worker wrapper sends one end-of-stream marker per task
    so :meth:`TaskPort.wait_drained` can guarantee complete delivery before
    the task settles.
    """

    transport = "queue"

    def __init__(
        self,
        mp_context,
        capacity: int = 64,
        *,
        max_pending_events: int = DEFAULT_MAX_PENDING_EVENTS,
        put_timeout: float = DEFAULT_PUT_TIMEOUT,
    ):
        self.max_pending_events = max_pending_events
        self.put_timeout = put_timeout
        self.queue = mp_context.Queue(max_pending_events)
        self.flags = mp_context.RawArray(ctypes.c_bool, capacity)
        #: Producer-maintained counters (high-water mark, dropped events).
        #: RawArray on purpose: a lock would serialize every emit across all
        #: workers for counters that only need to be approximately right.
        self.counters = mp_context.RawArray(ctypes.c_long, 2)
        self._capacity = capacity
        self._free_slots = list(range(capacity - 1, -1, -1))
        self._lock = threading.Lock()
        #: task_id -> (subscriber, drained threading.Event, port)
        self._subscribers: dict[int, tuple[Callable[[Any], None], threading.Event, TaskPort]] = {}
        self._router: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------ parent side
    def bind(self, task_id: int, on_event: Optional[Callable[[Any], None]]) -> TaskPort:
        with self._lock:
            if self._closed:
                raise RuntimeError("channel is closed")
            slot = self._free_slots.pop() if self._free_slots else -1
            if slot >= 0:
                self.flags[slot] = False
            port = TaskPort(
                self, task_id, slot, on_event is not None, None, FlagSignal(self.flags, slot)
            )
            if on_event is not None:
                self._subscribers[task_id] = (on_event, threading.Event(), port)
                self._ensure_router()
        return port

    def _ensure_router(self) -> None:
        if self._router is None or not self._router.is_alive():
            self._router = threading.Thread(
                target=self._route, name="repro-exec-event-router", daemon=True
            )
            self._router.start()

    def _route(self) -> None:
        while True:
            try:
                item = self.queue.get()
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            if item is None:  # close() sentinel
                return
            task_id, event = item
            with self._lock:
                entry = self._subscribers.get(task_id)
            if entry is None:
                continue  # late event of a released task
            subscriber, drained, port = entry
            if event is _EOS:
                drained.set()
                continue
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 - keep the router alive
                port.subscriber_error = error

    def _wait_drained(self, port: TaskPort, timeout: Optional[float]) -> bool:
        with self._lock:
            entry = self._subscribers.get(port.task_id)
        if entry is None:
            return True  # nothing subscribed: nothing to wait for
        return entry[1].wait(timeout)

    def _release(self, port: TaskPort, recycle: bool) -> None:
        with self._lock:
            self._subscribers.pop(port.task_id, None)
            if recycle and port.slot >= 0:
                self.flags[port.slot] = False
                self._free_slots.append(port.slot)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            router = self._router
        if router is not None and router.is_alive():
            try:
                # Bounded queue: never block shutdown behind backpressure.
                self.queue.put(None, timeout=1.0)
            except (Full, ValueError, OSError):
                # The sentinel could not be enqueued (queue full behind a
                # wedged consumer): abandon the daemon router immediately —
                # joining it would just burn the full timeout, and closing
                # the queue unblocks its get() with an error it swallows.
                router = None
            if router is not None:
                router.join(timeout=5.0)
        self.queue.close()

    @property
    def stats(self) -> ChannelStats:
        return ChannelStats(
            high_water_mark=int(self.counters[_STAT_HIGH_WATER]),
            dropped_events=int(self.counters[_STAT_DROPPED]),
            max_pending_events=self.max_pending_events,
        )

    def initializer_args(self) -> tuple:
        """The transport ends for the worker-pool initializer."""
        return (self.queue, self.flags, self.counters, self.put_timeout)


# ------------------------------------------------------------- worker side
#: Installed once per worker process by the pool initializer.
_worker_queue = None
_worker_flags = None
_worker_counters = None
_worker_put_timeout = DEFAULT_PUT_TIMEOUT


def install_worker_transport(
    queue, flags, counters=None, put_timeout: float = DEFAULT_PUT_TIMEOUT
) -> None:
    """Pool-initializer entry point: install the process-wide transport ends."""
    global _worker_queue, _worker_flags, _worker_counters, _worker_put_timeout
    _worker_queue = queue
    _worker_flags = flags
    _worker_counters = counters
    _worker_put_timeout = put_timeout


def _note_pending_high_water(queue, counters) -> None:
    if counters is None:
        return
    try:
        pending = queue.qsize()
    except NotImplementedError:  # pragma: no cover - macOS has no qsize
        return
    if pending > counters[_STAT_HIGH_WATER]:
        counters[_STAT_HIGH_WATER] = pending


def _sink_emit(_event: Any) -> None:
    """The no-subscriber emit: workers skip event construction entirely."""


def build_work_context(emit, cancel_signal, streaming: bool) -> WorkContext:
    """Assemble a worker-side :class:`WorkContext` from transport pieces.

    The one place the unobserved case is normalized (no subscriber → sink
    emit, ``streaming`` forced false) and the cancel signal is wired in —
    shared by the queue transport's pool-initializer path
    (:func:`worker_context`) and the remote worker loop (:mod:`repro.worker`),
    which used to duplicate this assembly around their cancel-flag polling.
    """
    if not streaming or emit is None:
        return WorkContext(_sink_emit, cancel_signal, False)
    return WorkContext(emit, cancel_signal, True)


def run_streamed_task(
    fn: Callable,
    payload: Any,
    ctx: WorkContext,
    end_stream: Callable[[], None],
    *,
    context: Optional[Dict[str, Any]] = None,
):
    """Run one work function, guaranteeing its end-of-stream marker.

    Every transport's worker entry wraps the work function the same way:
    run it, and — success or raise — close the event stream of a streaming
    task so the parent's drain wait can complete.  *end_stream* is the
    transport's marker sender (queue: :func:`close_worker_stream`; socket:
    a ``task_end`` frame).

    Being the one seam every transport's worker entry passes through —
    inline, pool, and remote — this is also where ``worker.task`` faults
    fire when a :mod:`repro.exec.faults` plan is active.  *context*
    carries whatever the transport knows about the task (id, name) for
    the plan's match clauses.
    """
    try:
        injector = faults.active()
        if injector is not None:
            # Inside the try so an injected task failure still closes the
            # stream — the parent's drain wait must never hang on a fault.
            injector.before_task(context or {})
        return fn(payload, ctx)
    finally:
        if ctx.streaming:
            end_stream()


def worker_context(task_id: int, slot: int, streaming: bool) -> WorkContext:
    """Rebuild a task's :class:`WorkContext` inside a worker process."""
    queue = _worker_queue
    flags = _worker_flags
    counters = _worker_counters
    timeout = _worker_put_timeout
    cancel = FlagSignal(flags, slot) if flags is not None else threading.Event()
    emit: Optional[Callable[[Any], None]] = None
    if streaming and queue is not None:

        def emit(event: Any, _queue=queue, _task_id=task_id) -> None:
            # Block-with-timeout producer policy: wait for a free slot in the
            # bounded queue, then shed the event rather than wedge the worker
            # behind a consumer that stopped reading.
            try:
                _queue.put((_task_id, event), timeout=timeout)
            except Full:
                if counters is not None:
                    counters[_STAT_DROPPED] += 1
                return
            _note_pending_high_water(_queue, counters)

    return build_work_context(emit, cancel, streaming)


def close_worker_stream(task_id: int) -> None:
    """Send the end-of-stream marker for one task (worker side).

    The marker is never load-shed — task settling waits for it — but the
    wait is still bounded: if the queue stays full past a generous multiple
    of the emit timeout, the worker gives up and lets the parent's own
    drain timeout settle the task.
    """
    queue = _worker_queue
    if queue is not None:
        try:
            queue.put((task_id, _EOS), timeout=max(10.0, 4 * _worker_put_timeout))
        except Full:  # pragma: no cover - consumer wedged for tens of seconds
            pass
