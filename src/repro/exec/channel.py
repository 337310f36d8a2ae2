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
* :class:`~repro.exec.remote.SocketChannel` — cross-process: events travel
  as frames over the TCP connection of the worker running the task, and
  cancellation is a ``cancel`` frame that the worker turns into a
  ``threading.Event``.  The scheduler's local worker processes and remote
  fleets share this one transport.

Delivery semantics shared by both transports: per-task event order is
preserved; a task's port reports :meth:`TaskPort.wait_drained` true only
after every event the worker emitted (terminated by the worker's
``task_end`` marker on the socket) has been handed to the subscriber, so a
settled task never has events still in flight.  Subscriber callbacks run
on the emitting thread under :class:`DirectChannel` and on the
connection's receiver thread under the socket transport; callbacks that
raise are isolated per event (the error is recorded on the port, the
receiver keeps running).

Neither transport sheds events.  Direct delivery is synchronous, and a
slow socket subscriber stalls its connection's receiver thread, so TCP
flow control blocks the worker's sends instead of dropping events.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.exec import faults


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
        streaming: bool,
        context: Optional[WorkContext],
        cancel_signal,
    ):
        self._channel = channel
        self.task_id = task_id
        self.streaming = streaming
        #: The worker-side context, for transports where parent and worker
        #: share an address space (``None`` for the socket transport, where
        #: the worker builds its own).
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

    def release(self) -> None:
        """Unsubscribe the task: late events of this binding are dropped."""
        self._channel._release(self)


# ------------------------------------------------------------------ direct
class DirectChannel:
    """In-process transport: synchronous callbacks, ``threading.Event`` cancel."""

    transport = "direct"

    def bind(self, task_id: int, on_event: Optional[Callable[[Any], None]]) -> TaskPort:
        cancel_signal = threading.Event()
        port = TaskPort(self, task_id, on_event is not None, None, cancel_signal)

        if on_event is None:
            emit: Callable[[Any], None] = lambda _event: None
        else:

            def emit(event: Any) -> None:
                # Same isolation contract as the socket transport's receiver:
                # a raising subscriber is recorded, not propagated into the
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

    def _release(self, port: TaskPort) -> None:
        pass

    def close(self) -> None:
        pass


# ------------------------------------------------------------- worker side
def _sink_emit(_event: Any) -> None:
    """The no-subscriber emit: workers skip event construction entirely."""


def build_work_context(emit, cancel_signal, streaming: bool) -> WorkContext:
    """Assemble a worker-side :class:`WorkContext` from transport pieces.

    The one place the unobserved case is normalized (no subscriber → sink
    emit, ``streaming`` forced false) and the cancel signal is wired in.
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

    The worker entry (:mod:`repro.worker`) wraps every leased work function
    this way: run it, and — success or raise — close the event stream of a
    streaming task so the parent's drain wait can complete.  *end_stream*
    sends the transport's marker (a ``task_end`` frame).

    This is also where ``worker.task`` faults fire when a
    :mod:`repro.exec.faults` plan is active.  *context* carries whatever
    the transport knows about the task (id, name) for the plan's match
    clauses.
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
