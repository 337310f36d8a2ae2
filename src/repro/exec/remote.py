"""Socket transport: worker fleets behind the channel/scheduler contract.

This module is the coordinator side of every cross-process run.  A
:class:`RemoteFleet` owns the connections to ``repro.worker`` processes
(possibly on other machines) and presents two familiar surfaces to
:class:`~repro.exec.scheduler.WorkScheduler`:

* a **channel** — :class:`SocketChannel` satisfies the same contract as
  :class:`~repro.exec.channel.DirectChannel`: per-task event ordering (each
  worker connection is drained by one receiver thread, so a task's frames
  arrive in emission order), an end-of-stream marker (the worker's
  ``task_end`` frame) gating :meth:`TaskPort.wait_drained`, and
  cross-process cancellation (``TaskPort.cancel`` sends a ``cancel``
  frame; the worker's receiver thread raises the task's cancel event);
* an **executor** — :meth:`RemoteFleet.submit` returns a plain
  ``concurrent.futures.Future`` resolved by the owning connection's
  receiver thread, which the scheduler's pooled drain loop waits on.

Topologies (the protocol is direction-agnostic — the worker always sends
``hello`` first, see :mod:`repro.exec.wire`):

* **dial** — the fleet connects out to workers started with
  ``python -m repro.worker --listen HOST:PORT`` (addresses via
  ``RemoteFleet(workers=[...])`` or ``MigrationService(workers=[...])``);
* **listen** — the fleet binds ``RemoteFleet(listen="HOST:PORT")`` and
  workers register with ``python -m repro.worker --connect HOST:PORT``;
* **local** — :class:`LocalFleet`, the scheduler's own fleet for
  ``WorkScheduler(max_workers=N)``: N worker processes forked from this
  one, each holding one end of a socketpair.  No port is opened, so no
  other process can register or receive work.

Leases and failure semantics: every dispatched task is a **lease** — an
assignment of one task to one worker with an expiry, renewed by the
worker's heartbeats and optionally journalled to a
:class:`~repro.jobstore.SQLiteJobStore` (``leased`` / ``lease_heartbeat`` /
``released`` records with worker id and expiry; the store keeps the latest
per job).  A worker whose
connection drops, or that stays silent past ``lease_ttl``, is declared
lost: its in-flight futures fail with :class:`WorkerLost`, which the
scheduler turns into a charged retry for just those tasks and a
**re-lease** to a surviving worker (recorded as a fresh ``leased`` record).
Because a lost worker's socket is closed before its futures fail, a
straggler result from a worker that was merely slow can never settle the
task a second time: execution is at-least-once under crashes, settlement
exactly-once.

Every TCP connection sets ``TCP_NODELAY``: a streamed task's small
``event``, ``task_end`` and ``result`` frames would otherwise wait on
Nagle's algorithm behind the peer's delayed ACK (about 40 ms per task).
The socket transport sheds nothing: a slow subscriber propagates flow
control back to the workers' ``sendall``.  Silence is only counted while
a receiver thread waits for a frame, so a worker whose frames queue behind
a slow subscriber never loses its leases.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import InvalidStateError
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.exec import wire
from repro.exec.channel import TaskPort
from repro.exec.policy import RetryPolicy

#: Seconds between worker heartbeats (announced in the welcome frame).
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Seconds of worker silence after which its leases expire (must comfortably
#: exceed the heartbeat interval; 6x here).
DEFAULT_LEASE_TTL = 6.0

#: Seconds ensure_started() waits for the fleet to reach ``min_workers``.
DEFAULT_START_TIMEOUT = 20.0

#: Seconds LocalFleet.close() waits for its workers to exit after the
#: ``shutdown`` frame before killing them.
LOCAL_EXIT_TIMEOUT = 5.0


class WorkerLost(RuntimeError):
    """A remote worker vanished (connection drop or lease expiry) mid-task.

    Raised as the exception of the affected futures; the scheduler's drain
    loop converts it into a retry-charged re-lease, never a drain failure.
    """


class FleetUnavailable(RuntimeError):
    """The fleet has no live workers (and none arrived within the timeout)."""


def _hang_up(sock: socket.socket) -> None:
    """Shut a socket down, then close it.

    ``shutdown`` wakes a thread blocked in ``recv``/``accept`` on the socket,
    which a bare ``close`` does not, and it reaches copies of the descriptor
    that forked local workers inherited.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is already gone
    try:
        sock.close()
    except OSError:  # pragma: no cover - already torn down
        pass


# ---------------------------------------------------------------- channel
class _FleetCancelSignal:
    """Event-surfaced cancel signal whose ``set()`` crosses the socket."""

    __slots__ = ("_fleet", "_task_id", "_flag")

    def __init__(self, fleet: "RemoteFleet", task_id: int):
        self._fleet = fleet
        self._task_id = task_id
        self._flag = False

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        self._fleet._send_cancel(self._task_id)


class SocketChannel:
    """Parent-side channel of a :class:`RemoteFleet` (one per fleet).

    Events arrive as ``event`` frames on the per-worker receiver threads and
    are dispatched synchronously to the bound subscriber — same isolation
    contract as :class:`~repro.exec.channel.DirectChannel` (a raising
    subscriber is recorded on the port, the receiver keeps running).  The
    worker's ``task_end`` frame is the end-of-stream marker; it precedes the
    ``result`` frame on the same ordered connection, so a settling task's
    stream is always fully delivered first.
    """

    transport = "socket"

    def __init__(self, fleet: "RemoteFleet"):
        self._fleet = fleet
        self._lock = threading.Lock()
        #: task_id -> (subscriber, drained threading.Event, port)
        self._subscribers: dict[int, tuple[Callable[[Any], None], threading.Event, TaskPort]] = {}

    def bind(self, task_id: int, on_event: Optional[Callable[[Any], None]]) -> TaskPort:
        port = TaskPort(
            self, task_id, on_event is not None, None, _FleetCancelSignal(self._fleet, task_id)
        )
        if on_event is not None:
            with self._lock:
                self._subscribers[task_id] = (on_event, threading.Event(), port)
        return port

    def _dispatch(self, task_id: int, event: Any) -> None:
        with self._lock:
            entry = self._subscribers.get(task_id)
        if entry is None:
            return  # late event of a released (retried/abandoned) binding
        subscriber, _drained, port = entry
        try:
            subscriber(event)
        except Exception as error:  # noqa: BLE001 - keep the receiver alive
            port.subscriber_error = error

    def _end_stream(self, task_id: int) -> None:
        with self._lock:
            entry = self._subscribers.get(task_id)
        if entry is not None:
            entry[1].set()

    def _wait_drained(self, port: TaskPort, timeout: Optional[float]) -> bool:
        with self._lock:
            entry = self._subscribers.get(port.task_id)
        if entry is None:
            return True
        return entry[1].wait(timeout)

    def _release(self, port: TaskPort) -> None:
        with self._lock:
            self._subscribers.pop(port.task_id, None)

    def close(self) -> None:
        with self._lock:
            self._subscribers.clear()


# ------------------------------------------------------------------ fleet
@dataclass
class _Lease:
    """One task's assignment to one worker, with a heartbeat-renewed expiry."""

    task_id: int
    name: str
    worker_id: str
    expiry: float
    future: Future
    streaming: bool


class _WorkerLink:
    """Coordinator-side state of one registered worker connection."""

    def __init__(self, sock: socket.socket, hello: dict):
        self.sock = sock
        self.worker_id: str = hello["worker"]
        self.slots: int = max(1, int(hello.get("slots") or 1))
        self.pid = hello.get("pid")
        #: Effective (jittered) heartbeat interval announced in the welcome.
        self.heartbeat: float = float(
            hello.get("heartbeat_effective") or DEFAULT_HEARTBEAT_INTERVAL
        )
        #: Renewed each time the receiver thread goes back to waiting.
        self.last_beat = time.time()
        #: True while the receiver thread waits for a frame: the only time
        #: the worker can be silent.
        self.listening = False
        self.inflight: dict[int, _Lease] = {}
        self.send_lock = threading.Lock()
        self.lost = False

    def send(self, header: dict, payload: bytes = b"") -> None:
        with self.send_lock:
            wire.send_frame(self.sock, header, payload)


class RemoteFleet:
    """A set of remote workers driven by one scheduler at a time.

    *workers* are ``"host:port"`` addresses to dial (workers running
    ``--listen``); *listen* is a local ``"host:port"`` to accept
    ``--connect`` registrations on (port 0 picks a free port —
    :attr:`bound_address` reports it).  Both may be combined.

    The fleet is reusable across sequential scheduler drains (the service
    keeps one fleet across ``run()`` calls) but must not be shared by two
    schedulers concurrently.  ``lease_log`` journals lease records to a
    :class:`~repro.jobstore.SQLiteJobStore` (or anything with the store's
    ``record_leased`` family); the service wires its own store in
    automatically.
    """

    def __init__(
        self,
        workers: Sequence[str] = (),
        *,
        listen: Optional[str] = None,
        min_workers: int = 1,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_jitter: float = 0.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        lease_log=None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.addresses = [wire.parse_address(address) for address in workers]
        self.min_workers = max(1, min_workers)
        self.start_timeout = start_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_jitter = heartbeat_jitter
        self.lease_ttl = lease_ttl
        self.lease_log = lease_log
        self.retry = retry or RetryPolicy()
        #: Workers declared lost over the fleet's lifetime (folded into
        #: SchedulerStats.workers_lost when a borrowing scheduler closes).
        self.workers_lost = 0
        #: Last lease-journal write error, if any (journalling is best-effort:
        #: a full disk must not take the fleet down with it).
        self.lease_log_error: Optional[BaseException] = None
        self.channel = SocketChannel(self)
        self._lock = threading.Lock()
        self._roster_changed = threading.Condition(self._lock)
        self._links: dict[str, _WorkerLink] = {}
        self._task_owner: dict[int, _WorkerLink] = {}
        self._threads: list[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        #: Set by close(): wakes the monitor and dial loops out of their waits.
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        if listen is not None:
            host, port = wire.parse_address(listen)
            self._listener = socket.create_server((host, port))

    # ------------------------------------------------------------- lifecycle
    @property
    def bound_address(self) -> Optional[str]:
        """The listener's actual ``host:port`` (after port-0 resolution)."""
        if self._listener is None:
            return None
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._links)

    @property
    def capacity(self) -> int:
        """Live task slots across the fleet (shrinks when workers are lost)."""
        with self._lock:
            return sum(link.slots for link in self._links.values())

    def ensure_started(self) -> None:
        """Start background machinery and wait for ``min_workers`` to register.

        Idempotent.  Raises :class:`FleetUnavailable` when the roster is
        still short after ``start_timeout`` — the scheduler surfaces that as
        :class:`~repro.exec.ExecutorUnavailable` so clients can run the
        work on their next rung.
        """
        with self._lock:
            if self._closed:
                raise FleetUnavailable("fleet is closed")
            starting = not self._started
            self._started = True
        if starting:
            if self._listener is not None:
                self._spawn(self._accept_loop, "repro-fleet-accept")
            for address in self.addresses:
                self._spawn(lambda addr=address: self._dial_loop(addr), "repro-fleet-dial")
            self._spawn(self._monitor_loop, "repro-fleet-monitor")
        if not self.wait_for_capacity(self.start_timeout, workers=self.min_workers):
            raise FleetUnavailable(
                f"fleet has {self.worker_count}/{self.min_workers} worker(s) "
                f"after {self.start_timeout:.0f}s"
            )

    def wait_for_capacity(self, timeout: float, *, workers: int = 1) -> bool:
        """Block until at least *workers* workers are registered (or timeout)."""
        deadline = time.time() + timeout
        with self._roster_changed:
            while len(self._links) < workers and not self._closed:
                remaining = deadline - time.time()
                if remaining <= 0:
                    return False
                self._roster_changed.wait(remaining)
            return len(self._links) >= workers

    def replenish(self) -> None:
        """Restore lost capacity before a dispatch pass.

        A no-op here: remote workers reconnect on their own.
        :class:`LocalFleet` forks replacements.
        """

    def _spawn(self, target: Callable[[], None], name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = list(self._links.values())
            self._links.clear()
            self._task_owner.clear()
            self._roster_changed.notify_all()
        self._stop.set()
        if self._listener is not None:
            # Shutting a listening socket down wakes the blocked accept().
            _hang_up(self._listener)
        for link in links:
            # Mark lost under the lock so a monitor expire scan racing this
            # close sees the link as already handled and backs off.
            with self._lock:
                link.lost = True
            try:
                link.send({"type": "shutdown"})
            except OSError:
                pass
            _hang_up(link.sock)
            self._fail_inflight(link, "fleet closed with work in flight")
        self.channel.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "RemoteFleet":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ----------------------------------------------------------- registration
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener shut down by close()
            self._spawn(lambda sock=conn: self._register(sock), "repro-fleet-handshake")

    def _dial_loop(self, address: tuple[str, int]) -> None:
        """Dial one listening worker, retrying until it is up or time is out.

        Retries follow the fleet's :class:`RetryPolicy` backoff (jittered
        exponential) instead of a fixed sleep, so a fleet dialing a herd of
        not-yet-listening workers does not hammer them in lockstep.
        """
        deadline = time.time() + self.start_timeout
        rng = random.Random(hash(address))
        attempt = 0
        while not self._closed and time.time() < deadline:
            try:
                sock = socket.create_connection(address, timeout=2.0)
            except OSError:
                attempt += 1
                delay = self.retry.backoff_delay(attempt, rng) or 0.2
                self._stop.wait(min(delay, max(0.0, deadline - time.time())))
                continue
            self._register(sock)
            return

    def _register(self, sock: socket.socket) -> Optional[_WorkerLink]:
        """Handshake one connection and serve it; None when it is turned away."""
        try:
            wire.set_nodelay(sock)
            sock.settimeout(10.0)
            hello = wire.coordinator_accept(
                sock,
                heartbeat_interval=self.heartbeat_interval,
                lease_ttl=self.lease_ttl,
                heartbeat_jitter=self.heartbeat_jitter,
            )
            sock.settimeout(None)
        except (wire.FrameError, OSError):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return None
        link = _WorkerLink(sock, hello)
        with self._roster_changed:
            if self._closed or link.worker_id in self._links:
                duplicate = link.worker_id in self._links and not self._closed
                reason = "duplicate worker id" if duplicate else "fleet is closed"
                try:
                    link.send({"type": "shutdown", "reason": reason})
                    sock.close()
                except OSError:
                    pass
                return None
            self._links[link.worker_id] = link
            self._roster_changed.notify_all()
        self._spawn(lambda: self._serve_link(link), f"repro-fleet-recv-{link.worker_id}")
        return link

    # -------------------------------------------------------------- receiving
    def _serve_link(self, link: _WorkerLink) -> None:
        while True:
            with self._lock:
                # Every frame renews the link, and silence is only counted
                # from here on: heartbeats queued behind events for a slow
                # subscriber are the coordinator's delay, not the worker's.
                link.last_beat = time.time()
                link.listening = True
            try:
                header, payload = wire.recv_frame(link.sock)
            except wire.ConnectionClosed:
                self._lose_worker(link, "connection closed")
                return
            except (wire.FrameError, OSError) as error:
                self._lose_worker(link, f"connection failed ({error})")
                return
            link.listening = False
            kind = header.get("type")
            if kind == "event":
                self.channel._dispatch(header["task"], wire.load_payload(payload))
            elif kind == "task_end":
                self.channel._end_stream(header["task"])
            elif kind == "result":
                self._apply_result(link, header, payload)
            elif kind == "heartbeat":
                self._apply_heartbeat(link)
            # Unknown frame types are ignored: additive protocol evolution
            # within one WIRE_VERSION must not kill live connections.

    def _apply_result(self, link: _WorkerLink, header: dict, payload: bytes) -> None:
        task_id = header["task"]
        with self._lock:
            lease = link.inflight.pop(task_id, None)
            self._task_owner.pop(task_id, None)
        if lease is None:
            return  # task was re-leased elsewhere after this worker expired
        outcome = "done" if header.get("ok") else "failed"
        self._journal(
            lambda log: log.record_lease_released(
                lease.name, link.worker_id, outcome, task=task_id
            )
        )
        try:
            value = wire.load_payload(payload)
        except Exception as error:  # noqa: BLE001 - unpicklable result payload
            self._resolve(lease.future, error=error)
            return
        if header.get("ok"):
            self._resolve(lease.future, value=value)
        else:
            self._resolve(lease.future, error=value)

    def _apply_heartbeat(self, link: _WorkerLink) -> None:
        now = time.time()
        with self._lock:
            # last_beat is written under the fleet lock so the monitor's
            # expire path (which re-checks it under the same lock) can never
            # expire a lease the instant after it was renewed.
            link.last_beat = now
            leases = list(link.inflight.values())
            for lease in leases:
                lease.expiry = now + self.lease_ttl
        for lease in leases:
            self._journal(
                lambda log: log.record_lease_heartbeat(
                    lease.name, link.worker_id, lease.expiry, task=lease.task_id
                )
            )

    @staticmethod
    def _resolve(future: Future, *, value: Any = None, error: Optional[BaseException] = None) -> None:
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(value)
        except InvalidStateError:
            # The scheduler already abandoned this future (deadline) or the
            # worker was declared lost a moment ago: first settle wins.
            pass

    # ------------------------------------------------------------ worker loss
    def _lose_worker(self, link: _WorkerLink, reason: str) -> None:
        with self._roster_changed:
            if link.lost:
                return
            link.lost = True
            closing = self._closed
            self._links.pop(link.worker_id, None)
            if not closing:
                self.workers_lost += 1
            self._roster_changed.notify_all()
        _hang_up(link.sock)
        if not closing:
            self._fail_inflight(link, reason)

    def _fail_inflight(self, link: _WorkerLink, reason: str) -> None:
        with self._lock:
            victims = list(link.inflight.values())
            link.inflight.clear()
            for lease in victims:
                self._task_owner.pop(lease.task_id, None)
        for lease in victims:
            self._journal(
                lambda log: log.record_lease_released(
                    lease.name, link.worker_id, "lost", task=lease.task_id
                )
            )
            # The socket is already closed, so a straggler result from this
            # worker can never race this exception in: exactly-once settling.
            self._resolve(
                lease.future,
                error=WorkerLost(
                    f"worker {link.worker_id!r} lost ({reason}) while running {lease.name!r}"
                ),
            )

    def _expire_link(self, link: _WorkerLink, reason: str) -> bool:
        """Expire one silent link's lease — the *entire* decision under the lock.

        Re-validates under ``self._lock`` that the link is still live
        (not already being closed by ``_lose_worker``/``close()``) and
        still silent (a frame may have renewed ``last_beat``, or the
        receiver may be busy delivering one, since the monitor's scan).
        Only then is the loss committed, atomically with the decision — the
        monitor can never expire a lease out from under a concurrent close.
        Returns True when the link was expired.
        """
        with self._roster_changed:
            if link.lost or self._closed:
                return False
            if not self._silent(link, time.time()):
                return False  # renewed since the scan: not silent after all
            link.lost = True
            self._links.pop(link.worker_id, None)
            self.workers_lost += 1
            self._roster_changed.notify_all()
        _hang_up(link.sock)
        self._fail_inflight(link, reason)
        return True

    def _silent(self, link: _WorkerLink, now: float) -> bool:
        """Whether *link* has owed a frame for longer than ``lease_ttl``."""
        return link.listening and now - link.last_beat > self.lease_ttl

    def _monitor_loop(self) -> None:
        interval = max(0.05, min(self.heartbeat_interval, self.lease_ttl / 3))
        rng = random.Random(f"monitor:{id(self)}")
        # Jitter the scan period so restarted fleets don't expire in step.
        while not self._stop.wait(interval * rng.uniform(0.8, 1.2)):
            now = time.time()
            with self._lock:
                silent = [link for link in self._links.values() if self._silent(link, now)]
            for link in silent:
                self._expire_link(
                    link, f"lease expired after {self.lease_ttl:.1f}s of silence"
                )

    # ------------------------------------------------------------- dispatch
    def submit(
        self,
        task_id: int,
        streaming: bool,
        fn: Callable,
        payload: Any,
        *,
        name: str = "",
        deadline: Optional[float] = None,
    ) -> Future:
        """Lease one task to the least-loaded live worker; returns its future.

        Raises :class:`FleetUnavailable` when no worker is registered.  A
        payload that fails to pickle resolves the future FAILED (a task
        isolation failure, not a fleet failure).
        """
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            body = wire.dump_payload((fn, payload))
        except Exception as error:  # noqa: BLE001 - unpicklable task payload
            self._resolve(future, error=error)
            return future
        now = time.time()
        with self._lock:
            if not self._links:
                raise FleetUnavailable("no live workers in the fleet")
            link = min(
                self._links.values(), key=lambda entry: len(entry.inflight) / entry.slots
            )
            lease = _Lease(
                task_id=task_id,
                name=name or f"task-{task_id}",
                worker_id=link.worker_id,
                expiry=now + self.lease_ttl,
                future=future,
                streaming=streaming,
            )
            link.inflight[task_id] = lease
            self._task_owner[task_id] = link
        self._journal(
            lambda log: log.record_leased(
                lease.name, link.worker_id, lease.expiry, task=task_id
            )
        )
        try:
            link.send(
                {
                    "type": "task",
                    "task": task_id,
                    "name": lease.name,
                    "streaming": streaming,
                    "deadline": deadline,
                },
                body,
            )
        except OSError as error:
            self._lose_worker(link, f"send failed ({error})")
        return future

    def _send_cancel(self, task_id: int) -> None:
        with self._lock:
            link = self._task_owner.get(task_id)
        if link is None:
            return
        try:
            link.send({"type": "cancel", "task": task_id})
        except OSError as error:
            self._lose_worker(link, f"send failed ({error})")

    # -------------------------------------------------------------- journal
    def _journal(self, write: Callable[[Any], None]) -> None:
        """Write one lease record through the log's ``record_*`` methods,
        best-effort."""
        log = self.lease_log
        if log is None:
            return
        try:
            write(log)
        except Exception as error:  # noqa: BLE001 - journalling is best-effort
            self.lease_log_error = error


# ------------------------------------------------------------ local fleet
def _mp_context():
    """Fork where available: local workers inherit the imported ``repro``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _serve_local_fleet(agent: type, sock: socket.socket, parent_end: socket.socket) -> None:
    """Body of one local worker process: serve the parent over *sock*, then exit."""
    # Drop this process's copy of the parent's end, so the worker reads EOF
    # when the parent dies instead of waiting on a socket it holds itself.
    parent_end.close()
    with sock:
        sock.settimeout(30.0)  # handshake window; serve() lifts it
        agent(worker_id=f"local-{os.getpid()}").serve(sock)


class LocalFleet(RemoteFleet):
    """The scheduler's own fleet: *size* worker processes forked from this one.

    ``WorkScheduler(max_workers=N)`` owns one per scheduler.  Each worker is
    forked (spawned where fork is unavailable) with one end of a fresh
    ``socketpair`` and runs :meth:`~repro.worker.WorkerAgent.serve` on it;
    forking keeps every ``repro`` module the parent imported.  The fleet
    opens no port, so only its own children can register.  Tasks then take
    the path of a remote fleet: the socket transport, leases and
    :class:`WorkerLost` re-leases.  Leases are not journalled.

    The draining thread calls :meth:`replenish` before each dispatch pass,
    which forks a replacement for every worker that exited or whose link
    the fleet dropped, so capacity returns to *size*.
    """

    def __init__(self, size: int, *, start_timeout: float = DEFAULT_START_TIMEOUT):
        super().__init__(min_workers=size, start_timeout=start_timeout)
        self.size = size
        #: (process, link) of every registered worker.
        self._workers: list[tuple[Any, _WorkerLink]] = []

    def ensure_started(self) -> None:
        # replenish() forks the first workers before RemoteFleet starts
        # the monitor thread.
        self.replenish()
        super().ensure_started()

    def replenish(self) -> None:
        """Replace exited or dropped workers until all *size* are registered."""
        if self._closed:
            raise FleetUnavailable("fleet is closed")
        workers = []
        for process, link in self._workers:
            if link.lost or not process.is_alive():
                # A dropped link whose process lingers (a stalled worker)
                # would hold a slot forever.
                process.kill()
                process.join()
            else:
                workers.append((process, link))
        self._workers = workers
        if len(workers) < self.size:
            self._start_workers()
        if len(self._workers) < self.size:
            raise FleetUnavailable(
                f"local fleet has {len(self._workers)}/{self.size} worker(s)"
            )

    def _start_workers(self) -> None:
        """Fork the missing workers first, then register each one."""
        # Imported here, in the parent, so every fork inherits the module.
        from repro.worker import WorkerAgent

        context = _mp_context()
        forked = []
        try:
            while len(self._workers) + len(forked) < self.size:
                parent_end, child_end = socket.socketpair()
                # Closed here once the child holds its own copy, so the
                # parent reads EOF on its end as soon as the worker exits.
                with child_end:
                    try:
                        process = context.Process(
                            target=_serve_local_fleet,
                            args=(WorkerAgent, child_end, parent_end),
                            name="repro-local-worker",
                            daemon=True,
                        )
                        process.start()
                    except BaseException:
                        parent_end.close()
                        raise
                forked.append((process, parent_end))
        except (OSError, ValueError) as error:
            raise FleetUnavailable(f"cannot start local workers: {error}") from error
        finally:
            for process, parent_end in forked:
                link = self._register(parent_end)
                if link is None:  # never said hello
                    process.kill()
                    process.join()
                else:
                    self._workers.append((process, link))

    def close(self) -> None:
        super().close()  # each worker exits on its ``shutdown`` frame
        deadline = time.time() + LOCAL_EXIT_TIMEOUT
        for process, _link in self._workers:
            process.join(max(0.0, deadline - time.time()))
            if process.is_alive():
                process.kill()  # SIGKILL also ends a stopped process
                process.join()
        self._workers = []
