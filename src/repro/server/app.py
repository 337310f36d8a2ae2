"""The service front: multi-tenant job admission over one MigrationService.

Three layers, bottom up:

* :class:`ServiceFront` — the synchronous core.  Owns the job store
  (opened with :func:`~repro.jobstore.open_job_store`), the
  :class:`~repro.service.MigrationService` (rebuilt with
  :meth:`~repro.service.MigrationService.resume` when the store already has
  history — settled jobs come back restored, unfinished ones re-pinned),
  the tenant registry / quota gate / stride pacer, and the **runner
  thread** that drains admitted jobs in cycles.  Each cycle dispatches at
  most ``quota.max_running`` jobs per tenant from the per-tenant backlogs,
  in stride order, and publishes a synthetic ``job_settled`` event as each
  job reaches a terminal status.

* :class:`ServerApp` — a minimal ASGI application over the front (the
  routing table lives in :mod:`repro.server.routes`).  Runnable under any
  ASGI server; no dependency beyond the interface itself.

* :func:`serve` / :class:`ServerThread` — a stdlib asyncio HTTP/1.1
  adapter for the app, so the front needs no ASGI server installed:
  keep-alive for buffered responses, ``Connection: close`` streaming for
  SSE, client-disconnect detection surfaced as both an ``http.disconnect``
  receive message and :class:`ClientDisconnected` from ``send``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Optional
from urllib.parse import unquote

from repro.jobstore import decode_job, open_job_store
from repro.server.quotas import QuotaExceeded, QuotaGate, StridePacer
from repro.server.sse import EventHub, JOB_SETTLED_KIND
from repro.server.tenants import Tenant, TenantRegistry
from repro.service import JobHandle, JobStatus, MigrationJob, MigrationService


class ClientDisconnected(ConnectionError):
    """The HTTP client went away mid-response (streaming send failed)."""


# ---------------------------------------------------------------- the front
class ServiceFront:
    """Synchronous multi-tenant core shared by every transport."""

    def __init__(
        self,
        store: Any,
        *,
        tenants: Optional[TenantRegistry] = None,
        max_workers: int = 0,
        default_config: Any = None,
        age_after: Optional[float] = 30.0,
        age_step: int = 1000,
        fsync: bool = True,
    ):
        self.store = open_job_store(store, fsync=fsync)
        self.tenants = tenants or TenantRegistry()
        self.quotas = QuotaGate()
        self.pacer = StridePacer()
        self.hub: Optional[EventHub] = None
        self._lock = threading.Lock()
        #: Per-tenant FIFO backlogs of admitted-but-not-dispatched
        #: :class:`MigrationJob` specs, in stride order (passes only grow
        #: per tenant).  Admission records the job as *deferred* in the
        #: store (durable, visible, crash-adoptable) and the runner turns
        #: backlog entries into real service submissions ≤ ``max_running``
        #: per tenant per cycle.
        self._backlogs: dict[str, list] = {}
        #: Quota-tracked jobs: name -> tenant name (admitted here, not yet
        #: settled; resumed jobs from a previous life are untracked).
        self._tracked: dict[str, str] = {}
        #: Jobs whose ``job_settled`` event this process already published.
        self._settled_published: set[str] = set()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._runner: Optional[threading.Thread] = None
        # Resume-or-fresh: a store with history means this front is a
        # restart — restored handles serve their recorded responses, and
        # unfinished jobs re-enter the backlog (already admitted in a
        # previous life: they bypass quota but still pace fairly).
        existing = self.store.load_jobs()
        if existing:
            self.service = MigrationService.resume(
                self.store,
                max_workers=max_workers,
                default_config=default_config,
                on_event=self._on_event,
                age_after=age_after,
                age_step=age_step,
            )
            for stored in existing.values():
                if stored.settled:
                    self._settled_published.add(stored.name)
        else:
            self.service = MigrationService(
                max_workers=max_workers,
                default_config=default_config,
                on_event=self._on_event,
                job_store=self.store,
                age_after=age_after,
                age_step=age_step,
            )

    # --------------------------------------------------------------- events
    def _on_event(self, job_name: str, event: Any) -> None:
        hub = self.hub
        if hub is not None:
            hub.publish(job_name, event)

    def _publish_settled(self, handle) -> None:
        """Publish the stream-terminating ``job_settled`` event, once.

        Once per job across *lives*: after a restart the persisted event
        log is consulted before re-publishing, so ``Last-Event-ID`` replay
        never sees a duplicate terminal frame.
        """
        name = handle.job.name
        hub = self.hub
        if hub is None or name in self._settled_published:
            return
        with self._lock:
            if name in self._settled_published:
                return
            self._settled_published.add(name)
        events = self.store.load_events(name, after=0)
        if events and events[-1][1].get("kind") == JOB_SETTLED_KIND:
            return
        hub.publish(
            name,
            {
                "kind": JOB_SETTLED_KIND,
                "job": name,
                "status": handle.status.value,
                "error": handle.error,
            },
        )

    # ----------------------------------------------------------- admission
    def authenticate(self, api_key: str) -> Optional[Tenant]:
        return self.tenants.resolve(api_key)

    def submit(self, tenant: Tenant, job: MigrationJob) -> dict:
        """Admit one job: quota gate, stride priority, backlog, wake runner.

        Raises :class:`~repro.server.quotas.QuotaExceeded` on refusal.
        Admission is durable — the job lands in the store as a *deferred*
        record immediately (a crash before dispatch leaves an adoptable
        standing) — but the real service submission happens in the runner,
        which is what makes ``max_running`` per tenant enforceable.
        Returns the accepted-job summary (name, tenant, assigned priority).
        """
        self.quotas.admit_submit(tenant)
        try:
            job.tenant = tenant.name
            job.priority = self.pacer.next_priority(tenant)
            with self._lock:
                if job.name in self._tracked or self.get_handle(job.name) is not None:
                    raise ValueError(f"job {job.name!r} already exists")
                self.service.submit_deferred(job)
                self._tracked[job.name] = tenant.name
                self._backlogs.setdefault(tenant.name, []).append(job)
        except Exception:
            self.quotas.forget(tenant.name)
            raise
        self._wake.set()
        return {"job": job.name, "tenant": tenant.name, "priority": job.priority}

    def get_handle(self, name: str):
        for handle in self.service.handles:
            if handle.job.name == name:
                return handle
        return None

    def cancel(self, name: str) -> bool:
        """Cancel one job: live handles cooperatively, backlogged ones flat."""
        handle = self.get_handle(name)
        if handle is not None:
            handle.cancel()
            self._wake.set()
            return True
        with self._lock:
            for backlog in self._backlogs.values():
                for index, job in enumerate(backlog):
                    if job.name == name:
                        del backlog[index]
                        tenant_name = self._tracked.pop(name, None)
                        cancelled = JobHandle(job)
                        cancelled.status = JobStatus.CANCELLED
                        cancelled.error = "cancelled before dispatch"
                        break
                else:
                    continue
                break
            else:
                return False
        self.store.record_settled(cancelled, include_program=False)
        if tenant_name is not None:
            self.quotas.job_settled(tenant_name, was_dispatched=False)
        self._publish_settled(cancelled)
        return True

    def adopt_unfinished(self) -> list[str]:
        """Pull *foreign* deferred store records into the batch (POST /resume).

        Deferred records written by another process over the same store
        (``submit_deferred`` from a script, say).  Our own backlogged jobs
        are also deferred standings — they are skipped here, the runner owns
        them.  Adopted jobs bypass tenant quotas (their admission happened
        wherever they were written) but still run behind the fair-share
        priorities already queued.
        """
        with self._lock:
            ours = set(self._tracked)
            known = {handle.job.name for handle in self.service.handles} | ours
            adopted = []
            for stored in self.store.load_jobs().values():
                if stored.name in known or not stored.deferred:
                    continue
                adopted.append(self.service.submit(decode_job(stored.spec)))
        if adopted:
            self._wake.set()
        return [handle.job.name for handle in adopted]

    # ------------------------------------------------------------ the runner
    def _dispatch_cycle(self) -> int:
        """Promote backlog → service: ≤ ``max_running`` per tenant."""
        promoted = 0
        with self._lock:
            for tenant_name, backlog in self._backlogs.items():
                tenant = next(
                    (t for t in self.tenants.tenants() if t.name == tenant_name),
                    None,
                )
                limit = tenant.quota.max_running if tenant is not None else 0
                take = len(backlog) if limit <= 0 else min(limit, len(backlog))
                for job in backlog[:take]:
                    self.service.submit(job)
                    promoted += 1
                del backlog[:take]
        return promoted

    def _run_cycle(self) -> None:
        self.service.run()
        for handle in self.service.handles:
            if not handle.done:
                continue
            name = handle.job.name
            with self._lock:
                tenant_name = self._tracked.pop(name, None)
            if tenant_name is not None:
                self.quotas.job_settled(tenant_name, was_dispatched=True)
            self._publish_settled(handle)

    def _runner_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            if self._stop.is_set():
                return
            while not self._stop.is_set():
                self._dispatch_cycle()
                if not any(not handle.done for handle in self.service.handles):
                    break
                self._run_cycle()
                with self._lock:
                    if not any(self._backlogs.values()):
                        break

    # ------------------------------------------------------------- lifecycle
    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the asyncio loop (creates the hub) and start the runner."""
        self.hub = EventHub(self.store, loop)
        if self._runner is None:
            self._runner = threading.Thread(
                target=self._runner_loop, name="repro-server-runner", daemon=True
            )
            self._runner.start()
        self._wake.set()  # drain anything resume() brought back

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._runner is not None:
            self._runner.join(timeout=5)
            self._runner = None
        self.service.close()


# ----------------------------------------------------------------- ASGI app
class ServerApp:
    """Minimal ASGI application over one :class:`ServiceFront`."""

    def __init__(self, front: ServiceFront):
        self.front = front

    async def __call__(self, scope: dict, receive: Callable, send: Callable) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    self.front.start(asyncio.get_running_loop())
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    self.front.stop()
                    await send({"type": "lifespan.shutdown.complete"})
                    return
        elif scope["type"] == "http":
            from repro.server.routes import dispatch

            await dispatch(self.front, scope, receive, send)
        else:  # pragma: no cover - other ASGI scope types
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")


# ------------------------------------------------- stdlib HTTP/1.1 adapter
_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 429: "Too Many Requests", 500: "Internal Server Error",
}


async def _handle_connection(
    app: Callable, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            request_line, _, header_block = head.partition(b"\r\n")
            try:
                method, target, _version = request_line.decode("latin-1").split(" ", 2)
            except ValueError:
                return
            headers: list[tuple[bytes, bytes]] = []
            for line in header_block.split(b"\r\n"):
                name, sep, value = line.partition(b":")
                if sep:
                    headers.append((name.strip().lower(), value.strip()))
            length = 0
            for name, value in headers:
                if name == b"content-length":
                    try:
                        length = int(value)
                    except ValueError:
                        return
            body = await reader.readexactly(length) if length else b""
            path, _, query = target.partition("?")
            scope = {
                "type": "http",
                "asgi": {"version": "3.0"},
                "http_version": "1.1",
                "method": method.upper(),
                "path": unquote(path),
                "raw_path": path.encode("latin-1"),
                "query_string": query.encode("latin-1"),
                "headers": headers,
            }
            keep_alive = await _run_asgi_once(app, scope, body, reader, writer)
            if not keep_alive:
                return
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def _run_asgi_once(
    app: Callable,
    scope: dict,
    body: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> bool:
    """Drive the app for one request; returns whether to keep the connection.

    Buffered responses (single ``more_body=False`` body message) get a
    ``Content-Length`` and keep-alive.  Streaming responses (SSE) are sent
    with ``Connection: close`` and no length — the HTTP/1.0-style
    read-until-close framing every SSE client accepts — and a failed write
    mid-stream surfaces to the app as :class:`ClientDisconnected`.
    """
    state = {"started": False, "streaming": False, "status": 200, "headers": []}
    request_delivered = False
    disconnected = False

    async def receive() -> dict:
        nonlocal request_delivered, disconnected
        if not request_delivered:
            request_delivered = True
            return {"type": "http.request", "body": body, "more_body": False}
        if disconnected:
            await asyncio.sleep(3600)  # spec: receive never returns twice
        # EOF on the socket is the only disconnect signal HTTP/1.1 gives us.
        # A reset counts too: a client that closes with unread data in its
        # receive buffer RSTs instead of FINing, and read() raises.
        try:
            await reader.read(1)
        except (ConnectionError, OSError):
            pass
        disconnected = True
        return {"type": "http.disconnect"}

    async def send(message: dict) -> None:
        if message["type"] == "http.response.start":
            state["status"] = message["status"]
            state["headers"] = list(message.get("headers", []))
            state["started"] = True
            return
        if message["type"] != "http.response.body":  # pragma: no cover
            return
        chunk = message.get("body", b"") or b""
        more = bool(message.get("more_body", False))
        try:
            if not state["streaming"] and not state.get("head_sent"):
                if more:
                    state["streaming"] = True
                _write_head(
                    writer,
                    state["status"],
                    state["headers"],
                    content_length=None if state["streaming"] else len(chunk),
                    keep_alive=not state["streaming"],
                )
                state["head_sent"] = True
            writer.write(chunk)
            await writer.drain()
        except (ConnectionError, OSError) as error:
            raise ClientDisconnected(str(error)) from error

    try:
        await app(scope, receive, send)
    except ClientDisconnected:
        return False
    except Exception:  # noqa: BLE001 - connection isolation
        if not state.get("head_sent"):
            try:
                _write_head(writer, 500, [], content_length=0, keep_alive=False)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        return False
    if not state.get("head_sent"):
        _write_head(writer, state["status"] if state["started"] else 500, [],
                    content_length=0, keep_alive=True)
        await writer.drain()
        return not disconnected
    return not state["streaming"] and not disconnected


def _write_head(
    writer: asyncio.StreamWriter,
    status: int,
    headers: list,
    *,
    content_length: Optional[int],
    keep_alive: bool,
) -> None:
    reason = _REASONS.get(status, "OK")
    lines = [f"HTTP/1.1 {status} {reason}".encode("latin-1")]
    seen = set()
    for name, value in headers:
        name_b = name if isinstance(name, bytes) else name.encode("latin-1")
        value_b = value if isinstance(value, bytes) else str(value).encode("latin-1")
        seen.add(name_b.lower())
        lines.append(name_b + b": " + value_b)
    if content_length is not None and b"content-length" not in seen:
        lines.append(b"content-length: " + str(content_length).encode())
    lines.append(b"connection: " + (b"keep-alive" if keep_alive else b"close"))
    writer.write(b"\r\n".join(lines) + b"\r\n\r\n")


async def serve(
    app: Callable, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Serve an ASGI app over the stdlib asyncio HTTP/1.1 adapter."""
    return await asyncio.start_server(
        lambda reader, writer: _handle_connection(app, reader, writer),
        host=host,
        port=port,
    )


class ServerThread:
    """Run a front's HTTP server on a background thread (tests, examples).

    Usage::

        front = ServiceFront("jobs.sqlite", tenants=registry)
        with ServerThread(front) as server:
            requests_to(server.address)
    """

    def __init__(self, front: ServiceFront, *, host: str = "127.0.0.1", port: int = 0):
        self.front = front
        self.app = ServerApp(front)
        self._host = host
        self._port = port
        self.address: Optional[tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot():
            self._server = await serve(self.app, self._host, self._port)
            self.address = self._server.sockets[0].getsockname()[:2]
            self.front.start(loop)
            self._ready.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            # Idle keep-alive connection handlers are parked in readuntil();
            # cancel them so loop.close() is quiet.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        self.front.stop()
        loop = self._loop
        if loop is not None and loop.is_running():

            def shutdown():
                if self._server is not None:
                    self._server.close()
                loop.stop()

            loop.call_soon_threadsafe(shutdown)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
