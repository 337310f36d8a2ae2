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

* :func:`make_server` — a stdlib :class:`~http.server.ThreadingHTTPServer`
  over the front: one thread per connection, each running
  :class:`~repro.server.routes.FrontHandler`, which calls the front and the
  job store directly.  Keep-alive for buffered responses,
  ``Connection: close`` streaming for SSE.

* :class:`ServerThread` — that server's accept loop on a background thread
  (``python -m repro.server`` runs it on the main thread).
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from typing import Any, Optional

from repro.jobstore import open_job_store
from repro.server.quotas import QuotaGate, StridePacer
from repro.server.routes import FrontHandler
from repro.server.sse import EventHub, JOB_SETTLED_KIND
from repro.server.tenants import Tenant, TenantRegistry
from repro.service import JobHandle, JobStatus, MigrationJob, MigrationService


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

    def submit(
        self, tenant: Tenant, job: MigrationJob, now: Optional[float] = None
    ) -> dict:
        """Admit one job: quota gate, stride priority, backlog, wake runner.

        Raises :class:`~repro.server.quotas.QuotaExceeded` on refusal.
        *now* is the ``time.monotonic()`` instant the rate limit charges
        the job at: the arrival of its request (default: the clock now).
        Admission is durable — the job lands in the store as a *deferred*
        record immediately (a crash before dispatch leaves an adoptable
        standing) — but the real service submission happens in the runner,
        which is what makes ``max_running`` per tenant enforceable.
        Returns the accepted-job summary (name, tenant, assigned priority).
        """
        self.quotas.admit_submit(tenant, now)
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
            self.quotas.forget(tenant_name)
        self._publish_settled(cancelled)
        return True

    def adopt_unfinished(self) -> list[str]:
        """Pull *foreign* deferred store records into the batch (POST /resume).

        Deferred records written by another process over the same store
        (``submit_deferred`` from a script, say).  Our own backlogged jobs
        are also deferred standings — they are skipped here, the runner owns
        them.  Adopted jobs bypass tenant quotas (their admission happened
        wherever they were written) but still run behind the fair-share
        priorities already queued.  Records pass the service's resume gate
        one by one: a rejected record settles ``incompatible`` and the rest
        are still adopted.  Returns the adopted job names.
        """
        adopted, rejected = [], []
        with self._lock:
            ours = set(self._tracked)
            known = {handle.job.name for handle in self.service.handles} | ours
            for stored in self.store.load_jobs().values():
                if stored.name in known or not stored.deferred:
                    continue
                handle = self.service._adopt(stored)
                (rejected if handle.done else adopted).append(handle)
        for handle in rejected:
            self._publish_settled(handle)
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
                self.quotas.forget(tenant_name)
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
    def start(self) -> None:
        """Create the event hub and start the runner."""
        self.hub = EventHub(self.store)
        if self._runner is None:
            self._runner = threading.Thread(
                target=self._runner_loop, name="repro-server-runner", daemon=True
            )
            self._runner.start()
        self._wake.set()  # drain anything resume() brought back

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called (open SSE streams end on it)."""
        return self._stop.is_set()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._runner is not None:
            self._runner.join(timeout=5)
            self._runner = None
        self.service.close()


# ------------------------------------------------------------ HTTP server
#: How often ``ServerThread``'s accept loop checks for shutdown (seconds):
#: ``stop()`` waits up to this long.
_SHUTDOWN_POLL = 0.05


def make_server(
    front: ServiceFront, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A threaded HTTP server over *front*: one thread per connection.

    Port 0 picks a free port (``server_address`` has the bound one).  The
    caller starts the front and runs ``serve_forever``.
    """
    server = ThreadingHTTPServer((host, port), FrontHandler)
    server.front = front
    return server


class ServerThread:
    """Run a front's HTTP server on a background thread (tests, examples).

    Usage::

        front = ServiceFront("jobs.sqlite", tenants=registry)
        with ServerThread(front) as server:
            requests_to(server.address)
    """

    def __init__(self, front: ServiceFront, *, host: str = "127.0.0.1", port: int = 0):
        self.front = front
        self._host = host
        self._port = port
        self.address: Optional[tuple[str, int]] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServerThread":
        self._server = make_server(self.front, self._host, self._port)
        self.address = self._server.server_address[:2]
        self.front.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_SHUTDOWN_POLL,),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the front, then the accept loop; open SSE streams end too."""
        self.front.stop()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
