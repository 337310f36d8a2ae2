"""HTTP routes of the service front, served by one request handler.

Endpoints (all JSON unless noted):

* ``GET  /healthz`` — liveness (no auth).
* ``POST /jobs`` — submit a batch: ``{"benchmark": name, "variants": N,
  "deadline": seconds, "defer": bool, "name_prefix": str,
  "config": {...}}``.  Builds one job per target schema (the benchmark's
  planned target plus N rename variants), admits each through the tenant's
  quota gate, and assigns stride fair-share priorities.  ``202`` with the
  accepted names; ``429`` + ``Retry-After`` on quota refusal; ``409`` on a
  name collision.  ``deadline`` is absent, ``null`` or a finite
  number of seconds ≥ 0, and ``variants`` an integer ≥ 0.  ``config`` is
  an object that may set any scalar
  :class:`~repro.api.SynthesisConfig` field, checked against the field's
  annotation (``Optional`` fields take ``null``); engine and strategy
  names must be known ones.  Anything else is a ``400`` before a job is
  stored.
* ``GET  /jobs?status=…`` — this tenant's jobs (indexed store query +
  live-handle overlay; an open registry sees everything).
* ``GET  /jobs/{name}`` — one job's response payload.
* ``GET  /jobs/{name}/events`` — the SSE stream (see
  :mod:`repro.server.sse`): replays persisted events after
  ``Last-Event-ID`` (or ``?after=N``), then streams live, ending after the
  ``job_settled`` frame.  Reconnecting with the last seen id is gap-free
  and duplicate-free, including across a server restart.
* ``POST /jobs/{name}/cancel`` — cooperative cancellation.
* ``POST /resume`` — adopt foreign deferred store records into the batch.

Authentication: ``X-API-Key: <key>`` or ``Authorization: Bearer <key>``;
``401`` when the key resolves to no tenant.  A key-less tenant registry
runs open (single implicit tenant, no limits).

:class:`FrontHandler` serves one connection on its own thread
(:func:`~repro.server.app.make_server`) and calls the front and the job
store directly.  It reads each request's whole body by ``Content-Length``
before routing, so any answer leaves a keep-alive connection at the next
request; a malformed ``Content-Length`` answers ``400`` and closes.  A
route that raises answers ``500`` (when no head was sent yet) and closes.
"""

from __future__ import annotations

import functools
import json
import math
import queue
import select
import socket
import time
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Any, Optional, Sequence, get_args, get_type_hints
from urllib.parse import unquote

from repro.server.quotas import QuotaExceeded
from repro.server.sse import JOB_SETTLED_KIND, format_frame
from repro.server.tenants import Tenant

if TYPE_CHECKING:
    from repro.server.app import ServiceFront

#: Idle SSE keep-alive comment interval (seconds).
SSE_PING_INTERVAL = 15.0

#: How long an SSE stream waits on its queue before it checks again that
#: the client is still there and the front still running (seconds).
SSE_WAIT = 0.25

#: The JSON values each scalar annotation takes (``bool`` is an ``int``
#: subclass: a bool passes only where the annotation is ``bool``).
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _query(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in text.split("&"):
        key, sep, value = pair.partition("=")
        if key:
            out[key] = value if sep else ""
    return out


# -------------------------------------------------------------- job helpers
@functools.cache
def _field_types(cls: type) -> dict:
    """A dataclass's resolved field annotations (resolving costs ~0.4 ms)."""
    return get_type_hints(cls)


def _apply_config(config: Any, overrides: dict) -> None:
    """Apply type-checked scalar overrides to one SynthesisConfig.

    Each value is checked against the field's annotation: ``Optional[T]``
    takes a ``T`` or ``null``, and a ``float`` field takes any number.
    Fields that name an engine or strategy are checked against the known
    names here, so a typo is a ``400`` at submission rather than a job that
    is stored and then settles ``FAILED``.
    """
    from repro.core.session import COMPLETER_CLASSES
    from repro.engine.compiler import EXECUTION_BACKENDS

    choices = {
        "execution_backend": EXECUTION_BACKENDS,
        "completion_strategy": COMPLETER_CLASSES,
    }
    if not isinstance(overrides, dict):
        raise ValueError("config must be a JSON object")
    hints = _field_types(type(config))
    for key, value in overrides.items():
        if key not in hints:
            raise ValueError(f"unknown config field {key!r}")
        members = get_args(hints[key]) or (hints[key],)
        nullable = type(None) in members
        (kind,) = [member for member in members if member is not type(None)]
        if kind not in _ACCEPTS:
            raise ValueError(f"config field {key!r} is not a scalar")
        if value is None:
            ok = nullable
        else:
            ok = isinstance(value, _ACCEPTS[kind]) and (
                kind is bool or not isinstance(value, bool)
            )
        if not ok:
            raise ValueError(f"config field {key!r} expects {kind.__name__}")
        if key in choices and value not in choices[key]:
            raise ValueError(
                f"unknown {key} {value!r}; known: {', '.join(choices[key])}"
            )
        if kind is float and value is not None:
            value = float(value)
        setattr(config, key, value)


def _build_jobs(front: ServiceFront, payload: dict) -> list:
    from repro.api import SynthesisConfig
    from repro.service import MigrationJob
    from repro.workloads import get_benchmark, rename_variants

    benchmark_name = payload.get("benchmark", "coachup")
    if not isinstance(benchmark_name, str):
        raise ValueError("benchmark must be a benchmark name")
    try:
        benchmark = get_benchmark(benchmark_name)
    except KeyError as error:
        raise ValueError(str(error)) from error
    variants = payload.get("variants", 0)
    if isinstance(variants, bool) or not isinstance(variants, int) or variants < 0:
        raise ValueError("variants must be an integer >= 0")
    deadline = payload.get("deadline")
    if deadline is not None and (
        isinstance(deadline, bool)
        or not isinstance(deadline, (int, float))
        or not (0 <= deadline < math.inf)
    ):
        raise ValueError("deadline must be null or a finite number of seconds >= 0")
    config = SynthesisConfig()
    _apply_config(config, payload.get("config", {}))
    targets = [benchmark.target_schema]
    targets.extend(
        rename_variants(
            benchmark.target_schema, variants, base_name=f"{benchmark.name}_v2"
        )
    )
    prefix = payload.get("name_prefix", "")
    return [
        MigrationJob(
            name=f"{prefix}{benchmark.name}->{target.name}",
            source_program=benchmark.source_program,
            target_schema=target,
            config=config,
            deadline=deadline,
            # The planned (index-0) target is exactly the registry's: record
            # the workload so resume can re-pin against the live registry.
            workload=benchmark_name if target is benchmark.target_schema else None,
        )
        for target in targets
    ]


def _visible(front: ServiceFront, tenant: Tenant, job_tenant: str) -> bool:
    """Tenant-scoped visibility: own jobs plus untenanted ones."""
    if front.tenants.open:
        return True
    return job_tenant in ("", tenant.name)


def _job_payload(front: ServiceFront, name: str, stored) -> dict:
    """One job's response: live handle when present, else the store record."""
    handle = front.get_handle(name)
    if handle is not None:
        payload = handle.to_dict(include_program=False)
    else:
        payload = {
            key: value
            for key, value in (stored.last or {}).items()
            if key not in ("type", "spec")
        }
        payload.setdefault("job", name)
        payload.setdefault("status", stored.status)
    if stored is not None:
        if stored.tenant:
            payload.setdefault("tenant", stored.tenant)
        priority = (stored.last or {}).get("priority")
        if priority is not None:
            payload.setdefault("priority", priority)
    return payload


class FrontHandler(BaseHTTPRequestHandler):
    """The front's routes, one request at a time on a connection's thread.

    ``self.server.front`` is the :class:`~repro.server.app.ServiceFront`.
    """

    protocol_version = "HTTP/1.1"
    # SSE frames are small: send each at once, not after the last one's ACK.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        """Write nothing per request."""

    def __getattr__(self, name: str) -> Any:
        # Every method reaches the router (do_GET, do_PUT, ...): one that no
        # route takes answers 401 or the JSON 404, not the stdlib's HTML 501.
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    # ----------------------------------------------------------- plumbing
    def _handle(self) -> None:
        self._head_sent = False
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # The body's end is unknown, so the connection cannot go on.
            self.close_connection = True
            self._send_json(400, {"error": "invalid Content-Length"})
            return
        body = self.rfile.read(int(length))
        path, _, query = self.path.partition("?")
        parts = [part for part in unquote(path).split("/") if part]
        try:
            self._route(self.server.front, parts, _query(query), body)
        except ConnectionError:
            self.close_connection = True  # the client went away
        except Exception:
            self.close_connection = True
            if not self._head_sent:
                self._respond(500, b"")
            raise  # the server records the traceback and closes

    def _respond(self, status: int, body: bytes, headers: Sequence = ()) -> None:
        self._head_sent = True
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        headers = [("Content-Type", "application/json")]
        if status == 429 and "retry_after" in payload:
            retry = max(1, round(payload["retry_after"]))
            headers.append(("Retry-After", str(retry)))
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(status, body, headers)

    def _header(self, name: str) -> str:
        return self.headers.get(name, "").strip()

    def _api_key(self) -> str:
        key = self._header("X-API-Key")
        if key:
            return key
        auth = self._header("Authorization")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return ""

    # -------------------------------------------------------------- routes
    def _route(
        self, front: ServiceFront, parts: list[str], query: dict, body: bytes
    ) -> None:
        method = self.command
        if parts == ["healthz"] and method == "GET":
            self._send_json(200, {"status": "ok"})
            return

        tenant = front.authenticate(self._api_key())
        if tenant is None:
            self._send_json(401, {"error": "unknown or missing API key"})
            return

        try:
            if parts == ["jobs"] and method == "POST":
                self._post_jobs(front, tenant, body)
            elif parts == ["jobs"] and method == "GET":
                self._get_jobs(front, tenant, query)
            elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                self._get_job(front, tenant, parts[1])
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
                and method == "GET"
            ):
                self._get_events(front, tenant, parts[1], query)
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
                and method == "POST"
            ):
                self._post_cancel(front, tenant, parts[1])
            elif parts == ["resume"] and method == "POST":
                self._send_json(202, {"resumed": front.adopt_unfinished()})
            else:
                self._send_json(404, {"error": "unknown route"})
        except QuotaExceeded as error:
            self._send_json(
                429, {"error": error.reason, "retry_after": error.retry_after}
            )
        except ValueError as error:
            status = 409 if "already exists" in str(error) else 400
            self._send_json(status, {"error": str(error)})

    def _post_jobs(self, front: ServiceFront, tenant: Tenant, body: bytes) -> None:
        # The rate limit charges every job of the request at its arrival.
        arrived = time.monotonic()
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("the request body must be a JSON object")
        jobs = _build_jobs(front, payload)
        if payload.get("defer"):
            # Record-only (the /resume pattern): durable deferred records,
            # outside the quota gate — nothing runs until adoption.
            for job in jobs:
                job.tenant = tenant.name
                front.service.submit_deferred(job)
            self._send_json(
                202, {"submitted": [job.name for job in jobs], "deferred": True}
            )
            return
        accepted = []
        for job in jobs:
            try:
                accepted.append(front.submit(tenant, job, arrived))
            except QuotaExceeded as error:
                # Partial admission: everything accepted so far stays
                # accepted and runs; the refusal reports both halves.
                self._send_json(
                    429,
                    {
                        "error": error.reason,
                        "retry_after": error.retry_after,
                        "submitted": [entry["job"] for entry in accepted],
                    },
                )
                return
        self._send_json(
            202,
            {
                "submitted": [entry["job"] for entry in accepted],
                "priorities": {entry["job"]: entry["priority"] for entry in accepted},
                "tenant": tenant.name,
                "deferred": False,
            },
        )

    def _get_jobs(self, front: ServiceFront, tenant: Tenant, query: dict) -> None:
        status = query.get("status") or None
        query_tenant = None if front.tenants.open else tenant.name
        if front.tenants.open and query.get("tenant"):
            query_tenant = query["tenant"]
        stored_jobs = front.store.query_jobs(tenant=query_tenant, status=status)
        payloads = [
            _job_payload(front, stored.name, stored)
            for stored in stored_jobs
            if _visible(front, tenant, stored.tenant)
        ]
        self._send_json(200, payloads)

    def _get_job(self, front: ServiceFront, tenant: Tenant, name: str) -> None:
        stored = front.store.load_jobs().get(name)
        if stored is None or not _visible(front, tenant, stored.tenant):
            self._send_json(404, {"error": f"unknown job {name!r}"})
            return
        self._send_json(200, _job_payload(front, name, stored))

    def _post_cancel(self, front: ServiceFront, tenant: Tenant, name: str) -> None:
        stored = front.store.load_jobs().get(name)
        known = stored is not None or front.get_handle(name) is not None
        if not known or (
            stored is not None and not _visible(front, tenant, stored.tenant)
        ):
            self._send_json(404, {"error": f"unknown job {name!r}"})
            return
        cancelled = front.cancel(name)
        self._send_json(202, {"job": name, "cancel_requested": bool(cancelled)})

    # ----------------------------------------------------------------- SSE
    def _get_events(
        self, front: ServiceFront, tenant: Tenant, name: str, query: dict
    ) -> None:
        stored = front.store.load_jobs().get(name)
        if (stored is None and front.get_handle(name) is None) or (
            stored is not None and not _visible(front, tenant, stored.tenant)
        ):
            self._send_json(404, {"error": f"unknown job {name!r}"})
            return
        after = 0
        raw_after = self._header("Last-Event-ID") or query.get("after", "")
        if raw_after:
            try:
                after = max(0, int(raw_after))
            except ValueError:
                self._send_json(400, {"error": "last-event-id must be an integer"})
                return

        # No length: the stream is framed by closing the connection.
        self._head_sent = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        # A first comment: the client sees the stream live before any event.
        self.wfile.write(b": stream open\n\n")

        hub = front.hub
        # Subscribe BEFORE replaying history: events published during the
        # replay land in the queue and are deduplicated by seq afterwards —
        # the no-gap half of the resume contract.
        subscription = hub.subscribe(name)
        try:
            last_sent, settled = self._replay(hub, name, after)
            if settled:  # history already ends with job_settled
                return
            if last_sent == after:
                # Nothing to replay.  A client resuming at (or past) an
                # already delivered terminal frame is fully caught up on a
                # finished stream — close it instead of parking on a
                # settled job.
                history = hub.history(name, after=0)
                if (
                    history
                    and history[-1][1].get("kind") == JOB_SETTLED_KIND
                    and history[-1][0] <= after
                ):
                    return
            idle = 0.0
            while not front.stopped and not self._client_gone():
                try:
                    seq, payload = subscription.queue.get(timeout=SSE_WAIT)
                except queue.Empty:
                    idle += SSE_WAIT
                    if idle >= SSE_PING_INTERVAL:
                        self.wfile.write(b": ping\n\n")  # idle keep-alive
                        idle = 0.0
                    continue
                idle = 0.0
                if seq <= last_sent:
                    continue  # duplicate of the replay
                if seq > last_sent + 1:
                    # The bounded bridge queue shed events (or publish
                    # raced the replay): heal the gap from the store.
                    healed, settled = self._replay(hub, name, last_sent, upto=seq - 1)
                    last_sent = max(last_sent, healed)
                    if settled:
                        return
                    if seq <= last_sent:
                        continue
                self.wfile.write(format_frame(seq, payload))
                last_sent = seq
                if payload.get("kind") == JOB_SETTLED_KIND:
                    return
        finally:
            hub.unsubscribe(subscription)

    def _replay(
        self, hub, name: str, after: int, *, upto: Optional[int] = None
    ) -> tuple[int, bool]:
        """Stream persisted events with ``after < seq [<= upto]``.

        Returns ``(last sequence written — or *after* when none —, whether
        the replayed slice ended the stream with a job_settled frame)``.
        """
        last = after
        for seq, payload in hub.history(name, after=after):
            if upto is not None and seq > upto:
                break
            self.wfile.write(format_frame(seq, payload))
            last = seq
            if payload.get("kind") == JOB_SETTLED_KIND:
                return last, True
        return last, False

    def _client_gone(self) -> bool:
        """EOF or a reset on the socket: HTTP/1.1's only disconnect signal."""
        readable, _, _ = select.select([self.connection], [], [], 0)
        if not readable:
            return False
        try:
            peeked = self.connection.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        except OSError:
            return True
        return not peeked
