"""HTTP routes of the service front (ASGI handlers).

Endpoints (all JSON unless noted):

* ``GET  /healthz`` — liveness (no auth).
* ``POST /jobs`` — submit a batch: ``{"benchmark": name, "variants": N,
  "deadline": seconds, "defer": bool, "name_prefix": str,
  "config": {...}}``.  Builds one job per target schema (the benchmark's
  planned target plus N rename variants), admits each through the tenant's
  quota gate, and assigns stride fair-share priorities.  ``202`` with the
  accepted names; ``429`` + ``Retry-After`` on quota refusal; ``409`` on a
  name collision.  ``config`` may set any scalar
  :class:`~repro.api.SynthesisConfig` field (type-checked whitelist;
  engine and strategy names must be known ones, else ``400``).
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
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Optional

from repro.server.app import ClientDisconnected, ServiceFront
from repro.server.quotas import QuotaExceeded
from repro.server.sse import JOB_SETTLED_KIND, format_frame
from repro.server.tenants import Tenant

#: Idle SSE keep-alive comment interval (seconds).
SSE_PING_INTERVAL = 15.0


# ------------------------------------------------------------ ASGI plumbing
async def _read_body(receive: Callable) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            return b""
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            return b"".join(chunks)


async def _send_json(send: Callable, status: int, payload: Any) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    headers = [(b"content-type", b"application/json")]
    if status == 429 and isinstance(payload, dict) and "retry_after" in payload:
        headers.append(
            (b"retry-after", str(max(1, round(payload["retry_after"]))).encode())
        )
    await send({"type": "http.response.start", "status": status, "headers": headers})
    await send({"type": "http.response.body", "body": body, "more_body": False})


def _header(scope: dict, name: bytes) -> str:
    for key, value in scope.get("headers", []):
        if key == name:
            return value.decode("latin-1")
    return ""


def _query(scope: dict) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in scope.get("query_string", b"").decode("latin-1").split("&"):
        key, sep, value = pair.partition("=")
        if key:
            out[key] = value if sep else ""
    return out


def _api_key(scope: dict) -> str:
    key = _header(scope, b"x-api-key")
    if key:
        return key
    auth = _header(scope, b"authorization")
    if auth.lower().startswith("bearer "):
        return auth[7:].strip()
    return ""


# -------------------------------------------------------------- job helpers
def _apply_config(config: Any, overrides: dict) -> None:
    """Apply type-checked scalar overrides to one SynthesisConfig.

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
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise ValueError(f"unknown config field {key!r}")
        current = getattr(config, key)
        if isinstance(current, bool):
            ok = isinstance(value, bool)
        elif isinstance(current, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif isinstance(current, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif isinstance(current, str):
            ok = isinstance(value, str)
        else:
            raise ValueError(f"config field {key!r} is not a scalar")
        if not ok:
            raise ValueError(f"config field {key!r} expects {type(current).__name__}")
        if key in choices and value not in choices[key]:
            raise ValueError(
                f"unknown {key} {value!r}; known: {', '.join(choices[key])}"
            )
        setattr(config, key, float(value) if isinstance(current, float) else value)


def _build_jobs(front: ServiceFront, payload: dict) -> list:
    from repro.api import SynthesisConfig
    from repro.service import MigrationJob
    from repro.workloads import get_benchmark, rename_variants

    benchmark_name = payload.get("benchmark", "coachup")
    try:
        benchmark = get_benchmark(benchmark_name)
    except KeyError as error:
        raise ValueError(str(error)) from error
    variants = int(payload.get("variants", 0))
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
            deadline=payload.get("deadline"),
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


# ------------------------------------------------------------------ routes
async def dispatch(
    front: ServiceFront, scope: dict, receive: Callable, send: Callable
) -> None:
    method = scope["method"]
    parts = [part for part in scope["path"].split("/") if part]

    if parts == ["healthz"] and method == "GET":
        await _send_json(send, 200, {"status": "ok"})
        return

    tenant = front.authenticate(_api_key(scope))
    if tenant is None:
        await _send_json(send, 401, {"error": "unknown or missing API key"})
        return

    try:
        if parts == ["jobs"] and method == "POST":
            await _post_jobs(front, tenant, receive, send)
        elif parts == ["jobs"] and method == "GET":
            await _get_jobs(front, tenant, scope, send)
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            await _get_job(front, tenant, parts[1], send)
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
            and method == "GET"
        ):
            await _get_events(front, tenant, parts[1], scope, receive, send)
        elif (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "cancel"
            and method == "POST"
        ):
            await _post_cancel(front, tenant, parts[1], send)
        elif parts == ["resume"] and method == "POST":
            names = await asyncio.to_thread(front.adopt_unfinished)
            await _send_json(send, 202, {"resumed": names})
        else:
            await _send_json(send, 404, {"error": "unknown route"})
    except ClientDisconnected:
        raise
    except QuotaExceeded as error:
        await _send_json(
            send,
            429,
            {"error": error.reason, "retry_after": error.retry_after},
        )
    except ValueError as error:
        status = 409 if "already exists" in str(error) else 400
        await _send_json(send, status, {"error": str(error)})


async def _post_jobs(
    front: ServiceFront, tenant: Tenant, receive: Callable, send: Callable
) -> None:
    # The rate limit charges every job of the request at its arrival.
    arrived = time.monotonic()
    body = await _read_body(receive)
    try:
        payload = json.loads(body or b"{}")
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON body: {error}") from error
    jobs = _build_jobs(front, payload)
    if payload.get("defer"):
        # Record-only (the /resume pattern): durable deferred records,
        # outside the quota gate — nothing runs until adoption.
        for job in jobs:
            job.tenant = tenant.name
            await asyncio.to_thread(front.service.submit_deferred, job)
        await _send_json(
            send, 202, {"submitted": [job.name for job in jobs], "deferred": True}
        )
        return
    accepted = []
    for job in jobs:
        try:
            accepted.append(await asyncio.to_thread(front.submit, tenant, job, arrived))
        except QuotaExceeded as error:
            # Partial admission: everything accepted so far stays accepted
            # and runs; the refusal reports both halves.
            await _send_json(
                send,
                429,
                {
                    "error": error.reason,
                    "retry_after": error.retry_after,
                    "submitted": [entry["job"] for entry in accepted],
                },
            )
            return
    await _send_json(
        send,
        202,
        {
            "submitted": [entry["job"] for entry in accepted],
            "priorities": {entry["job"]: entry["priority"] for entry in accepted},
            "tenant": tenant.name,
            "deferred": False,
        },
    )


async def _get_jobs(
    front: ServiceFront, tenant: Tenant, scope: dict, send: Callable
) -> None:
    params = _query(scope)
    status = params.get("status") or None
    query_tenant = None if front.tenants.open else tenant.name
    if front.tenants.open and params.get("tenant"):
        query_tenant = params["tenant"]
    stored_jobs = await asyncio.to_thread(
        front.store.query_jobs, tenant=query_tenant, status=status
    )
    payloads = [
        _job_payload(front, stored.name, stored)
        for stored in stored_jobs
        if _visible(front, tenant, stored.tenant)
    ]
    await _send_json(send, 200, payloads)


async def _get_job(
    front: ServiceFront, tenant: Tenant, name: str, send: Callable
) -> None:
    stored = (await asyncio.to_thread(front.store.load_jobs)).get(name)
    if stored is None or not _visible(front, tenant, stored.tenant):
        await _send_json(send, 404, {"error": f"unknown job {name!r}"})
        return
    await _send_json(send, 200, _job_payload(front, name, stored))


async def _post_cancel(
    front: ServiceFront, tenant: Tenant, name: str, send: Callable
) -> None:
    stored = (await asyncio.to_thread(front.store.load_jobs)).get(name)
    known = stored is not None or front.get_handle(name) is not None
    if not known or (stored is not None and not _visible(front, tenant, stored.tenant)):
        await _send_json(send, 404, {"error": f"unknown job {name!r}"})
        return
    cancelled = await asyncio.to_thread(front.cancel, name)
    await _send_json(
        send, 202, {"job": name, "cancel_requested": bool(cancelled)}
    )


# --------------------------------------------------------------------- SSE
async def _get_events(
    front: ServiceFront,
    tenant: Tenant,
    name: str,
    scope: dict,
    receive: Callable,
    send: Callable,
) -> None:
    stored = (await asyncio.to_thread(front.store.load_jobs)).get(name)
    if (stored is None and front.get_handle(name) is None) or (
        stored is not None and not _visible(front, tenant, stored.tenant)
    ):
        await _send_json(send, 404, {"error": f"unknown job {name!r}"})
        return
    after = 0
    raw_after = _header(scope, b"last-event-id") or _query(scope).get("after", "")
    if raw_after:
        try:
            after = max(0, int(raw_after))
        except ValueError:
            await _send_json(send, 400, {"error": "last-event-id must be an integer"})
            return

    await send(
        {
            "type": "http.response.start",
            "status": 200,
            "headers": [
                (b"content-type", b"text/event-stream"),
                (b"cache-control", b"no-cache"),
            ],
        }
    )

    async def write(chunk: bytes, *, more: bool = True) -> None:
        await send({"type": "http.response.body", "body": chunk, "more_body": more})

    # Flush the response head right away (a quiet stream would otherwise
    # defer it to the first keep-alive ping) so clients see the stream open.
    await write(b": stream open\n\n")

    hub = front.hub
    # Subscribe BEFORE replaying history: events published during the
    # replay land in the queue and are deduplicated by seq afterwards —
    # the no-gap half of the resume contract.
    subscription = hub.subscribe(name)
    disconnected = asyncio.Event()

    async def watch_disconnect() -> None:
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                disconnected.set()
                return

    watcher = asyncio.create_task(watch_disconnect())
    last_sent = after
    try:
        finished = await _replay(hub, name, after, write)
        last_sent = max(last_sent, finished[0])
        if finished[1]:  # history already ends with job_settled
            await write(b"", more=False)
            return
        if finished[0] == after:
            # Nothing to replay.  A client resuming at (or past) an already
            # delivered terminal frame is fully caught up on a finished
            # stream — close it instead of parking on a settled job.
            history = await asyncio.to_thread(hub.history, name, after=0)
            if (
                history
                and history[-1][1].get("kind") == JOB_SETTLED_KIND
                and history[-1][0] <= after
            ):
                await write(b"", more=False)
                return
        while not disconnected.is_set():
            getter = asyncio.ensure_future(subscription.queue.get())
            waiter = asyncio.ensure_future(disconnected.wait())
            done, pending = await asyncio.wait(
                {getter, waiter},
                timeout=SSE_PING_INTERVAL,
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
            if getter not in done:
                if disconnected.is_set():
                    return
                await write(b": ping\n\n")  # idle keep-alive
                continue
            seq, payload = getter.result()
            if seq <= last_sent:
                continue  # duplicate of the replay
            if seq > last_sent + 1:
                # The bounded bridge queue shed events (or publish raced
                # the replay): heal the gap from the store.
                healed = await _replay(hub, name, last_sent, write, upto=seq - 1)
                last_sent = max(last_sent, healed[0])
                if healed[1]:
                    await write(b"", more=False)
                    return
                if seq <= last_sent:
                    continue
            await write(format_frame(seq, payload))
            last_sent = seq
            if payload.get("kind") == JOB_SETTLED_KIND:
                await write(b"", more=False)
                return
    finally:
        watcher.cancel()
        front.hub.unsubscribe(subscription)


async def _replay(
    hub,
    name: str,
    after: int,
    write: Callable,
    *,
    upto: Optional[int] = None,
) -> tuple[int, bool]:
    """Stream persisted events with ``after < seq [<= upto]``.

    Returns ``(last sequence written — or *after* when none —, whether the
    replayed slice ended the stream with a job_settled frame)``.
    """
    events = await asyncio.to_thread(hub.history, name, after=after)
    last = after
    for seq, payload in events:
        if upto is not None and seq > upto:
            break
        await write(format_frame(seq, payload))
        last = seq
        if payload.get("kind") == JOB_SETTLED_KIND:
            return last, True
    return last, False
