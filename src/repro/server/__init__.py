"""``repro.server`` — the async multi-tenant service front.

An asyncio HTTP/1.1 service (stdlib only; the app itself is a minimal ASGI
callable, runnable under any ASGI server) over one
:class:`~repro.service.MigrationService`:

* **tenants & quotas** — API-key resolution, per-tenant admission limits
  (queue depth, concurrent running, token-bucket submit rate) and weighted
  fair scheduling via stride priorities over the existing
  priority/deadline :class:`~repro.exec.scheduler.WorkScheduler`, with
  scheduler-level aging as the anti-starvation backstop;
* **SSE streaming** — ``GET /jobs/{id}/events`` replays the typed session
  event stream with monotonic ids and ``Last-Event-ID`` resume, bridged
  from the sync callbacks through bounded asyncio queues with
  shed-and-count backpressure;
* **durable state** — the indexed SQLite job store; a killed server
  restarts on the same store with settled jobs served verbatim and
  unfinished jobs re-pinned.

Run one with ``python -m repro.server --listen 127.0.0.1:8750
--store sqlite:jobs.db`` or embed via :class:`ServerThread`.
"""

from repro.server.app import (
    ClientDisconnected,
    ServerApp,
    ServerThread,
    ServiceFront,
    serve,
)
from repro.server.quotas import QuotaExceeded, QuotaGate, StridePacer, TokenBucket
from repro.server.sse import EventHub, Subscription, event_payload, format_frame
from repro.server.tenants import Tenant, TenantQuota, TenantRegistry

__all__ = [
    "ClientDisconnected",
    "EventHub",
    "QuotaExceeded",
    "QuotaGate",
    "ServerApp",
    "ServerThread",
    "ServiceFront",
    "StridePacer",
    "Subscription",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "event_payload",
    "format_frame",
    "serve",
]
