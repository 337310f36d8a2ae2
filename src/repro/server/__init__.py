"""``repro.server`` — the multi-tenant service front.

A threaded HTTP/1.1 service (stdlib ``http.server``: one thread per
connection) over one :class:`~repro.service.MigrationService`:

* **tenants & quotas** — API-key resolution, per-tenant admission limits
  (queue depth, concurrent running, token-bucket submit rate) and weighted
  fair scheduling via stride priorities over the existing
  priority/deadline :class:`~repro.exec.scheduler.WorkScheduler`;
* **SSE streaming** — ``GET /jobs/{id}/events`` replays the typed session
  event stream with monotonic ids and ``Last-Event-ID`` resume, fanned out
  from the sync callbacks into bounded thread-safe queues with
  shed-and-count backpressure;
* **durable state** — the indexed SQLite job store; a killed server
  restarts on the same store with settled jobs served verbatim and
  unfinished jobs re-pinned.

Run one with ``python -m repro.server --listen 127.0.0.1:8750
--store sqlite:jobs.db`` or embed via :class:`ServerThread`.
"""

from repro.server.app import ServerThread, ServiceFront
from repro.server.quotas import QuotaExceeded, QuotaGate, StridePacer, TokenBucket
from repro.server.sse import EventHub, Subscription, event_payload, format_frame
from repro.server.tenants import Tenant, TenantQuota, TenantRegistry

__all__ = [
    "EventHub",
    "QuotaExceeded",
    "QuotaGate",
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
]
