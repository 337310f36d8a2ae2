"""Quota enforcement and weighted fair pacing for the service front.

Two mechanisms, deliberately separate:

* :class:`QuotaGate` answers *may this tenant submit right now?* —
  token-bucket rate limiting plus the queued count against the tenant's
  :class:`~repro.server.tenants.TenantQuota`.  Refusals raise
  :class:`QuotaExceeded` carrying a ``retry_after`` hint (the HTTP layer
  turns it into ``429`` + ``Retry-After``).  ``max_running`` is not a gate
  matter: the front's runner dispatches at most that many jobs per tenant
  per cycle.

* :class:`StridePacer` answers *in what order should admitted jobs run?* —
  classic stride scheduling: each tenant advances a per-tenant *pass* by
  ``STRIDE_SCALE / weight`` per admitted job, and the pass becomes the
  job's scheduler priority (lower runs first).  A weight-2 tenant's passes
  climb half as fast, so under contention it holds twice the share — while
  an idle tenant re-entering starts at the current virtual time
  (``max(own pass, global minimum)``) instead of its stale low pass, so
  sleeping never banks credit.  The pass orders jobs; it never decides
  whether one runs.  No tenant can starve: each runner cycle promotes at
  most ``max_running`` jobs per tenant and drains every job it promoted
  before the next cycle starts, so a job waits at most for the cycles
  ahead of it in its own tenant's backlog.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.server.tenants import Tenant

#: Stride numerator: pass increments are STRIDE_SCALE // weight, so weights
#: up to this value stay meaningfully distinct.
STRIDE_SCALE = 10_000


class QuotaExceeded(Exception):
    """A submission was refused; ``retry_after`` hints when to try again."""

    def __init__(self, reason: str, *, retry_after: float = 1.0):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = max(0.0, retry_after)


class TokenBucket:
    """Thread-safe token bucket (``rate`` tokens/s, ``burst`` capacity).

    ``rate <= 0`` disables the bucket (every take succeeds) — the spelling
    of an unlimited quota axis.
    """

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = max(1, burst)
        self._tokens = float(self.burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_take(self, now: Optional[float] = None) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until one frees.

        *now* is the ``time.monotonic()`` instant to charge at (default: the
        clock now).  Every job of one request is charged at the request's
        arrival, so a busy process cannot refill the bucket mid-request; a
        *now* older than the bucket's last charge refills nothing.
        """
        if self.rate <= 0:
            return None
        with self._lock:
            now = max(self._updated, time.monotonic() if now is None else now)
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


class QuotaGate:
    """Admission control for one server: queued counts + buckets per tenant."""

    def __init__(self):
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._queued: dict[str, int] = {}

    def _bucket(self, tenant: Tenant) -> TokenBucket:
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = self._buckets[tenant.name] = TokenBucket(
                tenant.quota.submit_rate, tenant.quota.burst
            )
        return bucket

    def admit_submit(self, tenant: Tenant, now: Optional[float] = None) -> None:
        """Charge one submission; raises :class:`QuotaExceeded` on refusal.

        Checked in cheap-first order: queue-depth (a count), then the rate
        bucket (charged at *now*, see :meth:`TokenBucket.try_take`) — so a
        tenant at its queue cap is not also charged a token.  On success the
        tenant's queued count is incremented; the caller balances it with
        :meth:`forget` when the job settles or its internal submit fails.
        """
        quota = tenant.quota
        with self._lock:
            queued = self._queued.get(tenant.name, 0)
            if quota.max_queued > 0 and queued >= quota.max_queued:
                raise QuotaExceeded(
                    f"tenant {tenant.name!r} has {queued} queued jobs "
                    f"(max_queued={quota.max_queued})",
                    retry_after=2.0,
                )
        wait = self._bucket(tenant).try_take(now)
        if wait is not None:
            raise QuotaExceeded(
                f"tenant {tenant.name!r} exceeded its submit rate "
                f"({quota.submit_rate:g}/s, burst {quota.burst})",
                retry_after=wait,
            )
        with self._lock:
            self._queued[tenant.name] = self._queued.get(tenant.name, 0) + 1

    def forget(self, tenant_name: str) -> None:
        """Free one queued slot: the job settled, or its submission failed
        after admission."""
        with self._lock:
            self._queued[tenant_name] = max(0, self._queued.get(tenant_name, 0) - 1)

    def queued(self, tenant_name: str) -> int:
        """Admitted, not yet settled jobs of *tenant_name* — introspection."""
        with self._lock:
            return self._queued.get(tenant_name, 0)


class StridePacer:
    """Weighted fair ordering: tenant weight → scheduler priority stream."""

    def __init__(self):
        self._lock = threading.Lock()
        self._passes: dict[str, int] = {}

    def next_priority(self, tenant: Tenant) -> int:
        """The scheduler priority for this tenant's next admitted job.

        Returns the tenant's pass *after* charging one stride.  Joining (or
        rejoining after idling) starts from the current virtual time — the
        minimum outstanding pass — so no tenant converts idle time into a
        burst of front-of-queue slots.
        """
        stride = STRIDE_SCALE // max(1, tenant.weight)
        with self._lock:
            virtual_time = min(self._passes.values()) if self._passes else 0
            current = max(self._passes.get(tenant.name, 0), virtual_time)
            nxt = current + stride
            self._passes[tenant.name] = nxt
            return nxt
