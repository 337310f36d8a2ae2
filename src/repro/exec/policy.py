"""Unified retry/timeout/backoff policies for the execution stack.

Before this module, retry behaviour was scattered: the scheduler counted
crash retries with a bare integer, ``RemoteFleet`` redialed on a fixed
0.2s sleep, and the worker agent retried its connect with a constant
delay.  ``RetryPolicy`` and ``TimeoutPolicy`` centralise those knobs so
every seam (scheduler, fleet, worker, service) reads the same semantics:

* **quarantine_after** — how many *worker-killing* re-leases a task may
  cause before it is quarantined (settled ``QUARANTINED`` instead of
  being handed to yet another worker it will probably kill).  A lost
  worker is the only crash the scheduler retries, local or remote.
* **backoff** — jittered exponential delay before a retried task becomes
  dispatchable again.  Deterministic when ``seed`` is set.
* **start_timeout** — how long a fleet waits for its first workers.

The scheduler's deadline nudge and grace are fixed
(:data:`~repro.exec.scheduler.NUDGE_DELAY`,
:data:`~repro.exec.scheduler.DEADLINE_GRACE`), as are the fleet's dial
and handshake timeouts.

The scheduler and the fleet take these policies as constructor
arguments, and the service builds its schedulers with the defaults.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

__all__ = ["RetryPolicy", "TimeoutPolicy"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how eagerly, failed work is re-attempted."""

    #: Worker-killing re-leases a task may cause before QUARANTINED.
    quarantine_after: int = 2
    #: Base delay (seconds) before the first retry; <= 0 disables backoff.
    backoff_base: float = 0.05
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_max: float = 2.0
    #: Fraction of the delay randomised (0.5 -> delay * uniform(0.5, 1.5)).
    backoff_jitter: float = 0.5
    #: Seed for the jitter RNG; None draws from the global RNG.
    seed: Optional[int] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def backoff_delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before dispatching retry number ``attempt`` (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        raw = min(raw, self.backoff_max)
        if self.backoff_jitter > 0:
            draw = (rng or random).uniform(-self.backoff_jitter, self.backoff_jitter)
            raw *= 1.0 + draw
        return max(0.0, raw)


@dataclasses.dataclass(frozen=True)
class TimeoutPolicy:
    """Timeouts shared across the execution seams."""

    #: How long a fleet waits for its first worker before giving up.
    start_timeout: float = 20.0


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """The retired ``SynthesisConfig.resilience`` value (API 10.0.0).

    Nothing reads it.  It stays so that job specs pickled by API 9.x and
    earlier, whose configs carry one, still unpickle on resume.
    """

    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    timeout: TimeoutPolicy = dataclasses.field(default_factory=TimeoutPolicy)
