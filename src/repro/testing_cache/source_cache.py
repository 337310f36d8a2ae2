"""Shared, size-bounded cache of canonicalized source-program outputs.

The bounded tester repeatedly executes the *same* source program on the
*same* invocation sequences while it tests hundreds of candidate
completions.  The seed implementation kept one unbounded ``dict`` per
:class:`~repro.equivalence.tester.BoundedTester`, which was rebuilt for
every synthesizer run and grew without bound on the larger benchmarks.
This module replaces it with an LRU cache that

* is keyed by ``(program fingerprint, sequence)`` so one instance can be
  shared by every tester living in the same process (the synthesizer's main
  tester, the BMC baseline's tester; each service worker *process* keeps
  one instance shared across its jobs, so budget ``workers × max_entries``
  when sizing a pooled batch), and
* evicts least-recently-used entries once ``max_entries`` is reached, so
  memory stays bounded on exhaustive Table 2/3 sweeps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

_MISSING = object()


@dataclass
class SourceCacheStatistics:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SourceOutputCache:
    """Bounded LRU cache of canonicalized execution outputs."""

    def __init__(self, max_entries: int = 100_000):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = SourceCacheStatistics()
        self._entries: OrderedDict[tuple, Any] = OrderedDict()

    def get(self, program_key: Hashable, sequence: Hashable) -> Optional[Any]:
        """Cached outputs for (program, sequence), or ``None`` on a miss."""
        key = (program_key, sequence)
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, program_key: Hashable, sequence: Hashable, outputs: Any) -> None:
        key = (program_key, sequence)
        self._entries[key] = outputs
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
