"""Shared, size-bounded cache of source-program results.

The bounded tester repeatedly executes the *same* source program while it
tests hundreds of candidate completions.  The seed implementation kept one
unbounded ``dict`` per :class:`~repro.equivalence.tester.BoundedTester`,
which was rebuilt for every synthesizer run and grew without bound on the
larger benchmarks.  This module replaces it with an LRU cache that

* is keyed by ``(program key, sequence)`` so one instance can be shared by
  every tester and verifier living in the same process (the synthesizer
  shares one per run; each service worker *process* keeps one instance
  shared across its jobs, so budget ``workers × max_entries`` when sizing a
  pooled batch).  It holds two kinds of entries: one source state graph
  per ``(fingerprint, execution backend)``, which the exhaustive walk grows
  and reuses (see :class:`~repro.equivalence.tester.StateGraph`), and the
  canonicalized outputs of single sequences under the source fingerprint
  (pool screening, the verifier's randomized phase); and
* evicts least-recently-used entries once their total size passes
  ``max_entries``, so memory stays bounded on exhaustive Table 2/3 sweeps.
  Each entry is charged the size it is put or resized with: a sequence
  entry one, a state graph its states plus its memoized query outputs, so
  ``len(cache)`` counts those.  A walk brings its graph's charge up to date
  after each query's pass over a level, so between two updates a cached
  graph can hold one pass's growth beyond the bound.  A graph that
  outgrows the budget is evicted like any other entry; the walk that holds
  it finishes on it.

Service workers run jobs on threads over one cache, so every operation
takes the cache's lock.
"""

from __future__ import annotations

import threading
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
    """Bounded LRU cache of source outputs and source state graphs, each charged its size."""

    def __init__(self, max_entries: int = 100_000):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = SourceCacheStatistics()
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self._size = 0
        self._lock = threading.Lock()

    def get(self, program_key: Hashable, sequence: Hashable) -> Optional[Any]:
        """Cached value for (program, sequence), or ``None`` on a miss."""
        key = (program_key, sequence)
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, program_key: Hashable, sequence: Hashable, value: Any, size: int = 1) -> None:
        key = (program_key, sequence)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._charge(key, size)

    def resize(self, program_key: Hashable, sequence: Hashable, size: int) -> None:
        """Charge the entry under (program, sequence) *size* if that is more; a no-op once evicted.

        Charges only grow: a state graph never shrinks, and a size read by
        one thread must not undo the larger one another thread charged since.
        """
        key = (program_key, sequence)
        with self._lock:
            if key in self._entries and size > self._sizes[key]:
                self._charge(key, size)

    def _charge(self, key: tuple, size: int) -> None:
        self._size += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        while self._size > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._size -= self._sizes.pop(evicted)
            self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._size = 0

    def __len__(self) -> int:
        """The total charge: sequence entries, plus states and memoized outputs of every graph."""
        return self._size
