"""Cross-sketch counterexample pool.

Algorithm 2 re-runs bounded testing from scratch for every candidate of
every sketch, yet a failing input discovered while completing one sketch
almost always kills later candidates too: candidates share the source
program's function signatures, and most wrong completions are wrong in the
same few ways.  The pool records every minimum failing input (and every
verifier counterexample) found by any completion attempt; each new candidate
is screened against the pool — cheapest sequence first — before the full
``SequenceGenerator`` enumeration runs.

A pool hit yields a *sound* failing input for the candidate: the candidate
provably differs from the source on that sequence.  It is not necessarily a
*minimum* failing input, so MFI-based blocking derived from a hit prunes no
more than a fresh enumeration would — the trade is a slightly weaker
blocking clause for skipping the exponential sequence enumeration entirely.

The pool is size-bounded: when full, the entry with the fewest screening
hits (oldest first) is evicted, keeping the sequences that actually kill
candidates.

Screening order is computed once and cached: the sort key only changes when
a sequence is added, evicted, or scores a hit, so the O(n log n) sort runs
per pool *mutation*, not per screened candidate
(``stats.snapshot_sorts`` counts actual sorts; pinned by a regression test).
Screening runs one pooled sequence at a time through the tester's
``differs_on`` oracle and stops at the first hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.equivalence.invocation import InvocationSequence


@dataclass
class PoolStatistics:
    added: int = 0
    duplicates: int = 0
    evicted: int = 0
    hits: int = 0
    candidates_screened: int = 0
    sequences_screened: int = 0
    #: Times the screening order was actually sorted (≤ pool mutations).
    snapshot_sorts: int = 0
    screening_time: float = 0.0


@dataclass
class _Entry:
    insertion: int
    hits: int = 0


class CounterexamplePool:
    """Size-bounded pool of known failing invocation sequences."""

    def __init__(self, max_size: int = 256):
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.stats = PoolStatistics()
        self._entries: dict[InvocationSequence, _Entry] = {}
        self._insertions = 0
        self._order: Optional[list[InvocationSequence]] = None

    # ------------------------------------------------------------- maintenance
    def add(self, sequence: InvocationSequence) -> bool:
        """Record a counterexample; returns ``True`` if it was new."""
        if sequence in self._entries:
            self.stats.duplicates += 1
            return False
        self._entries[sequence] = _Entry(self._insertions)
        self._insertions += 1
        self.stats.added += 1
        while len(self._entries) > self.max_size:
            # Never evict the entry just added: once every retained entry has
            # scored a hit, a zero-hit newcomer would otherwise always be the
            # minimum and new failure modes could never enter the pool.
            victim = min(
                (seq for seq in self._entries if seq != sequence),
                key=lambda seq: (self._entries[seq].hits, self._entries[seq].insertion),
            )
            del self._entries[victim]
            self.stats.evicted += 1
        self._order = None
        return True

    def merge(self, sequences: Iterable[InvocationSequence]) -> int:
        """Add many counterexamples (e.g. from a service worker); count new ones."""
        return sum(1 for sequence in sequences if self.add(sequence))

    def snapshot(self) -> list[InvocationSequence]:
        """The pooled sequences, cheapest (screening order) first.

        Cached between mutations; callers must not mutate the returned list.
        """
        if self._order is None:
            self.stats.snapshot_sorts += 1
            self._order = sorted(
                self._entries,
                key=lambda seq: (
                    len(seq),
                    -self._entries[seq].hits,
                    self._entries[seq].insertion,
                ),
            )
        return self._order

    def _record_hit(self, sequence: InvocationSequence) -> None:
        self._entries[sequence].hits += 1
        self.stats.hits += 1
        self._order = None  # hit counts participate in the screening order

    # --------------------------------------------------------------- screening
    def screen(
        self,
        candidate,
        differs_on: Callable[[object, InvocationSequence], bool],
        budget: Optional[int] = None,
    ) -> Optional[InvocationSequence]:
        """First pooled sequence on which *candidate* fails, or ``None``.

        ``differs_on`` is the tester's oracle (so source outputs flow through
        the shared source cache).  At most *budget* sequences are executed,
        shortest first — screening must stay far cheaper than the full
        enumeration it tries to avoid.
        """
        self.stats.candidates_screened += 1
        started = time.perf_counter()
        try:
            for count, sequence in enumerate(self.snapshot()):
                if budget is not None and count >= budget:
                    return None
                self.stats.sequences_screened += 1
                if differs_on(candidate, sequence):
                    self._record_hit(sequence)
                    return sequence
            return None
        finally:
            self.stats.screening_time += time.perf_counter() - started

    #: Kept as an alias: ``perfbench/spans.py`` wraps ``screen_batch`` by
    #: looking it up in the class ``__dict__``.
    screen_batch = screen

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sequence: InvocationSequence) -> bool:
        return sequence in self._entries
