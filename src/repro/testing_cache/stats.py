"""Counters for the incremental-testing subsystem.

The per-component statistics (:class:`PoolStatistics`,
:class:`SourceCacheStatistics`) live next to their component; this module
holds the merged view that the synthesizer surfaces on its result object and
that the eval harness renders.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TestingCacheStats:
    """Aggregated incremental-testing counters for one synthesis run."""

    #: Candidates rejected by a pool counterexample before full enumeration.
    pool_hits: int = 0
    #: Counterexamples currently retained in the pool.
    pool_size: int = 0
    #: Counterexamples recorded over the run (including later-evicted ones).
    pool_added: int = 0
    #: Candidates screened against the pool.
    candidates_screened: int = 0
    #: Candidates that went through the full ``SequenceGenerator`` enumeration.
    candidates_fully_tested: int = 0
    #: Pool sequences executed while screening.
    screening_sequences: int = 0
    #: Wall-clock time spent screening, in seconds.
    screening_time: float = 0.0
    #: Estimated sequences *not* executed thanks to pool hits (pool hits times
    #: the average full-enumeration length observed in this run).
    sequences_saved_estimate: int = 0
    #: Source-output cache hits / entries (shared across testers of the run).
    source_cache_hits: int = 0
    source_cache_entries: int = 0
    source_cache_evictions: int = 0
    #: Compiled-closure cache counters of this run (deltas over the possibly
    #: shared :class:`~repro.engine.compiler.ProgramCompiler`): function
    #: closures served from cache vs actually compiled.  Nonzero hits on a
    #: cold run come from candidates sharing function ASTs; hits above the
    #: cold baseline prove cross-job sharing inside a service batch.
    compiled_function_hits: int = 0
    compiled_function_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of screened candidates killed by the pool."""
        if self.candidates_screened == 0:
            return 0.0
        return self.pool_hits / self.candidates_screened


def collect_cache_stats(
    tester_stats, pool, source_cache, verifier_stats=None, compiler_delta=None
) -> TestingCacheStats:
    """Assemble the merged view from one tester's components.

    ``tester_stats`` is a ``TesterStatistics``; *pool* and *source_cache* may
    be ``None`` when the corresponding feature is disabled.  The verifier's
    ``TesterStatistics`` (*verifier_stats*) contributes its hits to the
    merged ``source_cache_hits`` counter.  *compiler_delta*
    is this run's share of a (possibly shared) program compiler's
    :class:`~repro.engine.compiler.CompilerStats`.
    """
    source_cache_hits = tester_stats.source_cache_hits
    if verifier_stats is not None:
        source_cache_hits += verifier_stats.source_cache_hits
    stats = TestingCacheStats(
        candidates_fully_tested=tester_stats.full_enumerations,
        source_cache_hits=source_cache_hits,
    )
    if compiler_delta is not None:
        stats.compiled_function_hits = compiler_delta.function_hits
        stats.compiled_function_misses = compiler_delta.function_misses
    if source_cache is not None:
        stats.source_cache_entries = len(source_cache)
        stats.source_cache_evictions = source_cache.stats.evictions
    if pool is not None:
        stats.pool_hits = pool.stats.hits
        stats.pool_size = len(pool)
        stats.pool_added = pool.stats.added
        stats.candidates_screened = pool.stats.candidates_screened
        stats.screening_sequences = pool.stats.sequences_screened
        stats.screening_time = pool.stats.screening_time
        if tester_stats.full_enumerations:
            average = (
                tester_stats.full_enumeration_sequences / tester_stats.full_enumerations
            )
            stats.sequences_saved_estimate = int(pool.stats.hits * average)
    return stats
