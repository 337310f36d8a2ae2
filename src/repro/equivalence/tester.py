"""Bounded testing: find minimum failing inputs between two programs.

This is the testing engine described in Section 5 of the paper: it executes
both programs on invocation sequences of increasing length (arguments drawn
from fixed per-type seed sets) and returns the first sequence on which the
query results differ.  Because sequences are enumerated by increasing
length, that sequence is a minimum failing input (MFI).

Two layers of reuse keep repeated testing cheap:

* The source program's outputs are memoized in a size-bounded LRU
  :class:`~repro.testing_cache.SourceOutputCache` that can be shared across
  testers within one process (the synthesizer shares one per run; service
  workers share one per process), which is the dominant cost saving when the
  sketch-completion loop tests hundreds of candidates against the same
  source program.
* When a :class:`~repro.testing_cache.CounterexamplePool` is attached, every
  candidate is first screened against previously discovered failing inputs
  (cheapest first) and only falls back to the full enumeration when no
  pooled counterexample kills it.  A pool hit is a sound failing input but
  not necessarily minimal — see the pool module docstring for the trade-off.

Executions run on the **compiled backend** by default (programs are
translated once into closures with hash joins and slotted rows — see
:mod:`repro.engine.compiler`); ``execution_backend="interpreter"`` restores
the tree-walk reference implementation.  Both backends are output- and
error-equivalent, so pool screening, source caching and MFI minimality are
unaffected by the choice.

Error semantics (shared with :class:`~repro.equivalence.verifier.BoundedVerifier`):
a candidate that raises :class:`ExecutionError` on a sequence *fails* that
sequence; an error raised by the source program propagates to the caller.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_runner
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import (
    InvocationSequence,
    SeedSet,
    SequenceGenerator,
    format_sequence,
)
from repro.equivalence.result_compare import canonicalize_outputs
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.testing_cache import CounterexamplePool, SourceOutputCache


class TestingInterrupted(Exception):
    """Raised mid-enumeration when the tester's ``interrupt`` hook fires.

    The completion loop installs the hook from the session's deadline and
    cancellation event, so a single long bounded-testing enumeration cannot
    overrun the run's wall-clock budget or ignore a cancellation request.
    The exception deliberately does not subclass ``ExecutionError``: it must
    propagate out of testing, never be treated as a failing candidate.
    """


def cached_source_outputs(cache, key, runner, program, sequence, stats=None):
    """Memoized, canonicalized source-program outputs.

    The single implementation of the get → execute-and-canonicalize → put
    pattern shared by :class:`BoundedTester` and
    :class:`~repro.equivalence.verifier.BoundedVerifier` — entries written
    by one are only interchangeable with the other because both go through
    this helper.  *stats* (any object with a ``source_cache_hits`` counter)
    is incremented on a hit.  Source errors propagate: a source program that
    cannot execute is a caller bug, never cached.

    Cache entries are ``(canonical, raw)`` pairs: the tester compares
    canonicalized outputs, while the verifier's exhaustive walk
    short-circuits on raw equality — storing both under one key costs one
    tuple and saves the walk a second lookup per sequence.
    """
    if cache is not None and key is not None:
        cached = cache.get(key, sequence)
        if cached is not None:
            if stats is not None:
                stats.source_cache_hits += 1
            return cached[0]
        raw = runner(program, sequence)
        outputs = canonicalize_outputs(raw)
        cache.put(key, sequence, (outputs, raw))
        return outputs
    return canonicalize_outputs(runner(program, sequence))


def make_interrupt_check(deadline, cancel) -> Optional[Callable[[], bool]]:
    """The standard deadline/cancellation predicate shared by the completers.

    *deadline* is an absolute ``time.perf_counter()`` instant, *cancel* a
    ``threading.Event``; returns ``None`` when neither is set so callers can
    skip per-iteration polling entirely.
    """
    if deadline is None and cancel is None:
        return None

    def check() -> bool:
        if cancel is not None and cancel.is_set():
            return True
        return deadline is not None and time.perf_counter() > deadline

    return check


@contextmanager
def interrupt_scope(tester, verifier, check: Optional[Callable[[], bool]]):
    """Install *check* as the interrupt hook on *tester* and *verifier*.

    The shared install/restore bracket used by every completer around its
    completion loop; previous hooks are restored on exit even when the loop
    raises.  *verifier* may be ``None``; a ``None`` *check* still (re)sets
    the hooks, keeping the scope symmetric.
    """
    previous_tester = tester.interrupt
    tester.interrupt = check
    previous_verifier = verifier.interrupt if verifier is not None else None
    if verifier is not None:
        verifier.interrupt = check
    try:
        yield
    finally:
        tester.interrupt = previous_tester
        if verifier is not None:
            verifier.interrupt = previous_verifier


@dataclass
class TesterStatistics:
    sequences_executed: int = 0
    source_cache_hits: int = 0
    candidates_tested: int = 0
    #: Candidates that went through the full ``SequenceGenerator`` enumeration
    #: (i.e. were not rejected by a pooled counterexample first).
    full_enumerations: int = 0
    #: Sequences executed inside full enumerations (basis for the
    #: sequences-saved estimate reported per synthesis run).
    full_enumeration_sequences: int = 0


class BoundedTester:
    """Tests candidate programs against a fixed source program."""

    def __init__(
        self,
        source: Program,
        *,
        seeds: SeedSet | None = None,
        max_updates: int = 2,
        relevance_filter: bool = True,
        max_sequences: int = 200000,
        source_cache: SourceOutputCache | None = None,
        pool: CounterexamplePool | None = None,
        pool_screening_budget: Optional[int] = None,
        execution_backend: str = "compiled",
        compiler: ProgramCompiler | None = None,
    ):
        self.source = source
        self.seeds = seeds or SeedSet.default()
        self.max_updates = max_updates
        self.relevance_filter = relevance_filter
        self.max_sequences = max_sequences
        self.stats = TesterStatistics()
        self.pool = pool
        self.pool_screening_budget = pool_screening_budget
        # The compiler caches compiled functions across candidates (they share
        # immutable per-function ASTs), so one compiler serves the whole run;
        # service workers pass in a process-global one.
        self._run = make_runner(execution_backend, compiler)
        # A private bounded cache when none is shared with us: behaviour is
        # identical, memory just stays bounded.  (``is None``, not ``or`` — an
        # empty shared cache is falsy but must still be adopted.)
        self._source_cache = source_cache if source_cache is not None else SourceOutputCache()
        self._source_key = format_program(source)
        #: Optional cooperative-interruption hook: when set, it is polled once
        #: per executed sequence and a ``True`` return aborts the enumeration
        #: with :class:`TestingInterrupted`.  The completer installs (and
        #: restores) it around each ``complete`` call.
        self.interrupt: Optional[Callable[[], bool]] = None

    # ---------------------------------------------------------------- running
    def _source_outputs(self, sequence: InvocationSequence) -> tuple:
        return cached_source_outputs(
            self._source_cache, self._source_key, self._run, self.source, sequence, self.stats
        )

    def _candidate_outputs(self, candidate: Program, sequence: InvocationSequence) -> tuple | None:
        try:
            return canonicalize_outputs(self._run(candidate, sequence))
        except ExecutionError:
            # An ill-formed candidate (e.g. a delete table-list incompatible
            # with the chosen join chain) is treated as failing the sequence.
            return None

    def differs_on(self, candidate: Program, sequence: InvocationSequence) -> bool:
        """Whether source and candidate disagree on one invocation sequence."""
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()
        self.stats.sequences_executed += 1
        expected = self._source_outputs(sequence)
        actual = self._candidate_outputs(candidate, sequence)
        return actual is None or actual != expected

    # --------------------------------------------------------------- MFI search
    def find_failing_input(self, candidate: Program) -> Optional[InvocationSequence]:
        """Return a failing input, or ``None`` if none exists up to the bound.

        With a counterexample pool attached the returned sequence may come
        from the pool, in which case it is a sound failing input but not
        necessarily a *minimum* one.
        """
        self.stats.candidates_tested += 1
        if self.pool is not None and len(self.pool) > 0:
            hit = self.pool.screen(candidate, self.differs_on, self.pool_screening_budget)
            if hit is not None:
                return hit
        self.stats.full_enumerations += 1
        generator = SequenceGenerator(
            programs=[self.source, candidate],
            seeds=self.seeds,
            max_updates=self.max_updates,
            relevance_filter=self.relevance_filter,
        )
        checked = 0
        for sequence in generator.sequences():
            checked += 1
            if checked > self.max_sequences:
                break
            if self.differs_on(candidate, sequence):
                self.stats.full_enumeration_sequences += checked
                if self.pool is not None:
                    self.pool.add(sequence)
                return sequence
        self.stats.full_enumeration_sequences += checked
        return None

    def check_equivalent(self, candidate: Program) -> bool:
        """Bounded equivalence check (no failing input up to the bound)."""
        return self.find_failing_input(candidate) is None

    def explain(self, candidate: Program) -> str:
        """A human-readable verdict used by examples and error messages."""
        failing = self.find_failing_input(candidate)
        if failing is None:
            return "no failing input found up to the testing bound"
        expected = self._source_outputs(failing)
        actual = self._candidate_outputs(candidate, failing)
        return (
            f"programs differ on: {format_sequence(failing)}\n"
            f"  source outputs:    {expected}\n"
            f"  candidate outputs: {actual}"
        )
