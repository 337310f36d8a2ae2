"""Equivalence verification (the Mediator substitute).

The original Migrator first runs exhaustive bounded testing and only then
invokes the Mediator verifier, which proves full equivalence by inferring a
bisimulation invariant.  Mediator is not available here, so the final
verification step is replaced by a *deeper* bounded check:

* exhaustive enumeration with a longer update prefix and the full per-type
  seed sets, and
* a batch of randomized invocation sequences beyond the exhaustive bound.

This preserves the observable behaviour of the synthesis loop on the
benchmark family (the paper reports that testing never disagreed with
Mediator), at the cost of soundness beyond the bound, which we document as a
limitation in EXPERIMENTS.md.

Both phases run through one :class:`~repro.equivalence.tester.BoundedTester`
per source program, built with the verifier's bound, seeds and sequence
cap: the exhaustive phase is the tester's breadth-first walk over distinct
(source state, candidate state) pairs
(:meth:`~repro.equivalence.tester.BoundedTester.first_failing`), and the
randomized phase runs sequence by sequence through its ``differs_on``.  The
source state graph is keyed by fingerprint and backend, not by seeds or
bound, so the verifier extends the graph the run's tester built.  So
source caching and ``ExecutionError`` semantics are the tester's by
construction: a candidate that raises is failing (never "equivalently
broken"), and a source that raises propagates the error to the caller.  See
the "Error semantics" section of EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler
from repro.equivalence.invocation import InvocationSequence, SeedSet
from repro.equivalence.tester import BoundedTester, TesterStatistics
from repro.lang.ast import Program
from repro.testing_cache import SourceOutputCache


@dataclass
class VerificationResult:
    equivalent: bool
    counterexample: Optional[InvocationSequence] = None
    sequences_checked: int = 0
    method: str = "bounded-testing"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


class BoundedVerifier:
    """Deep bounded verification of program equivalence."""

    def __init__(
        self,
        *,
        max_updates: int = 3,
        random_sequences: int = 200,
        random_max_length: int = 5,
        seeds: SeedSet | None = None,
        relevance_filter: bool = True,
        seed: int = 0,
        max_sequences: int = 50000,
        execution_backend: str = "compiled",
        compiler: ProgramCompiler | None = None,
        source_cache: SourceOutputCache | None = None,
    ):
        self.max_updates = max_updates
        self.random_sequences = random_sequences
        self.random_max_length = random_max_length
        self.seeds = seeds or SeedSet.exhaustive()
        self.relevance_filter = relevance_filter
        self.seed = seed
        self.max_sequences = max_sequences
        self.execution_backend = execution_backend
        self._compiler = compiler
        # Shared with the run's tester (the synthesizer passes its cache), or
        # private; either way the source state graph outlives one call.
        self._source_cache = source_cache if source_cache is not None else SourceOutputCache()
        #: Counters of every tester this verifier builds (surfaced alongside
        #: the run tester's on ``SynthesisResult.cache``).
        self.stats = TesterStatistics()
        self._tester: Optional[BoundedTester] = None
        #: Optional cooperative-interruption hook, mirroring
        #: ``BoundedTester.interrupt`` and handed to the tester on every
        #: call: polled as the tester's walk polls it and once per
        #: randomized sequence; a ``True`` return aborts the pass with
        #: :class:`~repro.equivalence.tester.TestingInterrupted`.  The
        #: completer installs (and restores) it around each completion call,
        #: so a deep verification pass cannot overrun the run's deadline or
        #: ignore a cancellation request.
        self.interrupt: Optional[Callable[[], bool]] = None

    def _tester_for(self, source: Program) -> BoundedTester:
        # The completion loop verifies many candidates against one source;
        # holding the program keeps the identity check sound.
        tester = self._tester
        if tester is None or tester.source is not source:
            tester = self._tester = BoundedTester(
                source,
                seeds=self.seeds,
                max_updates=self.max_updates,
                relevance_filter=self.relevance_filter,
                max_sequences=self.max_sequences,
                source_cache=self._source_cache,
                execution_backend=self.execution_backend,
                compiler=self._compiler,
            )
            tester.stats = self.stats
        tester.interrupt = self.interrupt
        return tester

    def verify(self, source: Program, candidate: Program) -> VerificationResult:
        tester = self._tester_for(source)
        failing, checked = tester.first_failing(candidate)
        if failing is not None:
            return VerificationResult(False, failing, checked)
        rng = random.Random(self.seed)
        for sequence in tester.generator.random_sequences(
            self.random_sequences, self.random_max_length, rng
        ):
            checked += 1
            if tester.differs_on(candidate, sequence):
                return VerificationResult(False, sequence, checked, method="randomized-testing")
        return VerificationResult(True, None, checked)
