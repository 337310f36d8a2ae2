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

The exhaustive phase is one walk over the generator's blocks (one update
prefix plus one query with all of its argument tuples — see
:meth:`~repro.equivalence.invocation.SequenceGenerator.blocks`), the same on
every execution backend.  Each distinct prefix gets one state per program,
forked from the parent prefix's state and advanced by one update, and each
state carries an exact key (row values in storage order plus the UID
counter, see ``CompiledState.key``); a step from a state whose key an
earlier state had is taken once.  A block whose (query, source key,
candidate key) triple an earlier block of the same call already checked is
skipped and counted as checked: every engine's behaviour is a function of
that triple, so it would repeat a check that passed.  Prefixes that raised,
and states whose key cannot be hashed, are never skipped.  The verdict,
counterexample, ``sequences_checked`` and raised errors are exactly those
of checking every sequence; EXPERIMENTS.md ("State-deduplicated
verification") gives the soundness argument.  Source prefix states and
source outputs live in the shared :class:`~repro.testing_cache.SourceOutputCache`
when one is attached, so later calls and same-source service jobs reuse
them; the candidate side lives for one call.  The randomized phase runs
sequence by sequence.

``ExecutionError`` semantics match :class:`~repro.equivalence.tester.BoundedTester`
exactly: a candidate that raises is failing (never "equivalently broken"),
and a source that raises propagates the error to the caller.  See the
"Error semantics" section of EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_loader
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import InvocationSequence, SeedSet, SequenceGenerator
from repro.equivalence.result_compare import canonicalize_outputs
from repro.equivalence.tester import TestingInterrupted, cached_source_outputs
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.testing_cache import SourceOutputCache


@dataclass
class VerifierStatistics:
    """Counters surfaced alongside the tester's on ``SynthesisResult.cache``."""

    #: Source prefix states and source outputs served from the shared cache.
    source_cache_hits: int = 0


@dataclass
class VerificationResult:
    equivalent: bool
    counterexample: Optional[InvocationSequence] = None
    sequences_checked: int = 0
    method: str = "bounded-testing"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


class _Prefix:
    """One update prefix executed on one program: its state, or its error.

    ``outputs`` holds results of prefix invocations that returned some (a
    candidate implementing a source update as a query).  ``key`` is the
    state's exact key, or ``None`` when the prefix must never be skipped:
    it raised, it produced outputs, or its key cannot be hashed.
    """

    __slots__ = ("state", "key", "error", "outputs")

    def __init__(self, state, error: Optional[Exception] = None, outputs: tuple = ()):
        self.state = state
        self.error = error
        self.outputs = outputs
        self.key = None
        if error is None and not outputs:
            key = state.key()
            try:
                hash(key)
            except TypeError:  # an unhashable cell value
                return
            self.key = key

    def step(self, executable, invocation) -> "_Prefix":
        """This prefix extended by one invocation, on a fork of its state."""
        state = self.state.fork()
        try:
            result = executable.call(state, invocation[0], invocation[1])
        except Exception as error:
            # Recorded, not handled: a run of any sequence through this
            # prefix raises it here, and the walk raises it (or fails the
            # candidate) on the first sequence of the first block through it.
            return _Prefix(None, error, self.outputs)
        return _Prefix(state, None, self.outputs if result is None else self.outputs + (result,))

    def outputs_with(self, result) -> list:
        outputs = list(self.outputs)
        if result is not None:
            outputs.append(result)
        return outputs


class _Prefixes:
    """The prefix states of one program, memoized by prefix.

    *get*/*put* hold the prefix memo (a dict, or the shared source cache).
    Steps are memoized per call by ``(key, invocation)``: a state whose key
    an earlier state had behaves identically, so each step is taken once.
    """

    __slots__ = ("executable", "get", "put", "steps")

    def __init__(self, executable, get, put):
        self.executable = executable
        self.get = get
        self.put = put
        self.steps: dict = {}

    def __getitem__(self, prefix) -> _Prefix:
        node = self.get(prefix)
        if node is None:
            if prefix:
                node = self._extend(self[prefix[:-1]], prefix[-1])
            else:
                node = _Prefix(self.executable.new_state())
            self.put(prefix, node)
        return node

    def _extend(self, parent: _Prefix, invocation) -> _Prefix:
        if parent.error is not None:
            return parent  # a run stops at its first error
        if parent.key is None:
            return parent.step(self.executable, invocation)
        step = (parent.key, invocation)
        node = self.steps.get(step)
        if node is None:
            node = self.steps[step] = parent.step(self.executable, invocation)
        return node


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
        # One verify() call executes many invocations against the same two
        # programs; the loader compiles each once (the compiler caches per
        # program) and hands back its executable form.
        self._load = make_loader(execution_backend, compiler)
        # Optional shared source memo (the cache the tester uses; keys include
        # the program fingerprint, so sharing across runs — e.g. the migration
        # service verifying several candidates of the same source program —
        # is sound).  Source outputs are stored exactly like the tester's
        # entries, so the two are interchangeable; source prefix states go
        # under a key that also names the execution backend, because one
        # cache serves jobs with different configs.
        self._source_cache = source_cache
        self.stats = VerifierStatistics()
        self._source_key: Optional[str] = None
        # The source program is fingerprinted once per *program object*, not
        # once per verify() call: the completion loop verifies many
        # candidates against the same source, and pretty-printing it each
        # time is pure repeated work.  Holding the program reference keeps
        # the identity check sound (no id() reuse while we keep it alive).
        self._keyed_source: Optional[Program] = None
        #: Optional cooperative-interruption hook, mirroring
        #: ``BoundedTester.interrupt``: polled once per block of the
        #: exhaustive phase and once per randomized sequence; a ``True``
        #: return aborts the pass with
        #: :class:`~repro.equivalence.tester.TestingInterrupted`.  The
        #: completer installs (and restores) it around each completion call,
        #: so a deep verification pass cannot overrun the run's deadline or
        #: ignore a cancellation request.
        self.interrupt: Optional[Callable[[], bool]] = None

    def _run(self, program: Program, sequence: InvocationSequence):
        return self._load(program).run_sequence(sequence)

    def _source_outputs(self, program: Program, sequence: InvocationSequence):
        # Source errors propagate (as in BoundedTester): a source program that
        # cannot execute inside the bounded space is a caller bug, not
        # evidence about the candidate.
        return cached_source_outputs(
            self._source_cache, self._source_key, self._run, program, sequence, self.stats
        )

    def _candidate_outputs(self, program: Program, sequence: InvocationSequence):
        try:
            return canonicalize_outputs(self._run(program, sequence))
        except ExecutionError:
            # Mirror BoundedTester: a candidate that raises is *failing*,
            # even if the source would also error on the same sequence.
            # Treating two errors as equivalent would let a candidate pass
            # verification and then fail testing on the very same sequence.
            return None

    def _differs(self, source: Program, candidate: Program, sequence: InvocationSequence) -> bool:
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()
        # Source first (exactly like BoundedTester.differs_on): a broken
        # source raises before the candidate is ever consulted.
        expected = self._source_outputs(source, sequence)
        actual = self._candidate_outputs(candidate, sequence)
        return actual is None or actual != expected

    def verify(self, source: Program, candidate: Program) -> VerificationResult:
        if self._source_cache is not None and source is not self._keyed_source:
            self._source_key = format_program(source)
            self._keyed_source = source
        generator = SequenceGenerator(
            programs=[source, candidate],
            seeds=self.seeds,
            max_updates=self.max_updates,
            relevance_filter=self.relevance_filter,
        )
        verdict, checked = self._exhaustive(source, candidate, generator)
        if verdict is not None:
            return verdict
        rng = random.Random(self.seed)
        for sequence in generator.random_sequences(
            self.random_sequences, self.random_max_length, rng
        ):
            checked += 1
            if self._differs(source, candidate, sequence):
                return VerificationResult(False, sequence, checked, method="randomized-testing")
        return VerificationResult(True, None, checked)

    # ------------------------------------------------------- exhaustive phase
    def _source_prefixes(self, executable) -> _Prefixes:
        """Source prefix states, in the shared cache when one is attached."""
        cache = self._source_cache
        if cache is None:
            memo: dict = {}
            return _Prefixes(executable, memo.get, memo.__setitem__)
        states = (self._source_key, self.execution_backend)
        stats = self.stats

        def get(prefix):
            node = cache.get(states, prefix)
            if node is not None:
                stats.source_cache_hits += 1
            return node

        def put(prefix, node):
            if node.error is None:  # errors are never cached
                cache.put(states, prefix, node)

        return _Prefixes(executable, get, put)

    def _expected(self, executable, node: _Prefix, sequence, query: str, args) -> tuple:
        """``(canonical, raw)`` source outputs of one sequence; errors propagate."""
        cache = self._source_cache
        if cache is not None:
            cached = cache.get(self._source_key, sequence)
            if cached is not None:
                self.stats.source_cache_hits += 1
                return cached
        if node.error is not None:
            raise node.error
        raw = node.outputs_with(executable.call(node.state, query, args))
        entry = (canonicalize_outputs(raw), raw)
        if cache is not None:
            cache.put(self._source_key, sequence, entry)
        return entry

    def _exhaustive(
        self, source: Program, candidate: Program, generator: SequenceGenerator
    ) -> tuple[Optional[VerificationResult], int]:
        """The exhaustive phase: a failing verdict (or ``None``) and the count.

        The count reproduces a sequence-by-sequence loop exactly, including
        the sequence that trips ``max_sequences``, which is counted but
        never checked.
        """
        source_program = self._load(source)
        candidate_program = self._load(candidate)
        source_prefixes = self._source_prefixes(source_program)
        candidate_memo: dict = {}
        candidate_prefixes = _Prefixes(
            candidate_program, candidate_memo.get, candidate_memo.__setitem__
        )
        checked_triples: set = set()
        checked = 0
        limit = self.max_sequences
        for prefix, query, arguments in generator.blocks():
            if self.interrupt is not None and self.interrupt():
                raise TestingInterrupted()
            expected_node = source_prefixes[prefix]
            actual_node = candidate_prefixes[prefix]
            triple = None
            if expected_node.key is not None and actual_node.key is not None:
                triple = (query, expected_node.key, actual_node.key)
                if triple in checked_triples:
                    if checked + len(arguments) > limit:
                        return None, limit + 1
                    checked += len(arguments)
                    continue
            for args in arguments:
                checked += 1
                if checked > limit:
                    return None, checked
                sequence = prefix + ((query, args),)
                # Source first (exactly like _differs): its errors propagate
                # before the candidate is consulted.
                expected, raw_expected = self._expected(
                    source_program, expected_node, sequence, query, args
                )
                # Queries run on the shared prefix state: they mutate nothing.
                # A candidate that implements a source query as an update
                # returns no output for it, so it diverges on that query's
                # first, prefix-free block before a mutated state is read.
                error = actual_node.error
                if error is None:
                    try:
                        result = candidate_program.call(actual_node.state, query, args)
                    except Exception as raised:
                        error = raised
                if error is not None:
                    if isinstance(error, ExecutionError):
                        return VerificationResult(False, sequence, checked), checked
                    raise error
                actual = actual_node.outputs_with(result)
                if actual != raw_expected and canonicalize_outputs(actual) != expected:
                    return VerificationResult(False, sequence, checked), checked
            if triple is not None:
                checked_triples.add(triple)
        return None, checked
