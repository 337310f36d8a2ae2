"""Bounded testing: find minimum failing inputs between two programs.

This is the testing engine described in Section 5 of the paper: it executes
both programs on invocation sequences of increasing length (arguments drawn
from fixed per-type seed sets) and returns the first sequence on which the
query results differ.  Because sequences are enumerated by increasing
length, that sequence is a minimum failing input (MFI).

:class:`BoundedTester` is the one bounded checker: the deeper verification
pass (:class:`~repro.equivalence.verifier.BoundedVerifier`) runs the same
check through a tester built with its own bound, seeds and sequence cap.

The exhaustive search (:meth:`BoundedTester.first_failing`) is one walk
over the generator's blocks (one update prefix plus one query with all of
its argument tuples — see
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
failing sequence, count and raised errors are exactly those of checking
every sequence in order; EXPERIMENTS.md ("State-deduplicated testing and
verification") gives the soundness argument.

Two layers of reuse keep repeated testing cheap:

* Source prefix states and source outputs live in a size-bounded LRU
  :class:`~repro.testing_cache.SourceOutputCache` that can be shared across
  testers and verifiers within one process (the synthesizer shares one per
  run; service workers share one per process), so later calls and
  same-source jobs reuse them; the candidate side lives for one call.
* When a :class:`~repro.testing_cache.CounterexamplePool` is attached, every
  candidate is first screened against previously discovered failing inputs
  (cheapest first, at most :data:`SCREENING_BUDGET` of them) and only falls
  back to the exhaustive walk when no pooled counterexample kills it.  A
  pool hit is a sound failing input but not necessarily minimal — see the
  pool module docstring for the trade-off.

Executions run on the **compiled backend** by default (programs are
translated once into closures with hash joins and slotted rows — see
:mod:`repro.engine.compiler`); ``execution_backend="interpreter"`` restores
the tree-walk reference implementation.  Both backends are output- and
error-equivalent, so pool screening, source caching and MFI minimality are
unaffected by the choice.

Error semantics: a candidate that raises :class:`ExecutionError` on a
sequence *fails* that sequence; an error raised by the source program
propagates to the caller, and on each sequence the source runs first.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_loader
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

#: Pool sequences executed per screened candidate at most: screening must
#: stay far cheaper than the exhaustive walk it tries to avoid.
SCREENING_BUDGET = 64


class TestingInterrupted(Exception):
    """Raised mid-enumeration when the tester's ``interrupt`` hook fires.

    The completion loop installs the hook from the session's deadline and
    cancellation event, so a single long bounded-testing enumeration cannot
    overrun the run's wall-clock budget or ignore a cancellation request.
    The exception deliberately does not subclass ``ExecutionError``: it must
    propagate out of testing, never be treated as a failing candidate.
    """


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
    #: Sequences run one at a time through ``differs_on`` (pool screening,
    #: the verifier's randomized phase); the walk's are not counted here.
    sequences_executed: int = 0
    #: Source outputs and source prefix states served from the source cache.
    source_cache_hits: int = 0
    candidates_tested: int = 0
    #: Candidates that went through the exhaustive walk (i.e. were not
    #: rejected by a pooled counterexample first).
    full_enumerations: int = 0
    #: Sequences checked inside those walks, as a sequence-by-sequence loop
    #: counts them (basis for the sequences-saved estimate reported per
    #: synthesis run).
    full_enumeration_sequences: int = 0


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

    def run(self, executable, query: str, args) -> list:
        """Outputs of this prefix followed by one query; errors raise.

        Queries run on the shared prefix state: they mutate nothing.  A
        candidate that implements a source query as an update returns no
        output for it, so it diverges on that query's first, prefix-free
        block before a mutated state is read.
        """
        if self.error is not None:
            raise self.error
        result = executable.call(self.state, query, args)
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
        self.execution_backend = execution_backend
        # The compiler caches compiled functions across candidates (they share
        # immutable per-function ASTs), so one compiler serves the whole run;
        # service workers pass in a process-global one.
        self._load = make_loader(execution_backend, compiler)
        # A private bounded cache when none is shared with us: behaviour is
        # identical, memory just stays bounded.  (``is None``, not ``or`` — an
        # empty shared cache is falsy but must still be adopted.)  Keys
        # include the source fingerprint, so sharing across testers, the
        # verifier and same-source service jobs is sound; prefix states go
        # under a key that also names the execution backend, because one
        # cache serves jobs with different configs.
        self._source_cache = source_cache if source_cache is not None else SourceOutputCache()
        self._source_key = format_program(source)
        #: Optional cooperative-interruption hook: when set, it is polled once
        #: per block of the exhaustive walk and once per sequence run through
        #: ``differs_on``, and a ``True`` return aborts the search with
        #: :class:`TestingInterrupted`.  The completer installs (and
        #: restores) it around each ``complete`` call.
        self.interrupt: Optional[Callable[[], bool]] = None

    def generator(self, candidate: Program) -> SequenceGenerator:
        """The invocation sequences of this tester's bound for *candidate*."""
        return SequenceGenerator(
            programs=[self.source, candidate],
            seeds=self.seeds,
            max_updates=self.max_updates,
            relevance_filter=self.relevance_filter,
        )

    # ---------------------------------------------------------------- running
    def _expected(self, sequence: InvocationSequence, run: Callable[[], list]) -> tuple:
        """``(canonical, raw)`` source outputs of one sequence; errors propagate.

        Memoized under ``(fingerprint, sequence)``; *run* computes the raw
        outputs on a miss.  A source program that cannot execute is a
        caller bug, never cached.
        """
        cached = self._source_cache.get(self._source_key, sequence)
        if cached is not None:
            self.stats.source_cache_hits += 1
            return cached
        raw = run()
        entry = (canonicalize_outputs(raw), raw)
        self._source_cache.put(self._source_key, sequence, entry)
        return entry

    def _outputs(self, program: Program, sequence: InvocationSequence) -> tuple:
        return canonicalize_outputs(self._load(program).run_sequence(sequence))

    def differs_on(self, candidate: Program, sequence: InvocationSequence) -> bool:
        """Whether source and candidate disagree on one invocation sequence."""
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()
        self.stats.sequences_executed += 1
        expected = self._expected(
            sequence, lambda: self._load(self.source).run_sequence(sequence)
        )[0]
        try:
            return self._outputs(candidate, sequence) != expected
        except ExecutionError:
            # An ill-formed candidate (e.g. a delete table-list incompatible
            # with the chosen join chain) is treated as failing the sequence.
            return True

    # --------------------------------------------------------------- MFI search
    def find_failing_input(self, candidate: Program) -> Optional[InvocationSequence]:
        """Return a failing input, or ``None`` if none exists up to the bound.

        With a counterexample pool attached the returned sequence may come
        from the pool, in which case it is a sound failing input but not
        necessarily a *minimum* one.
        """
        self.stats.candidates_tested += 1
        if self.pool is not None and len(self.pool) > 0:
            hit = self.pool.screen(candidate, self.differs_on, SCREENING_BUDGET)
            if hit is not None:
                return hit
        self.stats.full_enumerations += 1
        failing, checked = self.first_failing(candidate)
        self.stats.full_enumeration_sequences += checked
        if failing is not None and self.pool is not None:
            self.pool.add(failing)
        return failing

    def _source_prefixes(self, executable) -> _Prefixes:
        """Source prefix states, in the source cache."""
        cache = self._source_cache
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

    def first_failing(self, candidate: Program) -> tuple[Optional[InvocationSequence], int]:
        """The exhaustive walk: the first failing sequence (or ``None``) and the count.

        The count reproduces a sequence-by-sequence loop exactly, including
        the sequence that trips ``max_sequences``, which is counted but
        never checked.
        """
        source_program = self._load(self.source)
        candidate_program = self._load(candidate)
        source_prefixes = self._source_prefixes(source_program)
        candidate_memo: dict = {}
        candidate_prefixes = _Prefixes(
            candidate_program, candidate_memo.get, candidate_memo.__setitem__
        )
        checked_triples: set = set()
        checked = 0
        limit = self.max_sequences
        for prefix, query, arguments in self.generator(candidate).blocks():
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
                # Source first (exactly like differs_on): its errors
                # propagate before the candidate is consulted.
                expected, raw_expected = self._expected(
                    sequence, lambda: expected_node.run(source_program, query, args)
                )
                try:
                    actual = actual_node.run(candidate_program, query, args)
                except ExecutionError:
                    return sequence, checked
                if actual != raw_expected and canonicalize_outputs(actual) != expected:
                    return sequence, checked
            if triple is not None:
                checked_triples.add(triple)
        return None, checked

    def check_equivalent(self, candidate: Program) -> bool:
        """Bounded equivalence check (no failing input up to the bound)."""
        return self.find_failing_input(candidate) is None

    def explain(self, candidate: Program) -> str:
        """A human-readable verdict used by examples and error messages."""
        failing = self.find_failing_input(candidate)
        if failing is None:
            return "no failing input found up to the testing bound"
        expected = self._outputs(self.source, failing)
        try:
            actual = self._outputs(candidate, failing)
        except ExecutionError:
            actual = None
        return (
            f"programs differ on: {format_sequence(failing)}\n"
            f"  source outputs:    {expected}\n"
            f"  candidate outputs: {actual}"
        )
