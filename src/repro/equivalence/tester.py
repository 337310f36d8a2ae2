"""Bounded testing: find minimum failing inputs between two programs.

This is the testing engine described in Section 5 of the paper: it executes
both programs on invocation sequences of increasing length (arguments drawn
from fixed per-type seed sets) and returns the first sequence on which the
query results differ.  Because sequences are enumerated by increasing
length, that sequence is a minimum failing input (MFI).

:class:`BoundedTester` is the one bounded checker: the deeper verification
pass (:class:`~repro.equivalence.verifier.BoundedVerifier`) runs the same
check through a tester built with its own bound, seeds and sequence cap.

The exhaustive search (:meth:`BoundedTester.first_failing`) is a
breadth-first walk over distinct (source state, candidate state) pairs, the
same on every execution backend.  Each program's states live in a
:class:`StateGraph`: a state is interned by its exact key (row values in
storage order plus the UID counter, see ``CompiledState.key``), and each
node memoizes the node every invocation leads to, so a step from a state is
taken once and pairs compare by node identity.  A source node memoizes each
query's raw outputs; a check compares the candidate's raw outputs with
them first and computes canonical forms (UID renaming, row order) only when
they differ, as ``differs_on`` does.  For each relevance class (the update
calls relevant to a query, see
:meth:`~repro.equivalence.invocation.SequenceGenerator.queries`), level
``n`` keeps only the pairs that no shorter prefix reached, each tagged with
the lowest enumeration index of a prefix that reaches it; each query runs
its argument tuples only on its level's new pairs, in index order, and
every other sequence is counted by arithmetic (a level holds ``R ** n * A``
sequences for ``R`` relevant calls and ``A`` argument tuples).  Every
engine's behaviour is a function of the pair, so a skipped sequence would
repeat a check that passed.  Nodes that raised, that produced output, or
whose key cannot be hashed are never merged.  The verdict, failing
sequence, count and raised errors are exactly those of checking every
sequence in order; EXPERIMENTS.md ("State-deduplicated testing and
verification") gives the soundness argument.

Two layers of reuse keep repeated testing cheap:

* The source state graph (with each node's raw query outputs) and the
  source outputs of single sequences (:meth:`BoundedTester.differs_on`: pool
  screening, the verifier's randomized phase) live in a size-bounded LRU
  :class:`~repro.testing_cache.SourceOutputCache` that can be shared across
  testers and verifiers within one process (the synthesizer shares one per
  run; service workers share one per process, across the jobs their
  threads run), so later calls and same-source jobs reuse them; the
  candidate graph lives for one call.
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

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Optional

from repro.engine.compiler import ProgramCompiler, make_loader
from repro.engine.joins import ExecutionError
from repro.equivalence.invocation import (
    InvocationSequence,
    QuerySequences,
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
    #: Source outputs served from memo rather than executed: a query's
    #: outputs on a source graph node (the walk) or a single sequence's
    #: outputs (``differs_on``).
    source_cache_hits: int = 0
    candidates_tested: int = 0
    #: Candidates that went through the exhaustive walk (i.e. were not
    #: rejected by a pooled counterexample first).
    full_enumerations: int = 0
    #: Sequences checked inside those walks, as a sequence-by-sequence loop
    #: counts them (basis for the sequences-saved estimate reported per
    #: synthesis run).
    full_enumeration_sequences: int = 0


class _Expected:
    """A source run's raw outputs, and their canonical form once it is needed.

    A candidate whose raw outputs equal the source's matches without
    canonicalizing either side: equal raw outputs canonicalize alike, up to
    values that are equal but sort apart (``True == 1``), and those match
    as well.  The canonical form is computed the first time a candidate's
    raw outputs differ (UID numbering or row order, or a real difference),
    and kept; two threads may both compute it, to equal values.
    """

    __slots__ = ("raw", "_canonical")

    def __init__(self, raw: list):
        self.raw = raw
        self._canonical: Optional[tuple] = None

    def matches(self, actual: list) -> bool:
        """Whether *actual* equals these outputs, raw or up to UID renaming and row order."""
        if actual == self.raw:
            return True
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = canonicalize_outputs(self.raw)
        return canonicalize_outputs(actual) == canonical


class _Node:
    """One node of a state graph: a state a run reached, or the error that ended it.

    ``outputs`` holds results of prefix invocations that returned some (a
    candidate implementing a source update as a query).  ``successors``
    memoizes the index of the node each invocation leads to, and
    ``results`` (source graph only) each query's outputs as an
    :class:`_Expected`.
    """

    __slots__ = ("state", "error", "origin", "outputs", "successors", "results")

    def __init__(self, state, error: Optional[Exception] = None, outputs: tuple = ()):
        self.state = state
        self.error = error
        #: Where *error* was raised.  Every raise of it starts from here, so
        #: an exception cached in a shared graph does not collect the frames
        #: of every walk that raises it.
        self.origin = None if error is None else error.__traceback__
        self.outputs = outputs
        self.successors: dict = {}
        self.results: dict = {}


class StateGraph:
    """The states one program reaches from the empty database, as a graph.

    A state is interned by its exact key (row values in storage order plus
    the UID counter, see ``CompiledState.key``), so every run that reaches
    equal states reaches one node, and nodes are named by their index in
    ``nodes`` (the root is 0).  Edges hold indices, not nodes, so the
    graph's edges form no reference cycles (a delete can lead back to an
    earlier state) and a dropped graph is freed at once.  A node
    that raised, that produced output, or whose key cannot be hashed keeps
    its own index: it is never merged with another.  A node that raised
    has no successors (the walk's first check through it ends the walk).

    A source graph is shared by every walk over one source cache, and a
    service worker runs several jobs on threads over one cache, so nodes
    are created and memo entries written under the graph's lock; memo
    reads take none.  ``size`` counts the nodes and the memoized query
    outputs: what the source cache charges for the graph.
    """

    __slots__ = ("executable", "nodes", "size", "_interned", "_lock")

    def __init__(self, executable):
        self.executable = executable
        self.nodes: list[_Node] = []
        self.size = 0
        self._interned: dict = {}
        self._lock = threading.Lock()
        state = executable.new_state()
        self._add(state, None, (), state.key())

    @property
    def root(self) -> _Node:
        return self.nodes[0]

    def _step(self, node: _Node, invocation) -> int:
        """The index of the node that *invocation* leads to from *node*, on a memo miss."""
        state = node.state.fork()
        try:
            result = self.executable.call(state, invocation[0], invocation[1])
        except Exception as error:
            # Recorded, not raised: the walk raises it (or fails the
            # candidate) when the first sequence through this node is checked.
            return self._link(node, invocation, None, error, node.outputs, None)
        if result is not None:
            return self._link(node, invocation, state, None, node.outputs + (result,), None)
        return self._link(node, invocation, state, None, node.outputs, state.key())

    def _link(self, node: _Node, invocation, state, error, outputs: tuple, key) -> int:
        with self._lock:
            # Another thread may have taken this step meanwhile: keep its node.
            index = node.successors.get(invocation)
            if index is None:
                index = node.successors[invocation] = self._add(state, error, outputs, key)
            return index

    def _add(self, state, error, outputs: tuple, key) -> int:
        """The index of the node for a step's result, interned by *key* unless it is ``None``."""
        index = len(self.nodes)
        if key is not None:
            try:
                interned = self._interned.setdefault(key, index)
            except TypeError:  # an unhashable cell value
                pass
            else:
                if interned != index:
                    return interned
        self.nodes.append(_Node(state, error, outputs))
        self.size += 1
        return index

    def outputs(self, node: _Node, query: str, args) -> _Expected:
        """The outputs of :meth:`run`, memoized on *node*."""
        key = (query, args)
        entry = node.results.get(key)
        if entry is None:
            fresh = _Expected(self.run(node, query, args))
            with self._lock:
                entry = node.results.setdefault(key, fresh)
                if entry is fresh:
                    self.size += 1
        return entry

    def run(self, node: _Node, query: str, args) -> list:
        """Outputs of *node*'s run followed by one query; errors raise.

        Queries run on the node's state: they mutate nothing.  A candidate
        that implements a source query as an update returns no output for
        it, so it fails that query's first, prefix-free check before a
        mutated state is read.
        """
        if node.error is not None:
            raise node.error.with_traceback(node.origin)
        result = self.executable.call(node.state, query, args)
        outputs = list(node.outputs)
        if result is not None:
            outputs.append(result)
        return outputs


#: The sequence slot under which a source state graph is cached.
_STATE_GRAPH = "state graph"


class _Pair:
    """A (source node, candidate node) pair that no shorter prefix reached.

    It is tagged with the lowest enumeration index among the prefixes of
    its level that reach it: ``earlier`` prefixes have update names that
    come before the tagged prefix's names, ``offset`` is its rank among the
    ``width`` prefixes with the same names (its argument indices in mixed
    radix), and ``index = earlier + offset``.  ``parent`` and ``call`` give
    the prefix back.
    """

    __slots__ = ("source", "candidate", "earlier", "offset", "width", "index", "parent", "call")

    def __init__(self, source, candidate, earlier: int, offset: int, width: int, parent, call):
        self.source = source
        self.candidate = candidate
        self.earlier = earlier
        self.offset = offset
        self.width = width
        self.index = earlier + offset
        self.parent = parent
        self.call = call

    def prefix(self) -> InvocationSequence:
        if self.parent is None:
            return ()
        return self.parent.prefix() + (self.call,)


class _RelevanceClass:
    """The levels of new pairs for the queries that share one relevance class.

    Level ``n`` holds, in index order, the pairs reached by a prefix of
    ``n`` relevant update calls and by no shorter one.  A successor of a
    pair already seen has been seen too, and appending one call keeps the
    enumeration order (update names first, then arguments), so a new pair's
    lowest-index prefix extends the lowest-index prefix of a new pair one
    level up.  So level ``n + 1`` is built from level ``n`` alone by
    visiting those extensions in index order, where the first one that
    reaches a pair is its lowest-index prefix; it is built lazily, as far
    as its first query's checks read it.
    """

    __slots__ = ("updates", "radix", "levels", "seen")

    def __init__(self, query: QuerySequences, root: _Pair):
        #: Per update name: the calls of earlier names, its number of
        #: argument tuples, and its calls with their argument indices.
        self.updates = []
        earlier = 0
        for name, arguments in query.updates:
            calls = [((name, args), index) for index, args in enumerate(arguments)]
            self.updates.append((earlier, len(arguments), calls))
            earlier += len(arguments)
        self.radix = earlier
        self.levels = [[root]]
        self.seen = {(0, 0)}  # node indices of the root pair

    def pairs(self, length: int, source: StateGraph, candidate: StateGraph, interrupt):
        """The new pairs of level *length*, in index order.

        The class's first query at a length reads the level while it is
        built.  The walk goes on only after a query has read its whole
        level, so the next query, and the next level, find it finished.
        """
        if length == len(self.levels):
            self.levels.append([])
            return self._extend(self.levels[-2], self.levels[-1], source, candidate, interrupt)
        return self.levels[length]

    def _extend(self, parents: list, level: list, source, candidate, interrupt):
        """Build *level* from *parents*, yielding each new pair as it is added.

        The extensions are visited in index order: the parents with the same
        update names together (their tags share ``earlier``), then the
        appended name, then the parent's arguments, then the appended
        arguments.
        """
        seen = self.seen
        radix = self.radix
        for _names, same_names in groupby(parents, attrgetter("earlier")):
            same_names = list(same_names)
            for earlier_calls, count, calls in self.updates:
                for parent in same_names:
                    if interrupt is not None and interrupt():
                        raise TestingInterrupted()
                    source_node, candidate_node = parent.source, parent.candidate
                    earlier = parent.earlier * radix + parent.width * earlier_calls
                    width = parent.width * count
                    source_edges = source_node.successors
                    candidate_edges = candidate_node.successors
                    for call, argument in calls:
                        # The graphs' memos, read inline: most steps are taken.
                        source_index = source_edges.get(call)
                        if source_index is None:
                            source_index = source._step(source_node, call)
                        candidate_index = candidate_edges.get(call)
                        if candidate_index is None:
                            candidate_index = candidate._step(candidate_node, call)
                        nodes = (source_index, candidate_index)
                        if nodes not in seen:
                            seen.add(nodes)
                            level.append(
                                _Pair(
                                    source.nodes[source_index],
                                    candidate.nodes[candidate_index],
                                    earlier,
                                    parent.offset * count + argument,
                                    width,
                                    parent,
                                    call,
                                )
                            )
                            yield level[-1]


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
        #: The invocation sequences of this tester's bound, over the source:
        #: ``generator.queries(candidate)`` describes a walk's order, and
        #: the parts that depend on the source alone are computed once.
        self.generator = SequenceGenerator(
            programs=[source],
            seeds=self.seeds,
            max_updates=max_updates,
            relevance_filter=relevance_filter,
        )
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
        # verifier and same-source service jobs is sound; the state graph goes
        # under a key that also names the execution backend, because one
        # cache serves jobs with different configs.
        self._source_cache = source_cache if source_cache is not None else SourceOutputCache()
        self._source_key = format_program(source)
        #: Optional cooperative-interruption hook: when set, it is polled by
        #: the exhaustive walk once per pair and update name it extends and
        #: once per pair it checks for a query, and once per sequence run
        #: through ``differs_on``; a ``True`` return aborts the search with
        #: :class:`TestingInterrupted`.  The completer installs (and
        #: restores) it around each ``complete`` call.
        self.interrupt: Optional[Callable[[], bool]] = None

    # ---------------------------------------------------------------- running
    def _outputs(self, program: Program, sequence: InvocationSequence) -> tuple:
        return canonicalize_outputs(self._load(program).run_sequence(sequence))

    def _expected(self, sequence: InvocationSequence) -> _Expected:
        """The source outputs of one sequence; errors propagate.

        Memoized under ``(fingerprint, sequence)``, next to the source state
        graph: screening and the randomized phase check one sequence against
        many candidates (the BMC baseline against thousands), and a sequence
        entry answers that repeat with one lookup, where the graph would
        take a lookup per call and a new node for every state first met
        (measured in EXPERIMENTS.md).  A source program that cannot execute
        is a caller bug, never cached.
        """
        cached = self._source_cache.get(self._source_key, sequence)
        if cached is not None:
            self.stats.source_cache_hits += 1
            return cached
        entry = _Expected(self._load(self.source).run_sequence(sequence))
        self._source_cache.put(self._source_key, sequence, entry)
        return entry

    def differs_on(self, candidate: Program, sequence: InvocationSequence) -> bool:
        """Whether source and candidate disagree on one invocation sequence.

        The check the walk makes on each sequence it runs: raw outputs first,
        canonical forms only when they differ.
        """
        if self.interrupt is not None and self.interrupt():
            raise TestingInterrupted()
        self.stats.sequences_executed += 1
        expected = self._expected(sequence)
        try:
            actual = self._load(candidate).run_sequence(sequence)
        except ExecutionError:
            # An ill-formed candidate (e.g. a delete table-list incompatible
            # with the chosen join chain) is treated as failing the sequence.
            return True
        return not expected.matches(actual)

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

    def _source_graph(self) -> tuple[StateGraph, tuple]:
        """The source state graph of this backend, from the source cache, and its key."""
        key = (self._source_key, self.execution_backend)
        graph = self._source_cache.get(key, _STATE_GRAPH)
        if graph is None:
            graph = StateGraph(self._load(self.source))
            self._source_cache.put(key, _STATE_GRAPH, graph, graph.size)
        return graph, key

    def first_failing(self, candidate: Program) -> tuple[Optional[InvocationSequence], int]:
        """The exhaustive walk: the first failing sequence (or ``None``) and the count.

        Level by level and query by query, in enumeration order, the query's
        argument tuples run only on the new pairs of its relevance class, in
        index order; every other sequence passes as the earlier check of its
        pair did, and is counted by arithmetic.  The count reproduces a
        sequence-by-sequence loop exactly, including the sequence that trips
        ``max_sequences``, which is counted but never checked.
        """
        source_graph, graph_key = self._source_graph()
        candidate_graph = StateGraph(self._load(candidate))
        root = _Pair(source_graph.root, candidate_graph.root, 0, 0, 1, None, None)
        queries = self.generator.queries(candidate)
        classes: dict = {}
        interrupt = self.interrupt
        limit = self.max_sequences
        checked = 0
        for length in range(self.max_updates + 1):
            for query in queries:
                relevance = classes.get(query.updates)
                if relevance is None:
                    relevance = classes[query.updates] = _RelevanceClass(query, root)
                arguments = query.arguments
                sequences = relevance.radix**length * len(arguments)
                if not sequences:
                    continue
                if checked >= limit:
                    return None, limit + 1
                name = query.name
                try:
                    for pair in relevance.pairs(length, source_graph, candidate_graph, interrupt):
                        if interrupt is not None and interrupt():
                            raise TestingInterrupted()
                        position = checked + pair.index * len(arguments)
                        for args in arguments:
                            position += 1
                            if position > limit:
                                return None, limit + 1
                            # Source first (exactly like differs_on): its errors
                            # propagate before the candidate is consulted.
                            expected = pair.source.results.get((name, args))
                            if expected is None:
                                expected = source_graph.outputs(pair.source, name, args)
                            else:
                                self.stats.source_cache_hits += 1
                            try:
                                actual = candidate_graph.run(pair.candidate, name, args)
                            except ExecutionError:
                                return pair.prefix() + ((name, args),), position
                            if not expected.matches(actual):
                                return pair.prefix() + ((name, args),), position
                finally:
                    self._source_cache.resize(graph_key, _STATE_GRAPH, source_graph.size)
                if checked + sequences > limit:
                    return None, limit + 1
                checked += sequences
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
