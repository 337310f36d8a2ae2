"""The streaming synthesis session: Algorithm 1 as a stream of typed events.

This module is the single implementation of the paper's ``Synthesize(P, S,
S')`` loop.  It is split into two layers:

* :class:`SessionCore` builds the per-run pipeline (tester, verifier,
  completer, sketch generator, shared incremental-testing state) and runs
  *one* value-correspondence attempt at a time.  The migration service
  injects a core built over its shared artifacts, so a service job runs the
  very same attempts as a direct call.

* :class:`SynthesisSession` runs the loop: a re-entrant generator over
  typed progress events (:class:`VcSelected`, :class:`SketchGenerated`,
  :class:`SketchRejected`, :class:`CandidateRejected`, :class:`Solved`,
  :class:`BudgetTimeout`, :class:`BudgetExhausted`, :class:`Cancelled`)
  that tries value correspondences one at a time, most likely first, and
  stops at the first one that completes.  Cooperative cancellation and one
  wall-clock deadline are threaded all the way into sketch completion and
  bounded testing — a single long sketch cannot overrun
  ``config.time_limit``.  Parallelism lives one level up, across jobs
  (:class:`~repro.service.MigrationService`).

Event delivery has two granularities:

* the ``events()`` generator yields every event in order, but events emitted
  *inside* one attempt (candidate rejections) are delivered when that
  attempt's completion call returns — consuming the generator never blocks
  mid-attempt;
* an ``on_event`` callback passed to the session is invoked synchronously
  the moment each event is emitted, including mid-completion — this is the
  hook for real-time progress reporting and for cancelling from within the
  stream (calling :meth:`SynthesisSession.cancel` inside the callback stops
  the completion loop at its next iteration).

``Synthesizer.synthesize`` / ``migrate`` simply drain a session, so their
results are the session-driven results — same trajectory, same
:class:`~repro.core.result.AttemptRecord` list.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional

from repro.baselines.bmc import BmcCompleter
from repro.completion.enumerative import EnumerativeCompleter
from repro.completion.solver import SketchCompleter
from repro.core.config import SynthesisConfig
from repro.core.result import AttemptRecord, Nogood, SynthesisResult
from repro.correspondence.enumerator import ValueCorrespondenceEnumerator, VcEnumerationError
from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Schema
from repro.engine.compiler import ProgramCompiler
from repro.equivalence.invocation import InvocationSequence
from repro.equivalence.tester import BoundedTester
from repro.equivalence.verifier import BoundedVerifier
from repro.lang.ast import Program
from repro.sketchgen.generator import SketchGenerationError, SketchGenerator
from repro.testing_cache import CounterexamplePool, SourceOutputCache, collect_cache_stats

COMPLETER_CLASSES = {
    "mfi": SketchCompleter,
    "enumerative": EnumerativeCompleter,
    "bmc": BmcCompleter,
}


# ----------------------------------------------------------------- events
@dataclass(frozen=True)
class SessionEvent:
    """Base class of the typed progress events."""

    kind: ClassVar[str] = "event"

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class VcSelected(SessionEvent):
    """The enumerator produced the next candidate value correspondence."""

    kind: ClassVar[str] = "vc_selected"
    index: int
    weight: int

    def describe(self) -> str:
        return f"vc_selected w={self.weight}"


@dataclass(frozen=True)
class SketchGenerated(SessionEvent):
    """A program sketch was generated for the selected correspondence."""

    kind: ClassVar[str] = "sketch_generated"
    index: int
    holes: int
    search_space: int

    def describe(self) -> str:
        return f"sketch_generated holes={self.holes} space={self.search_space}"


@dataclass(frozen=True)
class SketchRejected(SessionEvent):
    """Sketch generation failed for the selected correspondence."""

    kind: ClassVar[str] = "sketch_rejected"
    index: int
    reason: str


@dataclass(frozen=True)
class CandidateRejected(SessionEvent):
    """A completion candidate failed testing or verification.

    ``counterexample`` is the failing invocation sequence (a minimum failing
    input, a pooled counterexample, or a verifier counterexample); ``None``
    only for candidates rejected without a concrete sequence.
    """

    kind: ClassVar[str] = "candidate_rejected"
    index: int
    iteration: int
    counterexample: Optional[InvocationSequence]


@dataclass(frozen=True)
class Solved(SessionEvent):
    """A completion passed testing (and verification, when enabled)."""

    kind: ClassVar[str] = "solved"
    index: int
    iterations: int

    def describe(self) -> str:
        return f"solved iters={self.iterations}"


@dataclass(frozen=True)
class BudgetTimeout(SessionEvent):
    """The wall-clock budget (``config.time_limit``) ran out."""

    kind: ClassVar[str] = "budget_timeout"
    elapsed: float


@dataclass(frozen=True)
class BudgetExhausted(SessionEvent):
    """The correspondence budget ran out without a solution."""

    kind: ClassVar[str] = "budget_exhausted"
    reason: str


@dataclass(frozen=True)
class Cancelled(SessionEvent):
    """The session was cooperatively cancelled."""

    kind: ClassVar[str] = "cancelled"


@dataclass(frozen=True)
class ExecutionDegraded(SessionEvent):
    """Execution stepped down the degradation ladder and kept going.

    Emitted by :class:`~repro.service.MigrationService` to every unsettled
    job once per rung — ``fleet -> pool``, ``pool -> inline``,
    ``fleet -> inline`` — when the requested backend is unavailable.  Not
    terminal: the job continues on the weaker backend and its session still
    ends with its normal terminal event, with identical results.
    """

    kind: ClassVar[str] = "execution_degraded"
    from_mode: str
    to_mode: str
    reason: str

    def describe(self) -> str:
        return f"execution_degraded {self.from_mode}->{self.to_mode}"


#: Terminal events: every finished session stream ends with exactly one of
#: these (``Solved`` on success).
TERMINAL_EVENTS = (Solved, BudgetTimeout, BudgetExhausted, Cancelled)


class EventSummarizer:
    """Incrementally compacts an event stream for :attr:`AttemptRecord.events`.

    Runs of identical descriptions collapse into ``"description xN"`` so a
    20 000-candidate enumerative attempt summarizes to a handful of strings
    — crucially *without* retaining the event objects themselves (an attempt
    with no event consumer attached holds O(distinct descriptions) memory,
    not O(iterations)).
    """

    def __init__(self) -> None:
        self._texts: list[str] = []
        self._counts: list[int] = []

    def add(self, event: SessionEvent) -> None:
        text = event.describe()
        if self._texts and self._texts[-1] == text:
            self._counts[-1] += 1
        else:
            self._texts.append(text)
            self._counts.append(1)

    def summary(self) -> tuple[str, ...]:
        return tuple(
            text if count == 1 else f"{text} x{count}"
            for text, count in zip(self._texts, self._counts)
        )


# ------------------------------------------------------------ pipeline build
def build_tester(
    source_program: Program,
    config: SynthesisConfig,
    *,
    source_cache: SourceOutputCache | None = None,
    pool: CounterexamplePool | None = None,
    compiler=None,
) -> BoundedTester:
    """The run's bounded tester, wired to the shared incremental-testing state.

    *compiler* optionally shares a :class:`~repro.engine.compiler.ProgramCompiler`
    (and thus its compiled-function cache) across testers — the migration
    service passes a process-global one so candidates sharing function ASTs
    across jobs compile once per process.
    """
    return BoundedTester(
        source_program,
        seeds=config.tester_seeds,
        max_updates=config.tester_max_updates,
        relevance_filter=config.relevance_filter,
        source_cache=source_cache,
        pool=pool,
        execution_backend=config.execution_backend,
        compiler=compiler,
    )


def build_verifier(
    config: SynthesisConfig, *, compiler=None, source_cache: SourceOutputCache | None = None
) -> Optional[BoundedVerifier]:
    if not config.final_verification:
        return None
    return BoundedVerifier(
        max_updates=config.verifier_max_updates,
        random_sequences=config.verifier_random_sequences,
        relevance_filter=config.relevance_filter,
        execution_backend=config.execution_backend,
        compiler=compiler,
        source_cache=source_cache,
    )


def build_completer(source_program: Program, config: SynthesisConfig, tester, verifier):
    if config.completion_strategy not in COMPLETER_CLASSES:
        raise ValueError(f"unknown completion strategy {config.completion_strategy!r}")
    # The verifier participates in the completion loop (Algorithm 2): a
    # candidate that passes bounded testing but fails the deeper
    # verification pass is blocked like any other failing candidate.
    return COMPLETER_CLASSES[config.completion_strategy](
        source_program,
        tester=tester,
        verifier=verifier,
        consistency_constraints=config.consistency_constraints,
        max_iterations=config.max_iterations_per_sketch,
        time_limit=config.sketch_time_limit,
    )


# -------------------------------------------------------------- session core
@dataclass
class AttemptOutcome:
    """What one value-correspondence attempt produced."""

    record: AttemptRecord
    program: Optional[Program] = None
    iterations: int = 0
    verify_time: float = 0.0
    #: The attempt was stopped by the deadline or by cancellation (the
    #: record's ``failure_reason`` says which).
    interrupted: bool = False


class SessionCore:
    """The per-run pipeline plus the single-attempt unit of Algorithm 1.

    One core owns the tester (with its counterexample pool and source-output
    cache), the optional verifier, the completer, and the sketch generator.
    ``attempt`` runs the sketch-generation → completion → testing unit for
    one candidate correspondence and reports the outcome as an
    :class:`AttemptOutcome` plus a stream of typed events.

    The shared state is injectable so callers can scope it differently: the
    session builds fresh per-run state, and the migration service passes
    cross-job artifacts (a shared compiler, per-source counterexample pools,
    a process-wide source-output cache).
    """

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        config: SynthesisConfig,
        *,
        pool: CounterexamplePool | None = None,
        source_cache: SourceOutputCache | None = None,
        compiler: ProgramCompiler | None = None,
    ):
        self.source_program = source_program
        self.target_schema = target_schema
        self.config = config
        if pool is None and config.counterexample_pool:
            pool = CounterexamplePool()
        self.pool = pool
        if source_cache is None:
            source_cache = SourceOutputCache()
        self.source_cache = source_cache
        # One compiler per run unless a shared one is injected: tester and
        # verifier share the compiled-function cache, so a candidate verified
        # right after testing compiles once.
        if compiler is None and config.execution_backend == "compiled":
            compiler = ProgramCompiler()
        self.compiler = compiler
        # Shared compilers accumulate counters across runs; snapshot the
        # baseline so cache_stats() reports this core's own hits/misses.
        self._compiler_baseline = None if compiler is None else compiler.stats.snapshot()
        self.tester = build_tester(
            source_program, config, source_cache=source_cache, pool=pool, compiler=compiler
        )
        self.verifier = build_verifier(config, compiler=compiler, source_cache=source_cache)
        self.completer = build_completer(source_program, config, self.tester, self.verifier)
        self.generator = SketchGenerator(source_program, target_schema, config.sketch)

    # ------------------------------------------------------------------ unit
    def attempt(
        self,
        correspondence: ValueCorrespondence,
        weight: int,
        index: int,
        *,
        deadline: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
        emit: Optional[Callable[[SessionEvent], None]] = None,
    ) -> AttemptOutcome:
        """Run one value-correspondence attempt.

        *deadline* is an absolute ``time.perf_counter()`` instant shared by
        the whole run; *cancel* is the session's cancellation event.  Both
        are checked inside the completion loop and (every sequence) inside
        bounded testing, so the attempt stops promptly mid-sketch.
        """
        summarizer = EventSummarizer()

        def record(event: SessionEvent) -> None:
            summarizer.add(event)
            if emit is not None:
                emit(event)

        record(VcSelected(index=index, weight=weight))
        try:
            sketch = self.generator.generate(correspondence)
        except SketchGenerationError as error:
            record(SketchRejected(index=index, reason=str(error)))
            return AttemptOutcome(
                record=AttemptRecord(
                    vc_weight=weight,
                    failure_reason=str(error),
                    events=summarizer.summary(),
                    nogood=Nogood(frozenset({error.function}), error.reads),
                ),
            )
        record(
            SketchGenerated(
                index=index, holes=sketch.num_holes(), search_space=sketch.search_space_size()
            )
        )

        def on_reject(iteration: int, counterexample: Optional[InvocationSequence]) -> None:
            record(
                CandidateRejected(
                    index=index, iteration=iteration, counterexample=counterexample
                )
            )

        completion = self.completer.complete(
            sketch, deadline=deadline, cancel=cancel, on_reject=on_reject
        )

        nogood = None
        if completion.succeeded:
            record(Solved(index=index, iterations=completion.statistics.iterations))
            failure_reason = ""
        elif completion.interrupted:
            failure_reason = (
                "cancelled" if cancel is not None and cancel.is_set() else "time limit reached"
            )
        else:
            failure_reason = completion.limit or "no equivalent completion"
            if completion.refuted is not None:
                mapping = {}
                for name in completion.refuted:
                    mapping.update(sketch.reads[name])
                nogood = Nogood(completion.refuted, mapping)

        return AttemptOutcome(
            record=AttemptRecord(
                vc_weight=weight,
                sketch_holes=sketch.num_holes(),
                sketch_size=sketch.search_space_size(),
                iterations=completion.statistics.iterations,
                succeeded=completion.succeeded,
                failure_reason=failure_reason,
                events=summarizer.summary(),
                nogood=nogood,
            ),
            program=completion.program,
            iterations=completion.statistics.iterations,
            verify_time=completion.statistics.verify_time,
            interrupted=completion.interrupted,
        )

    def cache_stats(self):
        compiler_delta = None
        if self.compiler is not None:
            current = self.compiler.stats
            baseline = self._compiler_baseline
            compiler_delta = type(current)(
                function_hits=current.function_hits - baseline.function_hits,
                function_misses=current.function_misses - baseline.function_misses,
                program_hits=current.program_hits - baseline.program_hits,
            )
        return collect_cache_stats(
            self.tester.stats,
            self.pool,
            self.source_cache,
            verifier_stats=None if self.verifier is None else self.verifier.stats,
            compiler_delta=compiler_delta,
        )


# ---------------------------------------------------------------- the driver
class SynthesisSession:
    """One synthesis run as a re-entrant stream of typed progress events.

    Usage::

        session = SynthesisSession(source_program, target_schema, config)
        for event in session.events():
            ...             # consume as far as you like; pausing never
            ...             # blocks the run mid-attempt
        result = session.run()   # drain the rest and fetch the result

    Note that ``config.time_limit`` is a *wall-clock* budget measured from
    the first step: time the consumer spends paused between events counts
    against it (and lands in ``synthesis_time``).  Long-pausing consumers —
    a human-in-the-loop UI, say — should run without a time limit or use
    ``cancel()`` for their own budgets.

    ``result`` is available (and live — counters update as the run
    progresses) from the first step onward.  ``cancel()`` may be called from
    another thread or from an ``on_event`` callback; the run winds down at
    the next completion-loop iteration or tested sequence and the stream
    ends with a :class:`Cancelled` event.

    ``migrate()`` / ``Synthesizer.synthesize`` drain a session, and the
    migration service runs one per job (with an injected *core*).
    """

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        config: SynthesisConfig | None = None,
        *,
        core: SessionCore | None = None,
        on_event: Optional[Callable[[SessionEvent], None]] = None,
        cancel_signal=None,
    ):
        self.source_program = source_program
        self.target_schema = target_schema
        self.config = config or SynthesisConfig()
        self._core = core
        self._on_event = on_event
        # *cancel_signal* injects an external cancellation signal — anything
        # with the ``threading.Event`` set()/is_set() surface.  The execution
        # layer passes the task's cancel event here so ``JobHandle.cancel()``
        # reaches a session running inside a worker process (a worker sets
        # it when a ``cancel`` frame arrives); ``cancel()`` and the
        # cooperative polling inside completion/testing go through the same
        # object either way.
        self._cancel = cancel_signal if cancel_signal is not None else threading.Event()
        self._result = SynthesisResult(source_program=source_program, program=None)
        self._stream: Optional[Iterator[SessionEvent]] = None
        self._finished = False
        #: Set by run() when nobody observes events (no started stream, no
        #: callback): the driver then skips event buffering, so a blocking
        #: drain pays no per-candidate allocation beyond the summaries.
        self._quiet = False

    # --------------------------------------------------------------- control
    def cancel(self) -> None:
        """Request cooperative cancellation; safe from any thread."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> SynthesisResult:
        """The (live) result object; final once the stream is exhausted."""
        return self._result

    # ---------------------------------------------------------------- stream
    def events(self) -> Iterator[SessionEvent]:
        """The session's event stream (one shared iterator, lazily started)."""
        if self._stream is None:
            self._stream = self._drive()
        return self._stream

    def __iter__(self) -> Iterator[SessionEvent]:
        return self.events()

    def run(self) -> SynthesisResult:
        """Drain the event stream and return the final result."""
        if self._stream is None:
            # No generator consumer exists, so buffering events for the
            # drain below would only feed its discarding loop; an on_event
            # callback still fires from emit() independently of the buffer.
            self._quiet = True
        for _ in self.events():
            pass
        return self._result

    # ---------------------------------------------------------------- driver
    def _drive(self) -> Iterator[SessionEvent]:
        config = self.config
        result = self._result
        started = time.perf_counter()
        deadline = None if config.time_limit is None else started + config.time_limit

        core = self._core or SessionCore(self.source_program, self.target_schema, config)

        buffer: list[SessionEvent] = []

        def emit(event: SessionEvent) -> None:
            if not self._quiet:
                buffer.append(event)
            if self._on_event is not None:
                self._on_event(event)

        def finalize() -> None:
            result.synthesis_time = max(
                0.0, time.perf_counter() - started - result.verification_time
            )
            result.cache = core.cache_stats()
            self._finished = True

        try:
            enumerator = ValueCorrespondenceEnumerator(
                self.source_program,
                self.target_schema,
                alpha=config.alpha,
                max_fanout=config.max_mapping_fanout,
            )
        except VcEnumerationError:
            emit(BudgetExhausted(reason="no value correspondences"))
            finalize()
            yield from self._flush(buffer)
            return

        blocked_functions: set[str] = set()
        terminal: Optional[SessionEvent] = None
        while True:
            if self._cancel.is_set():
                result.cancelled = True
                terminal = Cancelled()
                break
            if deadline is not None and time.perf_counter() > deadline:
                result.timed_out = True
                terminal = BudgetTimeout(elapsed=time.perf_counter() - started)
                break
            if result.value_correspondences_tried >= config.max_value_correspondences:
                terminal = BudgetExhausted(reason="max_value_correspondences reached")
                break

            candidate_vc = enumerator.next_value_corr()
            if candidate_vc is None:
                reason = "value correspondences exhausted"
                if enumerator.engine.skipped:
                    reason += (
                        "; the rest agree with recorded nogoods of "
                        + ", ".join(sorted(blocked_functions))
                    )
                terminal = BudgetExhausted(reason=reason)
                break
            result.value_correspondences_tried += 1

            outcome = core.attempt(
                candidate_vc.correspondence,
                candidate_vc.weight,
                result.value_correspondences_tried,
                deadline=deadline,
                cancel=self._cancel,
                emit=emit,
            )
            result.attempts.append(outcome.record)
            result.iterations += outcome.iterations
            result.verification_time += outcome.verify_time

            if outcome.program is not None:
                result.program = outcome.program
                result.correspondence = candidate_vc.correspondence
                break
            if outcome.interrupted:
                if self._cancel.is_set():
                    result.cancelled = True
                    terminal = Cancelled()
                else:
                    result.timed_out = True
                    terminal = BudgetTimeout(elapsed=time.perf_counter() - started)
                break
            nogood = outcome.record.nogood
            if nogood is not None:
                # Nogoods live in this run's enumerator only: another job's
                # target schema gives the same images a different meaning.
                enumerator.block(nogood.mapping)
                blocked_functions |= nogood.functions
            yield from self._flush(buffer)

        if terminal is not None:
            emit(terminal)
        finalize()
        yield from self._flush(buffer)

    @staticmethod
    def _flush(buffer: list[SessionEvent]) -> Iterator[SessionEvent]:
        # Snapshot-and-clear: nothing emits into the buffer while the
        # generator is suspended at a yield, so draining a copy is safe and
        # keeps the flush linear (pop(0) per event would be quadratic).
        pending = buffer[:]
        buffer.clear()
        yield from pending
