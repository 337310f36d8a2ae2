"""Sketch completion (Algorithm 2 of the paper).

The completer encodes the sketch as a SAT formula, repeatedly asks the SAT
solver for a model, instantiates the corresponding candidate program, and
tests it against the source program.  When the candidate is not equivalent,
the minimum failing input (MFI) identifies the functions responsible, and a
blocking clause over *only the holes of those functions* prunes every other
completion that fails for the same reason.

Consecutive candidates therefore differ in one or two functions, and
:class:`ComponentSearch` re-searches only those: every other function keeps
its values fixed in the SAT solver, and each model is still the one a
search of the whole sketch would return.

When the tester carries a cross-sketch counterexample pool (see
:mod:`repro.testing_cache`), candidates are first screened against pooled
failing inputs and only reach the full bounded enumeration when screening
cannot kill them; verifier counterexamples are fed back into the pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.completion.encoder import SketchEncoder, SketchEncoding
from repro.completion.instantiate import MemoizedInstantiator
from repro.equivalence.invocation import InvocationSequence, format_sequence
from repro.equivalence.tester import (
    BoundedTester,
    TestingInterrupted,
    interrupt_scope,
    make_interrupt_check,
)
from repro.equivalence.verifier import BoundedVerifier
from repro.lang.ast import Program
from repro.sat.cnf import Literal
from repro.sat.solver import SatSolver, Status
from repro.sketchgen.sketch_ast import ProgramSketch


@dataclass
class CompletionStatistics:
    """Counters reported per sketch-completion call."""

    iterations: int = 0
    blocked_clauses: int = 0
    mfi_lengths: list[int] = field(default_factory=list)
    eliminated_estimate: int = 0
    sat_time: float = 0.0
    test_time: float = 0.0
    verify_time: float = 0.0


#: ``CompletionResult.limit`` values: the per-sketch bound that stopped the loop.
ITERATION_LIMIT = "iteration limit reached"
SKETCH_TIME_LIMIT = "sketch time limit reached"


@dataclass
class CompletionResult:
    """Outcome of completing one sketch."""

    program: Optional[Program]
    statistics: CompletionStatistics
    last_failing_input: Optional[InvocationSequence] = None
    #: The loop was stopped by the caller's deadline or cancellation event
    #: (as opposed to exhausting the search space or the per-sketch limits).
    interrupted: bool = False
    #: The per-sketch bound that stopped the loop (``ITERATION_LIMIT`` or
    #: ``SKETCH_TIME_LIMIT``), if one did.
    limit: Optional[str] = None
    #: Set only when the search proved that no completion passes: the
    #: functions that proof depends on.  Every other function's holes were
    #: free throughout, so any sketch that agrees on these functions has no
    #: passing completion either.
    refuted: Optional[frozenset[str]] = None

    @property
    def succeeded(self) -> bool:
        return self.program is not None


class _Component:
    """Functions whose holes blocking clauses couple, and their variables."""

    __slots__ = ("functions", "variables", "fixed")

    def __init__(self, functions: list[str], variables: list[range]):
        self.functions = functions
        self.variables = variables
        #: Whether the solver holds this component's values fixed.
        self.fixed = False

    def literals(self, model: dict[int, bool]) -> list[Literal]:
        return [v if model[v] else -v for span in self.variables for v in span]


class ComponentSearch:
    """The SAT side of the completion loop: one hole assignment per call.

    The sketch's functions fall into *components*: functions share one once
    a blocking clause names holes of both.  Consistency constraints stay
    inside a function and learned clauses inside the component whose
    conflict produced them, so components share no clause and nothing
    propagates between them.  A component searched in one ``solve()`` whose
    activities did not move during it had no conflict there; the next call
    would decide it the same way and reach the same values, so it is fixed
    at them instead.  :meth:`block` releases and merges the components its
    clause names, so each call searches only those and the ones still
    having conflicts.  Every model equals the one a search of the whole
    sketch would return (EXPERIMENTS.md, "Completion-loop costs").
    """

    def __init__(self, encoding: SketchEncoding):
        self.encoding = encoding
        self.solver = SatSolver()
        self.solver.add_cnf(encoding.cnf)
        #: The running hole assignment; each call rewrites the holes it searched.
        self.assignment: dict[int, int] = {}
        self._component_of = {
            name: _Component([name], [variables])
            for name, variables in encoding.function_variables.items()
        }
        self._searched = list(self._component_of.values())
        #: Settled in the last call; fixed when the next one starts unless
        #: a blocking clause names them first.
        self._settled: list[_Component] = []
        self._model: dict[int, bool] = {}
        #: The activities as the last call found them.
        self._activity = list(self.solver.activity)

    def next_assignment(self) -> Optional[dict[int, int]]:
        """The hole assignment of the next model, or ``None`` once UNSAT.

        Returns the running assignment itself, valid until the next call.
        """
        solver = self.solver
        for component in self._settled:
            solver.fix(component.literals(self._model))
            component.fixed = True
        conflicts, activity = solver.stats.conflicts, solver.activity
        result = solver.solve()
        if result.status is not Status.SAT:
            return None
        model = self._model = result.model
        choice_of = self.encoding.choice_of
        assignment = self.assignment
        for variable, value in model.items():
            if value:
                choice = choice_of.get(variable)
                if choice is not None:
                    assignment[choice[0]] = choice[1]
        if solver.stats.conflicts == conflicts:
            # Only conflict analysis bumps activities.
            self._settled, self._searched = self._searched, []
        elif solver.activity is not activity:
            # A rescale replaced the activities: it counts as a bump everywhere.
            self._settled = []
            self._activity = list(solver.activity)
        else:
            before = self._activity
            self._settled, bumped = [], []
            for component in self._searched:
                moved = any(
                    activity[span.start : span.stop] != before[span.start : span.stop]
                    for span in component.variables
                )
                (bumped if moved else self._settled).append(component)
            self._searched = bumped
            self._activity = list(activity)
        return assignment

    def block(self, hole_indices: Sequence[int]) -> None:
        """Block the current assignment restricted to *hole_indices*.

        The components owning those holes are released and merged first, so
        the clause never touches a fixed variable.
        """
        holes = self.encoding.holes
        named = list(
            dict.fromkeys(self._component_of[holes[index].function] for index in hole_indices)
        )
        if named:
            for component in named:
                if component.fixed:
                    self.solver.release(v for span in component.variables for v in span)
                elif component in self._settled:
                    self._settled.remove(component)
                else:
                    self._searched.remove(component)
            merged = named[0]
            if len(named) > 1:
                merged = _Component(
                    [name for component in named for name in component.functions],
                    [span for component in named for span in component.variables],
                )
                for name in merged.functions:
                    self._component_of[name] = merged
            merged.fixed = False
            self._searched.append(merged)
        self.solver.add_clause(self.encoding.blocking_clause(self.assignment, hole_indices))


class SketchCompleter:
    """The ``CompleteSketch`` procedure."""

    #: Block only the holes of the functions a failing input calls.  The
    #: paper's *symbolic enumerative search* baseline (Table 3,
    #: :class:`~repro.completion.enumerative.EnumerativeCompleter`) turns it
    #: off: each failing candidate blocks only its own full model.
    use_mfi = True

    def __init__(
        self,
        source_program: Program,
        *,
        tester: BoundedTester | None = None,
        verifier: BoundedVerifier | None = None,
        consistency_constraints: bool = True,
        max_iterations: Optional[int] = None,
        time_limit: Optional[float] = None,
    ):
        self.source_program = source_program
        self.tester = tester or BoundedTester(source_program)
        self.verifier = verifier
        self.consistency_constraints = consistency_constraints
        self.max_iterations = max_iterations
        self.time_limit = time_limit

    # -------------------------------------------------------------------- run
    def complete(
        self,
        sketch: ProgramSketch,
        *,
        deadline: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
        on_reject: Optional[Callable[[int, Optional[InvocationSequence]], None]] = None,
    ) -> CompletionResult:
        """Complete one sketch.

        *deadline* is an absolute ``time.perf_counter()`` instant (the run's
        global budget, threaded down by the session); *cancel* is a
        cooperative cancellation event.  Both are checked once per candidate
        here and once per block of sequences inside the tester, so even a
        single long bounded-testing enumeration stops promptly.  *on_reject*
        is invoked with ``(iteration, counterexample)`` for every candidate
        that fails testing or verification.
        """
        stats = CompletionStatistics()
        started = time.perf_counter()
        encoder = SketchEncoder(sketch, consistency_constraints=self.consistency_constraints)
        search = ComponentSearch(encoder.encode())
        instantiator = MemoizedInstantiator(sketch)

        hole_sizes = {hole.index: hole.size for hole in sketch.holes()}
        all_hole_indices = list(hole_sizes)
        holes_by_function = {
            name: [hole.index for hole in holes]
            for name, holes in sketch.holes_by_function().items()
        }
        # The functions named by the failing inputs behind blocking clauses.
        refuted: set[str] = set()

        interrupted = make_interrupt_check(deadline, cancel)
        with interrupt_scope(self.tester, self.verifier, interrupted):
            while True:
                if self.max_iterations is not None and stats.iterations >= self.max_iterations:
                    return CompletionResult(None, stats, limit=ITERATION_LIMIT)
                if self.time_limit is not None and time.perf_counter() - started > self.time_limit:
                    return CompletionResult(None, stats, limit=SKETCH_TIME_LIMIT)
                if interrupted is not None and interrupted():
                    return CompletionResult(None, stats, interrupted=True)

                sat_started = time.perf_counter()
                assignment = search.next_assignment()
                stats.sat_time += time.perf_counter() - sat_started
                if assignment is None:
                    # UNSAT before any model: the consistency constraints
                    # alone conflict, in functions no clause names.
                    if not stats.iterations:
                        refuted = set(holes_by_function)
                    return CompletionResult(None, stats, refuted=frozenset(refuted))

                stats.iterations += 1
                candidate = instantiator.instantiate(assignment)

                test_started = time.perf_counter()
                try:
                    failing = self.tester.find_failing_input(candidate)
                except TestingInterrupted:
                    stats.test_time += time.perf_counter() - test_started
                    return CompletionResult(None, stats, interrupted=True)
                stats.test_time += time.perf_counter() - test_started

                if failing is None:
                    if self.verifier is not None:
                        verify_started = time.perf_counter()
                        try:
                            verdict = self.verifier.verify(self.source_program, candidate)
                        except TestingInterrupted:
                            # Verification cut short: the candidate is NOT
                            # accepted (its deep check never finished).
                            stats.verify_time += time.perf_counter() - verify_started
                            return CompletionResult(None, stats, interrupted=True)
                        stats.verify_time += time.perf_counter() - verify_started
                        if not verdict.equivalent:
                            failing = verdict.counterexample
                            # Verifier counterexamples live beyond the tester's
                            # bound; pooling them lets later candidates (of this
                            # and other sketches) die in screening instead of
                            # passing testing and paying for verification again.
                            if failing is not None and self.tester.pool is not None:
                                self.tester.pool.add(failing)
                    if failing is None:
                        return CompletionResult(candidate, stats)

                if on_reject is not None:
                    on_reject(stats.iterations, failing)
                stats.mfi_lengths.append(len(failing))
                blocked_holes, functions = self._holes_to_block(
                    failing, holes_by_function, all_hole_indices
                )
                refuted |= functions
                search.block(blocked_holes)
                stats.blocked_clauses += 1
                stats.eliminated_estimate += self._eliminated(hole_sizes, blocked_holes)

    # ---------------------------------------------------------------- helpers
    def _holes_to_block(
        self,
        failing: InvocationSequence,
        holes_by_function: dict[str, list[int]],
        all_holes: list[int],
    ) -> tuple[list[int], set[str]]:
        """The holes one blocking clause names, and the functions it depends on."""
        if self.use_mfi:
            functions = {name for name, _ in failing}
            blocked: list[int] = []
            for name in functions:
                blocked.extend(holes_by_function.get(name, ()))
            if blocked:
                return blocked, functions
        # If the failing functions contain no holes (fully determined), fall
        # back to blocking the complete model to guarantee progress.  The
        # clause then couples every function.
        return list(all_holes), set(holes_by_function)

    @staticmethod
    def _eliminated(hole_sizes: dict[int, int], blocked_holes: list[int]) -> int:
        """How many completions one blocking clause rules out (for reporting)."""
        blocked_set = set(blocked_holes)
        eliminated = 1
        for index, size in hole_sizes.items():
            if index not in blocked_set:
                eliminated *= size
        return eliminated
