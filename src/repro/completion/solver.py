"""Sketch completion (Algorithm 2 of the paper).

The completer encodes the sketch as a SAT formula, repeatedly asks the SAT
solver for a model, instantiates the corresponding candidate program, and
tests it against the source program.  When the candidate is not equivalent,
the minimum failing input (MFI) identifies the functions responsible, and a
blocking clause over *only the holes of those functions* prunes every other
completion that fails for the same reason.

When the tester carries a cross-sketch counterexample pool (see
:mod:`repro.testing_cache`), candidates are first screened against pooled
failing inputs and only reach the full bounded enumeration when screening
cannot kill them; verifier counterexamples are fed back into the pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class CompletionResult:
    """Outcome of completing one sketch."""

    program: Optional[Program]
    statistics: CompletionStatistics
    last_failing_input: Optional[InvocationSequence] = None
    #: The loop was stopped by the caller's deadline or cancellation event
    #: (as opposed to exhausting the search space or the per-sketch limits).
    interrupted: bool = False

    @property
    def succeeded(self) -> bool:
        return self.program is not None


class SketchCompleter:
    """The ``CompleteSketch`` procedure.

    ``use_mfi=False`` turns the completer into the paper's *symbolic
    enumerative search* baseline (Table 3): each failing candidate blocks only
    its own full model.
    """

    def __init__(
        self,
        source_program: Program,
        *,
        tester: BoundedTester | None = None,
        verifier: BoundedVerifier | None = None,
        use_mfi: bool = True,
        consistency_constraints: bool = True,
        max_iterations: Optional[int] = None,
        time_limit: Optional[float] = None,
    ):
        self.source_program = source_program
        self.tester = tester or BoundedTester(source_program)
        self.verifier = verifier
        self.use_mfi = use_mfi
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
        here and once per executed sequence inside the tester, so even a
        single long bounded-testing enumeration stops promptly.  *on_reject*
        is invoked with ``(iteration, counterexample)`` for every candidate
        that fails testing or verification.
        """
        stats = CompletionStatistics()
        started = time.perf_counter()
        encoder = SketchEncoder(sketch, consistency_constraints=self.consistency_constraints)
        encoding = encoder.encode()
        solver = SatSolver()
        solver.add_cnf(encoding.cnf)
        instantiator = MemoizedInstantiator(sketch)

        hole_sizes = {hole.index: hole.size for hole in sketch.holes()}
        all_hole_indices = list(hole_sizes)
        holes_by_function = {
            name: [hole.index for hole in holes]
            for name, holes in sketch.holes_by_function().items()
        }

        interrupted = make_interrupt_check(deadline, cancel)
        with interrupt_scope(self.tester, self.verifier, interrupted):
            while True:
                if self.max_iterations is not None and stats.iterations >= self.max_iterations:
                    return CompletionResult(None, stats)
                if self.time_limit is not None and time.perf_counter() - started > self.time_limit:
                    return CompletionResult(None, stats)
                if interrupted is not None and interrupted():
                    return CompletionResult(None, stats, interrupted=True)

                sat_started = time.perf_counter()
                result = solver.solve()
                stats.sat_time += time.perf_counter() - sat_started
                if result.status is not Status.SAT:
                    return CompletionResult(None, stats)

                stats.iterations += 1
                assert result.model is not None
                assignment = encoding.model_to_assignment(result.model)
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
                blocked_holes = self._holes_to_block(failing, holes_by_function, all_hole_indices)
                clause = encoding.blocking_clause(assignment, blocked_holes)
                solver.add_clause(clause)
                stats.blocked_clauses += 1
                stats.eliminated_estimate += self._eliminated(hole_sizes, blocked_holes)

    # ---------------------------------------------------------------- helpers
    def _holes_to_block(
        self,
        failing: InvocationSequence,
        holes_by_function: dict[str, list[int]],
        all_holes: list[int],
    ) -> list[int]:
        if not self.use_mfi:
            return list(all_holes)
        functions = {name for name, _ in failing}
        blocked: list[int] = []
        for name in functions:
            blocked.extend(holes_by_function.get(name, ()))
        # If the failing functions contain no holes (fully determined), fall
        # back to blocking the complete model to guarantee progress.
        return blocked or list(all_holes)

    @staticmethod
    def _eliminated(hole_sizes: dict[int, int], blocked_holes: list[int]) -> int:
        """How many completions one blocking clause rules out (for reporting)."""
        blocked_set = set(blocked_holes)
        eliminated = 1
        for index, size in hole_sizes.items():
            if index not in blocked_set:
                eliminated *= size
        return eliminated
