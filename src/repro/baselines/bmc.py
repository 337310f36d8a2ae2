"""The Sketch-style CEGIS / bounded-model-checking baseline (Table 2).

The paper compares Migrator against the Sketch synthesizer, for which the
authors encoded SQL semantics in C and let Sketch perform CEGIS over a
monolithic symbolic encoding.  Sketch itself is unavailable here, so this
module reproduces the *approach*: instead of testing one candidate at a time
and learning from minimum failing inputs, the baseline unrolls the bounded
semantics of the whole sketch over the bounded test-input space into a single
SAT problem and solves it monolithically.

Concretely, for every invocation sequence in the bounded test space and for
every joint assignment of the holes of the functions appearing in that
sequence, the candidate's behaviour is evaluated with the concrete execution
engine; joint assignments whose behaviour differs from the source program
contribute blocking clauses.  One SAT call then yields a completion that is
correct on the entire bounded input space (exactly the guarantee Sketch's
bounded model checking provides), which is finally re-checked by testing.

The encoding size is the sum over sequences of the product of the involved
functions' hole-space sizes — the same multiplicative blow-up that makes the
real Sketch encoding intractable on the larger benchmarks, which is the
behaviour Table 2 reports (timeouts on all real-world benchmarks).

Candidate evaluation goes through the shared tester, so it runs on the
configured execution backend; with the compiled backend the per-function
compilation cache (keyed by the immutable function ASTs that
``MemoizedInstantiator`` shares across the assignment product space) means
each distinct hole assignment of a function is compiled once per sketch, not
once per joint combination.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.completion.encoder import SketchEncoder
from repro.completion.instantiate import MemoizedInstantiator
from repro.completion.solver import (
    ITERATION_LIMIT,
    SKETCH_TIME_LIMIT,
    CompletionResult,
    CompletionStatistics,
)
from repro.equivalence.invocation import InvocationSequence, SequenceGenerator, SeedSet
from repro.equivalence.tester import (
    BoundedTester,
    TestingInterrupted,
    interrupt_scope,
    make_interrupt_check,
)
from repro.lang.ast import Program
from repro.sat.solver import SatSolver, Status
from repro.sketchgen.sketch_ast import ProgramSketch


class BmcTimeout(Exception):
    """Raised internally when the per-sketch time budget is exhausted."""


@dataclass
class BmcStatistics(CompletionStatistics):
    """Extends the completion counters with encoding-size counters."""

    sequences_encoded: int = 0
    combinations_evaluated: int = 0
    blocking_clauses: int = 0


class BmcCompleter:
    """Monolithic CEGIS-style sketch completion (the Sketch baseline)."""

    def __init__(
        self,
        source_program: Program,
        *,
        tester: BoundedTester | None = None,
        verifier=None,
        consistency_constraints: bool = True,
        max_iterations: Optional[int] = None,
        time_limit: Optional[float] = 120.0,
        max_combinations_per_sequence: int = 200000,
    ):
        self.source_program = source_program
        self.tester = tester or BoundedTester(source_program)
        self.verifier = verifier
        self.consistency_constraints = consistency_constraints
        self.max_iterations = max_iterations
        self.time_limit = time_limit
        self.max_combinations_per_sequence = max_combinations_per_sequence

    # -------------------------------------------------------------------- run
    def complete(
        self,
        sketch: ProgramSketch,
        *,
        deadline: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
        on_reject: Optional[Callable[[int, Optional[InvocationSequence]], None]] = None,
    ) -> CompletionResult:
        """Complete one sketch (same session interface as ``SketchCompleter``).

        The caller's *deadline* / *cancel* are folded into the baseline's own
        time-budget check, which already guards both the monolithic encoding
        and the CEGIS loop.
        """
        stats = BmcStatistics()
        started = time.perf_counter()
        encoder = SketchEncoder(sketch, consistency_constraints=self.consistency_constraints)
        encoding = encoder.encode()
        solver = SatSolver()
        solver.add_cnf(encoding.cnf)

        holes_by_function = {
            name: holes for name, holes in sketch.holes_by_function().items()
        }
        # The monolithic unrolling instantiates one candidate per joint hole
        # assignment; memoized per-function instantiation shares the (immutable)
        # function ASTs across that product space.
        instantiator = MemoizedInstantiator(sketch)

        interrupted = make_interrupt_check(deadline, cancel)

        def check_time() -> None:
            if self.time_limit is not None and time.perf_counter() - started > self.time_limit:
                raise BmcTimeout()
            if interrupted is not None and interrupted():
                raise TestingInterrupted()

        with interrupt_scope(self.tester, self.verifier, interrupted):
            try:
                self._encode_bounded_semantics(
                    sketch, encoding, solver, holes_by_function, instantiator, stats, check_time
                )
            except BmcTimeout:
                return CompletionResult(None, stats, limit=SKETCH_TIME_LIMIT)
            except TestingInterrupted:
                return CompletionResult(None, stats, interrupted=True)

            # CEGIS outer loop: the monolithic encoding covers the bounded input
            # space; any surviving model is re-validated by the tester and, if a
            # deeper counterexample is found, its model is blocked and we repeat.
            while True:
                if self.max_iterations is not None and stats.iterations >= self.max_iterations:
                    return CompletionResult(None, stats, limit=ITERATION_LIMIT)
                try:
                    check_time()
                except BmcTimeout:
                    return CompletionResult(None, stats, limit=SKETCH_TIME_LIMIT)
                except TestingInterrupted:
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
                if failing is None and self.verifier is not None:
                    try:
                        verdict = self.verifier.verify(self.source_program, candidate)
                    except TestingInterrupted:
                        # Verification cut short: the candidate is NOT
                        # accepted (its deep check never finished).
                        return CompletionResult(None, stats, interrupted=True)
                    if not verdict.equivalent:
                        failing = verdict.counterexample
                        # Pool deep counterexamples exactly like the MFI completer
                        # so screening also accelerates the baseline runs.
                        if failing is not None and self.tester.pool is not None:
                            self.tester.pool.add(failing)
                if failing is None:
                    return CompletionResult(candidate, stats)
                if on_reject is not None:
                    on_reject(stats.iterations, failing)
                # Block the complete model (plain CEGIS, no MFI learning).
                clause = encoding.blocking_clause(assignment, list(assignment))
                solver.add_clause(clause)
                stats.blocked_clauses += 1

    # --------------------------------------------------------------- encoding
    def _encode_bounded_semantics(
        self,
        sketch: ProgramSketch,
        encoding,
        solver: SatSolver,
        holes_by_function: dict,
        instantiator: MemoizedInstantiator,
        stats: BmcStatistics,
        check_time,
    ) -> None:
        """Unroll the sketch semantics over the bounded test-input space."""
        generator = SequenceGenerator(
            programs=[self.source_program],
            seeds=self.tester.seeds,
            max_updates=self.tester.max_updates,
            relevance_filter=self.tester.relevance_filter,
        )
        for sequence in generator.sequences():
            check_time()
            stats.sequences_encoded += 1
            functions = list(dict.fromkeys(name for name, _ in sequence))
            holes = []
            for name in functions:
                holes.extend(holes_by_function.get(name, ()))
            if not holes:
                continue
            domains = [range(hole.size) for hole in holes]
            combinations = 1
            for hole in holes:
                combinations *= hole.size
            if combinations > self.max_combinations_per_sequence:
                # The monolithic encoding for this sequence alone is too large;
                # the real Sketch encoding would be as well.  Give up (timeout).
                raise BmcTimeout()
            for combo in itertools.product(*domains):
                check_time()
                stats.combinations_evaluated += 1
                partial = {hole.index: position for hole, position in zip(holes, combo)}
                assignment = dict(partial)
                for hole in sketch.holes():
                    assignment.setdefault(hole.index, 0)
                candidate = instantiator.instantiate(assignment)
                if self.tester.differs_on(candidate, sequence):
                    clause = encoding.blocking_clause(partial, list(partial))
                    solver.add_clause(clause)
                    stats.blocking_clauses += 1
