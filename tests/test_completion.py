"""Tests for sketch encoding, instantiation, and the completion solvers."""

import pytest

from repro.baselines import BmcCompleter
from repro.completion import (
    EnumerativeCompleter,
    SketchCompleter,
    SketchEncoder,
    instantiate,
)
from repro.completion.instantiate import InstantiationError, MemoizedInstantiator
from repro.correspondence import ValueCorrespondenceEnumerator
from repro.equivalence import BoundedTester, BoundedVerifier
from repro.lang import Program, QueryFunction, UpdateFunction
from repro.lang.visitors import validate_program
from repro.sat.solver import SatSolver, Status
from repro.sketchgen import SketchGenerator


@pytest.fixture()
def running_example(course_program, course_target_schema):
    enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
    vc = enumerator.next_value_corr().correspondence
    sketch = SketchGenerator(course_program, course_target_schema).generate(vc)
    return course_program, course_target_schema, sketch


# ------------------------------------------------------------------------------- encoder
class TestEncoder:
    def test_exactly_one_variable_per_hole_position(self, running_example):
        _, _, sketch = running_example
        encoding = SketchEncoder(sketch, consistency_constraints=False).encode()
        total_positions = sum(hole.size for hole in sketch.holes())
        assert encoding.cnf.num_variables >= total_positions
        assert len(encoding.variable_of) == total_positions

    def test_every_model_assigns_every_hole(self, running_example):
        _, _, sketch = running_example
        encoding = SketchEncoder(sketch).encode()
        solver = SatSolver()
        solver.add_cnf(encoding.cnf)
        result = solver.solve()
        assert result.is_sat
        assignment = encoding.model_to_assignment(result.model)
        assert set(assignment) == {hole.index for hole in sketch.holes()}
        for hole in sketch.holes():
            assert 0 <= assignment[hole.index] < hole.size

    def test_blocking_clause_excludes_assignment(self, running_example):
        _, _, sketch = running_example
        encoding = SketchEncoder(sketch).encode()
        solver = SatSolver()
        solver.add_cnf(encoding.cnf)
        result = solver.solve()
        assignment = encoding.model_to_assignment(result.model)
        hole_indices = [hole.index for hole in sketch.holes()]
        solver.add_clause(encoding.blocking_clause(assignment, hole_indices))
        second = solver.solve()
        assert second.is_sat
        assert encoding.model_to_assignment(second.model) != assignment

    def test_consistency_constraints_reduce_models(self, running_example):
        _, _, sketch = running_example

        def count_models(consistency):
            encoding = SketchEncoder(sketch, consistency_constraints=consistency).encode()
            solver = SatSolver()
            solver.add_cnf(encoding.cnf)
            count = 0
            while count < 2000:
                result = solver.solve()
                if result.status is not Status.SAT:
                    break
                count += 1
                assignment = encoding.model_to_assignment(result.model)
                solver.add_clause(
                    encoding.blocking_clause(assignment, [h.index for h in sketch.holes()])
                )
            return count

        assert count_models(True) <= count_models(False)


# --------------------------------------------------------------------------- instantiate
class TestInstantiate:
    def test_default_assignment_produces_valid_program(self, running_example):
        source, target_schema, sketch = running_example
        assignment = {hole.index: 0 for hole in sketch.holes()}
        program = instantiate(sketch, assignment)
        assert isinstance(program, Program)
        assert set(program.function_names) == set(source.function_names)
        validate_program(program)

    def test_signatures_are_preserved(self, running_example):
        source, _, sketch = running_example
        assignment = {hole.index: 0 for hole in sketch.holes()}
        program = instantiate(sketch, assignment)
        for name in source.function_names:
            assert program.function(name).params == source.function(name).params

    def test_function_kinds_preserved(self, running_example):
        source, _, sketch = running_example
        assignment = {hole.index: 0 for hole in sketch.holes()}
        program = instantiate(sketch, assignment)
        for name in source.function_names:
            assert isinstance(
                program.function(name),
                QueryFunction if source.function(name).is_query else UpdateFunction,
            )

    def test_missing_hole_raises(self, running_example):
        """Both instantiation paths reject a partial assignment.

        The memoized path is checked after a memo hit for every function:
        a memo key must never fill a missing hole in.
        """
        _, _, sketch = running_example
        full = {hole.index: 0 for hole in sketch.holes()}
        paths = [
            lambda assignment: instantiate(sketch, assignment),
            MemoizedInstantiator(sketch).instantiate,
        ]
        for build in paths:
            build(full)
            build(full)
            with pytest.raises(InstantiationError):
                build({})
            for index in full:
                partial = {i: position for i, position in full.items() if i != index}
                with pytest.raises(InstantiationError, match=rf"\?\?{index}\b"):
                    build(partial)

    def test_memoized_programs_match_and_share_functions(self, running_example):
        _, _, sketch = running_example
        holes = sketch.holes()
        base = {hole.index: 0 for hole in holes}
        variable_hole = next(hole for hole in holes if hole.size > 1)
        variant = {**base, variable_hole.index: 1}
        memo = MemoizedInstantiator(sketch)
        from repro.lang.pretty import format_program

        first, second = memo.instantiate(base), memo.instantiate(variant)
        assert format_program(first) == format_program(instantiate(sketch, base))
        assert format_program(second) == format_program(instantiate(sketch, variant))
        for name in first.function_names:
            shared = first.function(name) is second.function(name)
            assert shared == (name != variable_hole.function)

    def test_different_assignments_yield_different_programs(self, running_example):
        _, _, sketch = running_example
        holes = sketch.holes()
        base = {hole.index: 0 for hole in holes}
        variant = dict(base)
        variable_hole = next(hole for hole in holes if hole.size > 1)
        variant[variable_hole.index] = 1
        from repro.lang.pretty import format_program

        assert format_program(instantiate(sketch, base)) != format_program(
            instantiate(sketch, variant)
        )


# ----------------------------------------------------------------------------- completers
class TestSketchCompleter:
    def test_running_example_completes(self, running_example):
        source, _, sketch = running_example
        completer = SketchCompleter(source, verifier=BoundedVerifier(random_sequences=50))
        result = completer.complete(sketch)
        assert result.succeeded
        assert result.statistics.iterations >= 1
        # the synthesized program is equivalent up to the testing bound
        assert BoundedTester(source, max_updates=2).check_equivalent(result.program)

    def test_mfi_blocking_is_no_slower_than_enumerative(self, running_example):
        source, _, sketch = running_example
        mfi = SketchCompleter(source).complete(sketch)
        enumerative = EnumerativeCompleter(source, max_iterations=2000).complete(sketch)
        assert mfi.succeeded
        if enumerative.succeeded:
            assert mfi.statistics.iterations <= enumerative.statistics.iterations

    def test_iteration_cap_reports_failure(self, running_example):
        source, _, sketch = running_example
        completer = SketchCompleter(source, max_iterations=0)
        result = completer.complete(sketch)
        assert not result.succeeded

    def test_time_limit_reports_failure(self, running_example):
        source, _, sketch = running_example
        completer = SketchCompleter(source, time_limit=0.0)
        result = completer.complete(sketch)
        assert not result.succeeded

    def test_bmc_completer_on_running_example(self, running_example):
        source, _, sketch = running_example
        completer = BmcCompleter(source, time_limit=120.0)
        result = completer.complete(sketch)
        assert result.succeeded
        assert BoundedTester(source).check_equivalent(result.program)
        assert result.statistics.sequences_encoded > 0

    def test_eliminated_estimate_counts_pruned_programs(self, running_example):
        source, _, sketch = running_example
        completer = SketchCompleter(source)
        result = completer.complete(sketch)
        if result.statistics.blocked_clauses:
            assert result.statistics.eliminated_estimate >= result.statistics.blocked_clauses
