"""Tests for sketch encoding, instantiation, and the completion solvers."""

import dataclasses
import itertools
import math
import os
import random
import threading

import pytest

from repro.baselines import BmcCompleter
from repro.completion import (
    EnumerativeCompleter,
    SketchCompleter,
    SketchEncoder,
    SketchEncoding,
    instantiate,
)
from repro.completion.instantiate import InstantiationError, MemoizedInstantiator
from repro.completion.solver import ITERATION_LIMIT, SKETCH_TIME_LIMIT, ComponentSearch
from repro.correspondence import ValueCorrespondenceEnumerator
from repro.equivalence import BoundedTester, BoundedVerifier
from repro.lang import Program, QueryFunction, UpdateFunction
from repro.lang.visitors import validate_program
from repro.sat import CNF, exactly_one
from repro.sat.solver import SatSolver, Status
from repro.sketchgen import Hole, SketchGenerator, UpdateFunctionSketch
from repro.workloads import get_benchmark, rename_variants

FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"


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

    def test_model_missing_a_hole_raises(self, running_example):
        """A partial model is an error, never a candidate with a made-up position."""
        _, _, sketch = running_example
        encoding = SketchEncoder(sketch).encode()
        model = SatSolver(encoding.cnf).solve().model
        for hole in sketch.holes():
            partial = {
                variable: value
                for variable, value in model.items()
                if encoding.choice_of.get(variable, (None,))[0] != hole.index
            }
            with pytest.raises(InstantiationError, match=rf"\?\?{hole.index}\b"):
                encoding.model_to_assignment(partial)

    def test_function_variables_are_contiguous_and_cover_the_holes(self, running_example):
        _, _, sketch = running_example
        encoding = SketchEncoder(sketch).encode()
        spans = sorted(encoding.function_variables.values(), key=lambda span: span.start)
        assert spans[0].start == 1 and spans[-1].stop == encoding.cnf.num_variables + 1
        assert all(left.stop == right.start for left, right in zip(spans, spans[1:]))
        for (hole_index, _), variable in encoding.variable_of.items():
            assert variable in encoding.function_variables[encoding.holes[hole_index].function]

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
        assert (result.limit, result.refuted) == (ITERATION_LIMIT, None)

    def test_time_limit_reports_failure(self, running_example):
        source, _, sketch = running_example
        completer = SketchCompleter(source, time_limit=0.0)
        result = completer.complete(sketch)
        assert not result.succeeded
        assert (result.limit, result.refuted) == (SKETCH_TIME_LIMIT, None)

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


# ------------------------------------------------------------------------ refutation
class _FixedTester:
    """Fails every candidate, with *inputs* in turn and then the last one forever."""

    pool = None
    interrupt = None

    def __init__(self, *inputs):
        self.inputs = list(inputs)

    def find_failing_input(self, candidate):
        return self.inputs.pop(0) if len(self.inputs) > 1 else self.inputs[0]


def _call(*names) -> tuple:
    return tuple((name, ()) for name in names)


class TestRefuted:
    """``CompletionResult.refuted``: the functions a proven UNSAT depends on."""

    @pytest.fixture()
    def holeless(self, running_example):
        """The running example with ``deleteTA`` emptied: a function with no holes."""
        source, _, sketch = running_example
        functions = [
            UpdateFunctionSketch(fs.source, []) if fs.name == "deleteTA" else fs
            for fs in sketch.functions
        ]
        sketch = dataclasses.replace(sketch, functions=functions)
        assert sketch.holes_by_function()["deleteTA"] == []
        return source, sketch

    def test_names_every_function_of_the_failing_inputs(self, holeless):
        source, sketch = holeless
        tester = _FixedTester(_call("getTAInfo", "deleteTA"))
        result = SketchCompleter(source, tester=tester).complete(sketch)
        assert not result.succeeded and result.limit is None
        assert result.statistics.iterations >= 1
        assert result.refuted == {"getTAInfo", "deleteTA"}

    def test_is_every_function_when_unsat_before_the_first_model(self, running_example, monkeypatch):
        source, _, sketch = running_example

        class Contradictory(SketchEncoder):
            def encode(self):
                encoding = super().encode()
                encoding.cnf.add_clause([1])
                encoding.cnf.add_clause([-1])
                return encoding

        monkeypatch.setattr("repro.completion.solver.SketchEncoder", Contradictory)
        result = SketchCompleter(source, tester=_FixedTester(_call("getTAInfo"))).complete(sketch)
        assert result.statistics.iterations == 0
        assert result.refuted == set(sketch.holes_by_function())

    def test_is_every_function_after_a_full_model_fallback(self, holeless):
        source, sketch = holeless
        # The first input names only the hole-less function, so its clause
        # blocks the whole model; the later ones name getTAInfo.
        tester = _FixedTester(_call("deleteTA"), _call("getTAInfo"))
        result = SketchCompleter(source, tester=tester).complete(sketch)
        assert result.refuted == set(sketch.holes_by_function())
        # The enumerative baseline blocks every model whole, so on a sketch of
        # two functions it refutes both, though the inputs name one.
        pair = dataclasses.replace(
            sketch, functions=[fs for fs in sketch.functions if fs.name in ("getTAInfo", "deleteTA")]
        )
        for completer, refuted in (
            (SketchCompleter, {"getTAInfo"}),
            (EnumerativeCompleter, {"getTAInfo", "deleteTA"}),
        ):
            result = completer(source, tester=_FixedTester(_call("getTAInfo"))).complete(pair)
            assert result.refuted == refuted

    def test_is_none_when_a_limit_or_an_interrupt_stops_the_search(self, running_example):
        """Blocking clauses were added, but no UNSAT was reached: nothing is refuted.

        (``TestSketchCompleter`` checks the caps before any iteration.)
        """
        source, _, sketch = running_example
        tester = _FixedTester(_call("getTAInfo"))
        capped = SketchCompleter(source, tester=tester, max_iterations=1).complete(sketch)
        assert capped.statistics.blocked_clauses == 1
        assert (capped.limit, capped.refuted) == (ITERATION_LIMIT, None)
        cancel = threading.Event()
        cancel.set()
        stopped = SketchCompleter(source, tester=tester).complete(sketch, cancel=cancel)
        assert stopped.interrupted and (stopped.limit, stopped.refuted) == (None, None)
        bmc = BmcCompleter(source, time_limit=0.0).complete(sketch)
        assert (bmc.limit, bmc.refuted) == (SKETCH_TIME_LIMIT, None)


# ------------------------------------------------------------------- component search
#: Synthetic seeds on which settling a component that had a conflict in the
#: call (the bump check removed) changes a later model.  Of the full range,
#: 54 of 2,000 diverge that way, and on the real sketches Ambler-5 with
#: seed 10; the exact rule matches the whole-sketch loop on every seed.
SETTLING_SEEDS = [0, 27, 38, 68, 69, 81, 105, 135, 171, 221]
SYNTHETIC_SEEDS = range(2000) if FULL_EQUIV else [*SETTLING_SEEDS, 1, 2, 3, 4, 5]
SKETCH_SEEDS = range(12) if FULL_EQUIV else [0, 10]


def _failing_input(rng: random.Random, names: list[str]) -> tuple:
    """A failing input calling 1–3 of *names*, as the tester would report it."""
    chosen = rng.sample(names, rng.randint(1, min(3, len(names))))
    return tuple((name, ()) for name in chosen)


def _blocked_holes(failing, holes_by_function, all_holes) -> list[int]:
    """The holes ``SketchCompleter`` blocks for *failing* (MFI, with the fallback)."""
    functions = {name for name, _ in failing}
    return [index for name in functions for index in holes_by_function.get(name, ())] or list(
        all_holes
    )


def _synthetic_encoding(seed: int) -> SketchEncoding:
    """3–6 functions of 1–3 exactly-one holes, with pairwise exclusions inside each."""
    rng = random.Random(seed)
    cnf = CNF()
    holes, variable_of, choice_of, function_variables = {}, {}, {}, {}
    density = rng.choice((0.2, 0.35, 0.5))
    for number in range(rng.randint(3, 6)):
        name = f"f{number}"
        first = cnf.num_variables + 1
        groups = []
        for _ in range(rng.randint(1, 3)):
            index = len(holes) + 1
            size = rng.randint(2, 8)
            holes[index] = Hole(index, name, tuple(range(size)))
            literals = [cnf.new_variable() for _ in range(size)]
            for position, variable in enumerate(literals):
                variable_of[(index, position)] = variable
                choice_of[variable] = (index, position)
            exactly_one(cnf, literals)
            groups.append(literals)
        for left, right in itertools.combinations(groups, 2):
            for x in left:
                for y in right:
                    if rng.random() < density:
                        cnf.add_clause([-x, -y])
        function_variables[name] = range(first, cnf.num_variables + 1)
    return SketchEncoding(cnf, variable_of, choice_of, holes, function_variables)


def _open_functions(sketch) -> list[str]:
    """The functions with more than one completion: failing inputs name these.

    Naming a function with one completion blocks it for good, so drawing
    from every function would end most runs UNSAT within a few models.
    """
    return [
        name
        for name, holes in sketch.holes_by_function().items()
        if math.prod(hole.size for hole in holes) > 1
    ]


def _first_sketch(name: str, variant=None):
    benchmark = get_benchmark(name)
    source, target = benchmark.source_program, benchmark.target_schema
    if variant is not None:
        target = rename_variants(target, variant + 1)[variant]
    vc = ValueCorrespondenceEnumerator(source, target).next_value_corr().correspondence
    return source, SketchGenerator(source, target).generate(vc)


class _ScriptedTester:
    """Fails every candidate with an input drawn from a seeded RNG."""

    pool = None
    interrupt = None

    def __init__(self, names: list[str], seed: int):
        self.names = names
        self.rng = random.Random(seed)

    def find_failing_input(self, candidate):
        return _failing_input(self.rng, self.names)


def _whole_sketch_loop(sketch, seed: int, max_iterations: int):
    """The completion loop before components: every call searches every hole."""
    encoding = SketchEncoder(sketch).encode()
    solver = SatSolver(encoding.cnf)
    tester = _ScriptedTester(_open_functions(sketch), seed)
    holes_by_function = {
        name: [hole.index for hole in holes] for name, holes in sketch.holes_by_function().items()
    }
    all_holes = [hole.index for hole in sketch.holes()]
    assignments = []
    while len(assignments) < max_iterations:
        result = solver.solve()
        if result.status is not Status.SAT:
            return assignments, "unsat"
        assignment = encoding.model_to_assignment(result.model)
        assignments.append(assignment)
        failing = tester.find_failing_input(None)
        blocked = _blocked_holes(failing, holes_by_function, all_holes)
        solver.add_clause(encoding.blocking_clause(assignment, blocked))
    return assignments, "capped"


class TestComponentSearch:
    """The component-aware loop returns the whole-sketch loop's every model.

    Real sketches run through ``SketchCompleter`` with a scripted tester;
    synthetic encodings drive its :class:`ComponentSearch` in lock-step with
    a plain solver.  A tier-1 run checks a slice of the seeds (including
    every named settling seed); ``REPRO_FULL_EQUIV=1`` checks all of them.
    """

    @pytest.fixture(scope="class")
    def sketches(self):
        return {
            "gallery": _first_sketch("gallery"),
            "cdx/r0": _first_sketch("cdx", 0),
            "Ambler-5": _first_sketch("Ambler-5"),
        }

    @pytest.mark.parametrize("seed", SKETCH_SEEDS)
    @pytest.mark.parametrize("job", ["gallery", "cdx/r0", "Ambler-5"])
    def test_sketch_matches_whole_sketch_loop(self, sketches, job, seed, monkeypatch):
        source, sketch = sketches[job]
        max_iterations = 300 if FULL_EQUIV else 120
        recorded = []

        class Recording(MemoizedInstantiator):
            def instantiate(self, assignment):
                recorded.append(dict(assignment))
                return super().instantiate(assignment)

        monkeypatch.setattr("repro.completion.solver.MemoizedInstantiator", Recording)
        tester = _ScriptedTester(_open_functions(sketch), seed)
        result = SketchCompleter(source, tester=tester, max_iterations=max_iterations).complete(
            sketch
        )
        end = "capped" if result.statistics.iterations == max_iterations else "unsat"
        assert not result.succeeded and result.statistics.iterations == len(recorded)
        expected, expected_end = _whole_sketch_loop(sketch, seed, max_iterations)
        assert (recorded, end) == (expected, expected_end)

    @pytest.mark.parametrize("seed", SYNTHETIC_SEEDS)
    def test_synthetic_matches_whole_sketch_loop(self, seed):
        _lock_step(seed)

    @pytest.mark.parametrize("seed", [0, 27, 81])
    def test_models_match_across_an_activity_rescale(self, seed):
        # Starting the increment near the threshold rescales at the first bumps.
        assert _lock_step(seed, var_inc=1e99) < 1e99


def _lock_step(seed: int, var_inc=None) -> float:
    """Run a synthetic encoding through both loops, asserting equal models.

    Returns the component search's final activity increment.
    """
    encoding = _synthetic_encoding(seed)
    rng = random.Random(seed * 7919 + 1)
    names = sorted(encoding.function_variables)
    holes_by_function: dict[str, list[int]] = {}
    for index, hole in encoding.holes.items():
        holes_by_function.setdefault(hole.function, []).append(index)
    reference = SatSolver(encoding.cnf)
    search = ComponentSearch(encoding)
    if var_inc is not None:
        reference._var_inc = search.solver._var_inc = var_inc
    for _ in range(200):
        result = reference.solve()
        assignment = search.next_assignment()
        if not result.is_sat:
            assert assignment is None
            break
        expected = encoding.model_to_assignment(result.model)
        assert assignment == expected
        blocked = _blocked_holes(_failing_input(rng, names), holes_by_function, ())
        reference.add_clause(encoding.blocking_clause(expected, blocked))
        search.block(blocked)
    return search.solver._var_inc
