"""Differential tests: the compiled backend must match the interpreter.

The compiled execution backend (repro.engine.compiler) is only usable by the
equivalence layer if it is *output*- and *error*-equivalent to the tree-walk
interpreter — a divergence would make the tester's verdicts depend on the
``execution_backend`` knob.  These tests pin that contract:

* every registered workload, executed on enumerated and random invocation
  sequences, produces identical outputs under both backends;
* a hypothesis property drives randomized sequences through randomly chosen
  workloads;
* hand-built ill-formed programs (the error modes PR 1's semantics work
  pinned for the interpreter) raise the same exception classes, including
  the lazy per-row errors that must *not* fire on empty tables;
* the slotted data layer (`Row`, `JoinedRow`, `CRow`) rejects dynamic
  attributes, and the cached-column insert fast path keeps the public
  ``DatabaseInstance.insert`` behaviour;
* end-to-end synthesis under the compiled backend follows the
  interpreter's exact trajectory (all 20 workloads under
  ``REPRO_FULL_EQUIV=1``, a multi-iteration slice every run).
"""

from __future__ import annotations

import dataclasses
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Synthesizer
from repro.core.config import SynthesisConfig
from repro.datamodel import DataType as T, DatabaseInstance, make_schema
from repro.datamodel.instance import InstanceError, Row
from repro.engine import (
    EXECUTION_BACKENDS,
    CRow,
    JoinedRow,
    ProgramCompiler,
    compile_program,
    make_loader,
    run_invocation_sequence,
)
from repro.engine.joins import ExecutionError
from repro.engine.interpreter import InvocationError
from repro.equivalence.invocation import SeedSet, SequenceGenerator
from repro.equivalence.tester import BoundedTester
from repro.lang.ast import UpdateFunction
from repro.lang.builder import (
    ProgramBuilder,
    delete,
    eq,
    in_query,
    insert,
    join,
    select,
    update,
)
from repro.testing_cache import CounterexamplePool
from repro.workloads.registry import load_all

FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"


def both_outcomes(program, sequence):
    """(kind, payload) pairs for the interpreter and the compiled backend.

    Outputs compare exactly (not canonicalized): the backends must agree on
    row order and UID allocation, not merely up to renaming.
    """

    def run(runner):
        try:
            return ("ok", runner())
        except Exception as error:  # noqa: BLE001 - the class is the assertion
            return ("err", type(error))

    interp = run(lambda: run_invocation_sequence(program, sequence))
    compiled = run(lambda: compile_program(program).run_sequence(sequence))
    return interp, compiled


def assert_equivalent(program, sequence):
    interp, compiled = both_outcomes(program, sequence)
    assert interp == compiled, (
        f"backends diverge on {sequence}: interpreter={interp} compiled={compiled}"
    )


# ----------------------------------------------------------------- workloads
WORKLOADS = load_all().names()


@pytest.mark.parametrize("name", WORKLOADS)
def test_differential_enumerated_sequences(name):
    """Enumerated bounded-tester sequences agree exactly on every workload."""
    program = load_all().get(name).source_program
    compiled = compile_program(program)
    generator = SequenceGenerator(programs=[program])
    checked = 0
    for sequence in itertools.islice(generator.sequences(), 80):
        checked += 1
        assert run_invocation_sequence(program, sequence) == compiled.run_sequence(sequence)
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_differential_random_sequences(name, seed):
    """Property: random sequences from the registry agree under both backends."""
    import random

    program = load_all().get(name).source_program
    generator = SequenceGenerator(programs=[program])
    rng = random.Random(seed)
    for sequence in generator.random_sequences(3, 5, rng):
        assert_equivalent(program, sequence)


#: Sources whose writes cover appends, updates, deletes and insert-into-join.
KEY_WORKLOADS = WORKLOADS if FULL_EQUIV else ["Ambler-3", "Oracle-2", "coachup", "2030Club"]


def _key_from_rows(state) -> tuple:
    """``CompiledState.key`` rebuilt from the rows, without the per-table cache."""
    return tuple(tuple(row.vals for row in rows) for rows in state.tables), state.uids.count


@pytest.mark.parametrize("name", KEY_WORKLOADS)
def test_forked_keys_match_keys_built_from_rows(name):
    """Fork, then call, along tester sequences, as the tester's state graph steps.

    At every prefix the child's cached key equals one built from its rows,
    and the parent's key never moves: forks share rows and cached table
    keys, so a write that leaked into the parent, or a table key left
    stale, shows here.
    """
    import random

    program = load_all().get(name).source_program
    compiled = compile_program(program)
    rng = random.Random(0)
    generator = SequenceGenerator(programs=[program], seeds=SeedSet.exhaustive(), max_updates=3)
    enumerated = list(itertools.islice(generator.sequences(), 2000))
    sequences = rng.sample(enumerated, min(40, len(enumerated)))
    sequences += generator.random_sequences(40, 6, rng)
    for sequence in sequences:
        state = compiled.new_state()
        for function, args in sequence:
            key = state.key()
            assert key == _key_from_rows(state)
            child = state.fork()
            compiled.call(child, function, args)
            assert child.key() == _key_from_rows(child)
            assert state.key() == key == _key_from_rows(state)
            state = child


# ------------------------------------------------------------ error semantics
@pytest.fixture()
def two_table_schema():
    return make_schema(
        "s",
        {
            "A": {"id": T.INT, "x": T.STRING},
            "B": {"id": T.INT, "y": T.STRING},
        },
    )


class TestErrorEquivalence:
    def test_self_join_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [], select(["A.id"], join(["A", "A"]), None))
        program = pb.build(validate=False)
        interp, compiled = both_outcomes(program, [("q", ())])
        assert interp == compiled == ("err", ExecutionError)

    def test_condition_over_foreign_table_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [], select(["A.id"], join(["A"], on=[("A.id", "B.id")]), None))
        program = pb.build(validate=False)
        interp, compiled = both_outcomes(program, [("q", ())])
        assert interp == compiled == ("err", ExecutionError)

    def test_delete_target_outside_chain(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("d", [], delete(["B"], "A", None))
        program = pb.build(validate=False)
        assert_equivalent(program, [("add", (1,)), ("d", ())])

    def test_update_attribute_outside_chain(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("u", [], update("A", None, "B.y", "z"))
        program = pb.build(validate=False)
        assert_equivalent(program, [("add", (1,)), ("u", ())])

    def test_predicate_attribute_error_is_lazy(self, two_table_schema):
        """The interpreter only raises per row; empty tables stay silent."""
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query("q", [], select(["A.id"], "A", eq("B.y", "z")))
        program = pb.build(validate=False)
        empty, empty_c = both_outcomes(program, [("q", ())])
        assert empty == empty_c == ("ok", [[]])
        populated, populated_c = both_outcomes(program, [("add", (1,)), ("q", ())])
        assert populated == populated_c == ("err", ExecutionError)

    def test_join_condition_bad_column_is_lazy(self, two_table_schema):
        """A bad column in a join condition raises only when pairs exist."""
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("b", [("i", "int")], insert("B", {"B.id": "$i"}))
        pb.query("q", [], select(["A.id"], join(["A", "B"], on=[("A.nope", "B.id")]), None))
        program = pb.build(validate=False)
        for sequence in (
            [("q", ())],
            [("a", (1,)), ("q", ())],  # one side empty: no pairs, no error
            [("a", (1,)), ("b", (1,)), ("q", ())],
        ):
            assert_equivalent(program, sequence)

    def test_unknown_table_error_ordering(self, two_table_schema):
        """An unknown mid-chain table raises at its join step, not upfront.

        With rows in A, the per-row error of the degenerate condition over
        ``A.nope`` must fire before the unknown table ``C`` is ever reached —
        and the ExecutionError it raises is the one the tester can catch.
        """
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query(
            "q", [], select(["A.id"], join(["A", "C"], on=[("A.nope", "A.x")]), None)
        )
        program = pb.build(validate=False)
        # Empty A: the first-table filter is a no-op, so C's InstanceError fires.
        interp, compiled = both_outcomes(program, [("q", ())])
        assert interp == compiled == ("err", InstanceError)
        # Non-empty A: the per-row condition error wins in both backends.
        interp, compiled = both_outcomes(program, [("add", (1,)), ("q", ())])
        assert interp == compiled == ("err", ExecutionError)

    def test_unbound_parameter_raises_in_both(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("add", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.query("q", [], select(["A.id"], "A", eq("A.id", "$nope")))
        program = pb.build(validate=False)
        assert_equivalent(program, [("q", ())])  # no rows: predicate never runs
        assert_equivalent(program, [("add", (1,)), ("q", ())])

    def test_arity_and_unknown_function(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.query("q", [("i", "int")], select(["A.id"], "A", eq("A.id", "$i")))
        program = pb.build(validate=False)
        interp, compiled = both_outcomes(program, [("q", ())])
        assert interp == compiled == ("err", InvocationError)
        interp, compiled = both_outcomes(program, [("zzz", ())])
        assert interp == compiled == ("err", KeyError)


# --------------------------------------------------------- compiled specifics
class TestCompiledEngine:
    def test_insert_into_join_uid_allocation_order(self, course_target_schema):
        """Fresh UIDs are observable in outputs: allocation order must match."""
        pb = ProgramBuilder("p", course_target_schema)
        chain = join(["Picture", "Instructor"], on=[("Picture.PicId", "Instructor.PicId")])
        pb.update(
            "add",
            [("n", "str")],
            insert(chain, {"Instructor.IName": "$n"}),
        )
        pb.query("all_pics", [], select(["Picture.PicId", "Picture.Pic"], "Picture", None))
        pb.query(
            "joined",
            [],
            select(["Instructor.IName"], chain, None),
        )
        program = pb.build(validate=False)
        assert_equivalent(
            program, [("add", ("Ann",)), ("add", ("Bob",)), ("all_pics", ()), ("joined", ())]
        )

    def test_in_subquery_matches_interpreter(self, two_table_schema):
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [("i", "int"), ("x", "str")], insert("A", {"A.id": "$i", "A.x": "$x"}))
        pb.update("b", [("i", "int")], insert("B", {"B.id": "$i"}))
        sub = select(["B.id"], "B", None)
        pb.query("q", [], select(["A.x"], "A", in_query("A.id", sub)))
        program = pb.build(validate=False)
        assert_equivalent(
            program,
            [("a", (1, "one")), ("a", (2, "two")), ("b", (2,)), ("q", ())],
        )

    def test_in_subquery_unhashable_values_fall_back(self, two_table_schema):
        """Unhashable members or probes degrade to the interpreter's == scan."""
        from repro.lang.builder import const

        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [], insert("A", {"A.id": const([1]), "A.x": const("ax")}))
        pb.update("b", [], insert("B", {"B.id": const(1), "B.y": const("by")}))
        # Unhashable probe (A.id is a list) against hashable members.
        pb.query("probe", [], select(["A.x"], "A", in_query("A.id", select(["B.id"], "B", None))))
        # Hashable probe against unhashable members (A.id values are lists).
        pb.query("members", [], select(["B.y"], "B", in_query("B.id", select(["A.id"], "A", None))))
        program = pb.build(validate=False)
        assert_equivalent(program, [("a", ()), ("b", ()), ("probe", ()), ("members", ())])

    def test_hash_join_unhashable_value_falls_back(self, two_table_schema):
        """An unhashable join key degrades to the nested loop, same results."""
        from repro.engine.compiler import _FunctionCompiler
        from repro.engine.compiled import CompiledState

        fc = _FunctionCompiler(two_table_schema)
        plan, _pos = fc.compile_chain(join(["A", "B"], on=[("A.id", "B.id")]))
        state = CompiledState(fc.num_tables)
        state.append_row(0, [[1], "row-a"])  # list key: unhashable
        state.append_row(1, [[1], "row-b"])
        state.append_row(1, [[2], "row-b2"])
        rows = plan(state)
        assert len(rows) == 1
        assert rows[0][0].vals[1] == "row-a" and rows[0][1].vals[1] == "row-b"

    def test_empty_table_joins_yield_no_rows(self, two_table_schema):
        """Hash joins over an empty probe or build side return no rows."""
        pb = ProgramBuilder("p", two_table_schema)
        pb.update("a", [("i", "int")], insert("A", {"A.id": "$i"}))
        pb.update("b", [("i", "int")], insert("B", {"B.id": "$i"}))
        pb.query("q", [], select(["A.id", "B.y"], join(["A", "B"], on=[("A.id", "B.id")]), None))
        program = pb.build(validate=False)
        assert_equivalent(program, [("q", ())])  # both sides empty
        assert_equivalent(program, [("a", (1,)), ("q", ())])  # build side empty
        assert_equivalent(program, [("b", (1,)), ("q", ())])  # probe side empty
        compiled = compile_program(program)
        assert compiled.run_sequence([("a", (1,)), ("q", ())]) == [[]]
        assert compiled.run_sequence([("b", (1,)), ("q", ())]) == [[]]

    def test_fork_isolation(self, course_target_schema):
        """Forked states never observe each other's writes, rowids or UIDs.

        Forks share rows, so the property is checked through the compiled
        write paths (insert-into-join, update, delete) run on a fork, and
        through ``append_row`` given a list that its caller keeps.
        """
        from repro.engine.compiled import CompiledState

        pics = join(["Picture", "Instructor"], on=[("Picture.PicId", "Instructor.PicId")])
        pb = ProgramBuilder("forks", course_target_schema)
        pb.update("add", [("id", "int"), ("name", "str")],
                  insert(pics, {"Instructor.InstId": "$id", "Instructor.IName": "$name"}))
        pb.update("rename", [("id", "int"), ("name", "str")],
                  update("Instructor", eq("Instructor.InstId", "$id"), "Instructor.IName", "$name"))
        pb.update("remove", [("id", "int")],
                  delete(["Instructor"], "Instructor", eq("Instructor.InstId", "$id")))
        compiled = compile_program(pb.build(validate=False))
        instructor = list(course_target_schema.table_names).index("Instructor")
        state = compiled.new_state()
        compiled.call(state, "add", (1, "a"))
        compiled.call(state, "add", (2, "b"))
        rows = [(r.rowid, r.vals) for r in state.tables[instructor]]
        key = state.key()

        clone = state.fork()
        compiled.call(clone, "rename", (1, "mutated"))
        compiled.call(clone, "remove", (2,))
        compiled.call(clone, "add", (3, "c"))
        assert [(r.rowid, r.vals) for r in state.tables[instructor]] == rows
        assert state.key() == key
        assert [r.vals[1] for r in clone.tables[instructor]] == ["mutated", "c"]
        # The update kept the row's rowid; rowids and UIDs continue from the
        # fork point, independently (each add takes a Picture and an
        # Instructor rowid, and two fresh UIDs: PicId and Pic).
        assert clone.tables[instructor][0].rowid == rows[0][0]
        compiled.call(state, "add", (4, "d"))
        assert clone.tables[instructor][1].rowid == state.tables[instructor][2].rowid == 6
        assert clone.tables[instructor][1].vals[2] == state.tables[instructor][2].vals[2]
        assert state.uids.count == clone.uids.count == 6
        assert clone.key() != state.key()

        # append_row stores a tuple, so its caller's list stays its own.
        parent = CompiledState(1)
        vals = [1, "a"]
        parent.append_row(0, vals)
        vals[1] = "changed"
        child = parent.fork()
        child.append_row(0, vals)
        assert parent.tables[0][0].vals == (1, "a")
        assert parent.key() == (((((1, "a"),)),), 0)
        assert [r.vals for r in child.tables[0]] == [(1, "a"), (1, "changed")]

    def test_compiler_caches_shared_function_asts(self, people_program):
        compiler = ProgramCompiler()
        first = compiler.compile_program(people_program)
        clone = people_program.with_functions(list(people_program), name="clone")
        second = compiler.compile_program(clone)
        for name in people_program.function_names:
            assert first.functions[name] is second.functions[name]

    def test_compiler_resolves_known_function_objects_by_identity(
        self, people_program, monkeypatch
    ):
        """A function object compiled once is found again without re-hashing it.

        Distinct but structurally equal functions still hit through the
        structural cache, and both paths count hits the same way.
        """
        from repro.lang.ast import QueryFunction

        compiler = ProgramCompiler()
        first = compiler.compile_program(people_program)
        functions = list(people_program)
        hashed = []
        for cls in (QueryFunction, UpdateFunction):
            original = cls.__hash__
            monkeypatch.setattr(
                cls, "__hash__", lambda self, _h=original: hashed.append(self) or _h(self)
            )
        again = compiler.compile_program(people_program.with_functions(functions, name="again"))
        assert hashed == []
        copies = [dataclasses.replace(func) for func in functions]
        copied = compiler.compile_program(people_program.with_functions(copies, name="copy"))
        assert len(hashed) == len(functions)
        for name in people_program.function_names:
            assert first.functions[name] is again.functions[name] is copied.functions[name]
        assert compiler.stats.function_misses == len(functions)
        assert compiler.stats.function_hits == 2 * len(functions)

    def test_tester_backends_agree_on_verdicts(self, people_program):
        broken = _broken_delete(people_program)
        verdicts = {}
        stats = {}
        for backend in EXECUTION_BACKENDS:
            tester = BoundedTester(people_program, execution_backend=backend)
            verdicts[backend] = (
                tester.find_failing_input(broken),
                tester.check_equivalent(people_program.with_functions(list(people_program))),
            )
            stats[backend] = (
                tester.stats.sequences_executed,
                tester.stats.full_enumerations,
                tester.stats.full_enumeration_sequences,
            )
        assert verdicts["interpreter"] == verdicts["compiled"]
        assert stats["interpreter"] == stats["compiled"]
        failing, self_equivalent = verdicts["compiled"]
        assert failing is not None and self_equivalent

    def test_pool_screening_backends_agree(self, people_program):
        """Same pool hit and the same bookkeeping under both backends."""
        broken = _broken_delete(people_program)
        results = {}
        for backend in EXECUTION_BACKENDS:
            pool = CounterexamplePool()
            tester = BoundedTester(people_program, execution_backend=backend, pool=pool)
            first = tester.find_failing_input(broken)  # full enumeration, seeds the pool
            second = tester.find_failing_input(broken)  # pool screening hit
            results[backend] = (
                first,
                second,
                pool.stats.hits,
                pool.stats.candidates_screened,
                pool.stats.sequences_screened,
                tester.stats.sequences_executed,
            )
        assert results["interpreter"] == results["compiled"]
        assert results["compiled"][2] == 1

    def test_unknown_backend_rejected(self, people_program):
        assert EXECUTION_BACKENDS == ("interpreter", "compiled")
        with pytest.raises(ValueError):
            BoundedTester(people_program, execution_backend="jit")
        # The retired columnar backend is an unknown name like any other.
        with pytest.raises(ValueError, match="unknown execution backend 'columnar'"):
            make_loader("columnar")


def _broken_delete(program):
    """*program* with a deletePerson that deletes everyone (observably wrong)."""
    return program.with_functions(
        [f for f in program if f.name != "deletePerson"]
        + [
            UpdateFunction(
                "deletePerson",
                program.function("deletePerson").params,
                (delete(["Person"], "Person", None),),
            )
        ],
        name="broken",
    )


# ------------------------------------------------------------- data layer
class TestSlottedDataLayer:
    def test_row_has_no_dict(self):
        row = Row(1, {"a": 1})
        with pytest.raises(AttributeError):
            row.extra = 1  # type: ignore[attr-defined]

    def test_joined_row_has_no_dict(self):
        jrow = JoinedRow({}, {})
        with pytest.raises(AttributeError):
            jrow.extra = 1  # type: ignore[attr-defined]

    def test_crow_has_no_dict(self):
        crow = CRow(1, [1, 2])
        with pytest.raises(AttributeError):
            crow.extra = 1  # type: ignore[attr-defined]

    def test_sat_watcher_has_no_dict(self):
        from repro.sat.solver import _Watcher

        watcher = _Watcher(0, 1)
        with pytest.raises(AttributeError):
            watcher.extra = 1  # type: ignore[attr-defined]

    def test_insert_fast_path_keeps_public_checks(self, people_schema):
        instance = DatabaseInstance(people_schema)
        with pytest.raises(InstanceError):
            instance.insert("Person", {"Nope": 1})
        from repro.datamodel.types import TypeError_

        with pytest.raises(TypeError_):
            instance.insert("Person", {"PersonId": "not-an-int"})
        instance.insert("Person", {"PersonId": 1})
        assert instance.snapshot()["Person"] == [(1, None, None)]
        assert instance.columns_of("Person") == ("PersonId", "Name", "Age")
        with pytest.raises(InstanceError):
            instance.columns_of("Nope")


# ------------------------------------------------------ end-to-end trajectory
TRAJECTORY_WORKLOADS = WORKLOADS if FULL_EQUIV else ["2030Club", "Ambler-5"]


@pytest.mark.parametrize("name", TRAJECTORY_WORKLOADS)
def test_synthesis_trajectory_matches_interpreter(name):
    """Compiled synthesis follows the interpreter's exact trajectory.

    Iterations, verdicts and pool bookkeeping must match run for run: the
    engine may only change *how* sequences execute, never which candidate
    survives or which counterexample is found.
    """
    workload = load_all().get(name)
    outcomes = {}
    for backend in EXECUTION_BACKENDS:
        config = dataclasses.replace(SynthesisConfig(), execution_backend=backend)
        result = Synthesizer(config).synthesize(workload.source_program, workload.target_schema)
        cache = result.cache
        outcomes[backend] = (
            result.succeeded,
            result.iterations,
            result.attempts,
            cache.pool_hits,
            cache.pool_added,
            cache.candidates_screened,
            cache.candidates_fully_tested,
            cache.screening_sequences,
        )
    assert outcomes["compiled"] == outcomes["interpreter"]
    assert outcomes["compiled"][0]
