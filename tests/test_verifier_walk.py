"""Pins for the breadth-first pair walk of bounded testing and verification.

``BoundedTester.first_failing`` walks, level by level, the distinct
(source state, candidate state) pairs that the update prefixes of each
relevance class reach, runs each query's argument tuples only on the pairs
that no shorter prefix reached, in the order of their lowest-index prefix,
and counts every other sequence by arithmetic.  It is the exhaustive
search of both ``BoundedTester.find_failing_input`` and
``BoundedVerifier.verify``.  These tests compare both with naive references
that run every generator sequence from the empty database through
``run_invocation_sequence``, source first: the tester's failing sequence
and ``full_enumeration_sequences``, the verifier's verdict,
counterexample, ``sequences_checked`` and method, and the raised error's
class and message must match on every backend, with private caches, with
one shared source-output cache that either checker fills first, and with a
cache small enough to evict the source state graph mid-walk.
``REPRO_FULL_EQUIV=1`` sweeps more corpus seeds.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import threading
import time
import traceback

import pytest

from repro import SynthesisConfig, format_program, migrate
from repro.corpus import CorpusConfig, generate_workload
from repro.engine import ExecutionError, make_loader, run_invocation_sequence
from repro.equivalence import BoundedTester, BoundedVerifier, SeedSet, SequenceGenerator
from repro.equivalence.result_compare import canonicalize_outputs
from repro.lang.ast import QueryFunction, UpdateFunction
from repro.lang.builder import ProgramBuilder, delete, eq, insert, join, select
from repro.service import MigrationJob, MigrationService
from repro.testing_cache import SourceOutputCache
from repro.workloads import get_benchmark

BACKENDS = ("interpreter", "compiled")
CORPUS = CorpusConfig().scaled(tables=2, columns=3, steps=2, functions=6)
FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"
CORPUS_SEEDS = range(60) if FULL_EQUIV else range(10)


def _differs(source, candidate, sequence) -> bool:
    expected = canonicalize_outputs(run_invocation_sequence(source, sequence))
    try:
        actual = canonicalize_outputs(run_invocation_sequence(candidate, sequence))
    except ExecutionError:
        return True
    return actual != expected


def _first_failing(source, candidate, *, seeds, max_updates, max_sequences):
    """The first failing sequence of the enumeration (or ``None``) and the count."""
    generator = SequenceGenerator(
        programs=[source, candidate], seeds=seeds, max_updates=max_updates
    )
    checked = 0
    for sequence in generator.sequences():
        checked += 1
        if checked > max_sequences:
            break
        if _differs(source, candidate, sequence):
            return sequence, checked
    return None, checked


def reference_test(source, candidate, *, max_updates, max_sequences=50000):
    """The tester's bound, every sequence one at a time from the empty database."""
    try:
        return _first_failing(
            source,
            candidate,
            seeds=SeedSet.default(),
            max_updates=max_updates,
            max_sequences=max_sequences,
        )
    except Exception as error:
        return ("raised", type(error), str(error))


def reference_verify(
    source, candidate, *, max_updates, random_sequences, max_sequences=50000, seed=0
):
    """Every sequence, one at a time, from the empty database (interpreter)."""
    try:
        failing, checked = _first_failing(
            source,
            candidate,
            seeds=SeedSet.exhaustive(),
            max_updates=max_updates,
            max_sequences=max_sequences,
        )
        if failing is not None:
            return (False, failing, checked, "bounded-testing")
        generator = SequenceGenerator(
            programs=[source, candidate], seeds=SeedSet.exhaustive(), max_updates=max_updates
        )
        for sequence in generator.random_sequences(random_sequences, 5, random.Random(seed)):
            checked += 1
            if _differs(source, candidate, sequence):
                return (False, sequence, checked, "randomized-testing")
    except Exception as error:
        return ("raised", type(error), str(error))
    return (True, None, checked, "bounded-testing")


def _outcome(verifier, source, candidate):
    try:
        result = verifier.verify(source, candidate)
    except Exception as error:
        return ("raised", type(error), str(error))
    return (result.equivalent, result.counterexample, result.sequences_checked, result.method)


def _verified(source, candidate, backend, cache, bounds) -> list:
    """One verifier's outcomes on two calls: cold, then warm."""
    verifier = BoundedVerifier(execution_backend=backend, source_cache=cache, **bounds)
    return [_outcome(verifier, source, candidate) for _ in range(2)]


def _tested(source, candidate, backend, cache, bounds) -> list:
    """One tester's outcomes on two calls (cold, then warm), without a pool."""
    tester = BoundedTester(source, execution_backend=backend, source_cache=cache, **bounds)
    outcomes = []
    for _ in range(2):
        before = tester.stats.full_enumeration_sequences
        try:
            failing = tester.find_failing_input(candidate)
        except Exception as error:
            outcomes.append(("raised", type(error), str(error)))
        else:
            outcomes.append((failing, tester.stats.full_enumeration_sequences - before))
    return outcomes


def assert_pinned(source, candidate, *, max_updates, random_sequences, max_sequences=50000):
    """The walk equals both references on every backend; returns the verdict.

    The verifier and the tester each run with a private cache, then on one
    shared cache that the other checker filled first.
    """
    tester_bounds = dict(max_updates=max_updates, max_sequences=max_sequences)
    verifier_bounds = dict(tester_bounds, random_sequences=random_sequences)
    verdict = reference_verify(source, candidate, **verifier_bounds)
    failing = reference_test(source, candidate, **tester_bounds)
    verified = [verdict] * 2
    tested = [failing] * 2
    for backend in BACKENDS:
        assert _verified(source, candidate, backend, None, verifier_bounds) == verified, (
            backend, "verifier, private cache")
        assert _tested(source, candidate, backend, None, tester_bounds) == tested, (
            backend, "tester, private cache")
        shared = SourceOutputCache()
        assert _verified(source, candidate, backend, shared, verifier_bounds) == verified, (
            backend, "verifier first")
        assert _tested(source, candidate, backend, shared, tester_bounds) == tested, (
            backend, "tester after the verifier")
        shared = SourceOutputCache()
        assert _tested(source, candidate, backend, shared, tester_bounds) == tested, (
            backend, "tester first")
        assert _verified(source, candidate, backend, shared, verifier_bounds) == verified, (
            backend, "verifier after the tester")
    return verdict


# ----------------------------------------------------------------- programs
def _people(
    schema, name="people_variant", *, wrong_delete=False, broken_delete=False, evicts_one=False
):
    pb = ProgramBuilder(name, schema)
    add = [insert("Person", {"Person.PersonId": "$id", "Person.Name": "$name",
                             "Person.Age": "$age"})]
    if evicts_one:  # every insert first deletes person 1
        add.insert(0, delete("Person", "Person", eq("Person.PersonId", 1)))
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")], *add)
    if broken_delete:  # the delete target is outside its chain: ExecutionError
        pb.update("deletePerson", [("id", "int")],
                  delete("Ghost", "Person", eq("Person.PersonId", "$id")))
    elif wrong_delete:  # deletes everyone
        pb.update("deletePerson", [("id", "int")], delete("Person", "Person"))
    else:
        pb.update("deletePerson", [("id", "int")],
                  delete("Person", "Person", eq("Person.PersonId", "$id")))
    pb.query("getPerson", [("id", "int")],
             select(["Person.Name", "Person.Age"], "Person", eq("Person.PersonId", "$id")))
    pb.query("findByName", [("name", "str")],
             select(["Person.PersonId"], "Person", eq("Person.Name", "$name")))
    return pb.build(validate=False)


def _swapped(program, first: str, second: str):
    """*program* with the bodies of two same-signature functions swapped."""
    a, b = program.function(first), program.function(second)
    field = "query" if a.is_query else "statements"
    swapped = [
        dataclasses.replace(f, **{field: getattr(b if f is a else a, field)})
        if f is a or f is b
        else f
        for f in program
    ]
    return program.with_functions(swapped, name=f"{program.name}_swapped")


def _without_effect(program):
    """*program* with its first update turned into a no-op (a mutated oracle)."""
    victim = program.update_functions()[0]
    return program.with_functions(
        [UpdateFunction(f.name, f.params, ()) if f is victim else f for f in program],
        name=f"{program.name}_mutated",
    )


# -------------------------------------------------------------------- pins
class TestWalkMatchesReference:
    @pytest.mark.parametrize("name", ["Oracle-1", "Ambler-3"])
    def test_registry_source_against_synthesized_program(self, name):
        bench = get_benchmark(name)
        result = migrate(bench.source_program, bench.target_schema, SynthesisConfig.fast())
        assert result.succeeded
        verdict = assert_pinned(
            bench.source_program, result.program, max_updates=2, random_sequences=10
        )
        assert verdict[0] is True

    def test_equivalent_variant(self, people_program, people_schema):
        verdict = assert_pinned(
            people_program, _people(people_schema), max_updates=3, random_sequences=20
        )
        assert verdict[0] is True

    def test_wrong_delete(self, people_program, people_schema):
        verdict = assert_pinned(
            people_program,
            _people(people_schema, wrong_delete=True),
            max_updates=3,
            random_sequences=20,
        )
        assert verdict[0] is False

    @pytest.mark.parametrize(
        "pair",
        [("addInstructor", "addTA"), ("deleteInstructor", "deleteTA"),
         ("getInstructorInfo", "getTAInfo")],
    )
    def test_swapped_function_bodies(self, course_program, pair):
        verdict = assert_pinned(
            course_program, _swapped(course_program, *pair), max_updates=2, random_sequences=10
        )
        assert verdict[0] is False

    def test_candidate_raising_execution_error(self, people_program, people_schema):
        verdict = assert_pinned(
            people_program,
            _people(people_schema, broken_delete=True),
            max_updates=2,
            random_sequences=0,
        )
        assert verdict[0] is False

    def test_candidate_raising_other_error(self, people_program):
        # A candidate without one of the source's queries raises KeyError,
        # which is not an ExecutionError: it propagates.
        missing = people_program.with_functions(
            [f for f in people_program if f.name != "findByName"], name="missing"
        )
        verdict = assert_pinned(people_program, missing, max_updates=2, random_sequences=0)
        assert verdict[:2] == ("raised", KeyError)

    @pytest.mark.parametrize("flipped", ["deletePerson", "findByName"])
    def test_candidate_flipping_a_function_kind(self, people_program, flipped):
        # deletePerson as a query makes a prefix step produce output;
        # findByName as an update makes a "query" mutate the state.
        getter = people_program.function("getPerson")
        deleter = people_program.function("deletePerson")
        if flipped == "deletePerson":
            replacement = QueryFunction("deletePerson", deleter.params, getter.query)
        else:
            replacement = UpdateFunction(
                "findByName", people_program.function("findByName").params, ()
            )
        odd = people_program.with_functions(
            [replacement if f.name == flipped else f for f in people_program], name="odd"
        )
        verdict = assert_pinned(people_program, odd, max_updates=3, random_sequences=10)
        assert verdict[0] is False

    def test_source_raising(self, people_schema):
        # Both programs raise on the same sequences: the source's error wins.
        broken = _people(people_schema, "people_broken", broken_delete=True)
        verdict = assert_pinned(
            broken, _people(people_schema, broken_delete=True), max_updates=2, random_sequences=0
        )
        assert verdict[:2] == ("raised", ExecutionError)

    @pytest.mark.parametrize("cap", [1, 2, 7, 40, 123, 480, 1001])
    def test_sequence_cap_trips_inside_a_block(self, people_program, people_schema, cap):
        # getPerson's blocks hold two argument tuples and findByName's two, so
        # odd caps trip in the middle of a block, skipped or not.
        # The tester's default seeds give getPerson blocks of two tuples and
        # 255 sequences in all, so caps up to 123 trip inside its walk too.
        source, candidate = people_program, _people(people_schema)
        verdict = assert_pinned(
            source, candidate, max_updates=3, random_sequences=5, max_sequences=cap
        )
        assert verdict[0] is True and verdict[2] == cap + 1 + 5
        failing = reference_test(source, candidate, max_updates=3, max_sequences=cap)
        assert failing == (None, min(cap + 1, 255))

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_corpus_workload_against_oracle_and_mutant(self, seed):
        workload = generate_workload(seed, CORPUS)
        bounds = dict(max_updates=2, random_sequences=5)
        assert assert_pinned(workload.source_program, workload.oracle_program, **bounds)[0] is True
        assert_pinned(workload.source_program, _without_effect(workload.oracle_program), **bounds)


def test_checkers_never_enumerate_sequence_by_sequence(
    monkeypatch, people_program, people_schema
):
    # The exhaustive search exists once, as the walk over state pairs.
    def sequences(self):
        raise AssertionError("a checker iterated SequenceGenerator.sequences()")

    monkeypatch.setattr(SequenceGenerator, "sequences", sequences)
    wrong = _people(people_schema, wrong_delete=True)
    assert BoundedTester(people_program).find_failing_input(wrong) is not None
    verifier = BoundedVerifier(max_updates=2, random_sequences=5)
    assert not verifier.verify(people_program, wrong).equivalent
    assert verifier.verify(people_program, _people(people_schema)).equivalent


# ------------------------------------------------- order and count arithmetic
def _order_case(schema):
    """A candidate whose first failing pair is found late by its first parent.

    Inserting evicts person 1 and deleting deletes everyone, so several
    length-2 prefixes reach one pair, and the pair that fails first in the
    enumeration is not the first one a parent-by-parent expansion meets.
    """
    return _people(schema, "people_order", wrong_delete=True, evicts_one=True)


def test_new_pairs_are_checked_in_enumeration_order(people_program, people_schema):
    # Taking new pairs in discovery order (parent by parent, then call by
    # call) reports addPerson(0, ...); deletePerson(1); getPerson(0) at 26.
    candidate = _order_case(people_schema)
    expected = (
        (("addPerson", (1, "A", 102)), ("addPerson", (0, "A", 102)), ("getPerson", (1,))),
        21,
    )
    assert reference_test(people_program, candidate, max_updates=2) == expected
    verdict = assert_pinned(people_program, candidate, max_updates=2, random_sequences=0)
    assert verdict == (False, expected[0], 46, "bounded-testing")
    for backend in BACKENDS:
        tester = BoundedTester(people_program, max_updates=2, execution_backend=backend)
        assert tester.first_failing(candidate) == expected


_ADD = [("addPerson", (id_, "A", 102)) for id_ in (0, 1)]
_DELETE = [("deletePerson", (id_,)) for id_ in (0, 1)]


class _CallLog:
    """A stub state: the calls that built it, unless a merge renamed it."""

    __slots__ = ("calls",)

    def __init__(self, calls: tuple):
        self.calls = calls

    def fork(self) -> "_CallLog":
        return _CallLog(self.calls)

    def key(self) -> tuple:
        return self.calls


class _CallLogProgram:
    """A stub executable over the people program's function names.

    Updates append their call to the state, except that both
    ``addPerson(0); deletePerson(0)`` (prefix index 4 of length 2) and
    ``addPerson(1); addPerson(0)`` (index 2) lead to one state, ``merged``.
    The first parent meets the merged pair through the higher index.
    Queries answer the state, and the candidate answers ``merged`` wrongly.
    """

    MERGES = {((_ADD[0],), _DELETE[0]): ("merged",), ((_ADD[1],), _ADD[0]): ("merged",)}

    def __init__(self, wrong_at_merge: bool):
        self.wrong_at_merge = wrong_at_merge

    def new_state(self) -> _CallLog:
        return _CallLog(())

    def call(self, state: _CallLog, name: str, args: tuple):
        if name in ("getPerson", "findByName"):
            wrong = self.wrong_at_merge and state.calls == ("merged",)
            return [("wrong" if wrong else repr(state.calls), args)]
        call = (name, args)
        state.calls = self.MERGES.get((state.calls, call), state.calls + (call,))
        return None


class _StubCompiler:
    def __init__(self, programs: dict):
        self.programs = programs

    def compile_program(self, program):
        return self.programs[program.name]


def test_a_pair_is_tagged_with_its_lowest_index_prefix(people_program, people_schema):
    # A walk that meets the merged pair first through index 4 (its first
    # parent) and keeps that tag reports addPerson(0, ...); deletePerson(0);
    # getPerson(0) at 24.
    candidate = _people(people_schema, "people_merged")
    programs = {people_program.name: _CallLogProgram(False), candidate.name: _CallLogProgram(True)}
    compiler = _StubCompiler(programs)
    generator = SequenceGenerator([people_program, candidate], max_updates=2)
    for position, sequence in enumerate(generator.sequences(), 1):
        outputs = []
        for program in (people_program, candidate):
            executable = programs[program.name]
            state = executable.new_state()
            outputs.append([executable.call(state, name, args) for name, args in sequence][-1])
        if outputs[0] != outputs[1]:
            break
    expected = (sequence, position)
    assert expected == ((_ADD[1], _ADD[0], ("getPerson", (0,))), 20)
    tester = BoundedTester(people_program, max_updates=2, compiler=compiler)
    assert tester.first_failing(candidate) == expected
    verifier = BoundedVerifier(
        max_updates=2, seeds=SeedSet.default(), random_sequences=0, compiler=compiler
    )
    result = verifier.verify(people_program, candidate)
    assert (result.counterexample, result.sequences_checked) == expected


@pytest.mark.parametrize("equivalent", [False, True], ids=["order-case", "equivalent"])
def test_every_sequence_cap(people_program, people_schema, equivalent):
    # Every cap from one sequence to the whole enumeration (63 sequences for
    # the tester's bound, 172 for the verifier's seeds), with a short
    # randomized phase after the exhaustive one.
    candidate = _people(people_schema) if equivalent else _order_case(people_schema)
    for cap in range(1, 64):
        expected = reference_test(people_program, candidate, max_updates=2, max_sequences=cap)
        for backend in BACKENDS:
            tester = BoundedTester(
                people_program, max_updates=2, max_sequences=cap, execution_backend=backend
            )
            assert tester.first_failing(candidate) == expected, (backend, cap)
    for cap in range(1, 173):
        bounds = dict(max_updates=2, random_sequences=3, max_sequences=cap)
        expected = reference_verify(people_program, candidate, **bounds)
        for backend in BACKENDS:
            verifier = BoundedVerifier(execution_backend=backend, **bounds)
            assert _outcome(verifier, people_program, candidate) == expected, (backend, cap)


def test_a_cached_source_error_does_not_collect_tracebacks(people_schema):
    # The source graph keeps the node that raised across walks; each raise
    # starts from the failing step, not from the previous walk's frames.
    broken = _people(people_schema, "people_broken", broken_delete=True)
    cache = SourceOutputCache()
    depths = []
    for _ in range(3):
        tester = BoundedTester(broken, source_cache=cache)
        with pytest.raises(ExecutionError) as raised:
            tester.first_failing(_people(people_schema))
        depths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert depths[0] == depths[1] == depths[2]


class _WatchedCache(SourceOutputCache):
    """A source cache that records the most it ever held."""

    peak = 0

    def put(self, *args, **kwargs) -> None:
        super().put(*args, **kwargs)
        self.peak = max(self.peak, len(self))

    def resize(self, *args, **kwargs) -> None:
        super().resize(*args, **kwargs)
        self.peak = max(self.peak, len(self))


@pytest.mark.parametrize("wrong_delete", [False, True], ids=["equivalent", "wrong-delete"])
def test_a_small_cache_evicts_mid_walk_and_changes_no_outcome(
    people_program, people_schema, wrong_delete
):
    candidate = _people(people_schema, wrong_delete=wrong_delete)
    bounds = dict(max_updates=3, random_sequences=20)
    for backend in BACKENDS:
        unbounded = _verified(people_program, candidate, backend, None, bounds)
        small = _WatchedCache(max_entries=12)
        assert _verified(people_program, candidate, backend, small, bounds) == unbounded
        tested = _tested(people_program, candidate, backend, None, dict(max_updates=3))
        assert _tested(people_program, candidate, backend, small, dict(max_updates=3)) == tested
        assert small.stats.evictions > 0
        assert small.peak <= 12
        # At rest every cached graph is charged what it holds.
        for key, value in small._entries.items():
            assert small._sizes[key] == (value.size if key[1] == "state graph" else 1)


def _assert_graph_is_consistent(graph):
    """Each interned key names its own node, and each memo holds what a fresh run gives."""
    for key, index in graph._interned.items():
        assert graph.nodes[index].state.key() == key
    for node in graph.nodes:
        for (name, args), index in node.successors.items():
            state = node.state.fork()
            graph.executable.call(state, name, args)
            assert graph.nodes[index].state.key() == state.key()
        for (query, args), (_canonical, raw) in node.results.items():
            assert graph.run(node, query, args) == raw
    memoized = sum(len(node.results) for node in graph.nodes)
    assert graph.size == len(graph.nodes) + memoized


class _YieldingKey:
    """A state key whose hashing lets other threads run, as hashing a long key may."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __hash__(self) -> int:
        time.sleep(0)
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


class _YieldingState:
    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def fork(self) -> "_YieldingState":
        return _YieldingState(self.state.fork())

    def key(self) -> _YieldingKey:
        return _YieldingKey(self.state.key())


class _YieldingProgram:
    """A compiled program whose state keys yield while the graph interns them."""

    def __init__(self, executable):
        self.executable = executable

    def new_state(self) -> _YieldingState:
        return _YieldingState(self.executable.new_state())

    def call(self, state: _YieldingState, name: str, args: tuple):
        return self.executable.call(state.state, name, args)


def test_threads_growing_one_source_graph_reach_their_outcomes_alone(
    people_program, people_schema
):
    # A service worker runs jobs on threads over one source cache, so
    # several walks grow one source graph at once.  Each must reach the
    # outcome it reaches alone, and the graph must stay consistent.
    # Different candidates pair the source states in different orders, so
    # the walks step different source states at the same time.
    candidates = [
        _people(people_schema, "people_equivalent"),
        _people(people_schema, "people_evicts_one", evicts_one=True),
        _people(people_schema, "people_wrong", wrong_delete=True),
    ]
    load = make_loader("compiled")
    compiler = _StubCompiler({program.name: load(program) for program in candidates})
    compiler.programs[people_program.name] = _YieldingProgram(load(people_program))
    bounds = dict(max_updates=3, random_sequences=20, compiler=compiler)
    alone = [_verified(people_program, candidate, "compiled", None, bounds)
             for candidate in candidates]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cache = SourceOutputCache()
            start = threading.Barrier(len(candidates))
            outcomes = [None] * len(candidates)

            def verify(slot):
                start.wait()
                outcomes[slot] = _verified(
                    people_program, candidates[slot], "compiled", cache, bounds
                )

            threads = [threading.Thread(target=verify, args=(slot,), daemon=True)
                       for slot in range(len(candidates))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert outcomes == alone
            (graph_key,) = [key for key in cache._entries if key[1] == "state graph"]
            graph = cache._entries[graph_key]
            _assert_graph_is_consistent(graph)
            # At rest the graph is charged what it holds; sequence entries one each.
            assert cache._sizes[graph_key] == graph.size
            assert len(cache) == graph.size + len(cache._entries) - 1
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------- state keys
def _state_after(backend, program, calls):
    executable = make_loader(backend)(program)
    state = executable.new_state()
    for name, args in calls:
        executable.call(state, name, args)
    return state


@pytest.fixture(scope="module")
def uid_program(course_target_schema):
    """Inserting an instructor with a picture allocates one fresh UID."""
    pic = join(["Picture", "Instructor"], on=[("Picture.PicId", "Instructor.PicId")])
    pb = ProgramBuilder("uids", course_target_schema)
    pb.update("addInstructor", [("id", "int"), ("pic", "binary")],
              insert(pic, {"Instructor.InstId": "$id", "Picture.Pic": "$pic"}))
    pb.update("deleteInstructor", [("id", "int")],
              delete(["Instructor", "Picture"], pic, eq("Instructor.InstId", "$id")))
    pb.query("getInstructor", [("id", "int")],
             select(["Picture.Pic"], pic, eq("Instructor.InstId", "$id")))
    return pb.build()


@pytest.mark.parametrize("backend", BACKENDS)
class TestStateKey:
    def test_rowid_numbering_is_not_part_of_the_key(self, backend, people_program):
        direct = _state_after(backend, people_program, [("addPerson", (1, "A", 30))])
        detour = _state_after(
            backend,
            people_program,
            [("addPerson", (2, "B", 40)), ("addPerson", (1, "A", 30)), ("deletePerson", (2,))],
        )
        assert direct.key() == detour.key()

    def test_row_order_is_part_of_the_key(self, backend, people_program):
        first = _state_after(
            backend, people_program, [("addPerson", (1, "A", 30)), ("addPerson", (2, "B", 40))]
        )
        second = _state_after(
            backend, people_program, [("addPerson", (2, "B", 40)), ("addPerson", (1, "A", 30))]
        )
        assert first.key() != second.key()

    def test_one_cell_is_part_of_the_key(self, backend, people_program):
        first = _state_after(backend, people_program, [("addPerson", (1, "A", 30))])
        second = _state_after(backend, people_program, [("addPerson", (1, "A", 31))])
        assert first.key() != second.key()

    def test_uid_counter_is_part_of_the_key(self, backend, uid_program):
        empty = _state_after(backend, uid_program, [])
        emptied = _state_after(
            backend, uid_program, [("addInstructor", (1, "blob0")), ("deleteInstructor", (1,))]
        )
        # Same (empty) tables; one fresh UID was allocated on the way.
        assert emptied.key()[0] == empty.key()[0]
        assert emptied.key() != empty.key()

    def test_fork_is_independent(self, backend, people_program):
        executable = make_loader(backend)(people_program)
        parent = executable.new_state()
        executable.call(parent, "addPerson", (1, "A", 30))
        before = parent.key()
        child = parent.fork()
        assert child.key() == before
        executable.call(child, "deletePerson", (1,))
        executable.call(child, "addPerson", (2, "B", 40))
        assert parent.key() == before
        assert child.key() != before
        assert executable.call(parent, "getPerson", (1,)) == [("A", 30)]


# ------------------------------------------------------------ shared caches
def test_compiled_and_interpreter_jobs_share_one_service_cache():
    bench = get_benchmark("Oracle-1")
    jobs = []
    for backend in ("compiled", "interpreter", "compiled"):
        config = SynthesisConfig(execution_backend=backend, verifier_random_sequences=10)
        jobs.append(
            MigrationJob(f"oracle-{backend}-{len(jobs)}", bench.source_program,
                         bench.target_schema, config)
        )
    service = MigrationService()
    results = service.migrate_batch(jobs)
    for job, result in zip(jobs, results):
        alone = migrate(job.source_program, job.target_schema, job.config)
        assert result.succeeded and alone.succeeded
        assert result.attempts == alone.attempts
        assert format_program(result.program) == format_program(alone.program)
    # The source state graphs of both backends live side by side in the one
    # cache.
    state_owners = {
        key[0]
        for key in service._artifacts.source_cache._entries
        if isinstance(key[0], tuple)
    }
    source_key = format_program(bench.source_program)
    assert state_owners == {(source_key, "compiled"), (source_key, "interpreter")}
