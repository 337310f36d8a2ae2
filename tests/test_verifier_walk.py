"""Pins for the state-deduplicated exhaustive verification walk.

``BoundedVerifier.verify`` executes each update prefix once per program and
skips a block (one prefix, one query, all of its argument tuples) when an
earlier block of the same call already checked the same (query, source
state key, candidate state key) triple.  These tests compare it with a naive
reference that runs every generator sequence from the empty database
through ``run_invocation_sequence``, source first: verdict, counterexample,
``sequences_checked``, method and the raised error's class and message must
match on every backend, with and without a (warm) source-output cache.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import SynthesisConfig, format_program, migrate
from repro.corpus import CorpusConfig, generate_workload
from repro.engine import ExecutionError, make_loader, run_invocation_sequence
from repro.equivalence import BoundedVerifier, SeedSet, SequenceGenerator
from repro.equivalence.result_compare import canonicalize_outputs
from repro.lang.ast import QueryFunction, UpdateFunction
from repro.lang.builder import ProgramBuilder, delete, eq, insert, join, select
from repro.service import MigrationJob, MigrationService
from repro.testing_cache import SourceOutputCache
from repro.workloads import get_benchmark

BACKENDS = ("interpreter", "compiled", "columnar")
CORPUS = CorpusConfig().scaled(tables=2, columns=3, steps=2, functions=6)


def reference_verify(
    source, candidate, *, max_updates, random_sequences, max_sequences=50000, seed=0
):
    """Every sequence, one at a time, from the empty database (interpreter)."""
    generator = SequenceGenerator(
        programs=[source, candidate], seeds=SeedSet.exhaustive(), max_updates=max_updates
    )

    def differs(sequence) -> bool:
        expected = canonicalize_outputs(run_invocation_sequence(source, sequence))
        try:
            actual = canonicalize_outputs(run_invocation_sequence(candidate, sequence))
        except ExecutionError:
            return True
        return actual != expected

    checked = 0
    try:
        for sequence in generator.sequences():
            checked += 1
            if checked > max_sequences:
                break
            if differs(sequence):
                return (False, sequence, checked, "bounded-testing")
        rng = random.Random(seed)
        for sequence in generator.random_sequences(random_sequences, 5, rng):
            checked += 1
            if differs(sequence):
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


def assert_pinned(source, candidate, **bounds):
    """The walk equals the reference on every backend; returns the verdict."""
    expected = reference_verify(source, candidate, **bounds)
    for backend in BACKENDS:
        uncached = BoundedVerifier(execution_backend=backend, **bounds)
        assert _outcome(uncached, source, candidate) == expected, backend
        cached = BoundedVerifier(
            execution_backend=backend, source_cache=SourceOutputCache(), **bounds
        )
        assert _outcome(cached, source, candidate) == expected, (backend, "cold cache")
        assert _outcome(cached, source, candidate) == expected, (backend, "warm cache")
    return expected


# ----------------------------------------------------------------- programs
def _people(schema, name="people_variant", *, wrong_delete=False, broken_delete=False):
    pb = ProgramBuilder(name, schema)
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")],
              insert("Person", {"Person.PersonId": "$id", "Person.Name": "$name",
                                "Person.Age": "$age"}))
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
        verdict = assert_pinned(
            people_program,
            _people(people_schema),
            max_updates=3,
            random_sequences=5,
            max_sequences=cap,
        )
        assert verdict[0] is True and verdict[2] == cap + 1 + 5

    @pytest.mark.parametrize("seed", range(10))
    def test_corpus_workload_against_oracle_and_mutant(self, seed):
        workload = generate_workload(seed, CORPUS)
        bounds = dict(max_updates=2, random_sequences=5)
        assert assert_pinned(workload.source_program, workload.oracle_program, **bounds)[0] is True
        assert_pinned(workload.source_program, _without_effect(workload.oracle_program), **bounds)


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
def test_compiled_and_columnar_jobs_share_one_service_cache():
    bench = get_benchmark("Oracle-1")
    jobs = []
    for backend in ("compiled", "columnar", "compiled"):
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
    # Prefix states of both backends live side by side in the one cache.
    state_owners = {
        key[0] for key in service._source_cache._entries if isinstance(key[0], tuple)
    }
    source_key = format_program(bench.source_program)
    assert state_owners == {(source_key, "compiled"), (source_key, "columnar")}
