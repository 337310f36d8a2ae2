"""Tests for invocation sequences, result comparison, the bounded tester and verifier."""

import dataclasses
import itertools
import random

import pytest

from repro.core import SynthesisConfig, migrate
from repro.datamodel import Attribute, DataType as T, make_schema
from repro.engine.uid import UniqueValue
from repro.equivalence import (
    BoundedTester,
    BoundedVerifier,
    SeedSet,
    SequenceGenerator,
    argument_combinations,
    canonicalize_result,
    format_sequence,
    results_equal,
    tables_touched,
)
from repro.equivalence import invocation
from repro.equivalence.invocation import filtered_attributes, predicate_parameters
from repro.lang.builder import ProgramBuilder, delete, eq, insert, join, select, update
from repro.workloads import benchmark_names, get_benchmark


# ------------------------------------------------------------------------ result compare
class TestResultComparison:
    def test_equal_up_to_reordering(self):
        assert results_equal([[(1, "a"), (2, "b")]], [[(2, "b"), (1, "a")]])

    def test_bag_semantics_counts_duplicates(self):
        assert not results_equal([[(1,), (1,)]], [[(1,)]])

    def test_different_lengths_not_equal(self):
        assert not results_equal([[(1,)]], [[(1,)], [(2,)]])

    def test_uid_renaming_is_ignored(self):
        left = [[(UniqueValue(0), "x"), (UniqueValue(1), "y")]]
        right = [[(UniqueValue(7), "x"), (UniqueValue(9), "y")]]
        assert results_equal(left, right)

    def test_uid_sharing_structure_matters(self):
        # left shares one UID across rows, right uses two distinct UIDs
        left = [[(UniqueValue(0),), (UniqueValue(0),)]]
        right = [[(UniqueValue(1),), (UniqueValue(2),)]]
        assert not results_equal(left, right)

    def test_uid_never_equals_concrete_value(self):
        assert not results_equal([[(UniqueValue(0),)]], [[(0,)]])

    def test_canonicalize_result_sorts_rows(self):
        canonical = canonicalize_result([(2,), (1,)])
        assert canonical == ((1,), (2,))

    def test_mixed_types_sort_deterministically(self):
        rows = [(None,), ("a",), (1,), (True,)]
        assert canonicalize_result(list(rows)) == canonicalize_result(list(reversed(rows)))


# ------------------------------------------------------------- canonicalization soundness
class TestCanonicalizationSoundness:
    """Regressions for the renaming-dependent sort and the numeric sort key."""

    def test_uid_renaming_cannot_reorder_rows(self):
        # Regression: rows differing only in UIDs used to sort by the
        # pre-renaming UID index, so a renaming could flip the row order and
        # make two equivalent results canonicalize differently.  Here the
        # UID order (0, 1) agrees with the payload order ("b", "a") on the
        # left but disagrees on the right.
        left = [[(UniqueValue(0), "b"), (UniqueValue(1), "a")]]
        right = [[(UniqueValue(5), "b"), (UniqueValue(2), "a")]]
        assert results_equal(left, right)

    def test_negative_numbers_sort_by_value(self):
        # Regression: the f"{value:030.10f}" key ordered negatives by
        # reversed magnitude ("-2" < "-10" lexicographically).
        assert canonicalize_result([(-2,), (-10,), (3,)]) == ((-10,), (-2,), (3,))

    def test_huge_magnitudes_keep_total_order(self):
        # Regression: magnitudes overflowing the 30-char padding broke the
        # total order of the string key.
        big = 10 ** 35
        assert canonicalize_result([(big,), (1,), (-big,)]) == ((-big,), (1,), (big,))

    def test_tied_uid_rows_canonicalize_consistently(self):
        left = [[(UniqueValue(0), UniqueValue(1)), (UniqueValue(1), UniqueValue(0))]]
        right = [[(UniqueValue(9), UniqueValue(3)), (UniqueValue(3), UniqueValue(9))]]
        assert results_equal(left, right)

    def test_different_uid_sharing_still_distinguished(self):
        left = [[(UniqueValue(0), UniqueValue(0)), (UniqueValue(1), UniqueValue(2))]]
        right = [[(UniqueValue(0), UniqueValue(1)), (UniqueValue(2), UniqueValue(3))]]
        assert not results_equal(left, right)

    def test_nan_results_compare_consistently(self):
        # NaN breaks raw comparisons (nan != nan, all orderings False), so
        # canonical forms must sanitize it: identical NaN-bearing results are
        # equal, and row permutation cannot flip UID numbering around them.
        nan1, nan2 = float("nan"), float("nan")
        left = [(nan1, UniqueValue(0), "x"), (nan1, UniqueValue(1), "x"), (UniqueValue(0),)]
        swapped = [(nan2, UniqueValue(1), "x"), (nan2, UniqueValue(0), "x"), (UniqueValue(0),)]
        assert results_equal([left], [list(left)])
        # Same bag of rows in a different order: must be equal.
        assert results_equal([left], [swapped])
        assert results_equal([[(float("nan"),)]], [[(float("nan"),)]])
        assert not results_equal([[(float("nan"),)]], [[(0.0,)]])

    def test_duplicate_rows_do_not_trigger_the_lossy_fallback(self):
        # 10 identical rows have exactly one distinct ordering (multinomial,
        # not factorial), so the exact path must handle them — and still
        # distinguish the cross-row sharing structure of the other tie group.
        dupes = [(UniqueValue(0), UniqueValue(0))] * 10
        left = [tuple(r) for r in dupes] + [(UniqueValue(1), UniqueValue(1))]
        right = [tuple(r) for r in dupes] + [(UniqueValue(1), UniqueValue(2))]
        assert results_equal([left], [list(left)])
        assert not results_equal([left], [right])

    def test_oversized_tie_group_is_permutation_invariant(self):
        # 8 rows forming a UID cycle tie under the UID-blind key (8! orderings
        # exceeds the exact-canonicalization cap), exercising the abstraction
        # fallback: a row permutation of the same bag must compare equal.
        rng = random.Random(3)
        rows = [
            (UniqueValue(i), UniqueValue((i + 1) % 8)) for i in range(8)
        ]
        for _ in range(20):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert results_equal([rows], [shuffled])

    def _random_result(self, rng):
        rows = []
        for _ in range(rng.randint(0, 5)):
            row = []
            for _ in range(rng.randint(1, 3)):
                choice = rng.random()
                if choice < 0.4:
                    row.append(UniqueValue(rng.randint(0, 4)))
                elif choice < 0.6:
                    row.append(rng.randint(-5, 5))
                elif choice < 0.8:
                    row.append(rng.choice(["a", "b"]))
                else:
                    row.append(None)
            rows.append(tuple(row))
        return rows

    def test_property_invariant_under_renaming_and_permutation(self):
        # Property (satellite requirement): canonicalize_outputs is invariant
        # under any injective UID renaming combined with any row permutation.
        rng = random.Random(7)
        for _ in range(300):
            rows = self._random_result(rng)
            permuted = list(rows)
            rng.shuffle(permuted)
            renaming = {}

            def rename(value):
                if isinstance(value, UniqueValue):
                    if value not in renaming:
                        # Injective: distinct fresh index per distinct UID.
                        renaming[value] = UniqueValue(1000 + 17 * len(renaming))
                    return renaming[value]
                return value

            renamed = [tuple(rename(v) for v in row) for row in permuted]
            assert canonicalize_result(rows) == canonicalize_result(renamed), (
                f"canonicalization not invariant for {rows!r} vs {renamed!r}"
            )

    def test_property_row_permutation_of_outputs(self):
        rng = random.Random(11)
        for _ in range(100):
            outputs = [self._random_result(rng) for _ in range(rng.randint(1, 3))]
            shuffled = [list(result) for result in outputs]
            for result in shuffled:
                rng.shuffle(result)
            assert results_equal(outputs, shuffled)


# ------------------------------------------------------------------------------ sequences
class TestSequenceGeneration:
    def test_argument_combinations_respect_seeds(self, people_program):
        func = people_program.function("addPerson")
        combos = argument_combinations(func, SeedSet.default())
        assert all(len(args) == 3 for args in combos)
        assert len(combos) >= 2

    def test_payload_parameters_use_single_constant(self, people_program):
        func = people_program.function("addPerson")
        key_attrs = filtered_attributes(people_program)
        params = predicate_parameters(func, key_attrs)
        combos = argument_combinations(func, SeedSet.default(), params)
        # id and name are keys (queried), age is payload -> only id/name vary
        ages = {args[2] for args in combos}
        assert len(ages) == 1

    def test_predicate_parameters_of_query(self, people_program):
        func = people_program.function("getPerson")
        assert predicate_parameters(func) == frozenset({"id"})

    def test_filtered_attributes(self, people_program):
        attrs = filtered_attributes(people_program)
        assert Attribute("Person", "PersonId") in attrs
        assert Attribute("Person", "Name") in attrs
        assert Attribute("Person", "Age") not in attrs

    def test_tables_touched(self, course_program):
        assert tables_touched(course_program.function("addInstructor")) == frozenset({"Instructor"})

    def test_sequences_increasing_length_end_with_query(self, people_program):
        generator = SequenceGenerator([people_program], max_updates=2)
        sequences = list(generator.sequences())
        assert sequences, "generator must produce sequences"
        lengths = [len(s) for s in sequences]
        assert lengths == sorted(lengths)
        for sequence in sequences:
            assert people_program.function(sequence[-1][0]).is_query
            for name, _ in sequence[:-1]:
                assert not people_program.function(name).is_query

    def test_relevance_filter_drops_unrelated_updates(self, course_program):
        generator = SequenceGenerator([course_program], max_updates=1)
        for sequence in generator.sequences():
            if len(sequence) == 2 and sequence[-1][0] == "getInstructorInfo":
                assert sequence[0][0] in {"addInstructor", "deleteInstructor"}

    def test_random_sequences_end_with_query(self, people_program):
        generator = SequenceGenerator([people_program])
        for sequence in generator.random_sequences(20, 4):
            assert people_program.function(sequence[-1][0]).is_query

    def test_format_sequence(self):
        text = format_sequence((("add", (1, "x")), ("get", (1,))))
        assert text == "add(1, 'x'); get(1)"


@pytest.mark.parametrize("name", benchmark_names())
def test_a_tester_computes_its_source_half_once(name, monkeypatch):
    """One tester serves candidates that touch different tables.

    Each gets exactly the queries of a fresh generator over the source and
    that candidate, and only the first call computes argument tuples: the
    synthesized program, a candidate that touches another workload's tables
    (that workload's function bodies under this source's names), the
    source itself, and the synthesized program again.
    """
    names = benchmark_names()
    benchmark = get_benchmark(name)
    source = benchmark.source_program
    synthesized = migrate(
        source, benchmark.target_schema, SynthesisConfig(verifier_random_sequences=10)
    ).program
    functions = list(source)
    bodies = itertools.cycle(get_benchmark(names[names.index(name) - 1]).source_program)
    foreign = source.with_functions(
        [dataclasses.replace(next(bodies), name=func.name) for func in functions]
    )
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return argument_combinations(*args, **kwargs)

    monkeypatch.setattr(invocation, "argument_combinations", counting)
    tester = BoundedTester(source)
    touched = set()
    for turn, candidate in enumerate([synthesized, foreign, source, synthesized]):
        fresh = SequenceGenerator([source, candidate]).queries()
        before = len(calls)
        assert tester.generator.queries(candidate) == fresh
        assert len(calls) - before == (len(functions) if turn == 0 else 0)
        touched.add(frozenset((func.name, tables_touched(func)) for func in candidate))
    assert len(touched) >= 2


# --------------------------------------------------------------------------------- tester
def _people_variant(people_schema, *, swap_columns=False, wrong_delete=False):
    """A variant of the people program over the same schema, possibly buggy."""
    pb = ProgramBuilder("people_variant", people_schema)
    name_attr, age_attr = "Person.Name", "Person.Age"
    if swap_columns:
        name_attr, age_attr = age_attr, name_attr
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")],
              insert("Person", {"Person.PersonId": "$id", name_attr: "$name", age_attr: "$age"}))
    delete_pred = eq("Person.Name", "$id") if wrong_delete else eq("Person.PersonId", "$id")
    pb.update("deletePerson", [("id", "int")], delete("Person", "Person", delete_pred))
    pb.query("getPerson", [("id", "int")],
             select(["Person.Name", "Person.Age"], "Person", eq("Person.PersonId", "$id")))
    pb.query("findByName", [("name", "str")],
             select(["Person.PersonId"], "Person", eq("Person.Name", "$name")))
    return pb.build(validate=False)


class TestBoundedTester:
    def test_identical_program_is_equivalent(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        assert tester.check_equivalent(_people_variant(people_schema))

    def test_swapped_columns_detected(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        buggy = _people_variant(people_schema, swap_columns=True)
        failing = tester.find_failing_input(buggy)
        assert failing is not None

    def test_wrong_delete_detected_and_mfi_is_minimal(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        buggy = _people_variant(people_schema, wrong_delete=True)
        failing = tester.find_failing_input(buggy)
        assert failing is not None
        # minimal counterexample needs an insert, the buggy delete and a query
        assert len(failing) <= 3

    def test_source_output_cache_is_used(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        tester.check_equivalent(_people_variant(people_schema))
        tester.check_equivalent(_people_variant(people_schema, swap_columns=True))
        assert tester.stats.source_cache_hits > 0

    def test_running_example_wrong_candidate(self, course_program, course_target_schema):
        """The spurious candidate from Section 2 is rejected with a short MFI."""
        pb = ProgramBuilder("wrong", course_target_schema)
        pb.update("addInstructor", [("id", "int"), ("name", "str"), ("pic", "binary")],
                  insert("Instructor", {"Instructor.InstId": "$id", "Instructor.IName": "$name"}))
        pb.update("deleteInstructor", [("id", "int")],
                  delete("Instructor", "Instructor", eq("Instructor.InstId", "$id")))
        pic_instructor = join(["Picture", "Instructor"], on=[("Picture.PicId", "Instructor.PicId")])
        pic_ta = join(["Picture", "TA"], on=[("Picture.PicId", "TA.PicId")])
        pb.query("getInstructorInfo", [("id", "int")],
                 select(["Instructor.IName", "Picture.Pic"], pic_instructor,
                        eq("Instructor.InstId", "$id")))
        pb.update("addTA", [("id", "int"), ("name", "str"), ("pic", "binary")],
                  insert("TA", {"TA.TaId": "$id", "TA.TName": "$name"}))
        pb.update("deleteTA", [("id", "int")],
                  delete("TA", "TA", eq("TA.TaId", "$id")))
        pb.query("getTAInfo", [("id", "int")],
                 select(["TA.TName", "Picture.Pic"], pic_ta, eq("TA.TaId", "$id")))
        wrong = pb.build(validate=False)
        tester = BoundedTester(course_program)
        failing = tester.find_failing_input(wrong)
        assert failing is not None
        assert len(failing) == 2  # e.g. addTA(...); getTAInfo(...)

    def test_explain_mentions_failing_sequence(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        text = tester.explain(_people_variant(people_schema, swap_columns=True))
        assert "differ" in text


# -------------------------------------------------------------------------------- verifier
class TestBoundedVerifier:
    def test_accepts_equivalent_program(self, people_program, people_schema):
        verifier = BoundedVerifier(max_updates=2, random_sequences=50)
        assert verifier.verify(people_program, _people_variant(people_schema)).equivalent

    def test_rejects_buggy_program_with_counterexample(self, people_program, people_schema):
        verifier = BoundedVerifier(max_updates=2, random_sequences=50)
        verdict = verifier.verify(people_program, _people_variant(people_schema, wrong_delete=True))
        assert not verdict.equivalent
        assert verdict.counterexample is not None

    def test_sequence_cap_is_respected(self, people_program, people_schema):
        verifier = BoundedVerifier(max_updates=3, random_sequences=0, max_sequences=10)
        verdict = verifier.verify(people_program, _people_variant(people_schema))
        assert verdict.sequences_checked <= 11


# ------------------------------------------------------- error-semantics agreement
def _erroring_people(people_schema):
    """A people program whose delete raises ExecutionError when invoked.

    The delete targets a table outside its own join chain, which the engine
    rejects at execution time.
    """
    pb = ProgramBuilder("people_broken", people_schema)
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")],
              insert("Person", {"Person.PersonId": "$id", "Person.Name": "$name",
                                "Person.Age": "$age"}))
    pb.update("deletePerson", [("id", "int")],
              delete("Ghost", "Person", eq("Person.PersonId", "$id")))
    pb.query("getPerson", [("id", "int")],
             select(["Person.Name", "Person.Age"], "Person", eq("Person.PersonId", "$id")))
    pb.query("findByName", [("name", "str")],
             select(["Person.PersonId"], "Person", eq("Person.Name", "$name")))
    return pb.build(validate=False)


class TestErrorSemanticsAgreement:
    """Tester and verifier must agree on ExecutionError semantics.

    The seed code disagreed: the tester treated a candidate ``ExecutionError``
    as failing while the verifier compared ``None == None`` and would accept a
    candidate that errors wherever the source errors — the same candidate
    could pass verification yet fail testing on the same sequence.
    """

    def test_erroring_candidate_fails_testing(self, people_program, people_schema):
        tester = BoundedTester(people_program)
        failing = tester.find_failing_input(_erroring_people(people_schema))
        assert failing is not None
        assert any(name == "deletePerson" for name, _ in failing)

    def test_erroring_candidate_fails_verification(self, people_program, people_schema):
        verifier = BoundedVerifier(max_updates=2, random_sequences=0)
        verdict = verifier.verify(people_program, _erroring_people(people_schema))
        assert not verdict.equivalent
        assert verdict.counterexample is not None

    def test_both_erroring_is_not_equivalence(self, people_schema):
        # Regression: with source and candidate both erroring, the seed
        # verifier returned "equivalent" (None == None) while the tester
        # raised — now both propagate the source error.
        from repro.engine.joins import ExecutionError

        broken = _erroring_people(people_schema)
        verifier = BoundedVerifier(max_updates=2, random_sequences=0)
        with pytest.raises(ExecutionError):
            verifier.verify(broken, _erroring_people(people_schema))
        tester = BoundedTester(broken)
        with pytest.raises(ExecutionError):
            tester.find_failing_input(_erroring_people(people_schema))
