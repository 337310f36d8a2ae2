"""Tests for similarity, value correspondences, and their lazy enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.correspondence import (
    DEFAULT_ALPHA,
    FactoredVcEnumerator,
    MaxSatVcEnumerator,
    ValueCorrespondence,
    ValueCorrespondenceEnumerator,
    VcEnumerationError,
    compatible_targets,
    identity_correspondence,
    levenshtein,
    name_similarity,
    normalized_similarity,
)
from repro.datamodel import Attribute, DataType as T, make_schema
from repro.lang.builder import ProgramBuilder, eq, insert, select
from repro.workloads import get_benchmark


# ----------------------------------------------------------------------------- similarity
def _levenshtein_dp(left: str, right: str) -> int:
    """The row-by-row dynamic program: the reference the fast version is pinned to."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, lchar in enumerate(left, start=1):
        current = [i]
        for j, rchar in enumerate(right, start=1):
            cost = 0 if lchar == rchar else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


class TestSimilarity:
    def test_levenshtein_basics(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("abc", "") == 3
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("IPic", "Pic") == 1

    def test_levenshtein_symmetry(self):
        assert levenshtein("email", "mail") == levenshtein("mail", "email")

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="abcXé日_ ", max_size=90) | st.text(max_size=12),
        st.text(alphabet="abcXé日_ ", max_size=90) | st.text(max_size=12),
    )
    def test_levenshtein_matches_dynamic_programming(self, left, right):
        # Small alphabets make long strings share characters, so the
        # bit-parallel deltas are exercised beyond one 64-bit word.
        assert levenshtein(left, right) == _levenshtein_dp(left, right)

    @pytest.mark.parametrize(
        "left, right",
        [
            ("", ""),
            ("", "日本語"),
            ("ünïcødé", "unicode"),
            ("a" * 70, "a" * 69 + "b"),
            ("customer_billing_address_" * 3, "customer_shipping_address_" * 3),
            ("x" * 65, ""),
        ],
    )
    def test_levenshtein_edge_cases_match_dynamic_programming(self, left, right):
        assert levenshtein(left, right) == _levenshtein_dp(left, right)
        assert levenshtein(right, left) == _levenshtein_dp(left, right)

    def test_identical_names_score_alpha(self):
        assert name_similarity("InstId", "instid") == DEFAULT_ALPHA

    def test_substring_rename_scores_high(self):
        assert name_similarity("email", "email_address") == DEFAULT_ALPHA - 1

    def test_unrelated_names_score_negative(self):
        assert name_similarity("users_email", "products_weight") < 0

    def test_normalized_similarity_bounds(self):
        assert normalized_similarity("abc", "abc") == 1.0
        assert 0.0 <= normalized_similarity("abc", "xyz") <= 1.0


# ---------------------------------------------------------------------- value correspondence
@pytest.fixture()
def simple_pair():
    source = make_schema("src", {"A": {"x": T.INT, "y": T.STRING}})
    target = make_schema("tgt", {"B": {"x": T.INT, "z": T.STRING}})
    return source, target


class TestValueCorrespondence:
    def test_image_and_dropped(self, simple_pair):
        source, target = simple_pair
        vc = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        assert vc.image(Attribute("A", "x")) == frozenset({Attribute("B", "x")})
        assert not vc.is_mapped(Attribute("A", "y"))
        assert Attribute("A", "y") in vc.dropped_attributes()

    def test_unknown_source_attribute_rejected(self, simple_pair):
        source, target = simple_pair
        with pytest.raises(ValueError):
            ValueCorrespondence(source, target, {Attribute("A", "nope"): set()})

    def test_unknown_target_attribute_rejected(self, simple_pair):
        source, target = simple_pair
        with pytest.raises(ValueError):
            ValueCorrespondence(
                source, target, {Attribute("A", "x"): {Attribute("B", "nope")}}
            )

    def test_inverse(self, simple_pair):
        source, target = simple_pair
        vc = ValueCorrespondence(
            source,
            target,
            {Attribute("A", "x"): {Attribute("B", "x")}, Attribute("A", "y"): {Attribute("B", "z")}},
        )
        inverse = vc.inverse()
        assert inverse[Attribute("B", "z")] == {Attribute("A", "y")}

    def test_equality_and_hash(self, simple_pair):
        source, target = simple_pair
        vc1 = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        vc2 = ValueCorrespondence(source, target, {Attribute("A", "x"): {Attribute("B", "x")}})
        assert vc1 == vc2
        assert len({vc1, vc2}) == 1

    def test_identity_correspondence(self, course_source_schema, course_target_schema):
        vc = identity_correspondence(course_source_schema, course_target_schema)
        assert vc.image(Attribute("Instructor", "IName")) == frozenset(
            {Attribute("Instructor", "IName")}
        )
        # IPic has no same-named target attribute and is dropped
        assert not vc.is_mapped(Attribute("Instructor", "IPic"))


# ----------------------------------------------------------------------------- enumeration
class TestEnumeration:
    def test_compatible_targets_filters_types_and_sorts(self, course_source_schema, course_target_schema):
        targets = compatible_targets(
            course_source_schema, course_target_schema, Attribute("Instructor", "IPic")
        )
        names = [attr for attr, _ in targets]
        assert names[0] == Attribute("Picture", "Pic")
        assert all(course_target_schema.type_of(a) == T.BINARY for a, _ in targets)

    def test_first_vc_of_running_example(self, course_program, course_target_schema):
        enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
        first = enumerator.next_value_corr()
        vc = first.correspondence
        assert vc.image(Attribute("Instructor", "IPic")) == frozenset({Attribute("Picture", "Pic")})
        assert vc.image(Attribute("TA", "TPic")) == frozenset({Attribute("Picture", "Pic")})
        assert vc.image(Attribute("Instructor", "InstId")) == frozenset(
            {Attribute("Instructor", "InstId")}
        )

    def test_enumeration_is_non_increasing_in_weight(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema)
        weights = []
        for candidate, _ in zip(enumerator.candidates(), range(15)):
            weights.append(candidate.weight)
        assert weights == sorted(weights, reverse=True)

    def test_enumeration_never_repeats(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema)
        seen = set()
        for candidate, _ in zip(enumerator.candidates(), range(25)):
            key = candidate.correspondence.key()
            assert key not in seen
            seen.add(key)

    def test_queried_attribute_without_target_raises(self):
        source = make_schema("s", {"A": {"x": T.BINARY}})
        target = make_schema("t", {"B": {"y": T.INT}})
        pb = ProgramBuilder("p", source)
        pb.query("q", [("v", "binary")], select(["A.x"], "A", eq("A.x", "$v")))
        program = pb.build()
        with pytest.raises(VcEnumerationError):
            ValueCorrespondenceEnumerator(program, target)

    def test_engines_agree_on_optimum_weight(self):
        """The factored engine and the full MaxSAT encoding (its reference)
        agree on the optimum: a tiny schema, and Ambler-4, the one Table 1
        workload small enough for the MaxSAT encoding."""
        source = make_schema("s", {"A": {"id": T.INT, "name": T.STRING}})
        target = make_schema(
            "t", {"B": {"id": T.INT, "name": T.STRING, "title": T.STRING}}
        )
        pb = ProgramBuilder("p", source)
        pb.update("add", [("id", "int"), ("name", "str")],
                  insert("A", {"A.id": "$id", "A.name": "$name"}))
        pb.query("get", [("id", "int")], select(["A.name"], "A", eq("A.id", "$id")))
        program = pb.build()
        ambler = get_benchmark("Ambler-4")

        for source_program, target_schema in (
            (program, target),
            (ambler.source_program, ambler.target_schema),
        ):
            factored = FactoredVcEnumerator(source_program, target_schema)
            maxsat = MaxSatVcEnumerator(source_program, target_schema)
            best_factored = next(factored.candidates())
            best_maxsat = next(maxsat.candidates())
            assert best_factored.correspondence == best_maxsat.correspondence
            # The session's enumerator is the factored engine.
            session_vc = ValueCorrespondenceEnumerator(source_program, target_schema)
            assert session_vc.next_value_corr().correspondence == best_factored.correspondence
        # objective values are reported on different scales (satisfied weight vs
        # factored reward), but both must map name -> name and id -> id
        best_tiny = next(FactoredVcEnumerator(program, target).candidates())
        assert best_tiny.correspondence.image(Attribute("A", "name")) == frozenset(
            {Attribute("B", "name")}
        )

    def test_max_fanout_limits_image_size(self, course_program, course_target_schema):
        enumerator = FactoredVcEnumerator(course_program, course_target_schema, max_fanout=1)
        for candidate, _ in zip(enumerator.candidates(), range(20)):
            for _, image in candidate.correspondence.items():
                assert len(image) <= 1
