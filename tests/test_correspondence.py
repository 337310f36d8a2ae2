"""Tests for similarity, value correspondences, and their lazy enumeration."""

import heapq
import itertools
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from maxsat_reference import MaxSatVcEnumerator
from repro.correspondence import (
    DEFAULT_ALPHA,
    FactoredVcEnumerator,
    ValueCorrespondence,
    ValueCorrespondenceEnumerator,
    VcEnumerationError,
    compatible_targets,
    identity_correspondence,
    levenshtein,
    name_similarity,
    normalized_similarity,
)
from repro.correspondence.enumerator import _index_targets, _RowCandidates
from repro.correspondence.similarity import _cached_levenshtein, similarity_bound
from repro.core import BudgetExhausted, SynthesisConfig, SynthesisSession, migrate
from repro.datamodel import Attribute, DataType as T, make_schema
from repro.datamodel.types import compatible
from repro.lang.builder import ProgramBuilder, eq, insert, select
from repro.workloads import benchmark_names, get_benchmark, rename_variants

FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"


#: Attribute and table names: mixed case, shared prefixes and suffixes, a
#: character whose lower case is longer (``"İ"``), and names of 0–2
#: characters.  The alphabet is small, so one name often recurs in several
#: tables, and a dot lets two targets share ``str(target)`` (``a.b`` + ``c``
#: and ``a`` + ``b.c``), leaving the tie to declaration position.
_NAMES = st.one_of(
    st.text(alphabet="aAbİ_.", max_size=2),
    st.lists(
        st.sampled_from(["id", "Id", "ID", "user", "User", "name", "_", "x", "İ", "ab"]),
        min_size=1,
        max_size=4,
    ).map("".join),
)


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

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="aAİı_", max_size=4), st.text(alphabet="aAİı_", max_size=4))
    @example("İ", "x")
    def test_normalized_similarity_stays_in_the_unit_interval(self, left, right):
        # "İ".lower() has two code points: the distance is measured on the
        # lower-cased names, so their lengths scale it.
        assert 0.0 <= normalized_similarity(left, right) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(_NAMES, _NAMES)
    def test_similarity_bound_is_exact_or_bounds_the_score(self, left, right):
        bound, exact = similarity_bound(left.lower(), right.lower())
        score = name_similarity(left, right)
        assert bound == score if exact else bound >= score


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


# ------------------------------------------------------------------------------ lazy rows
class _EagerRow:
    """A row that scores and sorts every target up front: the lazy rows' reference.

    *targets* are given in order.  Every singleton is pushed at once, and a
    popped subset's successors as it is popped, so ``_seen`` deduplicates
    the singletons that are also replace-successors.
    """

    def __init__(self, attribute, targets, *, required, alpha, max_fanout=None):
        self.attribute = attribute
        self.targets = list(targets)
        self.required = required
        self.alpha = alpha
        self.max_fanout = max_fanout
        self._produced = []
        self._heap = []
        self._seen = set()
        if not required:
            self._push(())
        for index in range(len(self.targets)):
            self._push((index,))

    @property
    def feasible(self):
        return bool(self._heap) or bool(self._produced)

    def _push(self, indices):
        if indices in self._seen:
            return
        if self.max_fanout is not None and len(indices) > self.max_fanout:
            return
        self._seen.add(indices)
        size = len(indices)
        weight = sum(self.targets[i][1] for i in indices) - self.alpha * (size * (size - 1) // 2)
        heapq.heappush(self._heap, (-weight, indices))

    def get(self, rank):
        while len(self._produced) <= rank and self._heap:
            neg_weight, indices = heapq.heappop(self._heap)
            self._produced.append((-neg_weight, frozenset(self.targets[i][0] for i in indices)))
            if indices and indices[-1] + 1 < len(self.targets):
                last = indices[-1]
                self._push(indices[:-1] + (last + 1,))
                self._push(indices + (last + 1,))
        return self._produced[rank] if rank < len(self._produced) else None


def _spec_order(source, target, attr, alpha=DEFAULT_ALPHA):
    """The compatible targets of *attr* with their similarity, sorted by the spec's key.

    ``(−sim(name), −sim(table), str(target), declaration position)``, from
    ``name_similarity`` and one sort over every target.
    """
    keyed = [
        (
            (
                -name_similarity(attr.name, candidate.name, alpha),
                -name_similarity(attr.table, candidate.table, alpha),
                str(candidate),
                position,
            ),
            candidate,
        )
        for position, candidate in enumerate(target.attributes())
        if compatible(source.type_of(attr), target.type_of(candidate))
    ]
    keyed.sort()
    return [(candidate, -key[0]) for key, candidate in keyed]


_TYPES = st.sampled_from([T.INT, T.STRING, T.BOOL])


def _schemas(name):
    return st.dictionaries(
        _NAMES, st.dictionaries(_NAMES, _TYPES, min_size=1, max_size=5), min_size=1, max_size=4
    ).map(lambda tables: make_schema(name, tables))


#: (registry name, rename variant or None).  ``REPRO_FULL_EQUIV=1`` checks
#: the 20 targets and their r0–r2 rename variants.
LAZY_TARGETS = (
    [(name, variant) for name in benchmark_names() for variant in (None, 0, 1, 2)]
    if FULL_EQUIV
    else [("Ambler-5", None), ("Oracle-2", 0), ("gallery", 1), ("cdx", 2)]
)


class TestLazyRows:
    """Rows score their targets on demand and keep the eager rows' stream exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        source=_schemas("s"),
        target=_schemas("t"),
        required=st.booleans(),
        max_fanout=st.sampled_from([None, 1, 2]),
        ranks=st.lists(st.integers(0, 30), max_size=6),
    )
    @example(
        # Both targets read "a.b.c" and tie on both similarities (4 and 6):
        # declaration position decides.
        source=make_schema("s", {"ab": {"xyc": T.INT}}),
        target=make_schema("t", {"a.b": {"c": T.INT}, "a": {"b.c": T.INT}}),
        required=True,
        max_fanout=2,
        ranks=[],
    )
    def test_rows_follow_the_spec_order_and_the_eager_stream(
        self, source, target, required, max_fanout, ranks
    ):
        index = _index_targets(target)
        for attr in source.attributes():
            expected = _spec_order(source, target, attr)
            row = _RowCandidates(attr, source.type_of(attr), index, required=required, alpha=8)
            assert row.drained() == expected
            assert compatible_targets(source, target, attr) == expected

            lazy = _RowCandidates(
                attr, source.type_of(attr), index,
                required=required, alpha=8, max_fanout=max_fanout,
            )
            eager = _EagerRow(attr, expected, required=required, alpha=8, max_fanout=max_fanout)
            assert lazy.feasible == eager.feasible
            # Random reads first (a rank far ahead, then back), then every rank.
            for rank in ranks + list(range(31)):
                assert lazy.get(rank) == eager.get(rank)

    @pytest.mark.parametrize("name, variant", LAZY_TARGETS)
    def test_enumerator_yields_the_stream_of_eager_rows(self, name, variant):
        benchmark = get_benchmark(name)
        source, target = benchmark.source_program, benchmark.target_schema
        if variant is not None:
            target = rename_variants(target, variant + 1)[variant]
        lazy = FactoredVcEnumerator(source, target)
        eager = FactoredVcEnumerator(source, target)
        eager.rows = [
            _EagerRow(
                row.attribute,
                _spec_order(source.schema, target, row.attribute),
                required=row.required,
                alpha=row.alpha,
                max_fanout=row.max_fanout,
            )
            for row in eager.rows
        ]
        expected = [
            (c.correspondence, c.weight) for c in itertools.islice(eager.candidates(), 64)
        ]
        assert [
            (c.correspondence, c.weight) for c in itertools.islice(lazy.candidates(), 64)
        ] == expected

    def test_first_correspondences_compute_few_distances(self):
        """Scoring every compatible target up front took 32,523 distances here."""
        benchmarks = [get_benchmark(name) for name in benchmark_names()]
        _cached_levenshtein.cache_clear()
        for benchmark in benchmarks:
            enumerator = ValueCorrespondenceEnumerator(
                benchmark.source_program, benchmark.target_schema
            )
            assert enumerator.next_value_corr() is not None
        assert _cached_levenshtein.cache_info().misses <= 1000


# --------------------------------------------------------------------------------- nogoods
#: (registry name, rename variant or None).  ``REPRO_FULL_EQUIV=1`` sweeps
#: the 20 targets and their column-0 rename variants, 5 trials each.
NOGOOD_TARGETS = (
    [(name, variant) for name in benchmark_names() for variant in (None, 0)]
    if FULL_EQUIV
    else [("Ambler-5", None), ("Ambler-8", 0), ("gallery", 0), ("Oracle-2", 0)]
)
NOGOOD_PREFIX = 400 if FULL_EQUIV else 150
NOGOOD_TRIALS = 5 if FULL_EQUIV else 3


def _agrees(vc: ValueCorrespondence, partial) -> bool:
    return all(vc.image(attr) == image for attr, image in partial.items())


def _filtered(stream, schedule) -> list:
    """*stream* minus every VC a nogood blocks by the time it would be yielded.

    *schedule* lists ``(yields, partial)``: the nogood is blocked once the
    enumerator has yielded that many VCs.
    """
    kept, active = [], []
    for vc, weight in stream:
        active = [partial for at, partial in schedule if at <= len(kept)]
        if not any(_agrees(vc, partial) for partial in active):
            kept.append((vc, weight))
    return kept


def _pruned(enumerator: FactoredVcEnumerator, schedule, count: int) -> list:
    """The first *count* VCs of *enumerator*, blocking each nogood on schedule."""
    stream = enumerator.candidates()
    got = []
    while len(got) < count:
        for at, partial in schedule:
            if at == len(got):
                enumerator.block(partial)
        candidate = next(stream, None)
        if candidate is None:
            break
        got.append((candidate.correspondence, candidate.weight))
    return got


def _draw_schedule(rng: random.Random, stream) -> list:
    """1–4 nogoods: 1–3 attributes of a VC of *stream*, blocked up front or later."""
    schedule = []
    for _ in range(rng.randint(1, 4)):
        vc, _weight = rng.choice(stream)
        attrs = sorted(attr for attr, _image in vc.items())
        attrs = rng.sample(attrs, rng.randint(1, min(3, len(attrs))))
        at = 0 if rng.random() < 0.5 else rng.randint(1, 30)
        schedule.append((at, {attr: vc.image(attr) for attr in attrs}))
    return schedule


class TestNogoods:
    """Blocking nogoods inside the best-first search removes VCs, never reorders.

    The pruned stream must equal the unpruned stream minus the VCs that
    agree with a nogood blocked by then, in the same order and with the
    same weights.
    """

    @pytest.mark.parametrize("name, variant", NOGOOD_TARGETS)
    def test_pruned_stream_equals_filtered_stream(self, name, variant):
        benchmark = get_benchmark(name)
        source, target = benchmark.source_program, benchmark.target_schema
        if variant is not None:
            target = rename_variants(target, variant + 1)[variant]
        unpruned = [
            (candidate.correspondence, candidate.weight)
            for candidate in itertools.islice(
                FactoredVcEnumerator(source, target).candidates(), NOGOOD_PREFIX
            )
        ]
        rng = random.Random(f"{name}/{variant}")
        removed = 0
        for _ in range(NOGOOD_TRIALS):
            schedule = _draw_schedule(rng, unpruned)
            expected = _filtered(unpruned, schedule)
            assert _pruned(FactoredVcEnumerator(source, target), schedule, len(expected)) == (
                expected
            )
            removed += len(unpruned) - len(expected)
        assert removed > 0

    def test_exhausts_the_running_example_to_its_end(self, course_program, course_target_schema):
        """Nogoods leave a small rest of the space; the stream ends after exactly it.

        Single-attribute nogoods keep the first two images of each row (three
        for the two key rows); two-attribute nogoods then remove combinations
        inside that rest.  The expected stream is every remaining rank tuple,
        sorted by (-weight, ranks): the order the heap pops states in.
        """
        enumerator = FactoredVcEnumerator(course_program, course_target_schema, max_fanout=1)
        # Every (weight, image) each row offers, best first.
        offers = []
        for row in enumerator.rows:
            entries = []
            while (entry := row.get(len(entries))) is not None:
                entries.append(entry)
            offers.append(entries)
        keep = [3 if row.attribute.name in ("InstId", "TaId") and row.required else 2
                for row in enumerator.rows]
        for row, entries, kept in zip(enumerator.rows, offers, keep):
            for _weight, image in entries[kept:]:
                enumerator.block({row.attribute: image})
        open_rows = [index for index, entries in enumerate(offers) if len(entries) > 1]
        # Two-attribute nogoods as (row, rank, row, rank).
        pairs = [(open_rows[0], 1, open_rows[1], 0), (open_rows[2], 0, open_rows[-1], 1)]
        for left, left_rank, right, right_rank in pairs:
            enumerator.block({
                enumerator.rows[left].attribute: offers[left][left_rank][1],
                enumerator.rows[right].attribute: offers[right][right_rank][1],
            })

        remaining = []
        for ranks in itertools.product(*(range(min(k, len(e))) for k, e in zip(keep, offers))):
            if any(ranks[left] == left_rank and ranks[right] == right_rank
                   for left, left_rank, right, right_rank in pairs):
                continue
            weight = sum(offers[index][rank][0] for index, rank in enumerate(ranks))
            remaining.append((-weight, ranks))
        expected = [
            (
                ValueCorrespondence(
                    course_program.schema,
                    course_target_schema,
                    {row.attribute: offers[index][rank][1]
                     for index, (row, rank) in enumerate(zip(enumerator.rows, ranks))},
                ),
                -neg_weight,
            )
            for neg_weight, ranks in sorted(remaining)
        ]
        got = [(c.correspondence, c.weight) for c in enumerator.candidates()]
        assert len(expected) > 100
        assert got == expected
        assert enumerator.skipped > 0

    def test_session_blocks_nogoods_and_skips_do_not_count(self):
        """Ambler-5 solves at its 4th tried VC; the unpruned order needs 10.

        The VCs the enumerator skips are never tried, so a budget of 4
        suffices: skipped VCs do not count toward
        ``max_value_correspondences``.
        """
        bench = get_benchmark("Ambler-5")
        config = SynthesisConfig(max_value_correspondences=4, verifier_random_sequences=10)
        result = migrate(bench.source_program, bench.target_schema, config)
        assert result.succeeded
        assert result.value_correspondences_tried == len(result.attempts) == 4
        for attempt in result.attempts[:-1]:
            assert attempt.failure_reason == "no equivalent completion"
            assert attempt.nogood is not None and attempt.nogood.mapping

    def test_nogoods_exhaust_the_enumerator(self):
        """No VC gives ``get`` a join chain: one attempt, then the rest is skipped."""
        source = make_schema("s", {"A": {"x": T.INT, "y": T.STRING, "z": T.INT}})
        target = make_schema("t", {"B": {"x": T.INT}, "C": {"y": T.STRING}})
        pb = ProgramBuilder("p", source)
        pb.query("get", [("x", "int")], select(["A.y"], "A", eq("A.x", "$x")))
        program = pb.build()
        assert len(list(FactoredVcEnumerator(program, target).candidates())) > 1

        result = migrate(program, target, SynthesisConfig())
        assert result.status == "FAILED"
        assert result.value_correspondences_tried == 1
        nogood = result.attempts[0].nogood
        assert nogood.functions == {"get"}
        assert nogood.mapping == {
            Attribute("A", "x"): {Attribute("B", "x")},
            Attribute("A", "y"): {Attribute("C", "y")},
        }
        assert result.attempts[0].to_dict()["nogood"] == {
            "functions": ["get"],
            "mapping": {"A.x": ["B.x"], "A.y": ["C.y"]},
        }

        events = list(SynthesisSession(program, target, SynthesisConfig()).events())
        assert isinstance(events[-1], BudgetExhausted)
        assert events[-1].reason == (
            "value correspondences exhausted; the rest agree with recorded nogoods of get"
        )
