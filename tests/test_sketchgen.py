"""Tests for the join graph, Steiner trees, join correspondences, and sketch generation."""

import itertools
import random
import re

import pytest

from repro.correspondence import (
    FactoredVcEnumerator,
    ValueCorrespondence,
    ValueCorrespondenceEnumerator,
    identity_correspondence,
)
from repro.datamodel import Attribute, DataType as T, make_schema
from repro.lang import Program
from repro.lang.builder import ProgramBuilder, eq, insert, select
from repro.sketchgen import (
    JoinGraph,
    ProgramSketch,
    QueryFunctionSketch,
    SketchGenerationError,
    SketchGenerator,
    SketchGeneratorConfig,
    SteinerLimits,
    UpdateFunctionSketch,
    candidate_join_chains,
    is_valid_join_correspondence,
    steiner_chains,
)
from repro.sketchgen.join_graph import tree_to_join_chain
from repro.sketchgen.sketch_ast import Hole, HoleAllocator
from repro.workloads import get_benchmark, rename_variants


# -------------------------------------------------------------------------------- graph
class TestJoinGraph:
    def test_edges_from_shared_columns(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        assert {"Instructor", "Picture"} <= graph.neighbors("Picture") | {"Picture"}
        assert "Picture" in graph.neighbors("Instructor")
        assert "Class" in graph.neighbors("Instructor")

    def test_connectivity(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        assert graph.is_connected(["Picture", "Instructor"])
        assert graph.is_connected(["Picture", "Instructor", "Class"])
        assert not graph.is_connected(["Picture", "Class"])  # only linked through Instructor/TA

    def test_connected_component(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        assert graph.connected_component("Picture") == {"Picture", "Instructor", "TA", "Class"}

    def test_edges_between_restricts_to_subset(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        edges = graph.edges_between(["Picture", "Instructor"])
        assert all({e.left, e.right} <= {"Picture", "Instructor"} for e in edges)

    def test_tree_to_join_chain_single_table(self):
        chain = tree_to_join_chain(["T"], [])
        assert chain.is_single_table


# ------------------------------------------------------------------------------- steiner
class TestSteinerChains:
    def test_running_example_chains(self, course_target_schema):
        """Terminals {Picture, Instructor} yield the three chains of Figure 3."""
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(graph, ["Picture", "Instructor"])
        table_sets = {chain.table_set() for chain in chains}
        assert frozenset({"Picture", "Instructor"}) in table_sets
        assert frozenset({"Picture", "TA", "Instructor"}) in table_sets
        assert frozenset({"Picture", "TA", "Class", "Instructor"}) in table_sets

    def test_smallest_chain_first(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(graph, ["Picture", "Instructor"])
        sizes = [len(chain.tables) for chain in chains]
        assert sizes == sorted(sizes)

    def test_single_terminal(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(graph, ["Picture"])
        assert chains[0].is_single_table

    def test_unconnected_terminals_produce_nothing(self):
        schema = make_schema("s", {"A": {"x": T.INT}, "B": {"y": T.INT}})
        graph = JoinGraph(schema)
        assert steiner_chains(graph, ["A", "B"]) == []

    def test_limits_cap_extra_tables(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(
            graph, ["Picture", "Instructor"], SteinerLimits(max_extra_tables=0)
        )
        assert all(chain.table_set() == frozenset({"Picture", "Instructor"}) for chain in chains)

    def test_unknown_terminal_raises(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        with pytest.raises(KeyError):
            steiner_chains(graph, ["Nope"])

    def test_chain_conditions_connect_chain_tables(self, course_target_schema):
        graph = JoinGraph(course_target_schema)
        for chain in steiner_chains(graph, ["Picture", "Class"]):
            tables = set(chain.tables)
            for left, right in chain.conditions:
                assert left.table in tables and right.table in tables
            assert len(chain.conditions) == len(chain.tables) - 1

    def test_chains_memoized_per_graph(self, course_target_schema):
        """Repeated requests reuse one enumeration per (terminals, limits)."""
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(graph, ["Picture", "Instructor"])
        again = steiner_chains(graph, {"Instructor", "Picture"})
        assert again == chains and again is not chains  # callers get their own list
        assert all(a is b for a, b in zip(chains, again))
        narrow = steiner_chains(graph, ["Picture", "Instructor"], SteinerLimits(max_extra_tables=0))
        assert len(narrow) < len(chains)
        assert len(graph.steiner_memo) == 2
        fresh = steiner_chains(JoinGraph(course_target_schema), ["Picture", "Instructor"])
        assert fresh == chains and fresh[0] is not chains[0]
        graph.add_edge(Attribute("Picture", "PicId"), Attribute("Class", "ClassId"))
        assert graph.steiner_memo == {}


# ----------------------------------------------------------------------- join correspondence
class TestJoinCorrespondence:
    def test_is_valid_join_correspondence(self, course_program, course_target_schema):
        enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
        vc = enumerator.next_value_corr().correspondence
        graph = JoinGraph(course_target_schema)
        attrs = [Attribute("Instructor", "IName"), Attribute("Instructor", "IPic")]
        chains = candidate_join_chains(vc, graph, attrs)
        assert chains
        for chain in chains:
            assert is_valid_join_correspondence(vc, attrs, chain)

    def test_unmapped_attribute_invalidates(self, course_program, course_target_schema):
        vc = identity_correspondence(course_program.schema, course_target_schema)
        # IPic is dropped by the identity correspondence
        attrs = [Attribute("Instructor", "IPic")]
        graph = JoinGraph(course_target_schema)
        chains = steiner_chains(graph, ["Picture"])
        assert not is_valid_join_correspondence(vc, attrs, chains[0])

    def test_candidate_chains_empty_for_unmapped_attrs(self, course_program, course_target_schema):
        vc = identity_correspondence(course_program.schema, course_target_schema)
        graph = JoinGraph(course_target_schema)
        assert candidate_join_chains(vc, graph, [Attribute("Instructor", "IPic")]) == []


# --------------------------------------------------------------------------------- sketch
class TestSketchGeneration:
    @pytest.fixture()
    def running_example_sketch(self, course_program, course_target_schema) -> ProgramSketch:
        enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
        vc = enumerator.next_value_corr().correspondence
        generator = SketchGenerator(course_program, course_target_schema)
        return generator.generate(vc)

    def test_sketch_covers_all_functions(self, running_example_sketch, course_program):
        names = {sketch.name for sketch in running_example_sketch.functions}
        assert names == set(course_program.function_names)

    def test_search_space_is_product_of_hole_sizes(self, running_example_sketch):
        """The Figure 3 sketch of the paper has 164,025 completions; our join
        graph additionally contains same-name edges, so the space is at least
        as large and always equals the product of the hole domain sizes."""
        expected = 1
        for hole in running_example_sketch.holes():
            expected *= hole.size
        assert running_example_sketch.search_space_size() == expected
        assert expected >= 164025

    def test_hole_structure_of_running_example(self, running_example_sketch):
        by_function = running_example_sketch.holes_by_function()
        # insert functions: one choice hole containing the three paper chains
        add_holes = by_function["addInstructor"]
        assert len(add_holes) == 1
        table_sets = {
            frozenset(t for chain in alternative for t in chain.tables)
            for alternative in add_holes[0].domain
        }
        assert frozenset({"Picture", "Instructor"}) in table_sets
        assert frozenset({"Picture", "TA", "Instructor"}) in table_sets
        assert frozenset({"Picture", "TA", "Class", "Instructor"}) in table_sets
        # delete functions: a chain choice hole and a table-list hole
        delete_holes = by_function["deleteInstructor"]
        assert len(delete_holes) == 2
        # query functions: one join hole
        query_holes = by_function["getInstructorInfo"]
        assert len(query_holes) == 1 and query_holes[0].size >= 3

    def test_holes_are_globally_unique(self, running_example_sketch):
        indices = [hole.index for hole in running_example_sketch.holes()]
        assert len(indices) == len(set(indices))

    def test_describe_mentions_hole_counts(self, running_example_sketch):
        text = running_example_sketch.describe()
        assert "completions" in text and "8 holes" in text

    def test_function_sketch_lookup(self, running_example_sketch):
        assert isinstance(running_example_sketch.function_sketch("getTAInfo"), QueryFunctionSketch)
        assert isinstance(running_example_sketch.function_sketch("addTA"), UpdateFunctionSketch)
        with pytest.raises(KeyError):
            running_example_sketch.function_sketch("nope")

    def test_empty_hole_domain_rejected(self):
        with pytest.raises(ValueError):
            Hole(1, "f", ())

    def test_hole_allocator_assigns_increasing_indices(self):
        allocator = HoleAllocator()
        h1 = allocator.attr_hole("f", [Attribute("A", "x")], "a")
        h2 = allocator.join_hole("f", [__import__("repro.lang.ast", fromlist=["JoinChain"]).JoinChain.of("A")], "j")
        assert h2.index == h1.index + 1

    def test_unmapped_predicate_attribute_fails_generation(self, course_program, course_target_schema):
        vc = identity_correspondence(course_program.schema, course_target_schema)
        generator = SketchGenerator(course_program, course_target_schema)
        # the identity correspondence drops IPic, which getInstructorInfo projects
        with pytest.raises(SketchGenerationError):
            generator.generate(vc)

    def test_composition_pruning_limits_alternatives(self, course_program, course_target_schema):
        enumerator = ValueCorrespondenceEnumerator(course_program, course_target_schema)
        vc = enumerator.next_value_corr().correspondence
        config = SketchGeneratorConfig(prune_subsumed_compositions=False)
        generator = SketchGenerator(course_program, course_target_schema, config)
        sketch = generator.generate(vc)
        # without pruning, insert statements also admit composed alternatives
        add_holes = sketch.holes_by_function()["addInstructor"]
        assert add_holes[0].size > 3


# ---------------------------------------------------------------------------------- reads
def _job(job: str):
    """(source program, target schema) of a registry job; ``/r0`` is a rename variant."""
    name, _, variant = job.partition("/")
    benchmark = get_benchmark(name)
    target = benchmark.target_schema
    if variant:
        target = rename_variants(target, 1)[0]
    return benchmark.source_program, target


def _shape(function_sketch) -> str:
    """The function sketch's repr with hole indices counted from its first hole.

    Hole indices are global to a program sketch, so another function's
    hole count shifts them; everything else must match exactly.
    """
    text = repr(function_sketch)
    base = min(hole.index for hole in function_sketch.holes()) if function_sketch.holes() else 0
    return re.sub(r"index=(\d+)", lambda match: f"index={int(match.group(1)) - base}", text)


def _with_images(vc: ValueCorrespondence, images) -> ValueCorrespondence:
    return ValueCorrespondence(vc.source, vc.target, {**dict(vc.items()), **images})


class TestRecordedReads:
    """A function's sketch depends only on the images it read (its *reads*)."""

    @pytest.mark.parametrize("job", ["Ambler-5", "Ambler-3/r0", "gallery/r0", "Oracle-2"])
    def test_images_outside_reads_do_not_change_a_function_sketch(self, job):
        source, target = _job(job)
        generator = SketchGenerator(source, target)
        enumerator = FactoredVcEnumerator(source, target)
        checked = 0
        for candidate in itertools.islice(enumerator.candidates(), 6):
            vc = candidate.correspondence
            try:
                sketch = generator.generate(vc)
            except SketchGenerationError:
                continue
            shapes = {fs.name: _shape(fs) for fs in sketch.functions}
            assert set(sketch.reads) == set(shapes)
            for row in enumerator.rows:
                offered = [row.get(rank) for rank in range(4)]
                for image in {entry[1] for entry in offered if entry} - {vc.image(row.attribute)}:
                    checked += self._check_change(generator, sketch, shapes, vc, row.attribute, image)
        assert checked > 0

    @staticmethod
    def _check_change(generator, sketch, shapes, vc, attr, image) -> int:
        """Regenerate with *attr* mapped to *image*; returns the functions compared."""
        changed = _with_images(vc, {attr: image})
        try:
            again = generator.generate(changed)
        except SketchGenerationError as error:
            # Only a function that read the changed image may fail now.
            assert attr in sketch.reads[error.function]
            return 0
        compared = 0
        for fs in again.functions:
            if attr not in sketch.reads[fs.name]:
                assert _shape(fs) == shapes[fs.name]
                assert again.reads[fs.name] == sketch.reads[fs.name]
                compared += 1
        return compared

    def test_reads_record_every_image_a_sketch_asked_for(self, course_program, course_target_schema):
        vc = ValueCorrespondenceEnumerator(course_program, course_target_schema).next_value_corr()
        sketch = SketchGenerator(course_program, course_target_schema).generate(vc.correspondence)
        reads = sketch.reads
        assert set(reads["getInstructorInfo"]) == {
            Attribute("Instructor", "IName"),
            Attribute("Instructor", "IPic"),
            Attribute("Instructor", "InstId"),
        }
        # A delete reads every attribute of the tables it deletes from.
        assert set(reads["deleteTA"]) == {
            Attribute("TA", "TaId"), Attribute("TA", "TName"), Attribute("TA", "TPic")
        }
        for name, images in reads.items():
            assert all(images[attr] == vc.correspondence.image(attr) for attr in images)
        # An attribute the delete only asks "is it mapped?" about is read too.
        dropped = _with_images(vc.correspondence, {Attribute("TA", "TPic"): frozenset()})
        alone = Program(
            course_program.name, course_program.schema, [course_program.function("deleteTA")]
        )
        reads = SketchGenerator(alone, course_target_schema).generate(dropped).reads
        assert reads["deleteTA"][Attribute("TA", "TPic")] == frozenset()

    @pytest.mark.parametrize("job", ["Ambler-6/r0", "coachup", "Ambler-7/r0"])
    def test_agreeing_with_an_error_reads_fails_the_same_way(self, job):
        """Every VC that agrees with a ``SketchGenerationError``'s reads fails.

        Generated alone, the failing function raises the same error with the
        same reads; in the whole program it fails, unless an earlier
        function fails first.
        """
        source, target = _job(job)
        generator = SketchGenerator(source, target)
        stream = [c.correspondence for c in itertools.islice(
            FactoredVcEnumerator(source, target).candidates(), 80)]
        errors = {}
        for vc in stream:
            try:
                generator.generate(vc)
            except SketchGenerationError as error:
                errors.setdefault((error.function, str(error)), error)
        assert errors
        order = source.function_names
        rng = random.Random(job)
        for (function, message), error in errors.items():
            assert error.reads
            alone = SketchGenerator(
                Program(source.name, source.schema, [source.function(function)]), target
            )
            for vc in rng.sample(stream, 8):
                agreeing = _with_images(vc, error.reads)
                with pytest.raises(SketchGenerationError) as again:
                    alone.generate(agreeing)
                assert (again.value.function, str(again.value)) == (function, message)
                assert again.value.reads == error.reads
                with pytest.raises(SketchGenerationError) as whole:
                    generator.generate(agreeing)
                if whole.value.function == function:
                    assert str(whole.value) == message and whole.value.reads == error.reads
                else:
                    assert order.index(whole.value.function) < order.index(function)

    def test_every_error_names_its_function(self):
        """The table-list bound names the delete's function like every other error."""
        source, target = _job("Ambler-5")
        vc = FactoredVcEnumerator(source, target).candidates().__next__().correspondence
        config = SketchGeneratorConfig(max_tablist_tables=0)
        with pytest.raises(SketchGenerationError, match="delete table-list domain of") as error:
            SketchGenerator(source, target, config).generate(vc)
        assert repr(error.value.function) in str(error.value)
