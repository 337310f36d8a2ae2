"""Tests for the join graph, Steiner trees, join correspondences, and sketch generation."""

import pytest

from repro.correspondence import ValueCorrespondenceEnumerator, identity_correspondence
from repro.datamodel import Attribute, DataType as T, make_schema
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
