"""SAT encoding of a program sketch (the ``Encode`` procedure of Algorithm 2).

Each hole ``??_i`` with domain ``e_1 … e_n`` contributes indicator variables
``b_i^1 … b_i^n`` constrained by an exactly-one (n-ary XOR) clause set.  On
top of the paper's plain encoding we optionally add *consistency constraints*
that rule out completions that are ill-formed by construction (an attribute
choice whose table is not part of the chosen join chain, or a delete
table-list not contained in the chosen chain); these can be disabled to
reproduce the paper's exact search-space sizes.

Variables are allocated hole by hole in index order, and a hole's
auxiliary registers follow its indicator variables.  The sketch generator
numbers holes function by function, so each function owns one contiguous
variable range (``SketchEncoding.function_variables``), and the
consistency constraints never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.completion.instantiate import InstantiationError
from repro.datamodel.schema import Attribute
from repro.sat.cardinality import exactly_one
from repro.sat.cnf import CNF, Literal
from repro.sketchgen.sketch_ast import (
    AttrHole,
    AttrRewrite,
    ChoiceHole,
    Hole,
    JoinHole,
    ProgramSketch,
    QueryFunctionSketch,
    StatementSketch,
    TabListHole,
    UpdateFunctionSketch,
)


@dataclass
class SketchEncoding:
    """The CNF together with the variable <-> (hole, position) dictionaries.

    ``function_variables`` maps each function with holes to the range of
    variables its holes own (indicators and auxiliaries).
    """

    cnf: CNF
    variable_of: dict[tuple[int, int], int]
    choice_of: dict[int, tuple[int, int]]
    holes: dict[int, Hole]
    function_variables: dict[str, range]

    def model_to_assignment(self, model: Mapping[int, bool]) -> dict[int, int]:
        """Extract the hole assignment from a SAT model of the whole sketch.

        Raises :class:`InstantiationError` naming a hole the model leaves
        unset: filling it in would make a candidate no model chose.
        """
        assignment: dict[int, int] = {}
        for variable, value in model.items():
            if value and variable in self.choice_of:
                hole_index, position = self.choice_of[variable]
                assignment[hole_index] = position
        for hole_index in self.holes:
            if hole_index not in assignment:
                raise InstantiationError(f"the model sets no position of hole ??{hole_index}")
        return assignment

    def blocking_clause(
        self, assignment: Mapping[int, int], hole_indices: Iterable[int]
    ) -> list[Literal]:
        """``¬(b_1^{k1} ∧ … ∧ b_n^{kn})`` restricted to *hole_indices*."""
        clause: list[Literal] = []
        for hole_index in hole_indices:
            position = assignment[hole_index]
            clause.append(-self.variable_of[(hole_index, position)])
        return clause


class SketchEncoder:
    """Builds the SAT encoding of a sketch."""

    def __init__(self, sketch: ProgramSketch, *, consistency_constraints: bool = True):
        self.sketch = sketch
        self.consistency_constraints = consistency_constraints

    def encode(self) -> SketchEncoding:
        cnf = CNF()
        variable_of: dict[tuple[int, int], int] = {}
        choice_of: dict[int, tuple[int, int]] = {}
        holes = {hole.index: hole for hole in self.sketch.holes()}
        function_variables: dict[str, range] = {}

        for hole in holes.values():
            first = cnf.num_variables + 1
            literals = []
            for position in range(hole.size):
                variable = cnf.new_variable()
                variable_of[(hole.index, position)] = variable
                choice_of[variable] = (hole.index, position)
                literals.append(variable)
            exactly_one(cnf, literals)
            owned = function_variables.get(hole.function)
            if owned is None:
                owned = range(first, first)
            elif owned.stop != first:
                raise ValueError(f"the holes of {hole.function!r} are not numbered consecutively")
            function_variables[hole.function] = range(owned.start, cnf.num_variables + 1)

        encoding = SketchEncoding(cnf, variable_of, choice_of, holes, function_variables)
        if self.consistency_constraints:
            self._add_consistency(encoding)
        return encoding

    # ------------------------------------------------------------ consistency
    def _add_consistency(self, encoding: SketchEncoding) -> None:
        for function_sketch in self.sketch.functions:
            if isinstance(function_sketch, QueryFunctionSketch):
                self._query_consistency(encoding, function_sketch)
            else:
                self._update_consistency(encoding, function_sketch)

    def _attr_chain_consistency(
        self,
        encoding: SketchEncoding,
        chain_hole: Hole,
        chain_tables_by_position: Sequence[frozenset[str]],
        attr_map: Mapping[Attribute, AttrRewrite],
        relevant_attrs: Iterable[Attribute],
    ) -> None:
        """Forbid (chain choice, attribute choice) pairs that cannot co-exist."""
        cnf = encoding.cnf
        for position, tables in enumerate(chain_tables_by_position):
            chain_literal = encoding.variable_of[(chain_hole.index, position)]
            for attr in relevant_attrs:
                rewrite = attr_map.get(attr)
                if rewrite is None:
                    continue
                if isinstance(rewrite, Attribute):
                    if rewrite.table not in tables:
                        cnf.add_clause([-chain_literal])
                elif isinstance(rewrite, AttrHole):
                    for attr_position, candidate in enumerate(rewrite.domain):
                        if candidate.table not in tables:
                            attr_literal = encoding.variable_of[(rewrite.index, attr_position)]
                            cnf.add_clause([-chain_literal, -attr_literal])

    def _query_consistency(
        self, encoding: SketchEncoding, sketch: QueryFunctionSketch
    ) -> None:
        from repro.lang.visitors import attributes_of_query

        chain_tables = [frozenset(chain.tables) for chain in sketch.join_hole.domain]
        # Attributes used directly by the query (sub-query attributes are tied
        # to their own join holes below).
        sub_attrs = set()
        for query, _ in sketch.subquery_holes:
            sub_attrs |= attributes_of_query(query)
        direct_attrs = [a for a in sketch.attr_map if a not in sub_attrs]
        self._attr_chain_consistency(
            encoding, sketch.join_hole, chain_tables, sketch.attr_map, direct_attrs
        )
        for query, hole in sketch.subquery_holes:
            tables = [frozenset(chain.tables) for chain in hole.domain]
            self._attr_chain_consistency(
                encoding, hole, tables, sketch.attr_map, attributes_of_query(query)
            )

    def _update_consistency(
        self, encoding: SketchEncoding, sketch: UpdateFunctionSketch
    ) -> None:
        from repro.lang.ast import Delete, Insert, Update
        from repro.lang.visitors import attributes_of_predicate

        cnf = encoding.cnf
        for stmt_sketch in sketch.statements:
            source = stmt_sketch.source
            alternative_tables = [
                frozenset(table for chain in alternative for table in chain.tables)
                for alternative in stmt_sketch.choice_hole.domain
            ]
            if isinstance(source, Insert):
                relevant = [attr for attr, _ in source.values if attr in stmt_sketch.attr_map]
            elif isinstance(source, Delete):
                relevant = sorted(attributes_of_predicate(source.predicate))
            else:
                assert isinstance(source, Update)
                relevant = sorted(attributes_of_predicate(source.predicate) | {source.attribute})
            self._attr_chain_consistency(
                encoding,
                stmt_sketch.choice_hole,
                alternative_tables,
                stmt_sketch.attr_map,
                relevant,
            )
            if stmt_sketch.tablist_hole is not None:
                for alt_position, tables in enumerate(alternative_tables):
                    choice_literal = encoding.variable_of[
                        (stmt_sketch.choice_hole.index, alt_position)
                    ]
                    for list_position, table_list in enumerate(stmt_sketch.tablist_hole.domain):
                        if not set(table_list) <= tables:
                            list_literal = encoding.variable_of[
                                (stmt_sketch.tablist_hole.index, list_position)
                            ]
                            cnf.add_clause([-choice_literal, -list_literal])
