"""Instantiating a sketch with a hole assignment (the ``Instantiate`` procedure).

An assignment maps every hole index to a position in that hole's domain.
Instantiation rebuilds each function of the target program from its source
function by substituting attributes, join chains and delete table-lists
according to the assignment.
"""

from __future__ import annotations

from typing import Mapping

from repro.datamodel.schema import Attribute
from repro.lang.ast import (
    And,
    AttrRef,
    Comparison,
    Delete,
    Function,
    InQuery,
    Insert,
    JoinChain,
    Not,
    Or,
    Predicate,
    Program,
    Projection,
    Query,
    QueryFunction,
    Selection,
    Statement,
    TruePred,
    Update,
    UpdateFunction,
)
from repro.sketchgen.sketch_ast import (
    AttrHole,
    AttrRewrite,
    ProgramSketch,
    QueryFunctionSketch,
    StatementSketch,
    UpdateFunctionSketch,
)

#: hole index -> position within the hole's domain
Assignment = Mapping[int, int]


class InstantiationError(Exception):
    """Raised when an assignment does not cover every hole of the sketch."""


def _resolve(rewrite: AttrRewrite, assignment: Assignment) -> Attribute:
    if isinstance(rewrite, Attribute):
        return rewrite
    if isinstance(rewrite, AttrHole):
        if rewrite.index not in assignment:
            raise InstantiationError(f"assignment is missing hole ??{rewrite.index}")
        return rewrite.domain[assignment[rewrite.index]]
    raise TypeError(f"unknown attribute rewrite {rewrite!r}")


def _hole_value(hole, assignment: Assignment):
    if hole.index not in assignment:
        raise InstantiationError(f"assignment is missing hole ??{hole.index}")
    return hole.domain[assignment[hole.index]]


def _rewrite_predicate(
    predicate: Predicate,
    attr_map: Mapping[Attribute, AttrRewrite],
    assignment: Assignment,
    subquery_chains: Mapping[int, JoinChain],
) -> Predicate:
    def rewrite_operand(operand):
        if isinstance(operand, AttrRef):
            return AttrRef(_resolve(attr_map[operand.attribute], assignment))
        return operand

    if isinstance(predicate, TruePred):
        return predicate
    if isinstance(predicate, Comparison):
        return Comparison(rewrite_operand(predicate.left), predicate.op, rewrite_operand(predicate.right))
    if isinstance(predicate, InQuery):
        chain = subquery_chains.get(id(predicate.query))
        if chain is None:
            raise InstantiationError("IN sub-query has no assigned join chain")
        rewritten_query = _rewrite_query(
            predicate.query, chain, attr_map, assignment, subquery_chains
        )
        return InQuery(rewrite_operand(predicate.operand), rewritten_query)
    if isinstance(predicate, And):
        return And(
            _rewrite_predicate(predicate.left, attr_map, assignment, subquery_chains),
            _rewrite_predicate(predicate.right, attr_map, assignment, subquery_chains),
        )
    if isinstance(predicate, Or):
        return Or(
            _rewrite_predicate(predicate.left, attr_map, assignment, subquery_chains),
            _rewrite_predicate(predicate.right, attr_map, assignment, subquery_chains),
        )
    if isinstance(predicate, Not):
        return Not(_rewrite_predicate(predicate.operand, attr_map, assignment, subquery_chains))
    raise TypeError(f"unknown predicate node {predicate!r}")


def _rewrite_query(
    query: Query,
    chain: JoinChain,
    attr_map: Mapping[Attribute, AttrRewrite],
    assignment: Assignment,
    subquery_chains: Mapping[int, JoinChain],
) -> Query:
    """Rebuild a query against *chain*, substituting attributes."""
    projections: list[tuple[Attribute, ...]] = []
    predicates: list[Predicate] = []
    node = query
    while isinstance(node, (Projection, Selection)):
        if isinstance(node, Projection):
            projections.append(node.attributes)
        else:
            predicates.append(node.predicate)
        node = node.source

    result: Query = chain
    for predicate in reversed(predicates):
        result = Selection(
            _rewrite_predicate(predicate, attr_map, assignment, subquery_chains), result
        )
    if projections:
        attrs = tuple(_resolve(attr_map[a], assignment) for a in projections[0])
        result = Projection(attrs, result)
    return result


def instantiate_query_function(
    sketch: QueryFunctionSketch, assignment: Assignment
) -> QueryFunction:
    chain = _hole_value(sketch.join_hole, assignment)
    subquery_chains = {
        id(query): _hole_value(hole, assignment) for query, hole in sketch.subquery_holes
    }
    query = _rewrite_query(sketch.source.query, chain, sketch.attr_map, assignment, subquery_chains)
    return QueryFunction(sketch.source.name, sketch.source.params, query)


def _instantiate_statement(
    sketch: StatementSketch, assignment: Assignment
) -> list[Statement]:
    source = sketch.source
    chains = _hole_value(sketch.choice_hole, assignment)
    subquery_chains = {
        id(query): _hole_value(hole, assignment) for query, hole in sketch.subquery_holes
    }
    statements: list[Statement] = []
    for chain in chains:
        if isinstance(source, Insert):
            values = []
            for attr, operand in source.values:
                rewrite = sketch.attr_map.get(attr)
                if rewrite is None:
                    continue  # attribute dropped by the value correspondence
                values.append((_resolve(rewrite, assignment), operand))
            statements.append(Insert(chain, tuple(values)))
        elif isinstance(source, Delete):
            assert sketch.tablist_hole is not None
            tables = _hole_value(sketch.tablist_hole, assignment)
            predicate = _rewrite_predicate(
                source.predicate, sketch.attr_map, assignment, subquery_chains
            )
            statements.append(Delete(tuple(tables), chain, predicate))
        elif isinstance(source, Update):
            predicate = _rewrite_predicate(
                source.predicate, sketch.attr_map, assignment, subquery_chains
            )
            attribute = _resolve(sketch.attr_map[source.attribute], assignment)
            statements.append(Update(chain, predicate, attribute, source.value))
        else:
            raise TypeError(f"unknown statement node {source!r}")
    return statements


def instantiate_update_function(
    sketch: UpdateFunctionSketch, assignment: Assignment
) -> UpdateFunction:
    statements: list[Statement] = []
    for stmt_sketch in sketch.statements:
        statements.extend(_instantiate_statement(stmt_sketch, assignment))
    return UpdateFunction(sketch.source.name, sketch.source.params, tuple(statements))


def instantiate(sketch: ProgramSketch, assignment: Assignment, name: str | None = None) -> Program:
    """The ``Instantiate(Ω, M)`` procedure of Algorithm 2."""
    functions: list[Function] = []
    for function_sketch in sketch.functions:
        if isinstance(function_sketch, QueryFunctionSketch):
            functions.append(instantiate_query_function(function_sketch, assignment))
        else:
            functions.append(instantiate_update_function(function_sketch, assignment))
    program_name = name or f"{sketch.source_program.name}@{sketch.target_schema.name}"
    return Program(program_name, sketch.target_schema, functions)


class MemoizedInstantiator:
    """Instantiates candidate programs while sharing per-function ASTs.

    A function's instantiation depends only on its own holes, and function
    ASTs are immutable — safe to share between candidate programs — so
    memoizing per (function, restricted assignment) turns most of the
    per-candidate instantiation cost into one dict lookup per function.
    Both completion loops use it: the MFI loop's blocking clauses usually
    name the holes of one or two functions, so consecutive candidates
    differ in few functions, and the BMC baseline's joint assignments form
    a product space in which each function's hole values repeat
    constantly.  Shared function objects also let
    :class:`~repro.engine.compiler.ProgramCompiler` resolve a function it
    has already compiled by identity.
    """

    def __init__(self, sketch: ProgramSketch, name: str | None = None):
        self.sketch = sketch
        self.name = name or f"{sketch.source_program.name}@{sketch.target_schema.name}"
        self._hole_indices = [
            sorted({hole.index for hole in function_sketch.holes()})
            for function_sketch in sketch.functions
        ]
        self._memo: dict[tuple, Function] = {}

    def instantiate(self, assignment: Assignment) -> Program:
        functions: list[Function] = []
        for position, function_sketch in enumerate(self.sketch.functions):
            indices = self._hole_indices[position]
            try:
                key = (position, tuple([assignment[index] for index in indices]))
            except KeyError:
                missing = next(index for index in indices if index not in assignment)
                raise InstantiationError(f"assignment is missing hole ??{missing}") from None
            func = self._memo.get(key)
            if func is None:
                if isinstance(function_sketch, QueryFunctionSketch):
                    func = instantiate_query_function(function_sketch, assignment)
                else:
                    func = instantiate_update_function(function_sketch, assignment)
                self._memo[key] = func
            functions.append(func)
        return Program(self.name, self.sketch.target_schema, functions)
