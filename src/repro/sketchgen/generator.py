"""Sketch generation (Section 4.3, Figures 8–10 of the paper).

Phase I rewrites every source statement against one candidate target join
chain, introducing holes for attributes with multiple images under the value
correspondence and for delete table-lists.  Phase II combines the per-chain
rewrites: query statements become a plain choice over chains, while update
statements additionally admit sequential compositions of the per-chain
rewrites (the ``Ω1 ? Ω2 ? (Ω1;Ω2)`` rule).  Compositions whose chains are
redundant (one chain's tables contain another's) are pruned by default,
matching the shape of the running example in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute, Schema
from repro.lang.ast import (
    Delete,
    InQuery,
    Insert,
    JoinChain,
    Program,
    Query,
    QueryFunction,
    Statement,
    Update,
    UpdateFunction,
)
from repro.lang.visitors import (
    attributes_of_predicate,
    attributes_of_query,
    join_chain_of_query,
)
from repro.sketchgen.join_corr import candidate_join_chains
from repro.sketchgen.join_graph import JoinGraph
from repro.sketchgen.sketch_ast import (
    Alternative,
    AttrHole,
    AttrRewrite,
    ChoiceHole,
    FunctionSketch,
    HoleAllocator,
    JoinHole,
    ProgramSketch,
    QueryFunctionSketch,
    StatementSketch,
    TabListHole,
    UpdateFunctionSketch,
)
from repro.sketchgen.steiner import SteinerLimits


class SketchGenerationError(Exception):
    """Raised when no sketch exists for the given value correspondence.

    The synthesizer treats this as "the conjectured value correspondence is
    wrong" and moves on to the next one.  :meth:`SketchGenerator.generate`
    sets ``function``, the function whose sketch failed, and ``reads``, the
    images that function's sketch read up to the failure: every
    correspondence that agrees with ``reads`` fails the same way.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.function: Optional[str] = None
        self.reads: dict[Attribute, frozenset[Attribute]] = {}


class _RecordedReads:
    """One function's view of a value correspondence.

    Forwards the two lookups sketch generation makes (``image`` and
    ``is_mapped``, here and in :mod:`repro.sketchgen.join_corr`) and records
    each attribute asked about with its image.  A function's sketch, or the
    error generating it, depends only on those answers: the target schema,
    the generator config and the Steiner memo (keyed by terminals) are fixed
    for a run.
    """

    __slots__ = ("_correspondence", "reads")

    def __init__(self, correspondence: ValueCorrespondence):
        self._correspondence = correspondence
        self.reads: dict[Attribute, frozenset[Attribute]] = {}

    def image(self, attr: Attribute) -> frozenset[Attribute]:
        image = self.reads.get(attr)
        if image is None:
            image = self.reads[attr] = self._correspondence.image(attr)
        return image

    def is_mapped(self, attr: Attribute) -> bool:
        return bool(self.image(attr))


@dataclass
class SketchGeneratorConfig:
    """Tunable bounds of sketch generation."""

    steiner_limits: SteinerLimits = field(default_factory=SteinerLimits)
    prune_subsumed_compositions: bool = True
    max_composition_length: int = 2
    max_alternatives: int = 16
    max_tablist_tables: int = 8


def _collect_subqueries(predicate) -> list[Query]:
    """All ``IN`` sub-queries appearing in a predicate."""
    from repro.lang.ast import And, Not, Or

    if isinstance(predicate, InQuery):
        return [predicate.query]
    if isinstance(predicate, (And, Or)):
        return _collect_subqueries(predicate.left) + _collect_subqueries(predicate.right)
    if isinstance(predicate, Not):
        return _collect_subqueries(predicate.operand)
    return []


def _predicates_of_query(query: Query) -> list:
    from repro.lang.ast import Projection, Selection

    preds = []
    node = query
    while isinstance(node, (Projection, Selection)):
        if isinstance(node, Selection):
            preds.append(node.predicate)
        node = node.source
    return preds


class SketchGenerator:
    """Generates a :class:`ProgramSketch` from a value correspondence."""

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        config: SketchGeneratorConfig | None = None,
    ):
        self.source_program = source_program
        self.target_schema = target_schema
        self.config = config or SketchGeneratorConfig()
        self.graph = JoinGraph(target_schema)

    # ------------------------------------------------------------------ entry
    def generate(self, correspondence: ValueCorrespondence) -> ProgramSketch:
        allocator = HoleAllocator()
        functions: list[FunctionSketch] = []
        reads: dict[str, dict[Attribute, frozenset[Attribute]]] = {}
        for func in self.source_program:
            view = _RecordedReads(correspondence)
            try:
                if isinstance(func, QueryFunction):
                    functions.append(self._query_sketch(func, view, allocator))
                else:
                    functions.append(self._update_sketch(func, view, allocator))
            except SketchGenerationError as error:
                error.function, error.reads = func.name, view.reads
                raise
            reads[func.name] = view.reads
        return ProgramSketch(
            self.source_program, self.target_schema, correspondence, functions, reads
        )

    # --------------------------------------------------------------- rewrites
    def _rewrite_attr(
        self,
        function: str,
        attr: Attribute,
        correspondence: ValueCorrespondence,
        allocator: HoleAllocator,
        attr_map: dict[Attribute, AttrRewrite],
        *,
        required: bool,
    ) -> Optional[AttrRewrite]:
        """Record the rewrite of one source attribute (the Attr rule).

        Returns ``None`` for unmapped optional attributes (the value is simply
        dropped); raises for unmapped required attributes.
        """
        if attr in attr_map:
            return attr_map[attr]
        image = correspondence.image(attr)
        if not image:
            if required:
                raise SketchGenerationError(
                    f"attribute {attr} used by {function!r} has no image under the value correspondence"
                )
            return None
        if len(image) == 1:
            rewrite: AttrRewrite = next(iter(image))
        else:
            rewrite = allocator.attr_hole(function, sorted(image), f"attr {attr}")
        attr_map[attr] = rewrite
        return rewrite

    def _chains_for(
        self, correspondence: ValueCorrespondence, attrs: Iterable[Attribute], context: str
    ) -> list[JoinChain]:
        chains = candidate_join_chains(
            correspondence, self.graph, attrs, self.config.steiner_limits
        )
        if not chains:
            raise SketchGenerationError(
                f"no candidate join chain covers the attributes used by {context}"
            )
        return chains

    def _subquery_holes(
        self,
        function: str,
        predicates: Sequence,
        correspondence: ValueCorrespondence,
        allocator: HoleAllocator,
        attr_map: dict[Attribute, AttrRewrite],
    ) -> tuple[tuple[Query, JoinHole], ...]:
        holes: list[tuple[Query, JoinHole]] = []
        for predicate in predicates:
            for subquery in _collect_subqueries(predicate):
                sub_attrs = attributes_of_query(subquery)
                for attr in sub_attrs:
                    self._rewrite_attr(
                        function, attr, correspondence, allocator, attr_map, required=True
                    )
                chains = self._chains_for(
                    correspondence, sub_attrs, f"sub-query of {function!r}"
                )
                holes.append(
                    (subquery, allocator.join_hole(function, chains, "sub-query join chain"))
                )
        return tuple(holes)

    # ------------------------------------------------------------------ query
    def _query_sketch(
        self,
        func: QueryFunction,
        correspondence: ValueCorrespondence,
        allocator: HoleAllocator,
    ) -> QueryFunctionSketch:
        from repro.lang.ast import Projection

        attr_map: dict[Attribute, AttrRewrite] = {}
        predicates = _predicates_of_query(func.query)

        projection_attrs: list[Attribute] = []
        if isinstance(func.query, Projection):
            projection_attrs = list(func.query.attributes)
        predicate_attrs = set()
        for predicate in predicates:
            predicate_attrs |= attributes_of_predicate(predicate)
        # Attributes inside sub-queries are handled separately.
        subquery_attr_sets = set()
        for predicate in predicates:
            for subquery in _collect_subqueries(predicate):
                subquery_attr_sets |= attributes_of_query(subquery)
        predicate_attrs -= subquery_attr_sets

        required_attrs = list(dict.fromkeys(projection_attrs)) + sorted(predicate_attrs)
        for attr in required_attrs:
            self._rewrite_attr(
                func.name, attr, correspondence, allocator, attr_map, required=True
            )

        chains = self._chains_for(correspondence, required_attrs, f"query {func.name!r}")
        join_hole = allocator.join_hole(func.name, chains, "query join chain")
        subquery_holes = self._subquery_holes(
            func.name, predicates, correspondence, allocator, attr_map
        )
        return QueryFunctionSketch(func, join_hole, attr_map, subquery_holes)

    # ----------------------------------------------------------------- update
    def _compositions(self, chains: Sequence[JoinChain]) -> list[Alternative]:
        """Phase II for update statements: chains plus their compositions."""
        alternatives: list[Alternative] = [(chain,) for chain in chains]
        if len(chains) > 1 and self.config.max_composition_length >= 2:
            for length in range(2, self.config.max_composition_length + 1):
                for combo in itertools.combinations(chains, length):
                    if self.config.prune_subsumed_compositions and self._subsumed(combo):
                        continue
                    alternatives.append(tuple(combo))
                    if len(alternatives) >= self.config.max_alternatives:
                        return alternatives[: self.config.max_alternatives]
        return alternatives[: self.config.max_alternatives]

    @staticmethod
    def _subsumed(chains: Sequence[JoinChain]) -> bool:
        """Whether some chain's tables contain another's (redundant composition)."""
        for left, right in itertools.combinations(chains, 2):
            left_tables, right_tables = left.table_set(), right.table_set()
            if left_tables <= right_tables or right_tables <= left_tables:
                return True
        return False

    def _tablist_domain(self, function: str, chains: Sequence[JoinChain]) -> list[tuple[str, ...]]:
        """Non-empty table subsets deletable through at least one candidate chain.

        The paper's rule is ``TabLists(J')`` = the powerset of the tables of
        the chosen chain; since the chain itself is a hole, the domain is the
        union of the per-chain powersets (each chain is small, so this stays
        bounded even when the chains jointly span many tables).
        """
        domain: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        for chain in chains:
            tables = sorted(chain.tables)
            if len(tables) > self.config.max_tablist_tables:
                raise SketchGenerationError(
                    f"delete table-list domain of {function!r} too large "
                    f"({len(tables)} tables in one chain)"
                )
            for size in range(1, len(tables) + 1):
                for subset in itertools.combinations(tables, size):
                    if subset not in seen:
                        seen.add(subset)
                        domain.append(subset)
        return domain

    def _statement_sketch(
        self,
        func: UpdateFunction,
        stmt: Statement,
        correspondence: ValueCorrespondence,
        allocator: HoleAllocator,
        attr_map: dict[Attribute, AttrRewrite],
    ) -> StatementSketch:
        name = func.name
        if isinstance(stmt, Insert):
            required: list[Attribute] = []
            for attr, _ in stmt.values:
                rewrite = self._rewrite_attr(
                    name, attr, correspondence, allocator, attr_map, required=False
                )
                if rewrite is not None:
                    required.append(attr)
            if not required:
                raise SketchGenerationError(
                    f"insert statement in {name!r} has no attribute mapped by the value correspondence"
                )
            chains = self._chains_for(correspondence, required, f"insert in {name!r}")
            choice = allocator.choice_hole(name, self._compositions(chains), "insert target")
            return StatementSketch(stmt, choice, attr_map)

        if isinstance(stmt, Delete):
            required = set()
            for table in stmt.tables:
                required |= set(self.source_program.schema.attributes_of(table))
            predicate_attrs = attributes_of_predicate(stmt.predicate)
            for attr in sorted(predicate_attrs):
                self._rewrite_attr(name, attr, correspondence, allocator, attr_map, required=True)
            required = {a for a in required if correspondence.is_mapped(a)} | predicate_attrs
            if not required:
                raise SketchGenerationError(
                    f"delete statement in {name!r} has no attribute mapped by the value correspondence"
                )
            chains = self._chains_for(correspondence, sorted(required), f"delete in {name!r}")
            alternatives = self._compositions(chains)
            tablist = allocator.tablist_hole(
                name, self._tablist_domain(name, chains), "delete table list"
            )
            choice = allocator.choice_hole(name, alternatives, "delete join chain")
            subqueries = self._subquery_holes(
                name, [stmt.predicate], correspondence, allocator, attr_map
            )
            return StatementSketch(stmt, choice, attr_map, tablist, subqueries)

        if isinstance(stmt, Update):
            self._rewrite_attr(
                name, stmt.attribute, correspondence, allocator, attr_map, required=True
            )
            predicate_attrs = attributes_of_predicate(stmt.predicate)
            for attr in sorted(predicate_attrs):
                self._rewrite_attr(name, attr, correspondence, allocator, attr_map, required=True)
            required = set(predicate_attrs) | {stmt.attribute}
            chains = self._chains_for(correspondence, sorted(required), f"update in {name!r}")
            choice = allocator.choice_hole(name, self._compositions(chains), "update join chain")
            subqueries = self._subquery_holes(
                name, [stmt.predicate], correspondence, allocator, attr_map
            )
            return StatementSketch(stmt, choice, attr_map, None, subqueries)

        raise TypeError(f"unknown statement node {stmt!r}")

    def _update_sketch(
        self,
        func: UpdateFunction,
        correspondence: ValueCorrespondence,
        allocator: HoleAllocator,
    ) -> UpdateFunctionSketch:
        attr_map: dict[Attribute, AttrRewrite] = {}
        statements = [
            self._statement_sketch(func, stmt, correspondence, allocator, attr_map)
            for stmt in func.statements
        ]
        return UpdateFunctionSketch(func, statements)
