"""Program sketches (Figure 6 of the paper).

A sketch is the source program with *holes*: unknown attributes, unknown join
chains, unknown delete table-lists, and unknown choices between alternative
statement sequences.  Every hole has a finite domain; the SAT encoding of
Section 4.4 introduces one indicator variable per (hole, domain element).

Rather than mirroring the whole AST with hole-bearing twins, a sketch keeps
the *source* function and records, per function, which holes drive the
rewriting: the instantiation code (``repro.completion.instantiate``) rebuilds
a concrete target-program function from the source function, the chosen join
chain(s), and the chosen attribute substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute, Schema
from repro.lang.ast import (
    Delete,
    Insert,
    JoinChain,
    Program,
    Query,
    QueryFunction,
    Statement,
    Update,
    UpdateFunction,
)


#: An alternative of a statement choice hole: the sequence of join chains to
#: instantiate the source statement against (length > 1 means the statement is
#: duplicated, once per chain — the phase-II composition Ω1;Ω2).
Alternative = tuple[JoinChain, ...]


@dataclass
class Hole:
    """A sketch hole: an index, the owning function, and a finite domain."""

    index: int
    function: str
    domain: tuple
    description: str = ""

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError(f"hole ??{self.index} in {self.function!r} has an empty domain")

    @property
    def size(self) -> int:
        return len(self.domain)

    def __str__(self) -> str:
        return f"??{self.index}[{self.description or 'hole'}; {self.size} choices]"


class AttrHole(Hole):
    """Domain: target attributes (images of one source attribute under Φ)."""


class JoinHole(Hole):
    """Domain: candidate join chains for a query function."""


class TabListHole(Hole):
    """Domain: candidate delete table-lists (non-empty subsets of joined tables)."""


class ChoiceHole(Hole):
    """Domain: alternative chain sequences for one source update statement."""


#: In attribute maps, a source attribute is rewritten either through a hole or
#: to a fixed target attribute (when its image under Φ is a singleton).
AttrRewrite = Union[AttrHole, Attribute]


@dataclass
class QueryFunctionSketch:
    """Sketch of a query function: one join hole plus attribute rewrites."""

    source: QueryFunction
    join_hole: JoinHole
    attr_map: dict[Attribute, AttrRewrite]
    subquery_holes: tuple[tuple[Query, JoinHole], ...] = ()

    @property
    def name(self) -> str:
        return self.source.name

    def holes(self) -> list[Hole]:
        result: list[Hole] = [self.join_hole]
        result.extend(h for h in self.attr_map.values() if isinstance(h, AttrHole))
        result.extend(hole for _, hole in self.subquery_holes)
        return result


@dataclass
class StatementSketch:
    """Sketch of one update statement."""

    source: Statement
    choice_hole: ChoiceHole
    attr_map: dict[Attribute, AttrRewrite]
    tablist_hole: Optional[TabListHole] = None
    subquery_holes: tuple[tuple[Query, JoinHole], ...] = ()

    def holes(self) -> list[Hole]:
        result: list[Hole] = [self.choice_hole]
        if self.tablist_hole is not None:
            result.append(self.tablist_hole)
        result.extend(h for h in self.attr_map.values() if isinstance(h, AttrHole))
        result.extend(hole for _, hole in self.subquery_holes)
        return result


@dataclass
class UpdateFunctionSketch:
    """Sketch of an update function: one statement sketch per source statement."""

    source: UpdateFunction
    statements: list[StatementSketch]

    @property
    def name(self) -> str:
        return self.source.name

    def holes(self) -> list[Hole]:
        result: list[Hole] = []
        for stmt in self.statements:
            result.extend(stmt.holes())
        return result


FunctionSketch = Union[QueryFunctionSketch, UpdateFunctionSketch]


@dataclass
class ProgramSketch:
    """The sketch of a whole program over the target schema."""

    source_program: Program
    target_schema: Schema
    correspondence: ValueCorrespondence
    functions: list[FunctionSketch]
    #: Per function name, the source attributes whose image sketch generation
    #: read while building that function's sketch, with the image.
    reads: dict[str, dict[Attribute, frozenset[Attribute]]]

    def holes(self) -> list[Hole]:
        """All holes of the sketch, deduplicated, in index order."""
        seen: dict[int, Hole] = {}
        for sketch in self.functions:
            for hole in sketch.holes():
                seen[hole.index] = hole
        return [seen[index] for index in sorted(seen)]

    def holes_by_function(self) -> dict[str, list[Hole]]:
        result: dict[str, list[Hole]] = {}
        for sketch in self.functions:
            holes = sketch.holes()
            deduped: dict[int, Hole] = {h.index: h for h in holes}
            result[sketch.name] = [deduped[i] for i in sorted(deduped)]
        return result

    def function_sketch(self, name: str) -> FunctionSketch:
        for sketch in self.functions:
            if sketch.name == name:
                return sketch
        raise KeyError(f"sketch has no function {name!r}")

    def search_space_size(self) -> int:
        """The number of sketch completions (product of hole domain sizes)."""
        size = 1
        for hole in self.holes():
            size *= hole.size
        return size

    def num_holes(self) -> int:
        return len(self.holes())

    def describe(self) -> str:
        lines = [
            f"sketch over target schema {self.target_schema.name!r}: "
            f"{len(self.functions)} functions, {self.num_holes()} holes, "
            f"{self.search_space_size()} completions"
        ]
        for name, holes in self.holes_by_function().items():
            if holes:
                rendered = ", ".join(str(h) for h in holes)
                lines.append(f"  {name}: {rendered}")
        return "\n".join(lines)


class HoleAllocator:
    """Allocates globally unique hole indices during sketch generation."""

    def __init__(self) -> None:
        self._next = 1

    def attr_hole(self, function: str, domain: Iterable[Attribute], description: str) -> AttrHole:
        return self._make(AttrHole, function, tuple(domain), description)

    def join_hole(self, function: str, domain: Iterable[JoinChain], description: str) -> JoinHole:
        return self._make(JoinHole, function, tuple(domain), description)

    def tablist_hole(
        self, function: str, domain: Iterable[tuple[str, ...]], description: str
    ) -> TabListHole:
        return self._make(TabListHole, function, tuple(domain), description)

    def choice_hole(
        self, function: str, domain: Iterable[Alternative], description: str
    ) -> ChoiceHole:
        return self._make(ChoiceHole, function, tuple(domain), description)

    def _make(self, cls, function: str, domain: tuple, description: str) -> Hole:
        hole = cls(self._next, function, domain, description)
        self._next += 1
        return hole
