"""The join graph of a schema.

Nodes are tables; an edge connects two tables that can be equi-joined, and
is labelled with the attribute pair(s) on which they join.  The join graph
is the search space for the Steiner-tree enumeration that produces join
correspondences (Section 5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.datamodel.schema import Attribute, Schema
from repro.lang.ast import JoinChain


@dataclass(frozen=True)
class JoinEdge:
    """An undirected join edge between two tables."""

    left: str
    right: str
    condition: tuple[Attribute, Attribute]

    def other(self, table: str) -> str:
        if table == self.left:
            return self.right
        if table == self.right:
            return self.left
        raise KeyError(f"table {table!r} is not an endpoint of {self}")

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def __str__(self) -> str:
        return f"{self.left} -- {self.right} ({self.condition[0]} = {self.condition[1]})"


class JoinGraph:
    """Joinability graph of a schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._edges: list[JoinEdge] = []
        self._adjacency: dict[str, list[JoinEdge]] = {name: [] for name in schema.table_names}
        #: ``steiner_chains`` results by (sorted terminals, limits).  Sketch
        #: generation asks for the same terminal sets under every value
        #: correspondence of a run; ``add_edge`` invalidates them.
        self.steiner_memo: dict[tuple, list[JoinChain]] = {}
        for left, right in schema.joinable_pairs():
            self.add_edge(left, right)

    # ------------------------------------------------------------------ build
    def add_edge(self, left: Attribute, right: Attribute) -> JoinEdge:
        self.steiner_memo.clear()
        edge = JoinEdge(left.table, right.table, (left, right))
        self._edges.append(edge)
        self._adjacency[left.table].append(edge)
        self._adjacency[right.table].append(edge)
        return edge

    # ----------------------------------------------------------------- access
    @property
    def nodes(self) -> list[str]:
        return self.schema.table_names

    @property
    def edges(self) -> list[JoinEdge]:
        return list(self._edges)

    def edges_of(self, table: str) -> list[JoinEdge]:
        return list(self._adjacency.get(table, ()))

    def edges_between(self, tables: Iterable[str]) -> list[JoinEdge]:
        """Edges of the subgraph induced by *tables*."""
        table_set = set(tables)
        return [
            edge
            for edge in self._edges
            if edge.left in table_set and edge.right in table_set
        ]

    def neighbors(self, table: str) -> set[str]:
        return {edge.other(table) for edge in self._adjacency.get(table, ())}

    # ----------------------------------------------------------- connectivity
    def is_connected(self, tables: Iterable[str]) -> bool:
        """Whether the subgraph induced by *tables* is connected."""
        table_list = list(dict.fromkeys(tables))
        if not table_list:
            return True
        table_set = set(table_list)
        seen = {table_list[0]}
        frontier = [table_list[0]]
        while frontier:
            current = frontier.pop()
            for edge in self._adjacency.get(current, ()):
                neighbor = edge.other(current)
                if neighbor in table_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == table_set

    def connected_component(self, start: str) -> set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def __repr__(self) -> str:
        return f"JoinGraph(tables={len(self.nodes)}, edges={len(self._edges)})"


def tree_to_join_chain(tables: Iterable[str], edges: Iterable[JoinEdge]) -> JoinChain:
    """Convert a spanning tree (tables + tree edges) into a join chain.

    Tables are ordered by a breadth-first traversal from the lexicographically
    smallest table so that the resulting chain is deterministic; conditions
    are the tree edges.
    """
    table_list = sorted(set(tables))
    edge_list = list(edges)
    if len(table_list) == 1:
        return JoinChain.of(table_list[0])
    adjacency: dict[str, list[JoinEdge]] = {t: [] for t in table_list}
    for edge in edge_list:
        adjacency[edge.left].append(edge)
        adjacency[edge.right].append(edge)
    order: list[str] = []
    seen: set[str] = set()
    frontier = [table_list[0]]
    while frontier:
        current = frontier.pop(0)
        if current in seen:
            continue
        seen.add(current)
        order.append(current)
        for edge in sorted(adjacency[current], key=str):
            neighbor = edge.other(current)
            if neighbor not in seen:
                frontier.append(neighbor)
    conditions = tuple(edge.condition for edge in edge_list)
    return JoinChain(tuple(order), conditions)
