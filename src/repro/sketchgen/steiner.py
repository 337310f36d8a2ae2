"""Enumeration of Steiner trees over the join graph.

Given a set of *terminal* tables (the tables that a join chain must cover),
the paper computes all Steiner trees — connected subgraphs spanning the
terminals — and converts them into candidate join chains.  Our enumeration
is bounded by the number of extra (non-terminal) tables allowed in a tree
and by the number of spanning trees produced per table subset; both bounds
are configurable and large enough for every benchmark in the suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.lang.ast import JoinChain
from repro.sketchgen.join_graph import JoinEdge, JoinGraph, tree_to_join_chain


@dataclass(frozen=True)
class SteinerLimits:
    """Bounds on the Steiner-tree enumeration."""

    max_extra_tables: int = 2
    max_trees_per_subset: int = 4
    max_chains: int = 64


def _spanning_trees(
    graph: JoinGraph, tables: Sequence[str], limit: int
) -> Iterator[list[JoinEdge]]:
    """Enumerate up to *limit* spanning trees of the subgraph induced by *tables*.

    The enumeration is a straightforward recursive search over edges with a
    union-find acyclicity check; subsets are small (a handful of tables), so
    no sophistication is needed.
    """
    table_list = list(dict.fromkeys(tables))
    if len(table_list) <= 1:
        yield []
        return
    edges = graph.edges_between(table_list)
    needed = len(table_list) - 1
    produced = 0
    seen: set[frozenset[JoinEdge]] = set()

    def find(parent: dict[str, str], node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def recurse(start: int, chosen: list[JoinEdge], parent: dict[str, str]) -> Iterator[list[JoinEdge]]:
        nonlocal produced
        if produced >= limit:
            return
        if len(chosen) == needed:
            key = frozenset(chosen)
            if key not in seen:
                seen.add(key)
                produced += 1
                yield list(chosen)
            return
        # Not enough remaining edges to complete a tree.
        if len(chosen) + (len(edges) - start) < needed:
            return
        for index in range(start, len(edges)):
            edge = edges[index]
            root_left = find(parent, edge.left)
            root_right = find(parent, edge.right)
            if root_left == root_right:
                continue
            parent[root_left] = root_right
            chosen.append(edge)
            yield from recurse(index + 1, chosen, parent)
            chosen.pop()
            # Undo union by rebuilding parent map (subsets are tiny).
            parent.clear()
            parent.update({t: t for t in table_list})
            for e in chosen:
                parent[find(parent, e.left)] = find(parent, e.right)
            if produced >= limit:
                return

    initial_parent = {t: t for t in table_list}
    yield from recurse(0, [], initial_parent)


def steiner_chains(
    graph: JoinGraph,
    terminals: Iterable[str],
    limits: SteinerLimits | None = None,
) -> list[JoinChain]:
    """All candidate join chains covering *terminals*, smallest first.

    A candidate is a spanning tree of a connected induced subgraph whose node
    set contains the terminals and at most ``limits.max_extra_tables``
    additional tables.  Results are memoized on the graph, which lives as
    long as its sketch generator (one synthesis run).
    """
    limits = limits or SteinerLimits()
    terminal_list = sorted(set(terminals))
    if not terminal_list:
        return []
    key = (tuple(terminal_list), limits)
    chains = graph.steiner_memo.get(key)
    if chains is None:
        chains = graph.steiner_memo[key] = _enumerate_chains(graph, terminal_list, limits)
    return list(chains)


def _enumerate_chains(
    graph: JoinGraph, terminal_list: list[str], limits: SteinerLimits
) -> list[JoinChain]:
    for table in terminal_list:
        if table not in graph.schema:
            raise KeyError(f"unknown table {table!r} in target schema")

    others = [t for t in graph.nodes if t not in terminal_list]
    chains: list[JoinChain] = []
    seen: set = set()
    for extra_count in range(0, limits.max_extra_tables + 1):
        for extra in itertools.combinations(others, extra_count):
            subset = terminal_list + list(extra)
            if not graph.is_connected(subset):
                continue
            for tree in _spanning_trees(graph, subset, limits.max_trees_per_subset):
                chain = tree_to_join_chain(subset, tree)
                key = chain.canonical()
                if key in seen:
                    continue
                seen.add(key)
                chains.append(chain)
                if len(chains) >= limits.max_chains:
                    return chains
    return chains
