"""Lazy enumeration of value correspondences in decreasing order of likelihood.

Section 4.2 of the paper encodes candidate value correspondences as a partial
weighted MaxSAT problem:

* one boolean variable ``x_ij`` per (source attribute, target attribute) pair,
* hard constraints: type compatibility, and every attribute queried by the
  source program must map to at least one target attribute,
* soft constraints: ``x_ij`` with weight ``sim(a_i, a'_j)`` and the
  one-to-one preference ``x_ij -> ¬x_ik`` with weight ``α``,
* blocking clauses for previously rejected correspondences.

This module provides one engine and its reference:

``FactoredVcEnumerator``
    Exploits the fact that the objective and all hard constraints decompose
    per source attribute (only blocking clauses couple attributes), so the
    MaxSAT optimum can be enumerated exactly with a best-first search over the
    product of per-attribute candidate streams.  It scales to the real-world
    benchmark schemas, and :class:`ValueCorrespondenceEnumerator` always runs
    it.

``MaxSatVcEnumerator``
    Builds the full encoding and solves it with :mod:`repro.maxsat`.  Faithful
    to the paper but only practical for small schemas; the test suite keeps
    it as the reference the factored engine is checked against, as the
    interpreter is for the compiled execution engine.

Both engines yield :class:`ValueCorrespondence` objects in non-increasing
order of objective value and never repeat a correspondence, which subsumes
the paper's blocking-clause mechanism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.correspondence.similarity import DEFAULT_ALPHA, name_similarity
from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.types import compatible
from repro.lang.ast import Program
from repro.lang.visitors import queried_attributes
from repro.maxsat.wpmaxsat import WPMaxSatSolver


class VcEnumerationError(Exception):
    """Raised when no value correspondence can satisfy the hard constraints."""


@dataclass
class VcCandidate:
    """A value correspondence together with its MaxSAT objective value."""

    correspondence: ValueCorrespondence
    weight: int


# --------------------------------------------------------------------------------------
#  Shared encoding helpers
# --------------------------------------------------------------------------------------
def compatible_targets(
    source: Schema, target: Schema, attr: Attribute, alpha: int = DEFAULT_ALPHA
) -> list[tuple[Attribute, int]]:
    """Type-compatible target attributes with their similarity weight, best first.

    The MaxSAT objective only depends on attribute-name similarity (as in the
    paper); ties are broken deterministically by table-name similarity and
    then lexicographically, so that e.g. ``Instructor.InstId`` is preferred
    over ``Class.InstId`` as the image of ``Instructor.InstId``.
    """
    source_type = source.type_of(attr)
    scored: list[tuple[Attribute, int]] = []
    for table in target.tables.values():
        for column, dtype in table.columns.items():
            if compatible(source_type, dtype):
                scored.append(
                    (Attribute(table.name, column), name_similarity(attr.name, column, alpha))
                )
    table_score = {
        name: name_similarity(attr.table, name, alpha)
        for name in {candidate.table for candidate, _weight in scored}
    }
    scored.sort(key=lambda pair: (-pair[1], -table_score[pair[0].table], str(pair[0])))
    return scored


def all_compatible_targets(
    source: Schema, target: Schema, alpha: int = DEFAULT_ALPHA
) -> dict[Attribute, list[tuple[Attribute, int]]]:
    """:func:`compatible_targets` of every source attribute, in declaration order."""
    return {attr: compatible_targets(source, target, attr, alpha) for attr in source.attributes()}


# --------------------------------------------------------------------------------------
#  Factored (decomposition-based) engine
# --------------------------------------------------------------------------------------
class _RowCandidates:
    """Best-first enumeration of mapping subsets for one source attribute.

    The per-attribute objective of a subset ``S`` of target attributes is
    ``Σ_{j∈S} sim_j − α·C(|S|, 2)`` (similarity reward minus the one-to-one
    penalty for every violated preference clause).  Subsets are produced
    lazily, in non-increasing objective order.
    """

    def __init__(
        self,
        attribute: Attribute,
        targets: Sequence[tuple[Attribute, int]],
        *,
        required: bool,
        alpha: int,
        max_fanout: Optional[int] = None,
    ):
        self.attribute = attribute
        self.targets = list(targets)
        self.required = required
        self.alpha = alpha
        self.max_fanout = max_fanout
        self._produced: list[tuple[int, frozenset[Attribute]]] = []
        self._heap: list[tuple[int, tuple[int, ...]]] = []
        self._seen: set[tuple[int, ...]] = set()
        if not required:
            self._push(())
        for index in range(len(self.targets)):
            self._push((index,))

    @property
    def feasible(self) -> bool:
        return bool(self._heap) or bool(self._produced)

    def _weight(self, indices: tuple[int, ...]) -> int:
        reward = sum(self.targets[i][1] for i in indices)
        size = len(indices)
        return reward - self.alpha * (size * (size - 1) // 2)

    def _push(self, indices: tuple[int, ...]) -> None:
        if indices in self._seen:
            return
        if self.max_fanout is not None and len(indices) > self.max_fanout:
            return
        self._seen.add(indices)
        heapq.heappush(self._heap, (-self._weight(indices), indices))

    def get(self, rank: int) -> Optional[tuple[int, frozenset[Attribute]]]:
        """The *rank*-th best subset (0-based) or ``None`` if exhausted."""
        while len(self._produced) <= rank and self._heap:
            neg_weight, indices = heapq.heappop(self._heap)
            subset = frozenset(self.targets[i][0] for i in indices)
            self._produced.append((-neg_weight, subset))
            if indices:
                last = indices[-1]
                if last + 1 < len(self.targets):
                    # Replace the last element with the next-most-similar target,
                    # or extend the subset with it; both successors have weight
                    # no larger than the current subset, so best-first order is
                    # preserved.
                    self._push(indices[:-1] + (last + 1,))
                    self._push(indices + (last + 1,))
        if rank < len(self._produced):
            return self._produced[rank]
        return None


class FactoredVcEnumerator:
    """Exact best-first enumeration of the MaxSAT encoding, per-attribute factored."""

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        *,
        alpha: int = DEFAULT_ALPHA,
        max_fanout: Optional[int] = 2,
    ):
        self.source = source_program.schema
        self.target = target_schema
        self.alpha = alpha
        self.queried = queried_attributes(source_program)
        targets = all_compatible_targets(self.source, self.target, alpha)
        self.rows: list[_RowCandidates] = []
        for attr, attr_targets in targets.items():
            required = attr in self.queried
            row = _RowCandidates(
                attr, attr_targets, required=required, alpha=alpha, max_fanout=max_fanout
            )
            if required and not row.feasible:
                raise VcEnumerationError(
                    f"queried attribute {attr} has no type-compatible target attribute"
                )
            self.rows.append(row)

    def candidates(self) -> Iterator[VcCandidate]:
        """Yield all value correspondences in non-increasing objective order."""
        if not self.rows:
            yield VcCandidate(ValueCorrespondence(self.source, self.target, {}), 0)
            return
        start = tuple(0 for _ in self.rows)
        initial = self._state_weight(start)
        if initial is None:
            return
        heap: list[tuple[int, tuple[int, ...]]] = [(-initial, start)]
        visited: set[tuple[int, ...]] = {start}
        while heap:
            neg_weight, state = heapq.heappop(heap)
            yield VcCandidate(self._state_to_vc(state), -neg_weight)
            for row_index in range(len(self.rows)):
                successor = state[:row_index] + (state[row_index] + 1,) + state[row_index + 1 :]
                if successor in visited:
                    continue
                weight = self._state_weight(successor)
                if weight is None:
                    continue
                visited.add(successor)
                heapq.heappush(heap, (-weight, successor))

    def _state_weight(self, state: tuple[int, ...]) -> Optional[int]:
        total = 0
        for row, rank in zip(self.rows, state):
            entry = row.get(rank)
            if entry is None:
                return None
            total += entry[0]
        return total

    def _state_to_vc(self, state: tuple[int, ...]) -> ValueCorrespondence:
        mapping = {}
        for row, rank in zip(self.rows, state):
            entry = row.get(rank)
            assert entry is not None
            mapping[row.attribute] = entry[1]
        return ValueCorrespondence(self.source, self.target, mapping)


# --------------------------------------------------------------------------------------
#  Full MaxSAT engine (faithful encoding, the test reference for small schemas)
# --------------------------------------------------------------------------------------
class MaxSatVcEnumerator:
    """Value-correspondence enumeration via the full partial weighted MaxSAT encoding."""

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        *,
        alpha: int = DEFAULT_ALPHA,
    ):
        self.source = source_program.schema
        self.target = target_schema
        self.alpha = alpha
        self.queried = queried_attributes(source_program)
        self.solver = WPMaxSatSolver()
        self.variables: dict[tuple[Attribute, Attribute], int] = {}
        self._build_encoding(all_compatible_targets(self.source, self.target, alpha))

    def _build_encoding(self, targets: dict[Attribute, list[tuple[Attribute, int]]]) -> None:
        for attr, attr_targets in targets.items():
            literals = []
            for target_attr, weight in attr_targets:
                var = self.solver.new_variable()
                self.variables[(attr, target_attr)] = var
                literals.append(var)
                if weight > 0:
                    self.solver.add_soft([var], weight)
                elif weight < 0:
                    # A negative-similarity mapping is penalized by rewarding
                    # its absence (shifts the objective by a constant).
                    self.solver.add_soft([-var], -weight)
            if attr in self.queried:
                if not literals:
                    raise VcEnumerationError(
                        f"queried attribute {attr} has no type-compatible target attribute"
                    )
                self.solver.add_hard(literals)
            # One-to-one preference soft clauses x_ij -> ¬x_ik.
            for j in range(len(literals)):
                for k in range(j + 1, len(literals)):
                    self.solver.add_soft([-literals[j], -literals[k]], self.alpha)

    def _model_to_vc(self, model: dict[int, bool]) -> ValueCorrespondence:
        mapping: dict[Attribute, set[Attribute]] = {}
        for (src, dst), var in self.variables.items():
            if model.get(var, False):
                mapping.setdefault(src, set()).add(dst)
        return ValueCorrespondence(self.source, self.target, mapping)

    def candidates(self) -> Iterator[VcCandidate]:
        while True:
            result = self.solver.solve()
            if not result.satisfiable or result.model is None:
                return
            vc = self._model_to_vc(result.model)
            yield VcCandidate(vc, result.satisfied_weight)
            # Block exactly this assignment of the x variables (the paper's ¬A).
            blocking = []
            for var in self.variables.values():
                value = result.model.get(var, False)
                blocking.append(-var if value else var)
            if not blocking:
                return
            self.solver.add_hard(blocking)


# --------------------------------------------------------------------------------------
#  Public facade
# --------------------------------------------------------------------------------------
class ValueCorrespondenceEnumerator:
    """The ``NextValueCorr`` oracle of Algorithm 1 (the factored engine)."""

    def __init__(
        self,
        source_program: Program,
        target_schema: Schema,
        *,
        alpha: int = DEFAULT_ALPHA,
        max_fanout: Optional[int] = 2,
    ):
        self._iterator = FactoredVcEnumerator(
            source_program, target_schema, alpha=alpha, max_fanout=max_fanout
        ).candidates()
        self.produced = 0

    def next_value_corr(self) -> Optional[VcCandidate]:
        """The next-most-likely value correspondence, or ``None`` when exhausted."""
        try:
            candidate = next(self._iterator)
        except StopIteration:
            return None
        self.produced += 1
        return candidate

    def __iter__(self) -> Iterator[VcCandidate]:
        while True:
            candidate = self.next_value_corr()
            if candidate is None:
                return
            yield candidate
