"""Lazy enumeration of value correspondences in decreasing order of likelihood.

Section 4.2 of the paper encodes candidate value correspondences as a partial
weighted MaxSAT problem:

* one boolean variable ``x_ij`` per (source attribute, target attribute) pair,
* hard constraints: type compatibility, and every attribute queried by the
  source program must map to at least one target attribute,
* soft constraints: ``x_ij`` with weight ``sim(a_i, a'_j)`` and the
  one-to-one preference ``x_ij -> ¬x_ik`` with weight ``α``,
* blocking clauses for previously rejected correspondences.

This module provides one engine, ``FactoredVcEnumerator``.  It exploits
the fact that the objective and all hard constraints decompose per source
attribute (only blocking clauses couple attributes), so the MaxSAT optimum
can be enumerated exactly with a best-first search over the product of
per-attribute candidate streams.  Each stream scores its target attributes
only as far as the search reads it: an edit distance is computed only for a
target whose length bound can still reach the stream's frontier.  It scales
to the real-world benchmark schemas, and
:class:`ValueCorrespondenceEnumerator` always runs it.  The full MaxSAT
encoding, faithful to the paper but only practical for small schemas, lives
in the test suite (``tests/maxsat_reference.py``) as the reference this
engine is checked against, as the interpreter is for the compiled execution
engine.

The engine yields :class:`ValueCorrespondence` objects in non-increasing
order of objective value and never repeats a correspondence, which subsumes
the paper's blocking-clause mechanism.  It also blocks
*nogoods* (:meth:`FactoredVcEnumerator.block`): partial correspondences that
every agreeing correspondence fails under, learned by the session from a
rejected attempt.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from repro.correspondence.similarity import DEFAULT_ALPHA, name_similarity, similarity_bound
from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.types import DataType, compatible
from repro.lang.ast import Program
from repro.lang.visitors import queried_attributes


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
    paper); ties are broken deterministically by table-name similarity, then
    by ``str(target)``, then by declaration position, so that e.g.
    ``Instructor.InstId`` is preferred over ``Class.InstId`` as the image of
    ``Instructor.InstId``.  The list is a fully drained row of the factored
    engine (:class:`_RowCandidates`), so the order has one implementation.
    """
    return _RowCandidates(
        attr, source.type_of(attr), _index_targets(target), required=False, alpha=alpha
    ).drained()


#: Target columns by type: ``(declaration position, attribute, lower-cased name)``.
_TargetIndex = dict[DataType, list[tuple[int, Attribute, str]]]


def _index_targets(target: Schema) -> _TargetIndex:
    """The target schema's columns by type, in declaration order (tables, then columns)."""
    index: _TargetIndex = {}
    position = 0
    for table in target.tables.values():
        for column, dtype in table.columns.items():
            entry = (position, Attribute(table.name, column), column.lower())
            index.setdefault(dtype, []).append(entry)
            position += 1
    return index


# --------------------------------------------------------------------------------------
#  Factored (decomposition-based) engine
# --------------------------------------------------------------------------------------
class _RowCandidates:
    """Best-first enumeration of mapping subsets for one source attribute.

    The per-attribute objective of a subset ``S`` of target attributes is
    ``Σ_{j∈S} sim_j − α·C(|S|, 2)`` (similarity reward minus the one-to-one
    penalty for every violated preference clause).  Subsets are produced
    lazily, in non-increasing objective order, as index tuples into
    ``targets``: the type-compatible target attributes with their
    similarity, in :func:`compatible_targets` order.

    ``targets`` grows lazily too, as far as the pushed subsets reach (the
    threshold algorithm of Fagin, Lotem and Naor, applied to one row).
    Every compatible target starts out with :func:`similarity_bound`: its
    exact score when the lower-cased names are equal or contain one
    another, otherwise an upper bound.  Before the best scored target is
    placed, every unscored target whose bound reaches its score is scored
    (an edit distance, for a bound).  A bound *equal* to that score is
    scored too: ties go to table-name similarity, then ``str(target)``,
    then declaration position, and the unscored target may win them.

    Every subset has one parent.  ``(0,)`` starts the stream (with ``()``
    for a row that may stay unmapped), and the successors of a subset with
    last index ``l`` replace ``l`` by ``l + 1`` or append ``l + 1``; both
    weigh no more than their parent and sort after it on ties.  They are
    pushed at the next pop, so every subset is still pushed before any
    larger key is popped, and the heap pops in sorted ``(-weight, indices)``
    order.
    """

    def __init__(
        self,
        attribute: Attribute,
        source_type: DataType,
        index: _TargetIndex,
        *,
        required: bool,
        alpha: int,
        max_fanout: Optional[int] = None,
    ):
        self.attribute = attribute
        self.required = required
        self.alpha = alpha
        self.max_fanout = max_fanout
        #: The targets placed so far, best first: ``(attribute, similarity)``.
        self.targets: list[tuple[Attribute, int]] = []
        name = attribute.name.lower()
        #: Targets not yet scored, by bound: ``(-bound, position, attribute)``.
        self._unscored = [
            (-similarity_bound(name, lowered, alpha)[0], position, column)
            for dtype, columns in index.items()
            if compatible(source_type, dtype)
            for position, column, lowered in columns
        ]
        heapq.heapify(self._unscored)
        #: Targets scored but not yet placed, by their full sort key.
        self._scored: list[tuple[int, int, str, int, Attribute]] = []
        self._produced: list[tuple[int, frozenset[Attribute]]] = []
        self._heap: list[tuple[int, tuple[int, ...]]] = [] if required else [(0, ())]
        #: The last popped subset, whose successors the next pop pushes
        #: first (``None`` before the first pop).
        self._last: Optional[tuple[int, ...]] = None

    @property
    def feasible(self) -> bool:
        """Whether the row has a subset at all (a required row needs a target)."""
        return self.get(0) is not None

    def _target(self, index: int) -> Optional[tuple[Attribute, int]]:
        """``targets[index]``, placing the targets before it first; ``None`` past the last."""
        targets, unscored, scored = self.targets, self._unscored, self._scored
        while len(targets) <= index:
            # Bound >= best score, not >: an unscored target may win the tie.
            while unscored and (not scored or unscored[0][0] <= scored[0][0]):
                _bound, position, column = heapq.heappop(unscored)
                heapq.heappush(
                    scored,
                    (
                        -name_similarity(self.attribute.name, column.name, self.alpha),
                        -name_similarity(self.attribute.table, column.table, self.alpha),
                        str(column),
                        position,
                        column,
                    ),
                )
            if not scored:
                return None
            neg_score, _table, _name, _position, column = heapq.heappop(scored)
            targets.append((column, -neg_score))
        return targets[index]

    def drained(self) -> list[tuple[Attribute, int]]:
        """``targets`` with every compatible target placed."""
        while self._target(len(self.targets)) is not None:
            pass
        return self.targets

    def _weight(self, indices: tuple[int, ...]) -> int:
        reward = sum(self.targets[i][1] for i in indices)
        size = len(indices)
        return reward - self.alpha * (size * (size - 1) // 2)

    def _push(self, indices: tuple[int, ...]) -> None:
        if self.max_fanout is not None and len(indices) > self.max_fanout:
            return
        if self._target(indices[-1]) is not None:
            heapq.heappush(self._heap, (-self._weight(indices), indices))

    def _push_successors(self) -> None:
        """Push the successors of the last popped subset, or ``(0,)`` before the first pop."""
        last, self._last = self._last, ()
        if last is None:
            self._push((0,))
        elif last:
            # Replace the last element with the next-most-similar target, or
            # extend the subset with it.
            following = last[-1] + 1
            self._push(last[:-1] + (following,))
            self._push(last + (following,))

    def get(self, rank: int) -> Optional[tuple[int, frozenset[Attribute]]]:
        """The *rank*-th best subset (0-based) or ``None`` if exhausted."""
        produced, heap = self._produced, self._heap
        while len(produced) <= rank:
            self._push_successors()
            if not heap:
                return None
            neg_weight, indices = heapq.heappop(heap)
            produced.append((-neg_weight, frozenset(self.targets[i][0] for i in indices)))
            self._last = indices
        return produced[rank]


#: A blocked partial correspondence: ``(row index, image)`` pairs.
_RowNogood = tuple[tuple[int, frozenset[Attribute]], ...]


class FactoredVcEnumerator:
    """Exact best-first enumeration of the MaxSAT encoding, per-attribute factored.

    A *state* holds one rank per row (source attribute); its successors
    raise one rank.  That makes the key ``(-weight, state)`` of a successor
    larger than its parent's, so the heap pops states in sorted key order.

    A state that agrees with a blocked nogood is skipped when popped.  It
    pushes only its successors along the nogood's rows: every step along
    another row still agrees with the nogood, and a step along one of them
    always leads toward any state that does not agree.  So every unblocked
    state is still reached before a larger key is popped, and the stream is
    the unblocked stream minus the blocked correspondences, in the same
    order.
    """

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
        index = _index_targets(self.target)
        self.rows: list[_RowCandidates] = []
        for attr in self.source.attributes():
            required = attr in self.queried
            row = _RowCandidates(
                attr,
                self.source.type_of(attr),
                index,
                required=required,
                alpha=alpha,
                max_fanout=max_fanout,
            )
            if required and not row.feasible:
                raise VcEnumerationError(
                    f"queried attribute {attr} has no type-compatible target attribute"
                )
            self.rows.append(row)
        self._row_of = {row.attribute: index for index, row in enumerate(self.rows)}
        self.nogoods: list[_RowNogood] = []
        #: Popped states that agreed with a nogood and were not yielded.
        self.skipped = 0

    def block(self, partial: Mapping[Attribute, Iterable[Attribute]]) -> None:
        """Never yield a correspondence that agrees with *partial* on all its attributes."""
        self.nogoods.append(
            tuple(sorted((self._row_of[attr], frozenset(image)) for attr, image in partial.items()))
        )

    def candidates(self) -> Iterator[VcCandidate]:
        """Yield all unblocked value correspondences in non-increasing objective order."""
        start = tuple(0 for _ in self.rows)
        initial = self._state_weight(start)
        if initial is None:
            return
        heap: list[tuple[int, tuple[int, ...]]] = [(-initial, start)]
        visited: set[tuple[int, ...]] = {start}
        rows = self.rows
        every_row = range(len(rows))
        while heap:
            neg_weight, state = heapq.heappop(heap)
            nogood = self._nogood_of(state)
            if nogood is None:
                yield VcCandidate(self._state_to_vc(state), -neg_weight)
                steps: Iterable[int] = every_row
            else:
                self.skipped += 1
                steps = [row_index for row_index, _ in nogood]
            for row_index in steps:
                rank = state[row_index]
                successor = state[:row_index] + (rank + 1,) + state[row_index + 1 :]
                if successor in visited:
                    continue
                row = rows[row_index]
                entry = row.get(rank + 1)
                if entry is None:
                    continue
                visited.add(successor)
                # The successor's weight differs from the state's in one row.
                weight = -neg_weight - row.get(rank)[0] + entry[0]
                heapq.heappush(heap, (-weight, successor))

    def _nogood_of(self, state: tuple[int, ...]) -> Optional[_RowNogood]:
        """The first blocked nogood that *state* agrees with, if any."""
        rows = self.rows
        for nogood in self.nogoods:
            if all(rows[index].get(state[index])[1] == image for index, image in nogood):
                return nogood
        return None

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
        self.engine = FactoredVcEnumerator(
            source_program, target_schema, alpha=alpha, max_fanout=max_fanout
        )
        self._iterator = self.engine.candidates()

    def next_value_corr(self) -> Optional[VcCandidate]:
        """The next-most-likely unblocked value correspondence, or ``None`` when exhausted."""
        return next(self._iterator, None)

    def block(self, partial: Mapping[Attribute, Iterable[Attribute]]) -> None:
        """Skip every later correspondence that agrees with the nogood *partial*."""
        self.engine.block(partial)

    def __iter__(self) -> Iterator[VcCandidate]:
        while True:
            candidate = self.next_value_corr()
            if candidate is None:
                return
            yield candidate
