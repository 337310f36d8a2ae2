"""The MaxSAT reference for value-correspondence enumeration (Section 4.2).

The paper encodes candidate value correspondences as one partial weighted
MaxSAT problem and solves it with Sat4J.  This module keeps that encoding
and a MaxSAT solver built on the CDCL solver of ``repro.sat``, as the
reference the factored engine
(:class:`~repro.correspondence.enumerator.FactoredVcEnumerator`) is
checked against, the way the interpreter is the reference for the compiled
execution engine.  Synthesis never runs it: the encoding is only practical
for small schemas.

The solver is the classic *linear SAT/UNSAT search*: each soft clause gets
a relaxation literal, and the total weight of relaxed (violated) soft
clauses is bounded by a cardinality constraint that is tightened until the
formula becomes unsatisfiable.  Weights are small integers in these
encodings, so the weighted bound repeats each relaxation literal
``weight`` times inside a sequential at-most-k constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.correspondence.enumerator import VcCandidate, VcEnumerationError, compatible_targets
from repro.correspondence.similarity import DEFAULT_ALPHA
from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute, Schema
from repro.lang.ast import Program
from repro.lang.visitors import queried_attributes
from repro.sat.cardinality import at_most_k_sequential
from repro.sat.cnf import CNF, Literal
from repro.sat.solver import SatSolver, Status


class MaxSatError(Exception):
    """Raised for malformed MaxSAT problems (e.g. non-positive weights)."""


@dataclass
class SoftClause:
    literals: tuple[Literal, ...]
    weight: int


@dataclass
class MaxSatResult:
    """Outcome of a MaxSAT call."""

    satisfiable: bool
    model: Optional[dict[int, bool]] = None
    cost: int = 0  # total weight of violated soft clauses
    satisfied_weight: int = 0


class WPMaxSatSolver:
    """A partial weighted MaxSAT solver over a growable clause database."""

    def __init__(self) -> None:
        self._hard = CNF()
        self._soft: list[SoftClause] = []

    def new_variable(self) -> int:
        return self._hard.new_variable()

    def ensure_variable(self, var: int) -> None:
        self._hard.ensure_variable(var)

    def add_hard(self, literals: Iterable[Literal]) -> None:
        self._hard.add_clause(literals)

    def add_soft(self, literals: Iterable[Literal], weight: int) -> None:
        clause = tuple(literals)
        if weight <= 0:
            raise MaxSatError(f"soft clause weight must be positive, got {weight}")
        if not clause:
            raise MaxSatError("empty soft clause")
        for lit in clause:
            self._hard.ensure_variable(abs(lit))
        self._soft.append(SoftClause(clause, weight))

    @property
    def total_soft_weight(self) -> int:
        return sum(c.weight for c in self._soft)

    def _soft_cost(self, model: dict[int, bool]) -> int:
        cost = 0
        for clause in self._soft:
            satisfied = any(model.get(abs(lit), False) == (lit > 0) for lit in clause.literals)
            if not satisfied:
                cost += clause.weight
        return cost

    def solve(self) -> MaxSatResult:
        """Find a model of the hard clauses maximizing the satisfied soft weight."""
        # Feasibility check on hard clauses alone.
        base_solver = SatSolver()
        base_solver.add_cnf(self._hard)
        base = base_solver.solve()
        if base.status is not Status.SAT:
            return MaxSatResult(satisfiable=False)
        if not self._soft:
            return MaxSatResult(True, base.model, 0, 0)

        # Working formula: hard clauses + relaxed soft clauses.
        working = self._hard.copy()
        relax_literals: list[tuple[Literal, int]] = []
        for clause in self._soft:
            relax = working.new_variable()
            working.add_clause(clause.literals + (relax,))
            relax_literals.append((relax, clause.weight))

        best_model = base.model
        assert best_model is not None
        best_cost = self._soft_cost(best_model)

        while best_cost > 0:
            bounded = working.copy()
            weighted_literals: list[Literal] = []
            for literal, weight in relax_literals:
                weighted_literals.extend([literal] * weight)
            at_most_k_sequential(bounded, weighted_literals, best_cost - 1)
            solver = SatSolver()
            solver.add_cnf(bounded)
            result = solver.solve()
            if result.status is not Status.SAT:
                break
            assert result.model is not None
            cost = self._soft_cost(result.model)
            if cost >= best_cost:
                # The relaxation variables over-approximated the true cost;
                # still make progress by tightening to the observed cost.
                best_model = result.model
                best_cost = cost
                break
            best_model = result.model
            best_cost = cost

        total = self.total_soft_weight
        return MaxSatResult(True, best_model, best_cost, total - best_cost)


def solve_wpmaxsat(
    hard: Iterable[Iterable[Literal]],
    soft: Iterable[tuple[Iterable[Literal], int]],
    num_variables: int = 0,
) -> MaxSatResult:
    """Convenience wrapper for one-shot MaxSAT solving."""
    solver = WPMaxSatSolver()
    if num_variables:
        solver.ensure_variable(num_variables)
    for clause in hard:
        solver.add_hard(clause)
    for clause, weight in soft:
        solver.add_soft(clause, weight)
    return solver.solve()


def all_compatible_targets(
    source: Schema, target: Schema, alpha: int = DEFAULT_ALPHA
) -> dict[Attribute, list[tuple[Attribute, int]]]:
    """:func:`compatible_targets` of every source attribute, in declaration order."""
    return {attr: compatible_targets(source, target, attr, alpha) for attr in source.attributes()}


class MaxSatVcEnumerator:
    """Value-correspondence enumeration via the full partial weighted MaxSAT encoding.

    * one boolean variable ``x_ij`` per type-compatible (source attribute,
      target attribute) pair;
    * hard: every attribute the source program queries maps somewhere;
    * soft: ``x_ij`` with weight ``sim(a_i, a'_j)``, and the one-to-one
      preference ``x_ij -> ¬x_ik`` with weight ``α``;
    * after each model, a hard clause blocking exactly that assignment.
    """

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
