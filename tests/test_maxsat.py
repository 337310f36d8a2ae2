"""Tests for the partial weighted MaxSAT solver of the VC-enumeration reference."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from maxsat_reference import MaxSatError, WPMaxSatSolver, solve_wpmaxsat


def brute_force_optimum(num_vars, hard, soft):
    """Reference: minimum violated soft weight over all hard-satisfying assignments."""
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}

        def satisfied(clause):
            return any(assignment.get(abs(l), False) == (l > 0) for l in clause)

        if not all(satisfied(c) for c in hard):
            continue
        cost = sum(w for c, w in soft if not satisfied(c))
        if best is None or cost < best:
            best = cost
    return best


class TestWpMaxSat:
    def test_no_soft_clauses_returns_any_model(self):
        result = solve_wpmaxsat([[1, 2], [-1]], [])
        assert result.satisfiable and result.cost == 0
        assert result.model[2] is True

    def test_unsatisfiable_hard_clauses(self):
        result = solve_wpmaxsat([[1], [-1]], [([2], 1)])
        assert not result.satisfiable

    def test_prefers_higher_weight(self):
        # x1 and x2 conflict; satisfying x2 is worth more.
        result = solve_wpmaxsat([[-1, -2]], [([1], 1), ([2], 5)])
        assert result.satisfiable
        assert result.model[2] is True
        assert result.cost == 1
        assert result.satisfied_weight == 5

    def test_all_soft_satisfiable(self):
        result = solve_wpmaxsat([], [([1], 2), ([2], 3), ([-3], 1)])
        assert result.cost == 0
        assert result.satisfied_weight == 6

    def test_weighted_tradeoff(self):
        # choose exactly one of x1..x3 (hard); soft prefers x3 strongly.
        hard = [[1, 2, 3], [-1, -2], [-1, -3], [-2, -3]]
        soft = [([1], 1), ([2], 2), ([3], 4)]
        result = solve_wpmaxsat(hard, soft)
        assert result.model[3] is True
        assert result.cost == 3

    def test_soft_clause_weight_must_be_positive(self):
        solver = WPMaxSatSolver()
        with pytest.raises(MaxSatError):
            solver.add_soft([1], 0)

    def test_empty_soft_clause_rejected(self):
        solver = WPMaxSatSolver()
        with pytest.raises(MaxSatError):
            solver.add_soft([], 1)

    def test_incremental_hard_blocking(self):
        solver = WPMaxSatSolver()
        solver.ensure_variable(2)
        solver.add_soft([1], 3)
        solver.add_soft([2], 2)
        first = solver.solve()
        assert first.model[1] and first.model[2]
        # Block the optimum and ask again.
        solver.add_hard([-1, -2])
        second = solver.solve()
        assert second.satisfiable
        assert second.cost == 2  # give up the cheaper soft clause
        assert second.model[1] is True and second.model[2] is False

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4).filter(lambda v: v != 0), min_size=1, max_size=3),
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4).filter(lambda v: v != 0), min_size=1, max_size=2),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_matches_brute_force_optimum(self, hard, soft):
        result = solve_wpmaxsat(hard, soft, num_variables=4)
        expected = brute_force_optimum(4, hard, soft)
        if expected is None:
            assert not result.satisfiable
        else:
            assert result.satisfiable
            assert result.cost == expected
