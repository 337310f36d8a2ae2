"""Tests for the SAT substrate: CNF, cardinality encodings, the CDCL solver, DIMACS."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import (
    CNF,
    CNFError,
    SatSolver,
    Status,
    at_most_k_sequential,
    at_most_one,
    dumps,
    exactly_one,
    loads,
    negate,
    solve_cnf,
    variable_of,
)
from repro.sat.cardinality import at_most_one_pairwise, at_most_one_sequential
from repro.sat.cnf import VariablePool


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Reference implementation: try all assignments."""
    variables = list(range(1, cnf.num_variables + 1))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if cnf.evaluate(assignment):
            return True
    return False


# --------------------------------------------------------------------------------- CNF
class TestCnf:
    def test_add_clause_updates_variable_count(self):
        cnf = CNF()
        cnf.add_clause([1, -3])
        assert cnf.num_variables == 3
        assert cnf.num_clauses == 1

    def test_empty_clause_rejected(self):
        cnf = CNF()
        with pytest.raises(CNFError):
            cnf.add_clause([])

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(CNFError):
            cnf.add_clause([0])

    def test_evaluate(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1])
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: True})

    def test_copy_is_independent(self):
        cnf = CNF()
        cnf.add_clause([1])
        dup = cnf.copy()
        dup.add_clause([2])
        assert cnf.num_clauses == 1
        assert dup.num_clauses == 2

    def test_negate_and_variable_of(self):
        assert negate(3) == -3
        assert variable_of(-5) == 5
        with pytest.raises(CNFError):
            negate(0)

    def test_variable_pool_named_is_stable(self):
        pool = VariablePool()
        a = pool.named("x")
        b = pool.named("y")
        assert pool.named("x") == a
        assert a != b
        assert pool.meaning(a) == "x"
        assert pool.lookup("z") is None


# ------------------------------------------------------------------------------ solver
class TestSatSolver:
    def test_trivially_sat(self):
        cnf = CNF()
        cnf.add_clause([1])
        result = solve_cnf(cnf)
        assert result.is_sat and result.model[1] is True

    def test_trivially_unsat(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert solve_cnf(cnf).status is Status.UNSAT

    def test_requires_propagation(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[2] and result.model[3]

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        cnf = CNF()
        cnf.add_clause([1])   # pigeon 1 in hole 1
        cnf.add_clause([2])   # pigeon 2 in hole 1
        cnf.add_clause([-1, -2])
        assert solve_cnf(cnf).status is Status.UNSAT

    def test_pigeonhole_3_into_2_unsat(self):
        # variables p_{i,j}: pigeon i (1..3) in hole j (1..2)
        def var(i, j):
            return (i - 1) * 2 + j

        cnf = CNF()
        for i in range(1, 4):
            cnf.add_clause([var(i, 1), var(i, 2)])
        for j in (1, 2):
            for i1 in range(1, 4):
                for i2 in range(i1 + 1, 4):
                    cnf.add_clause([-var(i1, j), -var(i2, j)])
        assert solve_cnf(cnf).status is Status.UNSAT

    def test_model_satisfies_formula(self):
        cnf = CNF()
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([-1, -2])
        cnf.add_clause([-2, -3])
        cnf.add_clause([2, 3])
        result = solve_cnf(cnf)
        assert result.is_sat
        assert cnf.evaluate(result.model)

    def test_incremental_blocking_enumerates_all_models(self):
        cnf = CNF()
        exactly_one(cnf, [1, 2, 3])
        solver = SatSolver()
        solver.add_cnf(cnf)
        seen = set()
        while True:
            result = solver.solve()
            if result.status is not Status.SAT:
                break
            chosen = tuple(v for v in (1, 2, 3) if result.model[v])
            seen.add(chosen)
            solver.add_clause([-v if result.model[v] else v for v in (1, 2, 3)])
        assert seen == {(1,), (2,), (3,)}

    def test_assumptions_restrict_models(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        solver = SatSolver()
        solver.add_cnf(cnf)
        result = solver.solve(assumptions=[-1])
        assert result.is_sat and result.model[2]
        result = solver.solve(assumptions=[-1, -2])
        assert result.status is Status.UNSAT

    def test_luby_sequence(self):
        from repro.sat.solver import _luby

        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_statistics_counters_move(self):
        cnf = CNF()
        for i in range(1, 6):
            cnf.add_clause([i, i + 1])
            cnf.add_clause([-i, -(i + 1)])
        solver = SatSolver()
        solver.add_cnf(cnf)
        solver.solve()
        assert solver.stats.decisions >= 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_agrees_with_brute_force(self, clauses):
        cnf = CNF()
        for clause in clauses:
            cnf.add_clause(clause)
        result = solve_cnf(cnf)
        assert result.is_sat == brute_force_satisfiable(cnf)
        if result.is_sat:
            assert cnf.evaluate(result.model)


# ------------------------------------------------------------------------ fixed literals
class TestFixedLiterals:
    """``fix`` holds values across calls outside the search; ``release`` ends it."""

    @staticmethod
    def _two_groups() -> SatSolver:
        # Two independent exactly-one groups: variables 1-3 and 4-6.
        cnf = CNF()
        exactly_one(cnf, [1, 2, 3])
        exactly_one(cnf, [4, 5, 6])
        return SatSolver(cnf)

    def test_fixed_literals_survive_solve_and_are_never_decided(self):
        solver = self._two_groups()
        solver.fix([-1, -2, 3])
        for blocked in (4, 5):
            result = solver.solve()
            assert result.is_sat
            # Only the unfixed group is in the model, and it is complete.
            assert sorted(result.model) == [4, 5, 6]
            assert result.model[blocked]
            solver.add_clause([-blocked])
        decisions = solver.stats.decisions
        result = solver.solve()
        assert result.model == {4: False, 5: False, 6: True}
        # Variable 6 is propagated; nothing of the fixed group is decided.
        assert solver.stats.decisions == decisions
        assert solver.solve().model == result.model

    def test_fixed_values_hold_against_the_search(self):
        solver = self._two_groups()
        solver.fix([-1, -2, 3])
        # The fixed values stay even where a fresh search would pick 1.
        assert 1 not in solver.solve().model
        solver.add_clause([-4])
        solver.add_clause([-5])
        solver.add_clause([-6])
        assert solver.solve().status is Status.UNSAT

    def test_release_returns_a_variable_to_the_search(self):
        solver = self._two_groups()
        solver.fix([-1, -2, 3, 4, -5, -6])
        assert solver.solve().model == {}
        solver.release([1, 2, 3])
        result = solver.solve()
        assert sorted(result.model) == [1, 2, 3]
        assert result.model[1]
        solver.add_clause([-1])
        assert solver.solve().model == {1: False, 2: True, 3: False}
        # Releasing an unfixed or unknown variable changes nothing.
        solver.release([1, 99])
        assert solver.solve().model == {1: False, 2: True, 3: False}

    def test_fix_then_grow_keeps_both_polarities(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-2, 3])
        solver.fix([-1, 2, 3])
        capacity = solver._capacity
        # A clause beyond capacity moves every negative-literal slot.
        solver.add_clause([-(capacity + 5), 1, 2])
        assert solver._capacity > capacity
        for lit, value in ((1, False), (2, True), (3, True)):
            assert solver._base[lit] is value
            assert solver._base[-lit] is (not value)
        result = solver.solve()
        assert result.is_sat
        assert 1 not in result.model and 2 not in result.model and 3 not in result.model
        assert solver._value[-1] is True and solver._value[2] is True
        solver.release([1, 2, 3])
        solver.add_clause([1])
        result = solver.solve()
        assert result.model[1] and result.model[2] and result.model[3]

    def test_nothing_fixed_searches_as_before(self):
        # Fixing and releasing everything leaves the search pin's trace intact.
        factory, kwargs = SEARCH_CASES["3sat-40x180"]
        cnf = factory()
        solver = SatSolver(cnf)
        solver.fix(range(1, cnf.num_variables + 1))
        solver.release(range(1, cnf.num_variables + 1))
        solver_models = []
        for _ in range(5):
            result = solver.solve()
            solver_models.append(result.model)
            solver.add_clause([-v if value else v for v, value in result.model.items()])
        plain = SatSolver(cnf)
        for model in solver_models:
            result = plain.solve()
            assert result.model == model
            plain.add_clause([-v if value else v for v, value in result.model.items()])
        assert plain.stats == solver.stats


# --------------------------------------------------------------------------- search pin
def _random_cnf(seed: int, num_vars: int, num_clauses: int, widths=(3,)) -> CNF:
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), rng.choice(widths))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


def _holes_cnf(sizes) -> CNF:
    """Exactly-one groups, the shape of a sketch encoding without consistency."""
    cnf = CNF()
    for size in sizes:
        exactly_one(cnf, [cnf.new_variable() for _ in range(size)])
    return cnf


def _sketch_cnf() -> CNF:
    """The SAT encoding of gallery's first sketch (172 variables)."""
    from repro.completion import SketchEncoder
    from repro.correspondence import ValueCorrespondenceEnumerator
    from repro.sketchgen import SketchGenerator
    from repro.workloads import get_benchmark

    benchmark = get_benchmark("gallery")
    source, target = benchmark.source_program, benchmark.target_schema
    vc = ValueCorrespondenceEnumerator(source, target).next_value_corr().correspondence
    return SketchEncoder(SketchGenerator(source, target).generate(vc)).encode().cnf


def search_trace(cnf: CNF, max_models: int, *, assumptions=(), block="model", var_inc=None):
    """(sha256 of the model sequence, final statistics) of repeated ``solve()``.

    After each model a blocking clause is added: the negated full model, or
    with ``block="unit"`` the unit clause negating its lowest true variable
    (the shape of an MFI blocking clause over a single hole).  *var_inc*
    starts the activity increment near the rescale threshold.
    """
    solver = SatSolver(cnf)
    if var_inc is not None:
        solver._var_inc = var_inc
    variables = range(1, cnf.num_variables + 1)
    models = []
    while len(models) < max_models:
        result = solver.solve(assumptions)
        if result.status is not Status.SAT:
            models.append(result.status.value)
            break
        model = tuple(v for v in variables if result.model[v])
        models.append(model)
        if block == "unit":
            solver.add_clause([-model[0]])
        else:
            solver.add_clause([-v if result.model[v] else v for v in variables])
    digest = hashlib.sha256(repr(models).encode()).hexdigest()[:16]
    return digest, dataclasses.astuple(solver.stats)


#: name -> (CNF factory, keyword arguments of ``search_trace``).
SEARCH_CASES = {
    "3sat-40x180": (lambda: _random_cnf(4, 40, 180), {"max_models": 60}),
    "3sat-50x210": (lambda: _random_cnf(0, 50, 210), {"max_models": 20}),
    "3sat-60x258": (lambda: _random_cnf(1, 60, 258), {"max_models": 10}),
    "3sat-70x300": (lambda: _random_cnf(3, 70, 300), {"max_models": 5}),
    "mixed-width": (lambda: _random_cnf(12, 40, 90, (1, 2, 3, 3, 3, 4)), {"max_models": 30}),
    "assumptions": (lambda: _random_cnf(9, 50, 190), {"max_models": 20, "assumptions": (1, -2)}),
    "rescale": (lambda: _random_cnf(8, 50, 215), {"max_models": 20, "var_inc": 1e99}),
    "unit-blocking": (lambda: _holes_cnf([3, 5, 2, 7, 4, 12]), {"max_models": 40, "block": "unit"}),
    "restarts-100x420": (lambda: _random_cnf(21, 100, 420), {"max_models": 3}),
    "restarts-120x500": (lambda: _random_cnf(20, 120, 500), {"max_models": 3}),
    "restarts-unsat": (lambda: _random_cnf(2, 60, 276), {"max_models": 5}),
    "sketch-gallery": (_sketch_cnf, {"max_models": 60}),
}

#: name -> (model-sequence digest, (decisions, propagations, conflicts,
#: learned_clauses, restarts)), recorded from the dict-based solver this
#: array-backed one replaced.  Cases with restarts were recorded once that
#: solver's Luby sequence was fixed (it looped forever computing the second
#: restart interval, so those cases never finished).
SEARCH_PINS = {
    "3sat-40x180": ("8dc91f2da456ad85", (109, 1372, 55, 54, 0)),
    "3sat-50x210": ("e04324c9c48e9e1e", (81, 1258, 54, 53, 0)),
    "3sat-60x258": ("826404b8262419a3", (198, 2155, 78, 78, 0)),
    "3sat-70x300": ("23df96b593f6f9d7", (183, 3695, 123, 123, 0)),
    "assumptions": ("20970f91a6485f8a", (199, 1026, 9, 9, 0)),
    "mixed-width": ("eb22b6bf76deb8c2", (407, 1240, 14, 14, 0)),
    "rescale": ("b015a346034cbff1", (257, 1646, 35, 35, 0)),
    "restarts-100x420": ("521c4fc87a4c4817", (744, 20151, 603, 603, 6)),
    "restarts-120x500": ("ba75305431951219", (968, 27646, 728, 728, 8)),
    "restarts-unsat": ("8799f9049decff4c", (192, 3629, 164, 163, 2)),
    "sketch-gallery": ("58f08e9c4b4494d2", (1087, 10579, 59, 59, 0)),
    "unit-blocking": ("baa4a0a9e274597a", (17, 153, 0, 0, 0)),
}


class TestSearchPin:
    """The solver makes the same decisions: same models, same search effort."""

    def test_pins_cover_every_case(self):
        assert sorted(SEARCH_PINS) == sorted(SEARCH_CASES)

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_search_matches_recorded(self, name):
        factory, kwargs = SEARCH_CASES[name]
        assert search_trace(factory(), **kwargs) == SEARCH_PINS[name]


# -------------------------------------------------------------------------- cardinality
class TestCardinality:
    def _count_models(self, cnf: CNF, variables: list[int]) -> list[tuple]:
        solver = SatSolver()
        solver.add_cnf(cnf)
        models = []
        while True:
            result = solver.solve()
            if result.status is not Status.SAT:
                return models
            chosen = tuple(v for v in variables if result.model[v])
            models.append(chosen)
            solver.add_clause([-v if result.model[v] else v for v in variables])

    @pytest.mark.parametrize("encode", [at_most_one_pairwise, at_most_one_sequential])
    def test_at_most_one_semantics(self, encode):
        cnf = CNF()
        variables = [cnf.new_variable() for _ in range(4)]
        encode(cnf, variables)
        for chosen in self._count_models(cnf, variables):
            assert len(chosen) <= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_exactly_one_has_n_models(self, n):
        cnf = CNF()
        variables = [cnf.new_variable() for _ in range(n)]
        exactly_one(cnf, variables)
        models = self._count_models(cnf, variables)
        assert sorted(models) == sorted([(v,) for v in variables])

    def test_exactly_one_empty_raises(self):
        with pytest.raises(ValueError):
            exactly_one(CNF(), [])

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 1), (5, 3), (6, 0)])
    def test_at_most_k_semantics(self, n, k):
        cnf = CNF()
        variables = [cnf.new_variable() for _ in range(n)]
        at_most_k_sequential(cnf, variables, k)
        models = self._count_models(cnf, variables)
        assert models, "at-most-k must be satisfiable (all-false works)"
        assert all(len(chosen) <= k for chosen in models)
        # every subset of size <= k must be allowed
        expected = sum(
            1 for r in range(0, k + 1) for _ in itertools.combinations(variables, r)
        )
        assert len(models) == expected

    def test_at_most_k_negative_raises(self):
        with pytest.raises(ValueError):
            at_most_k_sequential(CNF(), [1, 2], -1)

    def test_at_most_one_threshold_switches_encoding(self):
        small = CNF()
        at_most_one(small, [small.new_variable() for _ in range(3)])
        large = CNF()
        variables = [large.new_variable() for _ in range(10)]
        at_most_one(large, variables)
        assert large.num_variables > 10  # sequential encoding introduced auxiliaries


# ------------------------------------------------------------------------------- DIMACS
class TestDimacs:
    def test_round_trip(self):
        cnf = CNF()
        cnf.add_clause([1, -2, 3])
        cnf.add_clause([-1, 2])
        text = dumps(cnf, comments=["example"])
        parsed = loads(text)
        assert parsed.num_variables == cnf.num_variables
        assert parsed.clauses == cnf.clauses

    def test_parse_rejects_missing_header(self):
        with pytest.raises(CNFError):
            loads("1 2 0\n")

    def test_parse_ignores_comments(self):
        cnf = loads("c hello\np cnf 2 1\n1 2 0\n")
        assert cnf.num_clauses == 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_preserves_satisfiability(self, clauses):
        cnf = CNF()
        for clause in clauses:
            cnf.add_clause(clause)
        parsed = loads(dumps(cnf))
        assert solve_cnf(parsed).is_sat == solve_cnf(cnf).is_sat
