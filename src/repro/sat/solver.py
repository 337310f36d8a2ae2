"""A CDCL SAT solver.

This replaces the Sat4J dependency of the original Migrator implementation.
It is a conflict-driven clause-learning solver with two-watched-literal
propagation, VSIDS-style activity ordering, first-UIP clause learning,
Luby-sequence restarts and optional solving under assumptions.

The sketch-completion loop calls :meth:`SatSolver.solve` once per candidate,
and every call searches from an empty assignment, so the per-call constant
matters more than asymptotics on any one formula.  The state is therefore
array-backed: values, watch lists, levels, reasons and activities live in
lists indexed by literal or variable, the branching order is a heap instead
of a scan, and unit clauses are indexed instead of rediscovered.  None of
this changes a decision — see :meth:`SatSolver._pick_branch_variable`.

A caller that knows part of the formula is settled can :meth:`SatSolver.fix`
its values: fixed variables keep them across calls and drop out of the
search until :meth:`SatSolver.release` hands them back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from repro.sat.cnf import CNF, Literal


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStatistics:
    """Counters exposed for benchmarking and tests.

    They count the work the solver does: a fixed variable is never decided
    or propagated, so it adds nothing.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0


@dataclass
class SolveResult:
    """The outcome of one :meth:`SatSolver.solve` call.

    ``model`` maps every variable this call assigned to its value, in trail
    order.  Fixed variables are not repeated: a caller that fixed them
    already knows their values.
    """

    status: Status
    model: Optional[dict[int, bool]] = None

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _Watcher:
    """One entry of a literal's watch list.

    Besides the clause index it caches a *blocker* literal (some other
    literal of the clause): if the blocker is already true the clause is
    satisfied and propagation can skip dereferencing it entirely — the
    standard MiniSat blocker optimisation.  Slotted: watch lists are the
    densest per-literal structures in the solver.
    """

    __slots__ = ("clause", "blocker")

    def __init__(self, clause: int, blocker: Literal):
        self.clause = clause
        self.blocker = blocker


class SatSolver:
    """CDCL solver over a growable clause database.

    Per-literal arrays (``_value``, ``_watches``) have ``2 * capacity + 1``
    slots and are indexed by the literal itself: literal ``-v`` lands on
    slot ``2 * capacity + 1 - v`` through Python's negative indexing, so
    ``_value[lit]`` is the literal's truth value (``None`` when unassigned)
    and ``_value[-lit]`` its negation's, with no sign test.  Per-variable
    arrays (``_level``, ``_reason``, ``_activity``) have ``capacity + 1``
    slots.  Capacity grows geometrically and is decoupled from
    ``_num_vars``: an assumption on a variable no clause mentions gets a
    slot without joining the branching order.

    ``_base`` is the per-literal value array every ``solve()`` starts from:
    ``None`` everywhere except on fixed literals.  ``_free`` holds the
    variables of the branching order, those of ``1 … _num_vars`` that are
    not fixed.  With nothing fixed, ``solve()`` searches exactly as it would
    without them.
    """

    __slots__ = (
        "stats",
        "_num_vars",
        "_capacity",
        "_clauses",
        "_units",
        "_watches",
        "_value",
        "_base",
        "_free",
        "_level",
        "_reason",
        "_trail",
        "_trail_lim",
        "_qhead",
        "_activity",
        "_heap",
        "_var_inc",
        "_var_decay",
        "_restart_base",
        "_empty_clause",
    )

    def __init__(self, cnf: CNF | None = None, *, restart_base: int = 64):
        self.stats = SolverStatistics()
        self._num_vars = 0
        self._capacity = 0
        self._clauses: list[list[Literal]] = []
        #: Indices of the unit clauses (original and learned), ascending.
        self._units: list[int] = []
        self._watches: list[list[_Watcher]] = [[]]
        # assignment state
        self._value: list[Optional[bool]] = [None]
        self._base: list[Optional[bool]] = [None]
        self._free: set[int] = set()
        self._level: list[int] = [0]
        self._reason: list[Optional[int]] = [None]
        self._trail: list[Literal] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # activity and the branching heap of (-activity, var) entries
        self._activity: list[float] = [0.0]
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._restart_base = restart_base
        self._empty_clause = False
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ build
    def _grow(self, var: int) -> None:
        """Make room for variables up to *var* in every array."""
        old = self._capacity
        if var <= old:
            return
        capacity = max(var, 2 * old)
        pad = capacity - old
        self._level.extend([0] * pad)
        self._reason.extend([None] * pad)
        self._activity.extend([0.0] * pad)
        # Positive literals keep their slots; negative ones move to the end.
        value = self._value
        self._value = value[: old + 1] + [None] * (2 * pad) + value[old + 1 :]
        base = self._base
        self._base = base[: old + 1] + [None] * (2 * pad) + base[old + 1 :]
        watches = self._watches
        self._watches = (
            watches[: old + 1] + [[] for _ in range(2 * pad)] + watches[old + 1 :]
        )
        self._capacity = capacity

    def _ensure_vars(self, var: int) -> None:
        if var > self._num_vars:
            self._grow(var)
            self._free.update(range(self._num_vars + 1, var + 1))
            self._num_vars = var

    def add_cnf(self, cnf: CNF) -> None:
        self._ensure_vars(cnf.num_variables)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a clause; duplicate literals are removed, tautologies dropped."""
        clause: list[Literal] = []
        seen: set[Literal] = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            seen.add(lit)
            clause.append(lit)
            self._ensure_vars(abs(lit))
        if not clause:
            self._empty_clause = True
            return
        self._store_clause(clause)

    def _store_clause(self, clause: list[Literal]) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        watches = self._watches
        if len(clause) >= 2:
            watches[clause[0]].append(_Watcher(index, clause[1]))
            watches[clause[1]].append(_Watcher(index, clause[0]))
        else:
            watches[clause[0]].append(_Watcher(index, clause[0]))
            self._units.append(index)
        return index

    # ----------------------------------------------------------------- fixing
    def fix(self, literals: Iterable[Literal]) -> None:
        """Hold every literal of *literals* true across ``solve()`` calls.

        A fixed variable is not reset, decided, propagated or put on the
        trail, and ``SolveResult.model`` leaves it out; it keeps its value
        until :meth:`release`.  The solver does not propagate *from* fixed
        literals either, and conflict analysis treats them like top-level
        facts.  So fix only a set of variables that shares no clause with
        the unfixed ones, holding values that satisfy its own clauses (a
        settled part of an earlier model): then no clause or conflict ever
        mixes fixed and searched variables, and every learned clause stays
        valid after a release.
        """
        literals = list(literals)
        if not literals:
            return
        self._ensure_vars(max(lit if lit > 0 else -lit for lit in literals))
        base = self._base
        level = self._level
        reason = self._reason
        free = self._free
        for lit in literals:
            var = lit if lit > 0 else -lit
            base[lit] = True
            base[-lit] = False
            level[var] = 0
            reason[var] = None
            free.discard(var)

    def release(self, variables: Iterable[int]) -> None:
        """Return fixed *variables* to the search; others are left alone."""
        base = self._base
        free = self._free
        num_vars = self._num_vars
        for var in variables:
            if var <= num_vars and base[var] is not None:
                base[var] = base[-var] = None
                free.add(var)

    @property
    def activity(self) -> Sequence[float]:
        """The branching activity of every variable (slot 0 unused).

        Activities change only during conflict analysis: a bump raises one
        variable's, and a rescale shrinks them all and replaces this list.
        """
        return self._activity

    # ------------------------------------------------------------- assignment
    def _enqueue(self, lit: Literal, reason: Optional[int]) -> bool:
        value = self._value[lit]
        if value is not None:
            return value
        var = lit if lit > 0 else -lit
        self._value[lit] = True
        self._value[-lit] = False
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        self.stats.propagations += 1
        return True

    # ------------------------------------------------------------ propagation
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns the index of a conflicting clause or None.

        Propagates from the start of the unprocessed suffix of the trail;
        entries appended meanwhile are handled too.  Watch lists are rebuilt
        in visiting order, so the order in which clauses are examined — and
        hence which implication or conflict is found first — depends only
        on the clause database and the trail.
        """
        trail = self._trail
        value = self._value
        watches = self._watches
        clauses = self._clauses
        level = self._level
        reason = self._reason
        current = len(self._trail_lim)
        head = self._qhead
        propagations = 0
        conflict: Optional[int] = None
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watch_list = watches[false_lit]
            new_watch_list: list[_Watcher] = []
            keep = new_watch_list.append
            # On a conflict the unvisited rest of the list is kept as is.
            unvisited = iter(watch_list)
            for watcher in unvisited:
                # Blocker already true: clause satisfied, skip dereferencing it.
                if value[watcher.blocker] is True:
                    keep(watcher)
                    continue
                clause_index = watcher.clause
                clause = clauses[clause_index]
                size = len(clause)
                if size >= 2:
                    # Ensure false_lit is at position 1.
                    first = clause[0]
                    if first == false_lit:
                        first = clause[0] = clause[1]
                        clause[1] = false_lit
                    if value[first] is True:
                        watcher.blocker = first
                        keep(watcher)
                        continue
                    # Find a new literal to watch.
                    k = 2
                    while k < size:
                        other = clause[k]
                        if value[other] is not False:
                            clause[1] = other
                            clause[k] = false_lit
                            watches[other].append(_Watcher(clause_index, first))
                            break
                        k += 1
                    if k < size:
                        continue
                    keep(watcher)
                    if value[first] is False:
                        conflict = clause_index
                        new_watch_list.extend(unvisited)
                        break
                    var = first if first > 0 else -first
                    value[first] = True
                    value[-first] = False
                    level[var] = current
                    reason[var] = clause_index
                    trail.append(first)
                    propagations += 1
                else:
                    keep(watcher)
                    only = clause[0]
                    if value[only] is False:
                        conflict = clause_index
                        new_watch_list.extend(unvisited)
                        break
                    if value[only] is None:
                        var = only if only > 0 else -only
                        value[only] = True
                        value[-only] = False
                        level[var] = current
                        reason[var] = clause_index
                        trail.append(only)
                        propagations += 1
            watches[false_lit] = new_watch_list
            if conflict is not None:
                self.stats.propagations += propagations
                self._qhead = len(trail)
                return conflict
        self.stats.propagations += propagations
        self._qhead = head
        return None

    # ---------------------------------------------------------------- analyse
    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            self._activity = [a * 1e-100 for a in activity]
            self._var_inc *= 1e-100
            self._rebuild_heap()

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay

    def _analyze(self, conflict_index: int) -> tuple[list[Literal], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the backtrack
        level.  Every literal met here is assigned: conflict and reason
        clauses hold only false literals besides the implied one.
        """
        clauses = self._clauses
        level = self._level
        trail = self._trail
        learned: list[Literal] = []
        seen: set[int] = set()
        counter = 0
        lit: Literal = 0
        clause = clauses[conflict_index]
        trail_index = len(trail) - 1
        current = len(self._trail_lim)

        while True:
            for reason_lit in clause:
                if reason_lit == lit:
                    continue
                var = reason_lit if reason_lit > 0 else -reason_lit
                if var in seen:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if var_level == current:
                    counter += 1
                else:
                    learned.append(reason_lit)
            # Pick the next literal from the trail to resolve on.
            while True:
                lit = trail[trail_index]
                trail_index -= 1
                if (lit if lit > 0 else -lit) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[lit if lit > 0 else -lit]
            assert reason_index is not None
            clause = clauses[reason_index]
        learned.insert(0, -lit)
        if len(learned) == 1:
            return learned, 0
        back_level = max(level[abs(l)] for l in learned[1:])
        # Put a literal of the backtrack level in position 1 (watch invariant).
        for i in range(1, len(learned)):
            if level[abs(learned[i])] == back_level:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        value = self._value
        activity = self._activity
        heap = self._heap
        for lit in trail[limit:]:
            value[lit] = value[-lit] = None
            var = lit if lit > 0 else -lit
            heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = min(self._qhead, len(trail))

    # ----------------------------------------------------------------- decide
    def _rebuild_heap(self) -> None:
        value = self._value
        activity = self._activity
        heap = [(-activity[v], v) for v in self._free if value[v] is None]
        heapify(heap)
        self._heap = heap

    def _pick_branch_variable(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties.

        The heap holds ``(-activity, var)`` entries, so its minimum is that
        variable as long as every unassigned variable has an entry carrying
        its current activity.  Entries are never updated in place: a
        variable gets a fresh entry when backtracking frees it, and the heap
        is rebuilt from the unfixed variables at ``solve()`` start and
        whenever activities are rescaled.  In between, activities change only by bumps in
        ``_analyze``, which touch assigned variables only.  Entries of
        assigned variables or with an outdated activity are discarded as
        they surface.
        """
        heap = self._heap
        value = self._value
        activity = self._activity
        while heap:
            key, var = heappop(heap)
            if value[var] is None and -key == activity[var]:
                return var
        return None

    # ------------------------------------------------------------------ solve
    def solve(self, assumptions: Sequence[Literal] = ()) -> SolveResult:
        """Solve the current clause database under optional assumptions.

        Every call starts from the fixed literals alone and searches the
        unfixed variables; the model lists only those.
        """
        if self._empty_clause:
            return SolveResult(Status.UNSAT)
        for lit in assumptions:
            self._grow(abs(lit))
        # Reset transient state.
        self._value = self._base.copy()
        self._trail.clear()
        self._trail_lim.clear()
        self._qhead = 0
        self._rebuild_heap()

        # Top-level propagation of unit clauses.
        value = self._value
        clauses = self._clauses
        for index in self._units:
            lit = clauses[index][0]
            if value[lit] is False:
                return SolveResult(Status.UNSAT)
            self._enqueue(lit, index)
        if self._propagate() is not None:
            return SolveResult(Status.UNSAT)

        # Assumptions are decisions at successive levels.
        for lit in assumptions:
            if value[lit] is False:
                return SolveResult(Status.UNSAT)
            if value[lit] is None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    return SolveResult(Status.UNSAT)
        assumption_level = len(self._trail_lim)

        conflicts_since_restart = 0
        restart_count = 0
        restart_limit = self._restart_base * _luby(restart_count + 1)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if len(self._trail_lim) <= assumption_level:
                    return SolveResult(Status.UNSAT)
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, assumption_level)
                self._backtrack(back_level)
                index = self._store_clause(learned)
                self.stats.learned_clauses += 1
                self._enqueue(learned[0], index)
                self._decay_activities()
            else:
                if conflicts_since_restart >= restart_limit:
                    restart_count += 1
                    self.stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_limit = self._restart_base * _luby(restart_count + 1)
                    self._backtrack(assumption_level)
                    continue
                var = self._pick_branch_variable()
                if var is None:
                    # Every unfixed variable is assigned; the model lists
                    # them in trail order.
                    model = {(lit if lit > 0 else -lit): lit > 0 for lit in self._trail}
                    return SolveResult(Status.SAT, model)
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(var, None)


def solve_cnf(cnf: CNF, assumptions: Sequence[Literal] = ()) -> SolveResult:
    """One-shot convenience wrapper."""
    return SatSolver(cnf).solve(assumptions)
