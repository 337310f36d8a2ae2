"""Compile program ASTs into Python closures (the compiled execution backend).

The tree-walk interpreter (:mod:`repro.engine.interpreter`) re-resolves every
attribute through a ``dict[Attribute]`` and re-walks every predicate AST node
per row, per sequence, per candidate.  The search-and-check loop executes the
same few functions thousands of times, so this module translates each
function *once* into closures over pre-resolved metadata:

* attribute access becomes ``row[table_index].vals[column_offset]`` with both
  indices resolved at compile time;
* join chains become **hash joins**: at every step, the applicable equality
  conditions that link an already-joined table to the next table form the
  build key of an index over the next table's rows, probed left-to-right.
  Conditions local to the next table become pre-filters, and a step degrades
  to the interpreter's nested loop when it has no linking condition, when a
  condition references a column the chain cannot resolve (to preserve the
  interpreter's per-row error behaviour), or when a key value is unhashable;
* ``IN`` sub-queries compile to sub-plans whose first-column member set is
  computed lazily on first use and memoized for the duration of one
  filtering pass (the instance cannot change mid-pass);
* insert-into-join compiles the union-find over join conditions away: every
  target cell becomes either a resolved-value reference or a fresh-UID slot,
  with slots ordered so that fresh UIDs are allocated in exactly the
  interpreter's traversal order (UIDs appear in outputs, so allocation order
  is observable).

Error equivalence with the interpreter is part of the contract (it is what
lets :class:`~repro.equivalence.tester.BoundedTester` treat the two backends
interchangeably): conditions the interpreter checks per execution — self
joins, unknown tables, out-of-chain conditions or delete targets — compile
to closures that raise the same exception class *when the function runs*,
never at compile time, and per-row errors (an attribute missing from a
joined row, an unbound parameter) raise only when a row actually reaches
them.  ``tests/test_compiled.py`` pins output and error equivalence across
the workload registry.

Known, documented divergence: ``IN`` membership uses a hash set, so a
``NaN`` payload would match itself by identity where the interpreter's
``==`` scan would not.  No workload produces NaN values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.datamodel.instance import InstanceError
from repro.datamodel.schema import Attribute, Schema, SchemaError
from repro.engine.compiled import CompiledFunction, CompiledProgram, CompiledState, CRow
from repro.engine.interpreter import InterpretedProgram
from repro.engine.joins import ExecutionError
from repro.engine.predicates import compare
from repro.lang.ast import (
    And,
    AttrRef,
    CompareOp,
    Comparison,
    Const,
    Delete,
    Function,
    InQuery,
    Insert,
    JoinChain,
    Not,
    Or,
    Program,
    Projection,
    QueryFunction,
    Selection,
    TruePred,
    Update,
    UpdateFunction,
    Var,
)

#: Valid values of ``SynthesisConfig.execution_backend``.
EXECUTION_BACKENDS = ("interpreter", "compiled")


def _raise_execution(message: str):
    def run(*_args, **_kwargs):
        raise ExecutionError(message)

    return run


class _FunctionCompiler:
    """Compiles the functions of one schema (table/column offsets fixed)."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.table_index: dict[str, int] = {name: i for i, name in enumerate(schema.table_names)}
        self.column_offsets: dict[str, dict[str, int]] = {
            name: {col: i for i, col in enumerate(schema.table(name).columns)}
            for name in schema.table_names
        }
        self.num_tables = len(self.table_index)
        self._subquery_slots = 0

    # ------------------------------------------------------------- extractors
    def _cell_extractor(self, attr: Attribute, pos: dict[str, int]):
        """``jrow -> value`` for one attribute of a join chain's row tuple.

        Unresolvable attributes get a closure raising the interpreter's
        "not available in joined row" error when (and only when) a row
        reaches it.
        """
        ti = pos.get(attr.table)
        if ti is not None:
            ci = self.column_offsets.get(attr.table, {}).get(attr.name)
            if ci is not None:
                return lambda j, _ti=ti, _ci=ci: j[_ti].vals[_ci]
        message = f"attribute {attr} not available in joined row"

        def unavailable(_j, _message=message):
            raise ExecutionError(_message)

        return unavailable

    def _row_operand(self, operand, pos: dict[str, int], params: frozenset[str]):
        """``(jrow, bindings) -> value`` for a predicate/projection operand."""
        if isinstance(operand, Const):
            return lambda _j, _b, _v=operand.value: _v
        if isinstance(operand, Var):
            if operand.name not in params:
                return _raise_execution(f"unbound parameter {operand.name!r}")
            return lambda _j, b, _n=operand.name: b[_n]
        if isinstance(operand, AttrRef):
            extractor = self._cell_extractor(operand.attribute, pos)
            return lambda j, _b, _ex=extractor: _ex(j)
        raise TypeError(f"unknown operand {operand!r}")

    def _rowless_operand(self, operand, params: frozenset[str]):
        """``bindings -> value`` for insert values and update right-hand sides."""
        if isinstance(operand, Const):
            return lambda _b, _v=operand.value: _v
        if isinstance(operand, Var):
            if operand.name not in params:
                return _raise_execution(f"unbound parameter {operand.name!r}")
            return lambda b, _n=operand.name: b[_n]
        if isinstance(operand, AttrRef):
            return _raise_execution(
                f"attribute {operand.attribute} used outside a row context"
            )
        raise TypeError(f"unknown operand {operand!r}")

    # ------------------------------------------------------------ join chains
    def compile_chain(self, chain: JoinChain):
        """Compile to ``(plan, pos)``: ``plan(state) -> list`` of row tuples.

        ``pos`` maps each chain table to its slot in the row tuples.  Chains
        the interpreter rejects at execution time compile to raising plans so
        the error still only surfaces when the owning function is invoked.
        """
        tables = chain.tables
        pos: dict[str, int] = {}
        for i, t in enumerate(tables):
            pos.setdefault(t, i)
        if len(pos) != len(tables):
            return (
                _raise_execution(
                    f"join chain {chain} repeats a table; self-joins are not supported"
                ),
                pos,
            )
        if tables[0] not in self.table_index:
            # The interpreter touches the first table's rows before anything
            # else, so this one *is* an immediate error.
            message = f"unknown table {tables[0]!r}"

            def unknown_first(_state, _message=message):
                raise InstanceError(_message)

            return unknown_first, pos

        pending = list(chain.conditions)
        joined = {tables[0]}

        def split(conditions):
            now, later = [], []
            for left, right in conditions:
                if left.table in joined and right.table in joined:
                    now.append((left, right))
                else:
                    later.append((left, right))
            return now, later

        first_conds, pending = split(pending)
        steps = []
        for next_table in tables[1:]:
            joined.add(next_table)
            now, pending = split(pending)
            if next_table not in self.table_index:
                # The interpreter reads the table's rows only when its join
                # step is reached — *after* earlier per-row condition errors —
                # so the InstanceError must be deferred to this step position.
                message = f"unknown table {next_table!r}"

                def unknown_step(_state, _jrows, _message=message):
                    raise InstanceError(_message)

                steps.append(unknown_step)
            else:
                steps.append(self._compile_step(next_table, now, pos))
        if pending:
            # The interpreter raises this only after the full join loop ran
            # (and an unknown mid-chain table would have raised there first),
            # so it becomes a final step, not an immediate error.
            steps.append(
                _raise_execution(
                    f"join chain {chain} has conditions over tables not in the chain: {pending}"
                )
            )

        # Degenerate conditions over the first table: one filtering pass per
        # condition, in condition order (exactly the interpreter's loop).
        first_filters = []
        for left, right in first_conds:
            lf = self._cell_extractor(left, pos)
            rf = self._cell_extractor(right, pos)
            first_filters.append((lf, rf))

        first_ti = self.table_index[tables[0]]

        def plan(state, _ti=first_ti, _filters=tuple(first_filters), _steps=tuple(steps)):
            jrows = [(r,) for r in state.tables[_ti]]
            for lf, rf in _filters:
                jrows = [j for j in jrows if lf(j) == rf(j)]
            for step in _steps:
                jrows = step(state, jrows)
            return jrows

        return plan, pos

    def _resolvable(self, attr: Attribute) -> bool:
        return attr.name in self.column_offsets.get(attr.table, {})

    def _compile_step(self, next_table: str, conds, pos: dict[str, int]):
        """One join step: extend each row tuple with a row of *next_table*."""
        nti = self.table_index[next_table]

        def nested(cond_evals):
            # The interpreter's loop: cross product, conditions evaluated in
            # order with short-circuit (so per-row errors fire identically).
            def step(state, jrows, _nti=nti, _evals=tuple(cond_evals)):
                next_rows = state.tables[_nti]
                out = []
                for j in jrows:
                    for r in next_rows:
                        cand = j + (r,)
                        for ev in _evals:
                            if not ev(cand):
                                break
                        else:
                            out.append(cand)
                return out

            return step

        def pair_eval(left, right):
            lf = self._cell_extractor(left, pos)
            rf = self._cell_extractor(right, pos)
            return lambda cand, _lf=lf, _rf=rf: _lf(cand) == _rf(cand)

        all_evals = [pair_eval(left, right) for left, right in conds]
        if any(
            not self._resolvable(left) or not self._resolvable(right) for left, right in conds
        ):
            # A condition the chain cannot resolve raises per combined row in
            # the interpreter; only the nested loop reproduces that exactly.
            return nested(all_evals)

        next_offsets = self.column_offsets[next_table]
        probe_extractors: list[Callable] = []
        build_offsets: list[int] = []
        local_filters: list[tuple[int, int]] = []
        for left, right in conds:
            if left.table == next_table and right.table == next_table:
                local_filters.append((next_offsets[left.name], next_offsets[right.name]))
            elif left.table == next_table:
                build_offsets.append(next_offsets[left.name])
                probe_extractors.append(self._cell_extractor(right, pos))
            else:
                build_offsets.append(next_offsets[right.name])
                probe_extractors.append(self._cell_extractor(left, pos))

        if not build_offsets:
            return nested(all_evals)

        fallback = nested(all_evals)
        single = len(build_offsets) == 1

        def step(
            state,
            jrows,
            _nti=nti,
            _locals=tuple(local_filters),
            _build=tuple(build_offsets),
            _probe=tuple(probe_extractors),
            _single=single,
            _fallback=fallback,
        ):
            next_rows = state.tables[_nti]
            try:
                if _locals:
                    next_rows = [
                        r for r in next_rows if all(r.vals[a] == r.vals[b] for a, b in _locals)
                    ]
                index: dict[Any, list[CRow]] = {}
                out = []
                if _single:
                    boff = _build[0]
                    pex = _probe[0]
                    for r in next_rows:
                        index.setdefault(r.vals[boff], []).append(r)
                    for j in jrows:
                        bucket = index.get(pex(j))
                        if bucket:
                            for r in bucket:
                                out.append(j + (r,))
                else:
                    for r in next_rows:
                        index.setdefault(tuple(r.vals[o] for o in _build), []).append(r)
                    for j in jrows:
                        bucket = index.get(tuple(pex(j) for pex in _probe))
                        if bucket:
                            for r in bucket:
                                out.append(j + (r,))
                return out
            except TypeError:
                # Unhashable key value: the nested loop only needs equality.
                return _fallback(state, jrows)

        return step

    # ------------------------------------------------------------- predicates
    def compile_predicate(self, pred, pos: dict[str, int], params: frozenset[str]):
        """Compile to ``(state, jrow, bindings, memo) -> bool``."""
        if isinstance(pred, TruePred):
            return lambda _s, _j, _b, _m: True
        if isinstance(pred, Comparison):
            lf = self._row_operand(pred.left, pos, params)
            rf = self._row_operand(pred.right, pos, params)
            op = pred.op
            if op is CompareOp.EQ:
                return lambda _s, j, b, _m, _lf=lf, _rf=rf: _lf(j, b) == _rf(j, b)
            if op is CompareOp.NE:
                return lambda _s, j, b, _m, _lf=lf, _rf=rf: _lf(j, b) != _rf(j, b)
            return lambda _s, j, b, _m, _lf=lf, _rf=rf, _op=op: compare(
                _lf(j, b), _op, _rf(j, b)
            )
        if isinstance(pred, InQuery):
            opf = self._row_operand(pred.operand, pos, params)
            subplan = self.compile_query(pred.query, params)
            slot = self._subquery_slots
            self._subquery_slots += 1

            def member(state, j, b, memo, _opf=opf, _subplan=subplan, _slot=slot):
                value = _opf(j, b)  # operand errors fire before the sub-query runs
                entry = memo.get(_slot)
                if entry is None:
                    firsts = [t[0] for t in _subplan(state, b, memo) if t]
                    try:
                        entry = (True, frozenset(firsts))
                    except TypeError:  # unhashable member value
                        entry = (False, firsts)
                    memo[_slot] = entry
                hashable, members = entry
                if hashable:
                    try:
                        return value in members
                    except TypeError:  # unhashable probe value
                        pass
                # The interpreter's linear == scan (members on the left).
                return any(m == value for m in members)

            return member
        if isinstance(pred, And):
            lf = self.compile_predicate(pred.left, pos, params)
            rf = self.compile_predicate(pred.right, pos, params)
            return lambda s, j, b, m, _lf=lf, _rf=rf: _lf(s, j, b, m) and _rf(s, j, b, m)
        if isinstance(pred, Or):
            lf = self.compile_predicate(pred.left, pos, params)
            rf = self.compile_predicate(pred.right, pos, params)
            return lambda s, j, b, m, _lf=lf, _rf=rf: _lf(s, j, b, m) or _rf(s, j, b, m)
        if isinstance(pred, Not):
            inner = self.compile_predicate(pred.operand, pos, params)
            return lambda s, j, b, m, _f=inner: not _f(s, j, b, m)
        raise TypeError(f"unknown predicate node {pred!r}")

    # ---------------------------------------------------------------- queries
    def compile_query(self, query, params: frozenset[str]):
        """Compile to ``(state, bindings, memo) -> list[tuple]``."""
        node = query
        projection: Optional[tuple[Attribute, ...]] = None
        if isinstance(node, Projection):
            projection = node.attributes
            node = node.source
        selections = []  # outermost first, applied innermost first
        while isinstance(node, (Projection, Selection)):
            if isinstance(node, Selection):
                selections.append(node.predicate)
            node = node.source
        if not isinstance(node, JoinChain):
            raise TypeError(f"unknown query node {node!r}")

        chain_plan, pos = self.compile_chain(node)
        filters = tuple(
            self.compile_predicate(p, pos, params)
            for p in reversed(selections)
            if not isinstance(p, TruePred)
        )
        if projection is not None:
            extractors = tuple(self._cell_extractor(attr, pos) for attr in projection)
        else:
            extractors = tuple(
                self._cell_extractor(Attribute(table, col), pos)
                for table in node.tables
                for col in self.column_offsets.get(table, {})
            )

        def run(state, bindings, memo, _plan=chain_plan, _filters=filters, _ex=extractors):
            jrows = _plan(state)
            for f in _filters:
                jrows = [j for j in jrows if f(state, j, bindings, memo)]
            return [tuple(e(j) for e in _ex) for j in jrows]

        return run

    # ------------------------------------------------------------- statements
    def _compile_matcher(self, chain: JoinChain, predicate, params: frozenset[str]):
        """Join-then-filter, shared by delete and update."""
        chain_plan, pos = self.compile_chain(chain)
        pred_fn = (
            None
            if isinstance(predicate, TruePred)
            else self.compile_predicate(predicate, pos, params)
        )

        def matches(state, bindings, _plan=chain_plan, _pred=pred_fn):
            jrows = _plan(state)
            if _pred is not None:
                memo: dict = {}
                jrows = [j for j in jrows if _pred(state, j, bindings, memo)]
            return jrows

        return matches, pos

    def compile_insert(self, stmt: Insert, params: frozenset[str]):
        chain = stmt.target
        resolvers = tuple(
            self._rowless_operand(operand, params) for _attr, operand in stmt.values
        )
        # Last value wins per attribute, but *first* occurrence fixes the
        # iteration position — exactly dict-comprehension semantics.
        provided: dict[Attribute, int] = {}
        for i, (attr, _operand) in enumerate(stmt.values):
            provided[attr] = i

        parent: dict[Attribute, Attribute] = {}

        def find(a: Attribute) -> Attribute:
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for left, right in chain.conditions:
            ra, rb = find(left), find(right)
            if ra != rb:
                parent[ra] = rb

        root_provided: dict[Attribute, int] = {}
        for attr, idx in provided.items():
            root_provided[find(attr)] = idx

        root_slots: dict[Attribute, int] = {}
        table_ops = []
        for table in chain.tables:
            if table not in self.table_index:
                message = f"unknown table {table!r} in schema {self.schema.name!r}"

                def raise_schema(_state, _vals, _fresh, _message=message):
                    raise SchemaError(_message)

                table_ops.append(raise_schema)
                continue
            cells: list[tuple[bool, int]] = []
            for col in self.column_offsets[table]:
                attr = Attribute(table, col)
                if attr in provided:
                    cells.append((True, provided[attr]))
                    continue
                root = find(attr)
                if root in root_provided:
                    cells.append((True, root_provided[root]))
                else:
                    slot = root_slots.setdefault(root, len(root_slots))
                    cells.append((False, slot))

            def insert_row(state, vals, fresh, _ti=self.table_index[table], _cells=tuple(cells)):
                row = []
                for is_value, arg in _cells:
                    if is_value:
                        row.append(vals[arg])
                    else:
                        v = fresh.get(arg)
                        if v is None:
                            v = state.uids.fresh()
                            fresh[arg] = v
                        row.append(v)
                state.append_row(_ti, row)

            table_ops.append(insert_row)

        def run(state, bindings, _resolvers=resolvers, _ops=tuple(table_ops)):
            vals = [f(bindings) for f in _resolvers]
            fresh: dict[int, Any] = {}
            for op in _ops:
                op(state, vals, fresh)

        return run

    def compile_delete(self, stmt: Delete, params: frozenset[str]):
        matcher, pos = self._compile_matcher(stmt.source, stmt.predicate, params)
        target_ops = []
        for table in stmt.tables:
            pi = pos.get(table)
            if pi is None:
                message = f"delete target {table!r} not in join chain {stmt.source}"

                def raise_target(_state, _matches, _message=message):
                    raise ExecutionError(_message)

                target_ops.append(raise_target)
                continue
            ti = self.table_index.get(table)
            if ti is None:
                # The chain itself is invalid; the matcher raises first.
                continue

            def delete_rows(state, matches, _ti=ti, _pi=pi):
                rowids = {j[_pi].rowid for j in matches}
                if rowids:
                    state.tables[_ti] = [
                        r for r in state.tables[_ti] if r.rowid not in rowids
                    ]

            target_ops.append(delete_rows)

        def run(state, bindings, _matcher=matcher, _ops=tuple(target_ops)):
            matches = _matcher(state, bindings)
            for op in _ops:
                op(state, matches)

        return run

    def compile_update(self, stmt: Update, params: frozenset[str]):
        matcher, pos = self._compile_matcher(stmt.source, stmt.predicate, params)
        table = stmt.attribute.table
        value_fn = self._rowless_operand(stmt.value, params)
        pi = pos.get(table)
        if pi is None:
            message = f"updated attribute {stmt.attribute} not in join chain {stmt.source}"

            def run_bad_table(state, bindings, _matcher=matcher, _message=message):
                _matcher(state, bindings)  # join/predicate errors come first
                raise ExecutionError(_message)

            return run_bad_table
        ti = self.table_index.get(table)
        if ti is None:
            # Chain contains an unknown table: the matcher always raises.
            def run_bad_chain(state, bindings, _matcher=matcher):
                _matcher(state, bindings)
                raise AssertionError("unreachable: matcher must raise")  # pragma: no cover

            return run_bad_chain
        ci = self.column_offsets[table].get(stmt.attribute.name)
        if ci is None:
            message = f"unknown column {stmt.attribute.name!r} for table {table!r}"

            def run_bad_column(
                state, bindings, _matcher=matcher, _value=value_fn, _message=message
            ):
                _matcher(state, bindings)
                _value(bindings)  # value errors come before the column check
                raise InstanceError(_message)

            return run_bad_column

        def run(state, bindings, _matcher=matcher, _value=value_fn, _ti=ti, _pi=pi, _ci=ci):
            matches = _matcher(state, bindings)
            value = _value(bindings)
            rowids = {j[_pi].rowid for j in matches}
            if rowids:
                for r in state.tables[_ti]:
                    if r.rowid in rowids:
                        r.vals[_ci] = value

        return run

    # -------------------------------------------------------------- functions
    def compile_function(self, func: Function) -> CompiledFunction:
        param_names = tuple(p.name for p in func.params)
        params = frozenset(param_names)
        if isinstance(func, QueryFunction):
            plan = self.compile_query(func.query, params)

            def run_query(state, bindings, _plan=plan):
                return _plan(state, bindings, {})

            return CompiledFunction(func.name, param_names, True, run_query)
        assert isinstance(func, UpdateFunction)
        stmt_fns = []
        for stmt in func.statements:
            if isinstance(stmt, Insert):
                stmt_fns.append(self.compile_insert(stmt, params))
            elif isinstance(stmt, Delete):
                stmt_fns.append(self.compile_delete(stmt, params))
            elif isinstance(stmt, Update):
                stmt_fns.append(self.compile_update(stmt, params))
            else:
                raise TypeError(f"unknown statement node {stmt!r}")

        def run_update(state, bindings, _stmts=tuple(stmt_fns)):
            for s in _stmts:
                s(state, bindings)

        return CompiledFunction(func.name, param_names, False, run_update)


@dataclass
class CompilerStats:
    """Cache counters of one :class:`ProgramCompiler`.

    The counters are cumulative over the compiler's lifetime; consumers that
    report per-run numbers over a *shared* compiler (the session core, the
    migration service) snapshot them at run start and report the delta.  A
    program-cache hit counts as one hit per function it serves — the number
    of compiled closures reused, which is the quantity cross-job sharing is
    measured by.
    """

    #: Compiled function closures served from cache (including via whole-program hits).
    function_hits: int = 0
    #: Functions actually compiled.
    function_misses: int = 0
    #: Whole-program cache hits.
    program_hits: int = 0

    def snapshot(self) -> "CompilerStats":
        return dataclasses.replace(self)


class ProgramCompiler:
    """Compiles programs with per-function and per-program caching.

    Compiled functions are cached by ``(schema signature, function)`` —
    functions by structural value, schemas by a structural signature (name,
    tables, columns, types) because compiled closures embed only table
    indices and column offsets, which that signature determines.
    Structural keying lets structurally equal functions share one closure:
    across the sketches of one run, and across jobs in service workers,
    where every pickled job carries fresh but identical schema objects.

    Hashing a function structurally walks its whole AST, so a function
    object this compiler has already resolved is found again by identity
    first.  The sketch-completion loop instantiates candidates through
    :class:`~repro.completion.instantiate.MemoizedInstantiator`, whose
    candidates share the function objects of the holes they agree on, so
    most functions of a candidate resolve that way.  The identity map is
    cleared whenever the structural cache is, so both paths count the same
    hits and misses.  Cache keys hold strong references; all caches are
    wholesale-cleared at a size cap, which bounds memory without
    bookkeeping on the hot path.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.stats = CompilerStats()
        self._functions: dict[tuple, CompiledFunction] = {}
        #: id(function) -> (function, schema signature, compiled function)
        #: for every function object resolved through ``_functions``.
        self._by_identity: dict[int, tuple] = {}
        self._programs: dict[Program, CompiledProgram] = {}
        self._schema_sigs: dict[Schema, tuple] = {}  # identity-keyed memo
        self._schema_compilers: dict[tuple, _FunctionCompiler] = {}

    @staticmethod
    def _schema_signature(schema: Schema) -> tuple:
        return (
            schema.name,
            tuple(
                (name, tuple(schema.table(name).columns.items()))
                for name in schema.table_names
            ),
        )

    def _compiler_for(self, schema: Schema) -> _FunctionCompiler:
        sig = self._schema_sigs.get(schema)
        if sig is None:
            if len(self._schema_sigs) >= self.max_entries:
                self._schema_sigs.clear()
            sig = self._schema_signature(schema)
            self._schema_sigs[schema] = sig
        fc = self._schema_compilers.get(sig)
        if fc is None:
            if len(self._schema_compilers) >= self.max_entries:
                self._schema_compilers.clear()
            fc = _FunctionCompiler(schema)
            self._schema_compilers[sig] = fc
        return fc

    def compile_program(self, program: Program) -> CompiledProgram:
        compiled = self._programs.get(program)
        if compiled is not None:
            self.stats.program_hits += 1
            self.stats.function_hits += len(compiled.functions)
            return compiled
        fc = self._compiler_for(program.schema)
        sig = self._schema_sigs[program.schema]
        functions: dict[str, CompiledFunction] = {}
        by_identity = self._by_identity
        for func in program:
            known = by_identity.get(id(func))
            if known is not None and known[0] is func and known[1] is sig:
                self.stats.function_hits += 1
                functions[func.name] = known[2]
                continue
            key: Optional[tuple]
            try:
                cf = self._functions.get((sig, func))
                key = (sig, func)
            except TypeError:  # unhashable constant somewhere in the AST
                cf, key = None, None
            if cf is None:
                self.stats.function_misses += 1
                cf = fc.compile_function(func)
                if key is not None:
                    if len(self._functions) >= self.max_entries:
                        self._functions.clear()
                        by_identity.clear()
                    self._functions[key] = cf
            else:
                self.stats.function_hits += 1
            if key is not None:
                if len(by_identity) >= self.max_entries:
                    by_identity.clear()
                by_identity[id(func)] = (func, sig, cf)
            functions[func.name] = cf
        compiled = CompiledProgram(program.name, fc.num_tables, functions)
        if len(self._programs) >= self.max_entries:
            self._programs.clear()
        self._programs[program] = compiled
        return compiled


def make_loader(execution_backend: str, compiler: Optional[ProgramCompiler] = None):
    """Validate a backend name and build ``load(program)``.

    ``load`` returns the program's executable form under the chosen backend
    — a :class:`CompiledProgram` or an
    :class:`~repro.engine.interpreter.InterpretedProgram` — both with
    ``new_state()``, ``call(state, name, args)`` and ``run_sequence``, and
    both with states that support ``fork()`` and ``key()``.  The compiled
    backend closes over the shared *compiler*, or a private one.  This is
    the single dispatch point of bounded testing and verification.
    """
    if execution_backend not in EXECUTION_BACKENDS:
        raise ValueError(
            f"unknown execution backend {execution_backend!r}; known: {EXECUTION_BACKENDS}"
        )
    if execution_backend == "interpreter":
        return InterpretedProgram
    return (compiler if compiler is not None else ProgramCompiler()).compile_program


def compile_program(program: Program) -> CompiledProgram:
    """One-shot convenience compile (no cross-program cache)."""
    return ProgramCompiler().compile_program(program)


def run_sequence_compiled(program: Program, sequence) -> list[list[tuple]]:
    """Compiled counterpart of :func:`repro.engine.interpreter.run_invocation_sequence`."""
    return compile_program(program).run_sequence(sequence)
