"""Cross-engine differential oracle: replay programs through stdlib sqlite3.

The project's two execution backends (interpreter, compiled) share one
heritage, so a semantics bug in the reference interpreter would be
invisible to the backend-vs-backend differential tests.  This module replays
invocation sequences through an *independent* engine — Python's bundled
``sqlite3`` — and compares canonicalized query outputs.  It began life inside
``tests/test_sql_oracle.py`` and moved here so the corpus subsystem (chain
verification, fuzzing) can cross-check generated workloads with it.

Translation notes (how Figure 5 semantics map onto SQL):

* Tables are created with bare (affinity-free) columns, so sqlite stores
  every value with its natural storage class and never coerces.
* Fresh UIDs become sentinel text ``"\\x01uid:N"`` (and ``None`` becomes
  ``"\\x01null"``); the replayer allocates its own UID counter mirroring the
  evaluator's allocation order, and ``canonicalize_outputs`` makes the
  comparison renaming-independent anyway.
* Booleans become 0/1 integers.  Python's ``True == 1`` matches sqlite's
  ``1 = 1``, but bools are *not orderable* in the paper's value model, so
  ordering comparisons with a statically boolean operand translate to the
  literal ``0``.  Interpreter outputs are bool->int normalized before
  canonicalization so both sides speak integers.
* Ordering comparisons are only defined between two numbers or two strings
  (never NULL, UIDs, bools or blobs) and are otherwise *false*, not an
  error; they translate to a ``CASE`` guarded by ``typeof()`` checks that
  excludes the ``"\\x01"`` sentinels.
* Equality is structural across types: sqlite's ``=`` on distinct storage
  classes is false, just like Python's ``==`` on ``int`` vs ``str``.
* Deletes and updates collect every target rowid *before* mutating, exactly
  as the evaluator computes ``matches`` once before applying them.
* Insert-into-join replicates the evaluator's union-find over join
  conditions so linked attributes share one fresh UID.

Sequences on which the interpreter itself raises are skipped by
:func:`oracle_agrees` (the oracle checks value semantics, not error
reporting — tests/test_compiled.py pins error classes).
"""

from __future__ import annotations

import sqlite3

from repro.datamodel.types import DataType as T
from repro.engine import run_invocation_sequence
from repro.engine.uid import UniqueValue
from repro.equivalence.result_compare import canonicalize_outputs
from repro.lang.ast import (
    And,
    AttrRef,
    CompareOp,
    Comparison,
    Const,
    Delete,
    Insert,
    InQuery,
    JoinChain,
    Not,
    Or,
    Projection,
    QueryFunction,
    Selection,
    TruePred,
    Update,
    UpdateFunction,
    Var,
)

#: Sentinel prefix for values sqlite has no native carrier for.
_SENTINEL = "\x01"
_NULL_SENTINEL = _SENTINEL + "null"


class OracleUnsupported(Exception):
    """The oracle cannot faithfully translate this construct to SQL."""


# ----------------------------------------------------------------- encoding
def encode(value):
    """Map an engine value to its sqlite carrier."""
    if isinstance(value, UniqueValue):
        return f"{_SENTINEL}uid:{value.index}"
    if value is None:
        return _NULL_SENTINEL
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and value.startswith(_SENTINEL):
        raise OracleUnsupported(f"string collides with sentinel prefix: {value!r}")
    return value


def decode(value):
    """Map a sqlite carrier back to an engine value (bools stay ints)."""
    if isinstance(value, str) and value.startswith(_SENTINEL):
        if value == _NULL_SENTINEL:
            return None
        return UniqueValue(int(value.rsplit(":", 1)[1]))
    return value


def literal(value):
    """Render an *encoded* value as a SQL literal."""
    if isinstance(value, bool):  # pragma: no cover - encode() strips bools
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bytes):
        return "X'" + value.hex() + "'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise OracleUnsupported(f"no SQL literal for {value!r}")


def normalize_bools(outputs):
    """Interpreter outputs with every bool cell collapsed to 0/1."""
    return [
        [
            tuple(int(v) if isinstance(v, bool) else v for v in row)
            for row in result
        ]
        for result in outputs
    ]


# ---------------------------------------------------------------- replayer
class SqliteOracle:
    """Replays one program's invocation sequences through sqlite3."""

    def __init__(self, program):
        self.program = program
        self.schema = program.schema
        self.conn = sqlite3.connect(":memory:")
        self._next_uid = 0
        for table in self.schema.tables.values():
            columns = ", ".join(f'"{name}"' for name in table.columns)
            self.conn.execute(f'CREATE TABLE "{table.name}" ({columns})')

    def close(self):
        self.conn.close()

    def fresh_uid(self):
        value = UniqueValue(self._next_uid)
        self._next_uid += 1
        return value

    # -------------------------------------------------------------- running
    def run(self, sequence):
        """Execute an invocation sequence; returns decoded query outputs."""
        outputs = []
        for name, args in sequence:
            func = self.program.function(name)
            bindings = {param.name: value for param, value in zip(func.params, args)}
            if isinstance(func, QueryFunction):
                outputs.append(self._run_query(func.query, bindings))
            else:
                assert isinstance(func, UpdateFunction)
                for stmt in func.statements:
                    self._execute(stmt, bindings)
        return outputs

    # ------------------------------------------------------------- operands
    def _resolve(self, operand, bindings):
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Var):
            return bindings[operand.name]
        raise OracleUnsupported(f"cannot resolve {operand!r} outside a row")

    def _operand_sql(self, operand, bindings):
        """(sql_text, statically_unorderable) for one comparison operand.

        *statically_unorderable* is true when the paper's value model makes
        every ordering comparison involving this operand false regardless of
        the other side: boolean or ``None`` constants/arguments, and columns
        declared BOOL (which only ever hold bools or UIDs, neither
        orderable).
        """
        if isinstance(operand, AttrRef):
            attribute = operand.attribute
            unorderable = self.schema.type_of(attribute) is T.BOOL
            return f'"{attribute.table}"."{attribute.name}"', unorderable
        value = self._resolve(operand, bindings)
        return literal(encode(value)), isinstance(value, bool) or value is None

    # ------------------------------------------------------------ predicates
    def _predicate_sql(self, pred, bindings):
        if isinstance(pred, TruePred):
            return "1"
        if isinstance(pred, Comparison):
            left, left_unord = self._operand_sql(pred.left, bindings)
            right, right_unord = self._operand_sql(pred.right, bindings)
            if pred.op is CompareOp.EQ:
                return f"({left} = {right})"
            if pred.op is CompareOp.NE:
                return f"({left} <> {right})"
            if left_unord or right_unord:
                return "0"
            return self._ordered_sql(left, pred.op.value, right)
        if isinstance(pred, InQuery):
            operand, _ = self._operand_sql(pred.operand, bindings)
            subquery = self._query_sql(pred.query, bindings, first_column_only=True)
            if subquery is None:
                return "0"  # zero-column subquery: membership is vacuously false
            return f"({operand} IN ({subquery}))"
        if isinstance(pred, And):
            return (
                f"({self._predicate_sql(pred.left, bindings)}"
                f" AND {self._predicate_sql(pred.right, bindings)})"
            )
        if isinstance(pred, Or):
            return (
                f"({self._predicate_sql(pred.left, bindings)}"
                f" OR {self._predicate_sql(pred.right, bindings)})"
            )
        if isinstance(pred, Not):
            return f"(NOT {self._predicate_sql(pred.operand, bindings)})"
        raise OracleUnsupported(f"unknown predicate node {pred!r}")

    @staticmethod
    def _ordered_sql(left, op, right):
        """An ordering comparison under the paper's partial value model.

        Defined (two numbers, or two non-sentinel strings) -> compare;
        otherwise false.  The sentinel guard keeps UID/None carriers out of
        string ordering, mirroring ``repro.engine.predicates._orderable``.
        """
        num = "typeof({0}) IN ('integer', 'real')"
        txt = "(typeof({0}) = 'text' AND substr({0}, 1, 1) <> char(1))"
        orderable = (
            f"(({num.format(left)} AND {num.format(right)})"
            f" OR ({txt.format(left)} AND {txt.format(right)}))"
        )
        return f"(CASE WHEN {orderable} THEN {left} {op} {right} ELSE 0 END)"

    # --------------------------------------------------------------- queries
    def _flatten(self, query):
        """(projection | None, [predicates], chain) per evaluator semantics.

        Only the outermost projection restricts output columns; inner
        projections pass rows through; selections at any depth filter.
        """
        projection = None
        node = query
        if isinstance(node, Projection):
            projection = node.attributes
            node = node.source
        predicates = []
        while not isinstance(node, JoinChain):
            if isinstance(node, Selection):
                predicates.append(node.predicate)
                node = node.source
            elif isinstance(node, Projection):
                node = node.source
            else:
                raise OracleUnsupported(f"unknown query node {node!r}")
        return projection, predicates, node

    def _chain_sql(self, chain):
        if len(set(chain.tables)) != len(chain.tables):
            raise OracleUnsupported(f"self-join in chain {chain}")
        from_clause = ", ".join(f'"{name}"' for name in chain.tables)
        conditions = [
            f'("{l.table}"."{l.name}" = "{r.table}"."{r.name}")'
            for l, r in chain.conditions
        ]
        return from_clause, conditions

    def _query_sql(self, query, bindings, first_column_only=False):
        projection, predicates, chain = self._flatten(query)
        if projection is None:
            columns = [
                attribute
                for name in chain.tables
                for attribute in self.schema.attributes_of(name)
            ]
        else:
            columns = list(projection)
        if first_column_only:
            if not columns:
                return None
            columns = columns[:1]
        select_list = ", ".join(f'"{a.table}"."{a.name}"' for a in columns) or "1"
        from_clause, conditions = self._chain_sql(chain)
        conditions += [self._predicate_sql(p, bindings) for p in predicates]
        sql = f"SELECT {select_list} FROM {from_clause}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql

    def _run_query(self, query, bindings):
        sql = self._query_sql(query, bindings)
        rows = self.conn.execute(sql).fetchall()
        return [tuple(decode(cell) for cell in row) for row in rows]

    # ------------------------------------------------------------ statements
    def _execute(self, stmt, bindings):
        if isinstance(stmt, Insert):
            self._execute_insert(stmt, bindings)
        elif isinstance(stmt, Delete):
            self._execute_delete(stmt, bindings)
        elif isinstance(stmt, Update):
            self._execute_update(stmt, bindings)
        else:
            raise OracleUnsupported(f"unknown statement node {stmt!r}")

    def _execute_insert(self, stmt, bindings):
        chain = stmt.target
        provided = {
            attribute: self._resolve(operand, bindings)
            for attribute, operand in stmt.values
        }

        # Union-find over attributes linked by join conditions (mirrors
        # Evaluator._execute_insert so UID allocation order lines up).
        parent = {}

        def find(a):
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for left, right in chain.conditions:
            root_l, root_r = find(left), find(right)
            if root_l != root_r:
                parent[root_l] = root_r

        class_values = {}
        for attribute, value in provided.items():
            class_values[find(attribute)] = value

        def value_for(attribute):
            if attribute in provided:
                return provided[attribute]
            root = find(attribute)
            if root in class_values:
                return class_values[root]
            if attribute in parent:
                fresh = self.fresh_uid()
                class_values[root] = fresh
                return fresh
            return self.fresh_uid()

        for name in chain.tables:
            row = [
                encode(value_for(attribute))
                for attribute in self.schema.attributes_of(name)
            ]
            placeholders = ", ".join("?" for _ in row)
            self.conn.execute(f'INSERT INTO "{name}" VALUES ({placeholders})', row)

    def _match_rowids(self, chain, predicate, bindings, table):
        from_clause, conditions = self._chain_sql(chain)
        conditions.append(self._predicate_sql(predicate, bindings))
        sql = (
            f'SELECT DISTINCT "{table}".rowid FROM {from_clause}'
            f" WHERE {' AND '.join(conditions)}"
        )
        return [row[0] for row in self.conn.execute(sql)]

    def _execute_delete(self, stmt, bindings):
        # Collect every target's rowids from the pre-statement state before
        # deleting anything, as the evaluator computes matches exactly once.
        targets = [
            (name, self._match_rowids(stmt.source, stmt.predicate, bindings, name))
            for name in stmt.tables
        ]
        for name, rowids in targets:
            if rowids:
                placeholders = ", ".join("?" for _ in rowids)
                self.conn.execute(
                    f'DELETE FROM "{name}" WHERE rowid IN ({placeholders})', rowids
                )

    def _execute_update(self, stmt, bindings):
        table = stmt.attribute.table
        rowids = self._match_rowids(stmt.source, stmt.predicate, bindings, table)
        if not rowids:
            return
        value = encode(self._resolve(stmt.value, bindings))
        placeholders = ", ".join("?" for _ in rowids)
        self.conn.execute(
            f'UPDATE "{table}" SET "{stmt.attribute.name}" = ?'
            f" WHERE rowid IN ({placeholders})",
            [value, *rowids],
        )


# -------------------------------------------------------------- comparison
def oracle_agrees(program, sequence):
    """True when sqlite matches the interpreter; None when skipped.

    Sequences on which the interpreter raises are skipped — the oracle
    checks value semantics only.  A sqlite-side failure on an
    interpreter-clean sequence is a hard error, never a skip.
    """
    try:
        expected = run_invocation_sequence(program, sequence)
    except Exception:
        return None
    oracle = SqliteOracle(program)
    try:
        actual = oracle.run(sequence)
    finally:
        oracle.close()
    return canonicalize_outputs(normalize_bools(expected)) == canonicalize_outputs(
        actual
    )
