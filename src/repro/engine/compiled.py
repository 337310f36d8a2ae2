"""Runtime of the compiled execution backend.

The compiler (:mod:`repro.engine.compiler`) translates a program AST once
into Python closures; this module holds the lean data layer those closures
run against:

* :class:`CRow` — a slotted, immutable row whose values live in a tuple
  indexed by the column *offset* resolved at compile time (no per-access
  ``dict[Attribute]`` lookup, no per-row column-name dict);
* :class:`CompiledState` — table storage as a list of row lists indexed by a
  compile-time table index, one cached key tuple per table, plus the
  per-execution UID generator and rowid counter;
* :class:`CompiledFunction` / :class:`CompiledProgram` — the executable
  artefacts, with :meth:`CompiledProgram.run_sequence` mirroring
  :func:`repro.engine.interpreter.run_invocation_sequence` (same outputs,
  same error behaviour, fresh empty database per call).

No write path assigns into a row: an insert appends a new row, an update
replaces each matched row with a new :class:`CRow` that keeps its rowid,
and a delete builds a new row list.  So a fork shares every row with its
parent and copies only the per-table row lists, and a state's key reuses
the key tuple of every table not written since the fork.

Joined rows in this backend are plain tuples of :class:`CRow` objects
aligned to the join chain's table order; provenance (the rowid of each
source row) therefore comes for free and the compiler turns every attribute
access into a ``row[table_index].vals[column_offset]`` closure.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.engine.interpreter import InvocationError
from repro.engine.uid import UidGenerator


class CRow:
    """A slotted table row: stable identity plus offset-indexed values.

    Rows are immutable once stored: ``vals`` is a tuple, and no write path
    assigns into a row (an update stores a new row under the same rowid), so
    forked states share rows.
    """

    __slots__ = ("rowid", "vals")

    def __init__(self, rowid: int, vals: tuple):
        self.rowid = rowid
        self.vals = vals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CRow({self.rowid}, {self.vals})"


class CompiledState:
    """Database state for one execution of a compiled program.

    ``tables`` holds one row list per table; ``keys`` holds each table's
    row values in storage order as a tuple of row tuples (its part of
    :meth:`key`), or ``None`` once the table is written.  Every write path
    goes through :meth:`append_row` or :meth:`set_rows`, which reset the
    table's entry, so :meth:`key` rebuilds only the tables written since it
    last ran.  Rows are immutable, so :meth:`fork` copies the row lists and
    the cached keys, never a row.
    """

    __slots__ = ("tables", "keys", "uids", "next_rowid")

    def __init__(self, num_tables: int):
        self.tables: list[list[CRow]] = [[] for _ in range(num_tables)]
        self.keys: list[tuple | None] = [()] * num_tables
        self.uids = UidGenerator()
        self.next_rowid = 1

    def append_row(self, table_index: int, vals: Sequence[Any]) -> None:
        """Append a row with a fresh rowid; *vals* is stored as a tuple, whatever it is."""
        self.tables[table_index].append(CRow(self.next_rowid, tuple(vals)))
        self.keys[table_index] = None
        self.next_rowid += 1

    def set_rows(self, table_index: int, rows: list[CRow]) -> None:
        """Replace a table's row list (deletes and updates build a new one)."""
        self.tables[table_index] = rows
        self.keys[table_index] = None

    def fork(self) -> "CompiledState":
        """An independent copy that shares every (immutable) row with this state."""
        clone = CompiledState.__new__(CompiledState)
        clone.tables = [rows[:] for rows in self.tables]
        clone.keys = self.keys[:]
        clone.uids = self.uids.fork()
        clone.next_rowid = self.next_rowid
        return clone

    def key(self) -> tuple:
        """Every table's row values in storage order, plus the UID counter.

        Rowids are left out: the engine compares them only for identity
        within one state, so states that differ only in rowid numbering
        behave identically on every invocation.  Only the tables written
        since the last call are re-read.
        """
        keys = self.keys
        for index, key in enumerate(keys):
            if key is None:
                keys[index] = tuple([row.vals for row in self.tables[index]])
        return tuple(keys), self.uids.count


class CompiledFunction:
    """One compiled function: parameter metadata plus the executable closure.

    ``run`` takes ``(state, bindings)``; query functions return the list of
    result tuples, update functions return ``None``.  Closures are pure with
    respect to the state argument, so one compiled function is reusable
    across executions and across programs that share its AST and schema.
    """

    __slots__ = ("name", "param_names", "is_query", "run")

    def __init__(
        self,
        name: str,
        param_names: tuple[str, ...],
        is_query: bool,
        run: Callable[[CompiledState, dict], Any],
    ):
        self.name = name
        self.param_names = param_names
        self.is_query = is_query
        self.run = run


class CompiledProgram:
    """A program compiled to closures, executable from the empty database."""

    __slots__ = ("name", "num_tables", "functions")

    def __init__(self, name: str, num_tables: int, functions: dict[str, CompiledFunction]):
        self.name = name
        self.num_tables = num_tables
        self.functions = functions

    def new_state(self) -> CompiledState:
        return CompiledState(self.num_tables)

    def call(self, state: CompiledState, name: str, args: Sequence[Any] = ()) -> list[tuple] | None:
        """Invoke one function against *state* (mirrors ``ProgramInterpreter.call``)."""
        func = self.functions.get(name)
        if func is None:
            # Same error class as Program.function on an unknown name.
            raise KeyError(f"program {self.name!r} has no function {name!r}")
        if len(args) != len(func.param_names):
            raise InvocationError(
                f"function {name!r} expects {len(func.param_names)} arguments, got {len(args)}"
            )
        bindings = dict(zip(func.param_names, args))
        if func.is_query:
            return func.run(state, bindings)
        func.run(state, bindings)
        return None

    def run_sequence(self, sequence: Iterable[tuple[str, Sequence[Any]]]) -> list[list[tuple]]:
        """Execute an invocation sequence from the empty database.

        Output- and error-equivalent to
        :func:`repro.engine.interpreter.run_invocation_sequence` on the same
        program (pinned by ``tests/test_compiled.py``).
        """
        state = CompiledState(self.num_tables)
        outputs: list[list[tuple]] = []
        for name, args in sequence:
            result = self.call(state, name, args)
            if result is not None:
                outputs.append(result)
        return outputs
