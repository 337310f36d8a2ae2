"""Database instances: concrete table contents during program execution.

An instance maps table names to lists of rows; each row maps column names to
values.  Rows carry a stable identity (``rowid``) so that deletions and
updates performed through a join chain can locate the originating source rows
(Section 3.1 of the paper describes these semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.datamodel.schema import Schema
from repro.datamodel.types import check_value


@dataclass(slots=True)
class Row:
    """A single tuple of a table, with a per-instance unique ``rowid``."""

    rowid: int
    values: dict[str, Any]

    def get(self, column: str) -> Any:
        return self.values.get(column)

    def copy(self) -> "Row":
        return Row(self.rowid, dict(self.values))

    def as_tuple(self, columns: Iterable[str]) -> tuple:
        return tuple(self.values.get(c) for c in columns)


class InstanceError(Exception):
    """Raised on malformed instance operations (unknown tables/columns)."""


class DatabaseInstance:
    """Mutable database state for one execution of a database program."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._data: dict[str, list[Row]] = {name: [] for name in schema.table_names}
        self._next_rowid = 1
        # Per-table column metadata, computed once: ``insert`` used to rebuild
        # ``set(decl.columns)`` (and re-lookup the declaration) for every row,
        # which dominated the engine-internal insert path.
        self._columns: dict[str, tuple[str, ...]] = {
            name: tuple(schema.table(name).columns) for name in schema.table_names
        }
        self._column_sets: dict[str, frozenset[str]] = {
            name: frozenset(cols) for name, cols in self._columns.items()
        }
        self._column_types: dict[str, dict[str, Any]] = {
            name: dict(schema.table(name).columns) for name in schema.table_names
        }

    def columns_of(self, table: str) -> tuple[str, ...]:
        """Declared column names of *table*, cached (declaration order)."""
        if table not in self._columns:
            raise InstanceError(f"unknown table {table!r}")
        return self._columns[table]

    # ------------------------------------------------------------------ state
    def rows(self, table: str) -> list[Row]:
        if table not in self._data:
            raise InstanceError(f"unknown table {table!r}")
        return self._data[table]

    def tables(self) -> list[str]:
        return list(self._data)

    def size(self, table: str) -> int:
        return len(self.rows(table))

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._data.values())

    def is_empty(self) -> bool:
        return self.total_rows() == 0

    # -------------------------------------------------------------- mutation
    def insert(self, table: str, values: dict[str, Any], *, typecheck: bool = True) -> Row:
        """Insert a row.  Missing columns default to ``None`` (SQL NULL)."""
        if table not in self._columns:
            # Same error the schema lookup used to raise for unknown tables.
            self.schema.table(table)
        column_set = self._column_sets[table]
        if not column_set.issuperset(values):
            unknown = set(values) - column_set
            raise InstanceError(f"unknown columns {sorted(unknown)} for table {table!r}")
        full = {col: values.get(col) for col in self._columns[table]}
        if typecheck:
            types = self._column_types[table]
            for col, value in full.items():
                check_value(value, types[col])
        return self.insert_full_row(table, full)

    def insert_full_row(self, table: str, full: dict[str, Any]) -> Row:
        """Engine-internal fast path: *full* already maps every declared column.

        Skips the unknown-column check and typechecking; callers (the
        execution engine) build *full* from :meth:`columns_of`, so both are
        redundant there.
        """
        row = Row(self._next_rowid, full)
        self._next_rowid += 1
        self._data[table].append(row)
        return row

    def delete_rows(self, table: str, rowids: Iterable[int]) -> int:
        """Delete rows of *table* by rowid; returns the number removed."""
        doomed = set(rowids)
        if not doomed:
            return 0
        before = len(self._data[table])
        self._data[table] = [r for r in self._data[table] if r.rowid not in doomed]
        return before - len(self._data[table])

    def update_rows(self, table: str, rowids: Iterable[int], column: str, value: Any) -> int:
        """Set *column* to *value* on the listed rows; returns the number changed."""
        decl = self.schema.table(table)
        if column not in decl.columns:
            raise InstanceError(f"unknown column {column!r} for table {table!r}")
        targets = set(rowids)
        changed = 0
        for row in self._data[table]:
            if row.rowid in targets:
                row.values[column] = value
                changed += 1
        return changed

    def clear(self) -> None:
        for rows in self._data.values():
            rows.clear()

    def copy(self) -> "DatabaseInstance":
        """An independent copy that continues the same rowid numbering."""
        clone = DatabaseInstance.__new__(DatabaseInstance)
        clone.schema = self.schema
        clone._data = {table: [row.copy() for row in rows] for table, rows in self._data.items()}
        clone._next_rowid = self._next_rowid
        # Column metadata is never mutated after construction.
        clone._columns = self._columns
        clone._column_sets = self._column_sets
        clone._column_types = self._column_types
        return clone

    # ------------------------------------------------------------ inspection
    def snapshot(self) -> dict[str, list[tuple]]:
        """An immutable-ish snapshot used by tests: table -> list of value tuples."""
        result: dict[str, list[tuple]] = {}
        for table, rows in self._data.items():
            columns = list(self.schema.table(table).columns)
            result[table] = [row.as_tuple(columns) for row in rows]
        return result

    def __iter__(self) -> Iterator[tuple[str, list[Row]]]:
        return iter(self._data.items())

    def __repr__(self) -> str:
        sizes = {t: len(rows) for t, rows in self._data.items() if rows}
        return f"DatabaseInstance({self.schema.name!r}, sizes={sizes})"
