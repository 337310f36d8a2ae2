"""Program-level interpreter: run functions and invocation sequences.

The interpreter owns one database instance (starting empty, as required by
the equivalence definition of Section 3.2) and executes function invocations
against it.  Query results are returned as lists of tuples; the equivalence
layer compares them as multisets.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.datamodel.instance import DatabaseInstance
from repro.engine.evaluator import Evaluator
from repro.engine.joins import ExecutionError
from repro.engine.uid import UidGenerator
from repro.lang.ast import Function, Program, QueryFunction, UpdateFunction


class InvocationError(ExecutionError):
    """Raised when a function is invoked with the wrong arguments."""


class ProgramInterpreter:
    """Executes one database program starting from the empty instance."""

    def __init__(self, program: Program):
        self.program = program
        self.instance = DatabaseInstance(program.schema)
        self.evaluator = Evaluator(self.instance, UidGenerator())

    # ------------------------------------------------------------------ calls
    def _bindings(self, func: Function, args: Sequence[Any]) -> dict[str, Any]:
        if len(args) != len(func.params):
            raise InvocationError(
                f"function {func.name!r} expects {len(func.params)} arguments, got {len(args)}"
            )
        return {param.name: value for param, value in zip(func.params, args)}

    def call(self, name: str, args: Sequence[Any] = ()) -> list[tuple] | None:
        """Invoke a function by name.

        Update functions return ``None``; query functions return the list of
        result tuples.
        """
        func = self.program.function(name)
        bindings = self._bindings(func, args)
        if isinstance(func, QueryFunction):
            return self.evaluator.query_tuples(func.query, bindings)
        assert isinstance(func, UpdateFunction)
        for stmt in func.statements:
            self.evaluator.execute(stmt, bindings)
        return None

    def reset(self) -> None:
        """Clear the database and restart UID generation (a fresh execution)."""
        self.instance.clear()
        self.evaluator.uids.reset()

    def fork(self) -> "ProgramInterpreter":
        """An independent copy of the database and the UID counter."""
        clone = ProgramInterpreter.__new__(ProgramInterpreter)
        clone.program = self.program
        clone.instance = self.instance.copy()
        clone.evaluator = Evaluator(clone.instance, self.evaluator.uids.fork())
        return clone

    def key(self) -> tuple:
        """Every table's row values in storage order, plus the UID counter.

        Same contract as :meth:`CompiledState.key
        <repro.engine.compiled.CompiledState.key>`: rowids are left out.
        Row value dicts are built in declared column order and updated in
        place, so their value order is the column order.
        """
        return (
            tuple([tuple([tuple(r.values.values()) for r in rows]) for _t, rows in self.instance]),
            self.evaluator.uids.count,
        )


class InterpretedProgram:
    """A program behind the compiled backends' ``new_state``/``call`` surface.

    States are :class:`ProgramInterpreter` instances, so callers that step
    through invocations one at a time (and fork states between steps) treat
    all three backends alike.
    """

    __slots__ = ("program",)

    def __init__(self, program: Program):
        self.program = program

    def new_state(self) -> ProgramInterpreter:
        return ProgramInterpreter(self.program)

    def call(self, state: ProgramInterpreter, name: str, args: Sequence[Any] = ()) -> list[tuple] | None:
        return state.call(name, args)

    def run_sequence(self, sequence: Iterable[tuple[str, Sequence[Any]]]) -> list[list[tuple]]:
        return run_invocation_sequence(self.program, sequence)


def run_invocation_sequence(
    program: Program, sequence: Iterable[tuple[str, Sequence[Any]]]
) -> list[list[tuple]]:
    """Execute an invocation sequence from the empty database.

    Returns the list of query results, in invocation order (update calls
    contribute nothing).  Two programs are equivalent on the sequence iff
    these lists match element-wise as multisets.
    """
    interpreter = ProgramInterpreter(program)
    outputs: list[list[tuple]] = []
    for name, args in sequence:
        result = interpreter.call(name, args)
        if result is not None:
            outputs.append(result)
    return outputs
