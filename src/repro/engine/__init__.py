"""Relational execution engine for database programs.

Two backends share one semantics: the tree-walk interpreter (the
reference, :mod:`repro.engine.interpreter`) and the compiled backend
(:mod:`repro.engine.compiler`), which translates a program once into Python
closures with hash joins, slotted rows and compile-time column offsets and
is the one the synthesizer runs by default.  ``tests/test_compiled.py`` pins
their output and error equivalence and the synthesis trajectory; the
sqlite3 oracle (:mod:`repro.equivalence.sql_oracle`) is the independent
check on the reference's semantics.
"""

from repro.engine.compiled import CompiledProgram, CompiledState, CRow
from repro.engine.compiler import (
    EXECUTION_BACKENDS,
    ProgramCompiler,
    compile_program,
    make_loader,
    run_sequence_compiled,
)
from repro.engine.evaluator import Evaluator
from repro.engine.interpreter import (
    InterpretedProgram,
    InvocationError,
    ProgramInterpreter,
    run_invocation_sequence,
)
from repro.engine.joins import ExecutionError, JoinedRow, evaluate_join
from repro.engine.predicates import compare, evaluate_predicate, resolve_operand
from repro.engine.uid import UidGenerator, UniqueValue

__all__ = [
    "CRow",
    "CompiledProgram",
    "CompiledState",
    "EXECUTION_BACKENDS",
    "Evaluator",
    "ExecutionError",
    "InterpretedProgram",
    "InvocationError",
    "JoinedRow",
    "ProgramCompiler",
    "ProgramInterpreter",
    "UidGenerator",
    "UniqueValue",
    "compare",
    "compile_program",
    "evaluate_join",
    "make_loader",
    "evaluate_predicate",
    "resolve_operand",
    "run_invocation_sequence",
    "run_sequence_compiled",
]
