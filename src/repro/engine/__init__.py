"""Relational execution engine for database programs.

Three backends share one semantics: the tree-walk interpreter (the
reference, :mod:`repro.engine.interpreter`); the compiled backend
(:mod:`repro.engine.compiler`), which translates a program once into Python
closures with hash joins, slotted rows and compile-time column offsets; and
the columnar backend (:mod:`repro.engine.columnar`), which stores tables as
parallel column lists with cached key indexes and adds batch kernels for
the candidate-screening loop.  ``tests/test_compiled.py`` and
``tests/test_columnar.py`` pin their output and error equivalence.
"""

from repro.engine.compiled import CompiledProgram, CompiledState, CRow
from repro.engine.compiler import (
    EXECUTION_BACKENDS,
    ProgramCompiler,
    compile_program,
    make_batch_runner,
    make_loader,
    make_runner,
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
    "make_batch_runner",
    "make_loader",
    "make_runner",
    "evaluate_predicate",
    "resolve_operand",
    "run_invocation_sequence",
    "run_sequence_compiled",
]
