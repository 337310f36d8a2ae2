"""Equivalence checking: bounded testing, MFIs, and the verification substitute.

The sqlite3 differential oracle is imported from its own module,
:mod:`repro.equivalence.sql_oracle`, so that synthesis loads no ``sqlite3``.
"""

from repro.equivalence.invocation import (
    Invocation,
    InvocationSequence,
    SeedSet,
    SequenceGenerator,
    argument_combinations,
    format_sequence,
    tables_touched,
)
from repro.equivalence.result_compare import canonicalize_outputs, canonicalize_result, results_equal
from repro.equivalence.tester import BoundedTester, TesterStatistics, TestingInterrupted
from repro.equivalence.verifier import BoundedVerifier, VerificationResult

__all__ = [
    "BoundedTester",
    "BoundedVerifier",
    "TestingInterrupted",
    "Invocation",
    "InvocationSequence",
    "SeedSet",
    "SequenceGenerator",
    "TesterStatistics",
    "VerificationResult",
    "argument_combinations",
    "canonicalize_outputs",
    "canonicalize_result",
    "format_sequence",
    "results_equal",
    "tables_touched",
]
