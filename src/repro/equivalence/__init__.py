"""Equivalence checking: bounded testing, MFIs, and the verification substitute."""

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
from repro.equivalence.sql_oracle import (
    OracleUnsupported,
    SqliteOracle,
    normalize_bools,
    oracle_agrees,
)
from repro.equivalence.tester import BoundedTester, TesterStatistics, TestingInterrupted
from repro.equivalence.verifier import BoundedVerifier, VerificationResult

__all__ = [
    "BoundedTester",
    "BoundedVerifier",
    "TestingInterrupted",
    "Invocation",
    "InvocationSequence",
    "OracleUnsupported",
    "SeedSet",
    "SequenceGenerator",
    "SqliteOracle",
    "TesterStatistics",
    "VerificationResult",
    "argument_combinations",
    "canonicalize_outputs",
    "canonicalize_result",
    "format_sequence",
    "normalize_bools",
    "oracle_agrees",
    "results_equal",
    "tables_touched",
]
