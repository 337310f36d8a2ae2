"""The generated-workload corpus subsystem.

The registry's 20 reconstructed benchmarks pin the synthesizer on a fixed
set of hand-written scenarios; this package turns the whole stack into a
property-based test subject of its own with three feeders:

* :mod:`repro.corpus.ddl` — a stdlib SQL-DDL ingester/emitter, so real
  schema dumps become :class:`repro.datamodel.Schema` objects (with
  foreign-key inference) and generated schemas round-trip through DDL;
* :mod:`repro.corpus.generator` — a seeded, fully deterministic
  property-based workload generator: random schemas, random refactoring
  sequences from :mod:`repro.workloads.refactorings`, and — constructed in
  lock-step with each refactoring — the known-good *oracle* migration
  program (:mod:`repro.corpus.rewrite`), emitted as ordinary
  :class:`~repro.workloads.Benchmark` objects;
* :mod:`repro.corpus.chains` — multi-step migration chains (refactor
  A→B→C) composing per-step synthesized programs and verifying the
  composition against the composed oracle.

``python -m repro.corpus`` exposes ``ingest`` / ``generate`` / ``fuzz``;
the ``fuzz`` command replays seeded workloads through both execution
backends (interpreter and compiled) and fails loudly on any verdict /
canonicalization / error-semantics divergence.  Everything is keyed by
the generator seed: record the seed, regenerate the workload, replay the
pipeline.
"""

from repro.corpus.chains import (
    ChainResult,
    ChainStepResult,
    MigrationChain,
    sqlite_differential,
)
from repro.corpus.ddl import (
    DdlError,
    IngestReport,
    emit_ddl,
    ingest_ddl,
    parse_ddl,
    schema_signature,
    schemas_equal,
)
from repro.corpus.fuzz import FuzzDivergence, FuzzReport, fuzz_corpus, fuzz_workload
from repro.corpus.generator import (
    CorpusConfig,
    GeneratedWorkload,
    derive_refactoring_pair,
    generate_corpus,
    generate_workload,
    register_corpus,
)
from repro.corpus.rewrite import (
    AddColumnStep,
    FoldStep,
    MergeStep,
    MoveColumnStep,
    RenameColumnStep,
    RenameTableStep,
    RewriteError,
    SplitStep,
    Step,
)

__all__ = [
    "AddColumnStep",
    "ChainResult",
    "ChainStepResult",
    "CorpusConfig",
    "DdlError",
    "FoldStep",
    "FuzzDivergence",
    "FuzzReport",
    "GeneratedWorkload",
    "IngestReport",
    "MergeStep",
    "MigrationChain",
    "MoveColumnStep",
    "RenameColumnStep",
    "RenameTableStep",
    "RewriteError",
    "SplitStep",
    "Step",
    "derive_refactoring_pair",
    "emit_ddl",
    "fuzz_corpus",
    "fuzz_workload",
    "generate_corpus",
    "generate_workload",
    "ingest_ddl",
    "parse_ddl",
    "register_corpus",
    "schema_signature",
    "schemas_equal",
    "sqlite_differential",
]
