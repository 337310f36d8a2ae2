"""repro: reproduction of "Synthesizing Database Programs for Schema Refactoring" (PLDI 2019).

The public API mirrors the paper's pipeline:

* :mod:`repro.datamodel` — schemas, types, database instances
* :mod:`repro.lang` — the database-program language of Figure 5
* :mod:`repro.engine` — the relational execution engine
* :mod:`repro.correspondence` — value-correspondence enumeration (Section 4.2)
* :mod:`repro.sketchgen` — sketch generation (Section 4.3)
* :mod:`repro.completion` — sketch completion with MFI pruning (Section 4.4)
* :mod:`repro.core` — the end-to-end synthesizer (Algorithm 1) and the
  streaming :class:`~repro.core.session.SynthesisSession`
* :mod:`repro.service` — the multi-job :class:`~repro.service.MigrationService`
* :mod:`repro.api` — the stable, versioned surface re-exporting all of the above
* :mod:`repro.workloads` — the 20 reconstructed benchmarks
* :mod:`repro.eval` — the evaluation harness regenerating Tables 1-3

Quickstart::

    from repro import migrate
    result = migrate(source_program, target_schema)
    if result.succeeded:
        print(format_program(result.program))

Streaming progress and batches (every entry point drains a session; a
service batch runs one session per job and parallelizes across jobs)::

    from repro.api import SynthesisSession, MigrationService, MigrationJob

    for event in SynthesisSession(source_program, target_schema):
        print(event)

    service = MigrationService(max_workers=4, job_store="batch.sqlite")
    results = service.migrate_batch(jobs)
    # after an interruption: MigrationService.resume("batch.sqlite").run()
"""

from repro.api import (
    API_VERSION,
    AttemptRecord,
    MigrationJob,
    MigrationService,
    RemoteFleet,
    SynthesisConfig,
    SynthesisResult,
    SynthesisSession,
    Synthesizer,
    migrate,
    migrate_batch,
)
from repro.datamodel import Attribute, DataType, Schema, make_schema
from repro.lang.ast import Program
from repro.lang.pretty import format_program

__version__ = "0.4.0"

__all__ = [
    "API_VERSION",
    "Attribute",
    "AttemptRecord",
    "DataType",
    "MigrationJob",
    "MigrationService",
    "Program",
    "RemoteFleet",
    "Schema",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisSession",
    "Synthesizer",
    "format_program",
    "make_schema",
    "migrate",
    "migrate_batch",
    "__version__",
]
