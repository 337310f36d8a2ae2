"""The top-level synthesis algorithm (Algorithm 1 of the paper).

``Synthesizer.synthesize`` runs the paper's ``Synthesize(P, S, S')``
procedure.  Since the streaming-session redesign the actual loop lives in
:mod:`repro.core.session`: a :class:`~repro.core.session.SynthesisSession`
drives the shared :class:`~repro.core.session.SessionCore` (VC enumeration →
sketch generation → completion → testing/verification) and emits typed
progress events; ``synthesize`` simply drains such a session, so the
blocking call and the event-streaming API return byte-identical results —
same trajectory, same :class:`~repro.core.result.AttemptRecord` list.

There is one search loop: value correspondences are tried one at a time, most
likely first, until one completes.  Batches of runs go through
:class:`~repro.service.MigrationService`, which parallelizes across jobs.

The pipeline builders (``build_tester`` / ``build_verifier`` /
``build_completer``) are re-exported from the session module for backwards
compatibility.
"""

from __future__ import annotations

from repro.core.config import SynthesisConfig
from repro.core.result import SynthesisResult
from repro.core.session import (  # noqa: F401  (re-exported for compatibility)
    COMPLETER_CLASSES,
    SynthesisSession,
    build_completer,
    build_tester,
    build_verifier,
)
from repro.datamodel.schema import Schema
from repro.lang.ast import Program


class Synthesizer:
    """Synthesizes a target-schema version of a database program."""

    def __init__(self, config: SynthesisConfig | None = None):
        self.config = config or SynthesisConfig()

    # ---------------------------------------------------------------- pipeline
    def synthesize(self, source_program: Program, target_schema: Schema) -> SynthesisResult:
        """The ``Synthesize(P, S, S')`` procedure: drain a session."""
        return SynthesisSession(source_program, target_schema, self.config).run()

    def session(self, source_program: Program, target_schema: Schema) -> SynthesisSession:
        """A streaming session for the same run ``synthesize`` would perform."""
        return SynthesisSession(source_program, target_schema, self.config)


def migrate(
    source_program: Program,
    target_schema: Schema,
    config: SynthesisConfig | None = None,
) -> SynthesisResult:
    """Convenience one-call API: synthesize the migrated program."""
    return Synthesizer(config).synthesize(source_program, target_schema)
