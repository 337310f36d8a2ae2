"""The Migrator synthesizer: configuration, results, Algorithm 1, and the
streaming session that runs it."""

from repro.core.config import SynthesisConfig
from repro.core.result import AttemptRecord, Nogood, SynthesisResult
from repro.core.session import (
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    CandidateRejected,
    SessionCore,
    SessionEvent,
    SketchGenerated,
    SketchRejected,
    Solved,
    SynthesisSession,
    VcSelected,
)
from repro.core.synthesizer import Synthesizer, migrate

__all__ = [
    "AttemptRecord",
    "BudgetExhausted",
    "BudgetTimeout",
    "Cancelled",
    "CandidateRejected",
    "Nogood",
    "SessionCore",
    "SessionEvent",
    "SketchGenerated",
    "SketchRejected",
    "Solved",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisSession",
    "Synthesizer",
    "VcSelected",
    "migrate",
]
