"""Result objects returned by the synthesizer.

Both record types serialize to plain dictionaries (:meth:`AttemptRecord.to_dict`,
:meth:`SynthesisResult.to_dict` / :meth:`SynthesisResult.to_json`): the
:class:`~repro.service.MigrationService` job responses and the eval harness
reporting share one machine-readable shape instead of re-deriving it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.correspondence.value_corr import ValueCorrespondence
from repro.datamodel.schema import Attribute
from repro.lang.ast import Program
from repro.testing_cache import TestingCacheStats


@dataclass(frozen=True)
class Nogood:
    """A partial value correspondence under which every correspondence fails.

    ``functions`` are the functions the rejection depended on: the one
    whose sketch generation failed, or those a refuted completion named.
    ``mapping`` holds the images their sketches read.  Every correspondence
    that agrees with ``mapping`` fails the same bounded check.
    """

    functions: frozenset[str]
    mapping: dict[Attribute, frozenset[Attribute]]

    def to_dict(self) -> dict:
        return {
            "functions": sorted(self.functions),
            "mapping": {
                str(attr): sorted(str(target) for target in image)
                for attr, image in sorted(self.mapping.items())
            },
        }


@dataclass(kw_only=True)
class AttemptRecord:
    """One (value correspondence, sketch, completion) attempt.

    Keyword-only by design: the record grew fields over time and positional
    construction silently shifted meanings; every producer now names what it
    sets.  ``events`` carries the compact per-attempt event summary produced
    by the session core (see :class:`repro.core.session.EventSummarizer`), so
    an attempt's trajectory survives pickling across service worker
    processes without shipping the full event objects.
    """

    vc_weight: int
    sketch_holes: int = 0
    sketch_size: int = 0
    iterations: int = 0
    succeeded: bool = False
    failure_reason: str = ""
    #: Compact, ordered summary of the session events of this attempt, e.g.
    #: ``("vc_selected w=3", "sketch_generated holes=2 space=16",
    #: "candidate_rejected x4", "solved iters=5")``.
    events: tuple[str, ...] = ()
    #: Why this correspondence was rejected, as a partial correspondence the
    #: session blocked; ``None`` when the attempt proved nothing (solved,
    #: interrupted, capped, or a completer that proves no refutation).
    nogood: Optional[Nogood] = None

    def to_dict(self) -> dict:
        return {
            "vc_weight": self.vc_weight,
            "sketch_holes": self.sketch_holes,
            "sketch_size": self.sketch_size,
            "iterations": self.iterations,
            "succeeded": self.succeeded,
            "failure_reason": self.failure_reason,
            "events": list(self.events),
            "nogood": None if self.nogood is None else self.nogood.to_dict(),
        }


@dataclass
class SynthesisResult:
    """The outcome of one end-to-end synthesis run (one Table 1 row)."""

    source_program: Program
    program: Optional[Program]
    correspondence: Optional[ValueCorrespondence] = None
    value_correspondences_tried: int = 0
    iterations: int = 0
    synthesis_time: float = 0.0
    verification_time: float = 0.0
    attempts: list[AttemptRecord] = field(default_factory=list)
    timed_out: bool = False
    #: The run was stopped by cooperative cancellation (see
    #: :meth:`repro.core.session.SynthesisSession.cancel`).
    cancelled: bool = False
    #: Incremental-testing counters (counterexample pool + source cache).
    cache: TestingCacheStats = field(default_factory=TestingCacheStats)

    @property
    def succeeded(self) -> bool:
        return self.program is not None

    @property
    def total_time(self) -> float:
        return self.synthesis_time + self.verification_time

    @property
    def status(self) -> str:
        if self.succeeded:
            return "OK"
        if self.cancelled:
            return "CANCELLED"
        if self.timed_out:
            return "TIMEOUT"
        return "FAILED"

    def summary(self) -> str:
        cache = ""
        if self.cache.candidates_screened:
            cache = (
                f" pool_hits={self.cache.pool_hits}"
                f"/{self.cache.candidates_screened} screened"
            )
        if self.cache.compiled_function_hits:
            cache += f" compiled_hits={self.cache.compiled_function_hits}"
        return (
            f"[{self.status}] {self.source_program.name}: "
            f"funcs={self.source_program.num_functions()} "
            f"VCs={self.value_correspondences_tried} iters={self.iterations} "
            f"synth={self.synthesis_time:.1f}s total={self.total_time:.1f}s{cache}"
        )

    # ---------------------------------------------------------- serialization
    def to_dict(self, *, include_program: bool = True) -> dict:
        """A JSON-ready dictionary view of the run.

        Programs and correspondences are rendered to their canonical text
        forms (``format_program`` / ``describe``); set
        ``include_program=False`` for compact service responses that only
        need the outcome and counters.
        """
        from repro.lang.pretty import format_program

        return {
            "source_program": self.source_program.name,
            "status": self.status,
            "succeeded": self.succeeded,
            "timed_out": self.timed_out,
            "cancelled": self.cancelled,
            "value_correspondences_tried": self.value_correspondences_tried,
            "iterations": self.iterations,
            "synthesis_time": self.synthesis_time,
            "verification_time": self.verification_time,
            "total_time": self.total_time,
            "program": (
                format_program(self.program)
                if include_program and self.program is not None
                else None
            ),
            "correspondence": (
                self.correspondence.describe() if self.correspondence is not None else None
            ),
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "cache": dataclasses.asdict(self.cache),
        }

    def to_json(self, *, include_program: bool = True, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(include_program=include_program), indent=indent)
