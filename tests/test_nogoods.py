"""Learning across value correspondences: the nogoods a session blocks.

A rejected attempt becomes a *nogood*, a partial value correspondence (VC):
the images the failing functions' sketches read.  The enumerator then skips
every VC that agrees with it (``tests/test_correspondence.py::TestNogoods``
checks the stream).  This module audits what the skips cost:

* sampled skipped VCs, replayed through a fresh ``SessionCore.attempt``,
  never solve, and every function a blocking nogood names sketches under
  them exactly as under the rejected VC (the premise of its soundness);
* an attempt that proved nothing (a cap, an interrupt, the BMC baseline)
  blocks nothing;
* the two programs that only nogoods reach (Ambler-8/r0 and gallery/r0)
  agree with sqlite3 and pass a verifier one update deeper than the run's.

A tier-1 run replays 8 seeded samples per audited job;
``REPRO_FULL_EQUIV=1`` replays up to 40.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import pytest

from repro.completion import SketchEncoder
from repro.core import SynthesisConfig, migrate
from repro.core.session import SessionCore
from repro.corpus.chains import sqlite_differential
from repro.correspondence import FactoredVcEnumerator
from repro.datamodel import DataType as T, make_schema
from repro.equivalence import BoundedVerifier
from repro.lang import Program
from repro.lang.builder import ProgramBuilder, eq, insert, select
from repro.lang.pretty import format_program
from repro.sketchgen import SketchGenerationError, SketchGenerator
from repro.workloads import get_benchmark, rename_variants

FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"

AUDIT_JOBS = ["Ambler-5", "Ambler-3/r0", "Ambler-5/r0", "gallery/r0"]
AUDIT_SAMPLES = 40 if FULL_EQUIV else 8
AUDIT_PREFIX = 300


def _job(job: str):
    name, _, variant = job.partition("/")
    benchmark = get_benchmark(name)
    target = benchmark.target_schema
    if variant:
        target = rename_variants(target, 1)[0]
    return benchmark.source_program, target


def _agrees(vc, mapping) -> bool:
    return all(vc.image(attr) == image for attr, image in mapping.items())


def _sketches(source, target, vc, functions) -> dict:
    """Each function's sketch (or generation error) on its own, as text.

    Generated alone, a function's holes are numbered from 1, so the text
    depends only on the function and the images it reads.
    """
    shapes = {}
    for name in sorted(functions):
        alone = Program(source.name, source.schema, [source.function(name)])
        try:
            shapes[name] = repr(SketchGenerator(alone, target).generate(vc).functions[0])
        except SketchGenerationError as error:
            shapes[name] = f"error: {error}"
    return shapes


@pytest.fixture()
def tried(monkeypatch):
    """The VCs each ``SessionCore.attempt`` is handed, in order."""
    correspondences = []
    attempt = SessionCore.attempt

    def recording(self, correspondence, *args, **kwargs):
        correspondences.append(correspondence)
        return attempt(self, correspondence, *args, **kwargs)

    monkeypatch.setattr(SessionCore, "attempt", recording)
    return correspondences


@pytest.mark.parametrize("job", AUDIT_JOBS)
def test_skipped_vcs_do_not_solve(job, tried):
    """Seeded samples of VCs the run's nogoods block fail a fresh attempt.

    Each replay must also prove its failure (a sketch-generation error or a
    refuted completion, so a nogood of its own), not merely hit a cap.  And
    each function a blocking nogood names must sketch exactly as it did
    under the VC whose rejection recorded that nogood.
    """
    source, target = _job(job)
    result = migrate(source, target, SynthesisConfig())
    assert result.succeeded
    rejected = [
        (vc, attempt.nogood)
        for vc, attempt in zip(tried, result.attempts)
        if attempt.nogood is not None
    ]
    nogoods = [nogood for _vc, nogood in rejected]
    assert len(nogoods) == len(result.attempts) - 1
    blocked = [
        candidate
        for candidate in itertools.islice(
            FactoredVcEnumerator(source, target).candidates(), AUDIT_PREFIX
        )
        if candidate.correspondence not in tried
        and any(_agrees(candidate.correspondence, nogood.mapping) for nogood in nogoods)
    ]
    assert len(blocked) >= 8
    for candidate in random.Random(job).sample(blocked, min(len(blocked), AUDIT_SAMPLES)):
        vc = candidate.correspondence
        core = SessionCore(source, target, SynthesisConfig())
        outcome = core.attempt(vc, candidate.weight, 1)
        assert outcome.program is None, vc.describe()
        assert outcome.record.nogood is not None, outcome.record.failure_reason
        for original, nogood in rejected:
            if _agrees(vc, nogood.mapping):
                functions = nogood.functions
                assert _sketches(source, target, vc, functions) == _sketches(
                    source, target, original, functions
                )


def test_capped_attempt_blocks_nothing(tried):
    """An iteration cap proves nothing: the next VC is the unpruned stream's next."""
    source, target = _job("Ambler-5")
    config = SynthesisConfig(max_iterations_per_sketch=1, max_value_correspondences=4)
    result = migrate(source, target, config)
    assert [(a.failure_reason, a.nogood) for a in result.attempts] == [
        ("iteration limit reached", None)
    ] * 4
    unpruned = FactoredVcEnumerator(source, target).candidates()
    assert tried == [candidate.correspondence for candidate in itertools.islice(unpruned, 4)]


def _contradictory(monkeypatch):
    """Make every sketch's encoding UNSAT before its first model."""

    class Contradictory(SketchEncoder):
        def encode(self):
            encoding = super().encode()
            encoding.cnf.add_clause([1])
            encoding.cnf.add_clause([-1])
            return encoding

    monkeypatch.setattr("repro.completion.solver.SketchEncoder", Contradictory)
    monkeypatch.setattr("repro.baselines.bmc.SketchEncoder", Contradictory)


def test_bmc_never_records_a_completion_nogood(monkeypatch):
    """The BMC baseline proves no refutation it can name functions for.

    With every encoding UNSAT, the MFI completer refutes each sketch and the
    session blocks a nogood; the BMC baseline fails the same attempts with
    the same reason and blocks nothing.
    """
    source = make_schema("s", {"A": {"k": T.INT, "v": T.INT}})
    target = make_schema("t", {"B": {"k": T.INT, "v": T.INT}})
    pb = ProgramBuilder("p", source)
    pb.update("add", [("k", "int"), ("v", "int")], insert("A", {"A.k": "$k", "A.v": "$v"}))
    pb.query("get", [("k", "int")], select(["A.v"], "A", eq("A.k", "$k")))
    program = pb.build()
    _contradictory(monkeypatch)
    for strategy, blocks in (("mfi", True), ("bmc", False)):
        config = SynthesisConfig(completion_strategy=strategy, max_value_correspondences=3)
        result = migrate(program, target, config)
        assert not result.succeeded and result.attempts
        for attempt in result.attempts:
            assert attempt.sketch_holes and attempt.failure_reason == "no equivalent completion"
            assert (attempt.nogood is not None) == blocks
        if blocks:
            assert result.attempts[0].nogood.functions == {"add", "get"}


@pytest.mark.parametrize(
    "job, digest",
    [
        ("Ambler-8/r0", "85828960f1e226671548acdc940a2e9780c338b27f7979f2fa5e88d404900fb1"),
        ("gallery/r0", "8821f51622853e363d3aac737e7afecfcc1a71042a8bc032a7f1bfc2f54e179f"),
    ],
)
def test_programs_reached_through_nogoods_are_confirmed(job, digest):
    """sqlite3 agrees on 80 sequences, and a one-update-deeper verifier accepts."""
    source, target = _job(job)
    config = SynthesisConfig()
    result = migrate(source, target, config)
    assert result.succeeded
    assert hashlib.sha256(format_program(result.program).encode()).hexdigest() == digest
    compared, agreed = sqlite_differential(
        source, result.program, max_sequences=48, random_sequences=32
    )
    assert compared > 0 and agreed
    verifier = BoundedVerifier(max_updates=config.verifier_max_updates + 1)
    assert verifier.verify(source, result.program).equivalent
