"""End-to-end tests for the synthesizer (Algorithm 1) on the running example,
and a check that a synthesis run loads none of the service shell."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import SynthesisConfig, Synthesizer, migrate
from repro.datamodel import Attribute
from repro.equivalence import BoundedVerifier
from repro.lang.pretty import format_program


@pytest.fixture(scope="module")
def running_example_result(course_program, course_target_schema):
    config = SynthesisConfig()
    config.verifier_random_sequences = 50
    return Synthesizer(config).synthesize(course_program, course_target_schema)


class TestSynthesizer:
    def test_running_example_succeeds(self, running_example_result):
        assert running_example_result.succeeded

    def test_value_correspondence_matches_paper(self, running_example_result):
        vc = running_example_result.correspondence
        assert vc.image(Attribute("Instructor", "IPic")) == frozenset({Attribute("Picture", "Pic")})
        assert vc.image(Attribute("TA", "TPic")) == frozenset({Attribute("Picture", "Pic")})

    def test_first_correspondence_is_enough(self, running_example_result):
        assert running_example_result.value_correspondences_tried == 1

    def test_result_is_verified_equivalent(self, running_example_result, course_program):
        verifier = BoundedVerifier(max_updates=3, random_sequences=200)
        assert verifier.verify(course_program, running_example_result.program).equivalent

    def test_synthesized_program_uses_picture_table(self, running_example_result):
        text = format_program(running_example_result.program)
        assert "Picture" in text
        assert "IPic" not in text  # the source attribute no longer exists

    def test_result_summary_mentions_status(self, running_example_result):
        assert "[OK]" in running_example_result.summary()

    def test_statistics_are_populated(self, running_example_result):
        assert running_example_result.iterations >= 1
        assert running_example_result.total_time >= running_example_result.synthesis_time

    def test_migrate_convenience_wrapper(self, people_program, people_schema):
        # migrating to the identical schema must trivially succeed
        result = migrate(people_program, people_schema)
        assert result.succeeded
        assert result.value_correspondences_tried == 1

    def test_unknown_strategy_rejected(self, course_program, course_target_schema):
        config = SynthesisConfig()
        config.completion_strategy = "magic"
        with pytest.raises(ValueError):
            Synthesizer(config).synthesize(course_program, course_target_schema)

    def test_impossible_target_reports_failure(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        # the target schema cannot store the queried string attribute at all
        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        result = migrate(people_program, target)
        assert not result.succeeded

    def test_time_limit_flags_timeout(self, course_program, course_target_schema):
        config = SynthesisConfig()
        config.time_limit = 0.0
        result = Synthesizer(config).synthesize(course_program, course_target_schema)
        assert not result.succeeded
        assert result.timed_out


#: What the synthesis core and the Table 1-3 harness must never import: the
#: service shell, the corpus, the MaxSAT reference's old home and sqlite3.
SHELL_MODULES = (
    "repro.api",
    "repro.service",
    "repro.server",
    "repro.exec",
    "repro.jobstore",
    "repro.corpus",
    "repro.worker",
    "repro.maxsat",
    "repro.eval.corpus",
    "sqlite3",
)

_CORE_ONLY_RUN = f"""
import json, sys
import repro
from repro.workloads import get_benchmark
benchmark = get_benchmark("Oracle-1")
result = repro.migrate(benchmark.source_program, benchmark.target_schema)
import repro.eval.table1
shell = sorted(
    name for name in sys.modules
    if any(name == prefix or name.startswith(prefix + ".") for prefix in {SHELL_MODULES!r})
)
print(json.dumps({{"succeeded": result.succeeded, "shell": shell}}))
"""


class TestCoreStandsAlone:
    def test_synthesis_and_table_harness_load_no_shell(self):
        # A fresh interpreter: the test process itself has the shell loaded.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        completed = subprocess.run(
            [sys.executable, "-c", _CORE_ONLY_RUN],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(completed.stdout.splitlines()[-1])
        assert report["succeeded"]
        assert report["shell"] == []
