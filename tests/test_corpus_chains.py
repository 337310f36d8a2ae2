"""Multi-step migration chains and the corpus CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.corpus import (
    CorpusConfig,
    MigrationChain,
    generate_workload,
    sqlite_differential,
)
from repro.corpus.__main__ import main

#: Small shapes keep each synthesis hop sub-second; seed 4 was pinned
#: because its chain covers split, a second split, and a fold.
CHAIN_CONFIG = CorpusConfig().scaled(tables=2, columns=2, steps=3, functions=8)


class TestMigrationChain:
    @pytest.fixture(scope="class")
    def chain_outcome(self):
        workload = generate_workload(4, CHAIN_CONFIG)
        return workload, MigrationChain(workload).run()

    def test_three_step_chain_synthesizes_end_to_end(self, chain_outcome):
        workload, outcome = chain_outcome
        assert len(workload.steps) == 3
        assert [step.succeeded for step in outcome.steps] == [True, True, True]
        assert outcome.succeeded, outcome.failure

    def test_composition_verified_against_composed_oracle(self, chain_outcome):
        _, outcome = chain_outcome
        assert outcome.verification is not None
        assert outcome.verification.equivalent
        assert outcome.verification.sequences_checked > 0

    def test_sqlite_differential_agrees(self, chain_outcome):
        _, outcome = chain_outcome
        assert outcome.sqlite_compared > 0
        assert outcome.sqlite_agreed

    def test_final_program_lives_on_the_target_schema(self, chain_outcome):
        workload, outcome = chain_outcome
        program = outcome.final_program
        assert program is not None
        assert set(program.schema.table_names) == set(
            workload.target_schema.table_names
        )

    def test_summary_names_the_workload(self, chain_outcome):
        workload, outcome = chain_outcome
        summary = outcome.summary()
        assert workload.name in summary
        assert "ok" in summary


class TestSqliteDifferential:
    def test_program_agrees_with_itself(self):
        program = generate_workload(0, CHAIN_CONFIG).source_program
        compared, agreed = sqlite_differential(program, program)
        assert compared > 0
        assert agreed

    def test_source_vs_oracle(self):
        workload = generate_workload(1, CHAIN_CONFIG)
        compared, agreed = sqlite_differential(
            workload.source_program, workload.oracle_program
        )
        assert compared > 0
        assert agreed


class TestCorpusCli:
    def test_generate_prints_workloads(self, capsys):
        assert main(["generate", "--seed", "3", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("corpus_s") == 2
        assert "step 1:" in out

    def test_fuzz_clean_run_writes_seed_list(self, tmp_path, capsys):
        seed_list = tmp_path / "seeds.json"
        code = main(
            [
                "fuzz", "--seed", "0", "--count", "3",
                "--max-sequences", "10", "--random-sequences", "4",
                "--seed-list", str(seed_list),
            ]
        )
        assert code == 0
        assert "all backends agree" in capsys.readouterr().out
        payload = json.loads(seed_list.read_text())
        assert payload["ok"] is True
        assert len(payload["workload_seeds"]) == 3
        assert payload["backends"] == ["interpreter", "compiled"]

    def test_fuzz_respects_backend_selection(self, capsys):
        code = main(
            [
                "fuzz", "--seed", "1", "--count", "2",
                "--backends", "interpreter", "compiled",
                "--max-sequences", "8", "--random-sequences", "2",
            ]
        )
        assert code == 0
        assert "interpreter, compiled" in capsys.readouterr().out

    def test_ingest_bundled_dump(self, capsys):
        dump = (
            Path(__file__).resolve().parent.parent
            / "examples" / "data" / "ecommerce_schema.sql"
        )
        assert main(["ingest", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "5 tables" in out
        assert "orders.customer_id -> customers.customer_id" in out

    def test_ingest_bad_file_fails_loudly(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("CREATE TABLE t (x FLOAT);")
        assert main(["ingest", str(bad)]) == 1
        assert "ingest failed" in capsys.readouterr().err
