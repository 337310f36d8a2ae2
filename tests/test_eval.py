"""Smoke tests for the evaluation harness (Tables 1-3) and reporting helpers."""

import pytest

from repro.core import SynthesisConfig
from repro.eval import (
    format_table1,
    format_table2,
    format_table3,
    render_markdown_table,
    render_table,
    run_table1,
    run_table2,
    run_table3,
    speedup,
)
from repro.eval.corpus import format_corpus, parse_corpus_spec, run_corpus
from repro.eval.table1 import TABLE1_ORDER, benchmark_selection


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xxx", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xxx" in text and "2.5" in text and "-" in text

    def test_render_markdown_table(self):
        text = render_markdown_table(["x"], [[1], [2]])
        assert text.splitlines()[1] == "|---|"
        assert text.count("|") >= 6

    def test_speedup_formatting(self):
        assert speedup(10.0, 2.0, False) == "5.0x"
        assert speedup(10.0, 2.0, True) == ">5.0x"
        assert speedup(None, 2.0, False) == "-"


class TestHarness:
    def test_table1_order_covers_all_benchmarks(self):
        assert len(TABLE1_ORDER) == 20
        assert len(benchmark_selection()) == 20

    def test_run_table1_on_smallest_benchmark(self):
        config = SynthesisConfig()
        config.verifier_random_sequences = 10
        rows = run_table1(["Oracle-1"], config=config, verbose=False)
        assert len(rows) == 1
        assert rows[0].succeeded
        text = format_table1(rows)
        assert "Oracle-1" in text and "Average" in text

    def test_run_table1_scheduler_workers_matches_sequential(self):
        # --scheduler-workers fans workloads over the shared WorkScheduler;
        # per-run numbers and row order must match the sequential harness.
        config = SynthesisConfig()
        config.verifier_random_sequences = 10
        names = ["Oracle-1", "Ambler-4"]
        sequential = run_table1(names, config=config, verbose=False)
        scheduled = run_table1(
            names, config=config, verbose=False, scheduler_workers=2
        )
        def key(row):
            return (
                row.benchmark.name,
                row.succeeded,
                row.value_correspondences,
                row.iterations,
            )
        assert [key(row) for row in sequential] == [key(row) for row in scheduled]

    def test_scheduler_report_renders(self):
        from repro.eval import render_scheduler_report
        from repro.exec import SchedulerStats

        text = render_scheduler_report(
            SchedulerStats(tasks_submitted=3, tasks_done=2, task_retries=1)
        )
        assert "Retries" in text and "WorkersLost" in text

    def test_cli_scheduler_workers_flag(self, capsys):
        from repro.eval.__main__ import main

        exit_code = main(
            ["table1", "--benchmarks", "Oracle-1", "--quiet", "--scheduler-workers", "2"]
        )
        assert exit_code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_table2_on_smallest_benchmark(self):
        rows = run_table2(["Ambler-4"], timeout=60.0, verbose=False)
        assert len(rows) == 1
        text = format_table2(rows)
        assert "Ambler-4" in text and "Speedup" in text

    def test_run_table3_on_smallest_benchmark(self):
        rows = run_table3(["Ambler-4"], timeout=60.0, verbose=False)
        assert len(rows) == 1
        assert rows[0].baseline_succeeded or rows[0].baseline_timed_out
        text = format_table3(rows)
        assert "Ambler-4" in text

    def test_cli_entry_point(self, capsys):
        from repro.eval.__main__ import main

        exit_code = main(["table1", "--benchmarks", "Ambler-4", "--quiet"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out


class TestCorpusCurve:
    def test_parse_corpus_spec(self):
        assert parse_corpus_spec("7:5") == (7, 5)
        assert parse_corpus_spec("7") == (7, 3)
        with pytest.raises(ValueError):
            parse_corpus_spec("x:y")
        with pytest.raises(ValueError):
            parse_corpus_spec("1:0")

    def test_run_corpus_single_point(self):
        rows = run_corpus(0, 2, points=((2, 2, 6),), verbose=False)
        assert len(rows) == 1
        assert len(rows[0].results) == 2
        assert rows[0].solved == 2
        text = format_corpus(rows)
        assert "Tables" in text and "VCs" in text

    def test_cli_corpus_mode(self, capsys):
        from repro.eval.__main__ import main

        exit_code = main(["corpus", "--corpus", "0:1", "--quiet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Generated corpus" in out
