"""Evaluation harness regenerating Tables 1-3 of the paper.

The scale curves over the generated corpus live in :mod:`repro.eval.corpus`,
which this package does not import: a table run loads no corpus module.
"""

from repro.eval.reporting import (
    render_markdown_table,
    render_scheduler_report,
    render_service_report,
    render_table,
    speedup,
)
from repro.eval.table1 import Table1Row, format_table1, run_benchmark, run_table1
from repro.eval.table2 import Table2Row, format_table2, run_table2
from repro.eval.table3 import Table3Row, format_table3, run_table3

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "format_table1",
    "format_table2",
    "format_table3",
    "render_markdown_table",
    "render_scheduler_report",
    "render_service_report",
    "render_table",
    "run_benchmark",
    "run_table1",
    "run_table2",
    "run_table3",
    "speedup",
]
