"""Scale-curve evaluation over the generated corpus.

The paper's tables measure the 20 hand-collected benchmarks; this mode
measures how synthesis cost scales with schema *shape* instead.  For each
point on a width/depth ladder it generates seeded corpus workloads
(:mod:`repro.corpus.generator`, one refactoring step so each run is a
single synthesis problem), migrates the source program onto the refactored
schema, and reports per-point means of synthesis time, refinement-loop
iterations, and value correspondences enumerated.

Everything derives from the master seed, so a curve regenerates exactly::

    python -m repro.eval corpus --corpus 0:5
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import SynthesisConfig
from repro.core.result import SynthesisResult
from repro.core.synthesizer import migrate
from repro.eval.reporting import render_table

#: The width/depth ladder: (tables, columns per table, CRUD functions).
#: One refactoring step per workload keeps each row a single synthesis
#: problem, so the curve isolates schema shape from chain length.
SCALE_POINTS: tuple[tuple[int, int, int], ...] = (
    (2, 2, 8),
    (2, 4, 10),
    (3, 3, 12),
    (3, 5, 12),
    (4, 4, 14),
)

CORPUS_HEADERS = [
    "Tables",
    "Columns",
    "Funcs",
    "Workloads",
    "Solved",
    "Synth(s)",
    "Iters",
    "VCs",
]


@dataclass
class CorpusRow:
    """Aggregated synthesis cost at one (width, depth) scale point."""

    tables: int
    columns: int
    functions: int
    results: list[SynthesisResult] = field(default_factory=list)

    @property
    def solved(self) -> int:
        return sum(1 for result in self.results if result.succeeded)

    def _mean(self, values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    @property
    def mean_synthesis_time(self) -> float | None:
        return self._mean([r.synthesis_time for r in self.results if r.succeeded])

    @property
    def mean_iterations(self) -> float | None:
        return self._mean([float(r.iterations) for r in self.results if r.succeeded])

    @property
    def mean_correspondences(self) -> float | None:
        return self._mean(
            [float(r.value_correspondences_tried) for r in self.results if r.succeeded]
        )

    def cells(self) -> list:
        synth = self.mean_synthesis_time
        return [
            self.tables,
            self.columns,
            self.functions,
            len(self.results),
            self.solved,
            None if synth is None else f"{synth:.2f}",
            self.mean_iterations,
            self.mean_correspondences,
        ]


def run_corpus(
    seed: int,
    count: int,
    *,
    config: SynthesisConfig | None = None,
    points: tuple[tuple[int, int, int], ...] = SCALE_POINTS,
    verbose: bool = True,
) -> list[CorpusRow]:
    """Run *count* seeded workloads at every scale point; returns the rows."""
    # Imported here: ``python -m repro.eval table1`` imports this module,
    # and a table run must load no corpus module.
    from repro.corpus.generator import CorpusConfig, generate_corpus

    config = config or SynthesisConfig.fast()
    master = random.Random(seed)
    rows: list[CorpusRow] = []
    for tables, columns, functions in points:
        corpus_config = CorpusConfig().scaled(
            tables=tables, columns=columns, steps=1, functions=functions
        )
        row = CorpusRow(tables, columns, functions)
        point_seed = master.randrange(2**32)
        for workload in generate_corpus(point_seed, count, corpus_config):
            result = migrate(
                workload.source_program, workload.target_schema, config
            )
            row.results.append(result)
            if verbose:
                status = "ok" if result.succeeded else "FAIL"
                print(
                    f"  [{tables}x{columns}] {workload.name}: {status} "
                    f"{result.synthesis_time:.2f}s "
                    f"iters={result.iterations} "
                    f"vcs={result.value_correspondences_tried} "
                    f"({workload.describe_steps()[0]})",
                    flush=True,
                )
        rows.append(row)
    return rows


def format_corpus(rows: list[CorpusRow]) -> str:
    """Render the scale curve in the harness's fixed-width style."""
    return render_table(
        CORPUS_HEADERS,
        [row.cells() for row in rows],
        title="Generated corpus: synthesis cost vs schema shape",
    )


def parse_corpus_spec(spec: str) -> tuple[int, int]:
    """Parse the CLI's ``seed:count`` argument."""
    seed_text, _, count_text = spec.partition(":")
    try:
        seed = int(seed_text)
        count = int(count_text) if count_text else 3
    except ValueError as error:
        raise ValueError(
            f"--corpus expects SEED or SEED:COUNT, got {spec!r}"
        ) from error
    if count <= 0:
        raise ValueError(f"--corpus count must be positive, got {count}")
    return seed, count
