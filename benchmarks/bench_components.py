"""Micro-benchmarks of the pipeline components (not a table of the paper).

These isolate the cost of the individual stages — value-correspondence
enumeration, sketch generation, SAT solving, bounded testing — on the paper's
running example, which is useful when profiling regressions in the substrates.
``test_bench_first_vc_refutation`` times the search regime's costliest unit:
refuting a wrong value correspondence through ``SessionCore.attempt``.
"""

from __future__ import annotations

import pytest

from repro.completion import SketchCompleter, SketchEncoder, instantiate
from repro.core import SynthesisConfig
from repro.core.session import SessionCore
from repro.correspondence import ValueCorrespondenceEnumerator
from repro.equivalence import BoundedTester
from repro.sat import CNF, SatSolver, exactly_one
from repro.sketchgen import SketchGenerator
from repro.workloads import get_benchmark, rename_variants


@pytest.fixture(scope="module")
def running_example():
    bench = get_benchmark("Oracle-2")
    source = bench.source_program
    target = bench.target_schema
    enumerator = ValueCorrespondenceEnumerator(source, target)
    vc = enumerator.next_value_corr().correspondence
    sketch = SketchGenerator(source, target).generate(vc)
    return source, target, vc, sketch


def test_bench_value_correspondence_enumeration(benchmark):
    bench = get_benchmark("Oracle-2")

    def run():
        enumerator = ValueCorrespondenceEnumerator(bench.source_program, bench.target_schema)
        return enumerator.next_value_corr()

    assert benchmark(run) is not None


def test_bench_sketch_generation(benchmark, running_example):
    source, target, vc, _ = running_example
    generator = SketchGenerator(source, target)
    sketch = benchmark(generator.generate, vc)
    assert sketch.num_holes() > 0


def test_bench_sketch_encoding(benchmark, running_example):
    _, _, _, sketch = running_example
    encoding = benchmark(lambda: SketchEncoder(sketch).encode())
    assert encoding.cnf.num_clauses > 0


def test_bench_sat_model_enumeration(benchmark):
    def run():
        cnf = CNF()
        groups = [[cnf.new_variable() for _ in range(6)] for _ in range(12)]
        for group in groups:
            exactly_one(cnf, group)
        solver = SatSolver()
        solver.add_cnf(cnf)
        models = 0
        while models < 50:
            result = solver.solve()
            if not result.is_sat:
                break
            models += 1
            solver.add_clause([-g[0] if result.model[g[0]] else g[0] for g in groups])
        return models

    assert benchmark(run) == 50


def test_bench_bounded_testing(benchmark, running_example):
    source, _, _, sketch = running_example
    tester = BoundedTester(source)
    assignment = {hole.index: 0 for hole in sketch.holes()}
    candidate = instantiate(sketch, assignment)
    benchmark(tester.find_failing_input, candidate)


def test_bench_sketch_completion(benchmark, running_example):
    source, _, _, sketch = running_example

    def run():
        return SketchCompleter(source).complete(sketch)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.succeeded


@pytest.mark.parametrize("name", ["cdx", "2030Club"])
def test_bench_first_vc_refutation(benchmark, name):
    """Refute the first VC of a column-0 rename variant: 1,024 completions.

    The enumerator ranks a wrong VC first on both variants.  On cdx/r0 its
    sketch has 16 x 64 completions of ``addUsers`` and ``getUsers``, and one
    failing input that calls both kills each pair.  Each iteration
    re-searches only the functions its blocking clauses touched.
    """
    bench = get_benchmark(name)
    source, target = bench.source_program, rename_variants(bench.target_schema, 1)[0]
    config = SynthesisConfig()
    first = ValueCorrespondenceEnumerator(
        source, target, alpha=config.alpha, max_fanout=config.max_mapping_fanout
    ).next_value_corr()

    def run():
        return SessionCore(source, target, config).attempt(first.correspondence, first.weight, 1)

    outcome = benchmark.pedantic(run, iterations=1, rounds=3)
    assert outcome.record.iterations == 1024
    assert outcome.record.failure_reason == "no equivalent completion"
