"""Execution-engine benchmark: interpreter vs compiled.

Two measurements per selected Table 1 workload:

* **candidate-execution throughput** — the source program executed on a
  fixed batch of bounded-tester invocation sequences under each backend
  (this is the inner loop the search-and-check algorithm pays thousands of
  times per benchmark; closure translation plus hash joins is the whole
  win);
* **end-to-end synthesis** — one full synthesis run per backend on a small
  multi-sketch workload, demonstrating that the gains survive the complete
  pipeline (pool screening, source caching, verification) without changing
  the search trajectory.

Every measurement reports the DAT300 axes (wall, CPU, high-water RSS, and
time-to-first-event for the streaming run) in cold and warm modes via
``benchmarks/measure.py``, and the aggregate test serializes everything to
``BENCH_engine.json`` (override the path with ``REPRO_BENCH_JSON``) so CI
can archive the perf trajectory across PRs.

Run with ``pytest benchmarks/bench_engine.py``; a plain-text report
(`render_engine_report`) is printed at the end of the session.  Set
``REPRO_BENCH_SMOKE=1`` for the CI smoke job (one workload, tiny batch, no
end-to-end run).  Acceptance, checked by ``test_engine_aggregate``: the
compiled backend sustains ≥ 3x the interpreter's sequence throughput on at
least two workloads (≥ 2x on one workload in smoke mode).
"""

from __future__ import annotations

import gc
import itertools
import os
import time

import pytest

from measure import BenchReport, measure, measure_streaming
from repro.core import Synthesizer, SynthesisConfig
from repro.engine.compiler import ProgramCompiler
from repro.engine.interpreter import run_invocation_sequence
from repro.equivalence.invocation import SequenceGenerator
from repro.eval.reporting import engine_summary_row, render_engine_report
from repro.workloads import get_benchmark

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0", "false")

#: Workloads for the throughput A/B (a textbook single-sketch benchmark, the
#: multi-sketch Ambler-5, and two real-world CRUD suites).
THROUGHPUT_WORKLOADS = ["Oracle-1"] if SMOKE else [
    "Oracle-1",
    "Ambler-5",
    "coachup",
    "rails-ecomm",
]
SEQUENCES = 100 if SMOKE else 400
REPEATS = 3
#: Acceptance threshold for compiled-vs-interpreter throughput.  Local/full
#: runs hold the original criterion (3x); the CI smoke job uses a lower
#: tripwire so a noisy shared runner cannot flake an unrelated PR —
#: measured headroom is ~6x, so 2x still catches any real regression.
MIN_SPEEDUP = 2.0 if SMOKE else 3.0

#: Rows accumulated across the parametrized runs, printed at session end.
_REPORT_ROWS: list[list] = []

#: name -> measured speedup, consumed by the aggregate acceptance checks.
_SPEEDUPS: dict[str, float] = {}

#: The machine-readable counterpart of the printed report.
_REPORT = BenchReport(suite="engine", mode="smoke" if SMOKE else "full")


def _best_seconds(run, repeats: int) -> float:
    """Fastest of *repeats* executions (minimises scheduler noise)."""
    gc.collect()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _best_rate(run, repeats: int, count: int) -> float:
    """Executions/second, best of *repeats*."""
    return count / _best_seconds(run, repeats)


# ------------------------------------------------------------- throughput
@pytest.mark.parametrize("name", THROUGHPUT_WORKLOADS)
def test_engine_throughput(name):
    program = get_benchmark(name).source_program
    sequences = list(
        itertools.islice(SequenceGenerator(programs=[program]).sequences(), SEQUENCES)
    )
    assert sequences, f"workload {name} produced no bounded sequences"

    def run_interpreter():
        for sequence in sequences:
            run_invocation_sequence(program, sequence)

    # Cold mode: compilation on the clock, plus one full pass each.
    compiler = ProgramCompiler()
    compile_started = time.perf_counter()
    compiled = compiler.compile_program(program)
    compile_ms = (time.perf_counter() - compile_started) * 1e3

    def run_compiled():
        for sequence in sequences:
            compiled.run_sequence(sequence)

    cold = {
        "interpreter": measure(run_interpreter),
        "compiled": measure(run_compiled),
    }

    # Warm mode: steady-state throughput, best of REPEATS.
    interp_rate = _best_rate(run_interpreter, REPEATS, len(sequences))
    compiled_rate = _best_rate(run_compiled, REPEATS, len(sequences))

    _SPEEDUPS[name] = compiled_rate / interp_rate
    _REPORT_ROWS.append(
        engine_summary_row(name, len(sequences), interp_rate, compiled_rate, compile_ms)
    )
    _REPORT.record("throughput", name, {
        "sequences": len(sequences),
        "interpreter_seq_per_s": round(interp_rate, 1),
        "compiled_seq_per_s": round(compiled_rate, 1),
        "compiled_speedup": round(compiled_rate / interp_rate, 3),
        "compile_ms": round(compile_ms, 3),
        "cold": {backend: run.to_dict() for backend, run in cold.items()},
    })

    # Equal outputs on the measured batch: the A/B is meaningless otherwise.
    sample = sequences[:: max(1, len(sequences) // 20)]
    for sequence in sample:
        expected = run_invocation_sequence(program, sequence)
        assert expected == compiled.run_sequence(sequence)


# ------------------------------------------------------------- end-to-end
@pytest.mark.skipif(SMOKE, reason="smoke job runs the throughput A/Bs only")
def test_engine_end_to_end():
    """One synthesis run per backend: same trajectory, measured resources."""
    bench = get_benchmark("Ambler-5")
    runs = {}
    for backend in ("interpreter", "compiled"):
        config = SynthesisConfig()
        config.execution_backend = backend
        config.verifier_random_sequences = 10
        config.time_limit = 120.0

        def body(first_event):
            session = Synthesizer(config).session(
                bench.source_program, bench.target_schema
            )
            for _ in session.events():
                first_event()
            return session.result

        runs[backend] = measure_streaming(body)
        result = runs[backend].value
        print(f"  Ambler-5 [{backend}] ok={result.succeeded} "
              f"iters={result.iterations} wall={runs[backend].wall_s:.2f}s "
              f"cpu={runs[backend].cpu_s:.2f}s "
              f"first-event={runs[backend].first_event_s:.3f}s")
        payload = runs[backend].to_dict()
        payload.update(
            succeeded=result.succeeded,
            iterations=result.iterations,
            pool_hits=result.cache.pool_hits,
        )
        _REPORT.record("end_to_end", f"Ambler-5/{backend}", payload)

    reference = runs["interpreter"].value
    result = runs["compiled"].value
    # The search trajectory is identical (same verdict per candidate), so
    # the iteration counts must match exactly; wall-clock is reported, not
    # asserted (CI machines are noisy).
    assert result.succeeded == reference.succeeded
    assert result.iterations == reference.iterations


# -------------------------------------------------------------- aggregate
def test_engine_aggregate():
    """Acceptance gates + BENCH_engine.json emission (runs last)."""
    print()
    print(render_engine_report(_REPORT_ROWS))
    needed = 1 if SMOKE else 2
    fast_enough = [name for name, speedup in _SPEEDUPS.items() if speedup >= MIN_SPEEDUP]
    assert len(fast_enough) >= needed, (
        f"expected >={MIN_SPEEDUP}x compiled speedup on at least {needed} "
        f"workloads; measured {_SPEEDUPS}"
    )
    path = _REPORT.write()
    print(f"  benchmark JSON written to {path}")
