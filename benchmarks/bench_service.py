"""Multi-job throughput A/B: MigrationService batch vs N sequential migrate().

The service's claim is that a *batch* of migration jobs is cheaper than the
same jobs run as independent ``migrate()`` calls, because jobs share
process-wide artifacts: the compiled-program cache (keyed by schema
signature + function AST), the bounded source-output cache, and per-source
counterexample pools.  The sharing-friendly scenario is the production one —
one source program migrated toward several candidate target schemas (the
planned refactoring plus rename variants).

Two service modes are measured:

* **in-process** (``max_workers=0``): sharing only — deterministic on any
  host, and the mode the acceptance gate asserts on: every job succeeds,
  jobs 2..N hit the shared source-output cache more than their cold
  twins, and the batch is no slower than the sequential runs;
* **local worker processes** (``max_workers=4``): sharing per worker
  process plus job-level parallelism — reported for context, with no hard
  assertion because the win depends on the host's core count (on a single
  core the workers can only add overhead).

A second measurement covers the unified execution layer's event streaming:
**first-event latency** on the local fleet — how long after ``run()`` the
first live typed event of a pooled (``max_workers > 1``) batch reaches the
parent's ``on_event`` over the socket transport.  Before the execution-layer
refactor this quantity did not exist (pooled jobs delivered no live events
at all); the gate asserts events arrive while the batch is still running,
i.e. streaming is live rather than post-hoc.

API v2 added **resumable batches**: a deliberately interrupted 5-job batch
restarted through ``MigrationService.resume()`` must run only its
unfinished jobs and land on results pinned to an uninterrupted run's.

Distributed execution (API v2.1) is measured by a **fleet scaling A/B**: the
same distinct-source batch through ``MigrationService(workers=fleet)`` over
a 1-worker and a 2-worker ``python -m repro.worker`` fleet on localhost.
The 2-worker run also reports **remote first-event latency** — how long
until the first typed event crosses the socket transport.  The ≥1.5x
scaling gate only fires under ``REPRO_BENCH_SMOKE=1`` on hosts with at
least two cores (on a single core two remote workers just timeslice).

Run with ``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_service.py``;
``REPRO_BENCH_SMOKE=1`` (the CI job) shrinks the batch and asserts the
in-process speedup.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro import SynthesisConfig, migrate
from repro.api import MigrationJob, MigrationService, RemoteFleet
from repro.eval.reporting import render_table
from repro.workloads import get_benchmark, rename_variants

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0", "false")

_ROOT = Path(__file__).resolve().parents[1]
_WORKER_ENV = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}

#: Rename variants derived from the planned target (batch size = variants + 1).
VARIANTS = 4 if SMOKE else 7
#: The in-process shared batch must be no slower than sequential runs.  The
#: floor was 1.3x while most of the sharing win came from the verifier
#: re-reading cached source outputs on every sequence; state-deduplicated
#: verification removed most of that work from both sides (ten alternating
#: single-round runs on a 2-vCPU Xeon VM: 1.24-1.50x, against 1.44-1.90x
#: before), so the gate now asserts only what sharing still guarantees.
MIN_SPEEDUP = 1.0


def _jobs() -> list[MigrationJob]:
    benchmark = get_benchmark("coachup")
    targets = [benchmark.target_schema]
    targets.extend(rename_variants(benchmark.target_schema, VARIANTS, base_name="coachup_v2"))
    config = SynthesisConfig()
    return [
        MigrationJob(f"coachup->{target.name}", benchmark.source_program, target, config)
        for target in targets
    ]


def test_service_batch_throughput():
    jobs = _jobs()
    config = jobs[0].config
    modes = {
        "sequential migrate()": lambda: [
            migrate(job.source_program, job.target_schema, config) for job in jobs
        ],
        "service in-process": lambda: MigrationService().migrate_batch(jobs),
        "service max_workers=4": lambda: MigrationService(max_workers=4).migrate_batch(jobs),
    }
    # Two interleaved rounds, keeping each mode's faster wall: a single
    # round of batches this short is at the mercy of a shared host's noise.
    walls = dict.fromkeys(modes, float("inf"))
    results: dict[str, list] = {}
    for _round in range(2):
        for label, run in modes.items():
            started = time.perf_counter()
            results[label] = run()
            walls[label] = min(walls[label], time.perf_counter() - started)
            assert all(result.succeeded for result in results[label]), f"{label}: a job failed"
    sequential_time = walls["sequential migrate()"]
    sequential_results = results["sequential migrate()"]
    shared_results = results["service in-process"]
    in_process_speedup = sequential_time / max(walls["service in-process"], 1e-9)

    print()
    print(
        render_table(
            ["Mode", "Jobs", "Wall(s)", "Speedup"],
            [
                [label, len(jobs), f"{wall:.2f}", f"{sequential_time / max(wall, 1e-9):.2f}x"]
                for label, wall in walls.items()
            ],
            title=f"Migration service A/B ({len(jobs)}-job same-source batch, best of 2)",
        )
    )
    # Evidence that the speedup is sharing, not measurement noise: warm jobs
    # hit the shared source-output cache far more than their cold twins.
    cold_hits = sum(result.cache.source_cache_hits for result in sequential_results[1:])
    warm_hits = sum(result.cache.source_cache_hits for result in shared_results[1:])
    print(f"source-cache hits on jobs 2..N: cold={cold_hits} shared={warm_hits}")
    assert warm_hits > cold_hits

    # Every job must still produce a migrated program in both modes.
    assert all(result.succeeded for result in shared_results)
    assert in_process_speedup >= MIN_SPEEDUP, (
        f"shared-artifact batch speedup {in_process_speedup:.2f}x: the batch is "
        "slower than running its jobs one by one"
    )


def test_streaming_first_event_latency():
    """First-event latency of live streaming on the local fleet."""
    jobs = _jobs()
    first_event: list[float] = []
    events_total = [0]

    def on_event(_name: str, _event) -> None:
        events_total[0] += 1
        if not first_event:
            first_event.append(time.perf_counter())

    service = MigrationService(max_workers=2, on_event=on_event)
    handles = service.submit_batch(jobs)
    started = time.perf_counter()
    service.run()
    total = time.perf_counter() - started

    assert all(handle.result is not None for handle in handles)
    assert first_event, "pooled service streamed no live events"
    latency = first_event[0] - started
    print()
    print(
        render_table(
            ["Transport", "Jobs", "Events", "FirstEvent(ms)", "Batch(s)"],
            [["local fleet (max_workers=2)", len(jobs), events_total[0], f"{latency * 1000:.0f}", f"{total:.2f}"]],
            title="Live event streaming: first-event latency",
        )
    )
    # Liveness gate: the first event must arrive while the batch is still
    # running (post-hoc delivery would put it at ~total).  Worker spawn and
    # the first compilation dominate the latency, so allow a wide margin.
    assert latency < 0.9 * total, (
        f"first event arrived at {latency:.2f}s of a {total:.2f}s batch — "
        "streaming is not live"
    )


def _spawn_fleet(size: int, prefix: str) -> tuple[RemoteFleet, list[subprocess.Popen]]:
    """A listening fleet plus *size* localhost ``repro.worker`` processes."""
    fleet = RemoteFleet(listen="127.0.0.1:0", min_workers=size)
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.worker",
                "--connect",
                fleet.bound_address,
                "--id",
                f"{prefix}{index}",
            ],
            env=_WORKER_ENV,
        )
        for index in range(size)
    ]
    fleet.ensure_started()
    return fleet, workers


def _reap_fleet(fleet: RemoteFleet, workers: list[subprocess.Popen]) -> None:
    fleet.close()
    for worker in workers:
        if worker.poll() is None:
            worker.kill()
        worker.wait(timeout=10)


def test_fleet_scaling_ab():
    """Distributed A/B: one batch over 1-worker and 2-worker remote fleets.

    Same code path, same socket transport, same jobs — only the fleet width
    changes, so the wall-clock ratio is the scaling of distributed dispatch.
    Distinct-source jobs keep the work independent (no cross-job pool
    deltas serializing the batch).  The eight jobs, largest first, keep the
    one-worker batch at a few seconds so per-worker start-up does not
    dominate, and each width runs twice, interleaved, keeping its faster
    wall: a shared host's noise otherwise swamps batches this short.
    """
    names = ["visible-closet", "2030Club", "royk", "cdx", "Oracle-2", "coachup",
             "probable-engine", "Ambler-7"]
    config = SynthesisConfig()
    config.verifier_random_sequences = 25
    jobs = []
    for name in names:
        bench = get_benchmark(name)
        jobs.append(MigrationJob(name, bench.source_program, bench.target_schema, config))

    walls: dict[int, float] = {}
    first_event_ms: dict[int, float] = {}
    for size in (1, 2, 1, 2):
        fleet, workers = _spawn_fleet(size, f"bench-{size}w-")
        try:
            first_event: list[float] = []

            def on_event(_name: str, _event) -> None:
                if not first_event:
                    first_event.append(time.perf_counter())

            service = MigrationService(workers=fleet, on_event=on_event)
            service.submit_batch(jobs)
            started = time.perf_counter()
            service.run()
            walls[size] = min(walls.get(size, float("inf")), time.perf_counter() - started)
            assert all(
                handle.result is not None and handle.result.succeeded
                for handle in service.handles
            )
            assert first_event, f"{size}-worker fleet streamed no live events"
            first_event_ms[size] = (first_event[0] - started) * 1000
        finally:
            _reap_fleet(fleet, workers)

    scaling = walls[1] / max(walls[2], 1e-9)
    print()
    print(
        render_table(
            ["Fleet", "Jobs", "Wall(s)", "FirstEvent(ms)", "Scaling"],
            [
                ["1 remote worker", len(jobs), f"{walls[1]:.2f}", f"{first_event_ms[1]:.0f}", ""],
                ["2 remote workers", len(jobs), f"{walls[2]:.2f}", f"{first_event_ms[2]:.0f}", f"{scaling:.2f}x"],
            ],
            title="Distributed fleet scaling (socket transport, localhost)",
        )
    )
    if SMOKE and (os.cpu_count() or 1) >= 2:
        assert scaling >= 1.5, (
            f"2-worker fleet scaled only {scaling:.2f}x over 1 worker "
            "(>=1.5x gate on multi-core hosts)"
        )


def test_resume_interrupted_five_job_batch(tmp_path):
    """Interrupt a 5-job stored batch after 2 jobs; resume must finish it.

    Distinct source programs keep the jobs observably independent, so the
    resumed batch's results are pinned to an uninterrupted run's.
    """
    names = ["Oracle-1", "Ambler-3", "Ambler-4", "MathHotSpot", "coachup"]
    config = SynthesisConfig()
    config.verifier_random_sequences = 25

    def jobs_for(selection):
        jobs = []
        for name in selection:
            bench = get_benchmark(name)
            jobs.append(MigrationJob(name, bench.source_program, bench.target_schema, config))
        return jobs

    store = str(tmp_path / "batch.sqlite")
    # Generation 1 settles two jobs; generation 2 enqueues three more and is
    # "killed" before draining them (exactly what a crashed server leaves).
    first = MigrationService(job_store=store)
    first.submit_batch(jobs_for(names[:2]))
    first.run()
    interrupted = MigrationService(job_store=store)
    interrupted.submit_batch(jobs_for(names[2:]))
    del interrupted

    ran: set[str] = set()
    resumed = MigrationService.resume(store, on_event=lambda name, _e: ran.add(name))
    resumed.run()
    assert ran == set(names[2:]), f"resume reran settled jobs: {sorted(ran)}"

    uninterrupted = MigrationService()
    uninterrupted.submit_batch(jobs_for(names))
    uninterrupted.run()
    reference = {handle.job.name: handle.to_dict() for handle in uninterrupted.handles}
    responses = [handle.to_dict() for handle in resumed.handles]
    for response in responses:
        expected = reference[response["job"]]
        assert response["status"] == expected["status"] == "done", response["job"]
        assert response["result"]["attempts"] == expected["result"]["attempts"]
        assert response["result"]["program"] == expected["result"]["program"]
    print()
    print(
        render_table(
            ["Phase", "Jobs", "Ran"],
            [
                ["before interruption", 2, 2],
                ["after resume", len(names), len(ran)],
            ],
            title="Resumable batch: interrupted 5-job run",
        )
    )
