"""Tests for the multi-job MigrationService facade (repro.service),
including the persistent job store and resumable batches."""

from __future__ import annotations

import json
import os

import pytest

from repro import SynthesisConfig, format_program, migrate
from repro.api import (
    CandidateRejected,
    JobStatus,
    MigrationJob,
    MigrationService,
    SessionEvent,
    SQLiteJobStore,
    VcSelected,
    migrate_batch,
    migrate_jsonl_to_sqlite,
)
from repro.workloads import SchemaSpec, benchmark_names, get_benchmark, rename_column


def _config(**overrides) -> SynthesisConfig:
    config = SynthesisConfig()
    config.verifier_random_sequences = 10
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _job(name: str, config: SynthesisConfig | None = None, **job_fields) -> MigrationJob:
    bench = get_benchmark(name)
    return MigrationJob(
        name, bench.source_program, bench.target_schema, config or _config(), **job_fields
    )


def _long_config() -> SynthesisConfig:
    """A job that churns through thousands of candidates on one sketch."""
    return _config(
        completion_strategy="enumerative",
        counterexample_pool=False,
        final_verification=False,
        max_iterations_per_sketch=None,
    )


def _crash_job_once(task, ctx):
    """Fork-safe crash injection for the kill-a-worker retry test.

    Hard-kills the worker the first time it runs the job named in
    ``REPRO_TEST_CRASH_JOB`` (the marker file keeps it once-only across the
    rebuilt pool), then delegates to the real worker entry point.
    Module-level so the fork pool pickles it by reference.
    """
    import repro.service as service_module

    marker = os.environ.get("REPRO_TEST_CRASH_MARKER", "")
    if (
        marker
        and task.name == os.environ.get("REPRO_TEST_CRASH_JOB")
        and not os.path.exists(marker)
    ):
        open(marker, "w").close()
        os._exit(1)
    return service_module._real_run_job_for_test(task, ctx)


def _trajectory(result) -> tuple:
    """Everything except wall-clock and run-environment-dependent counters."""
    return (
        result.succeeded,
        result.timed_out,
        result.cancelled,
        result.value_correspondences_tried,
        result.iterations,
        result.attempts,
        None if result.program is None else format_program(result.program),
        result.correspondence,
    )


class TestInProcessService:
    def test_batch_results_match_individual_migrate(self):
        names = ["Oracle-1", "Ambler-3", "MathHotSpot"]
        jobs = [_job(name) for name in names]
        results = MigrationService().migrate_batch(jobs)
        for job, result in zip(jobs, results):
            solo = migrate(job.source_program, job.target_schema, _config())
            # Distinct source programs share nothing observable, so the
            # service-run results are the same trajectories as solo runs.
            assert result.attempts == solo.attempts
            assert format_program(result.program) == format_program(solo.program)

    def test_handles_report_status_and_responses(self):
        service = MigrationService()
        handles = service.submit_batch([_job("Oracle-1"), _job("Ambler-4")])
        assert all(handle.status is JobStatus.PENDING for handle in handles)
        service.run()
        assert all(handle.status is JobStatus.DONE for handle in handles)
        response = handles[0].to_dict(include_program=False)
        assert response["job"] == "Oracle-1"
        assert response["status"] == "done"
        assert response["result"]["succeeded"] is True
        assert response["result"]["program"] is None

    def test_failed_job_is_isolated(self):
        service = MigrationService()
        bad = _job("Oracle-1", _config(completion_strategy="magic"))
        good = _job("Ambler-4")
        bad_handle, good_handle = service.submit_batch([bad, good])
        service.run()
        assert bad_handle.status is JobStatus.FAILED
        assert "magic" in bad_handle.error
        assert bad_handle.result is None
        assert good_handle.status is JobStatus.DONE
        assert good_handle.result.succeeded
        with pytest.raises(RuntimeError):
            MigrationService().migrate_batch([bad])

    def test_cancel_pending_job_skips_it(self):
        service = MigrationService()
        first, second = service.submit_batch([_job("Oracle-1"), _job("Ambler-4")])
        second.cancel()
        service.run()
        assert first.status is JobStatus.DONE
        assert second.status is JobStatus.CANCELLED
        assert second.result is None

    def test_cancel_running_job_mid_completion(self):
        # Cancel the Ambler-3 job from its own event stream (first candidate
        # rejection): the session winds down cooperatively and the service
        # reports CANCELLED with the partial result attached, while the next
        # job still runs to completion.
        from repro.api import CandidateRejected

        service = MigrationService(on_event=lambda name, event: _maybe_cancel(name, event))
        target_handle, other_handle = service.submit_batch(
            [_job("Ambler-3"), _job("Oracle-1")]
        )

        def _maybe_cancel(name: str, event: SessionEvent) -> None:
            if name == "Ambler-3" and isinstance(event, CandidateRejected):
                target_handle.cancel()

        service.run()
        assert target_handle.status is JobStatus.CANCELLED
        assert target_handle.result is not None and target_handle.result.cancelled
        assert other_handle.status is JobStatus.DONE

    def test_on_event_is_tagged_with_job_name(self):
        seen: set[str] = set()
        service = MigrationService(on_event=lambda name, event: seen.add(name))
        service.migrate_batch([_job("Oracle-1"), _job("Ambler-4")])
        assert seen == {"Oracle-1", "Ambler-4"}


class TestSharedArtifacts:
    def test_same_source_jobs_share_counterexamples_and_cache(self):
        # Multi-target batch: one source program, several candidate target
        # schemas (the production "try these refactorings" scenario).  Later
        # jobs must observe shared source-output cache hits well above what
        # a cold run sees.
        bench = get_benchmark("coachup")
        base = SchemaSpec.from_schema(bench.target_schema, "coachup_v2")
        table = next(iter(base.tables))
        column = next(iter(base.tables[table]))
        variant = rename_column(base.copy("coachup_v2b"), table, column, column + "_r").build()

        config = _config()
        jobs = [
            MigrationJob("coachup->v2", bench.source_program, bench.target_schema, config),
            MigrationJob("coachup->v2b", bench.source_program, variant, config),
        ]
        warm_first, warm_second = MigrationService().migrate_batch(jobs)
        cold_second = migrate(bench.source_program, variant, config)
        assert warm_second.succeeded and cold_second.succeeded
        assert warm_second.cache.source_cache_hits > cold_second.cache.source_cache_hits

    def test_distinct_sources_do_not_share_pools(self):
        service = MigrationService()
        service.migrate_batch([_job("Oracle-1"), _job("Ambler-4")])
        # One pool per distinct source program fingerprint.
        assert len(service._pools) == 2


class TestPooledService:
    def test_process_pool_batch_matches_in_process(self):
        names = ["Oracle-1", "Ambler-3", "Ambler-4", "MathHotSpot"]
        pooled = migrate_batch([_job(name) for name in names], max_workers=2)
        in_process = migrate_batch([_job(name) for name in names])
        assert [r.succeeded for r in pooled] == [r.succeeded for r in in_process]
        for a, b in zip(pooled, in_process):
            assert a.attempts == b.attempts
            assert format_program(a.program) == format_program(b.program)

    def test_process_pool_isolates_failures(self):
        service = MigrationService(max_workers=2)
        bad = _job("Oracle-1", _config(completion_strategy="magic"))
        good = _job("Ambler-4")
        bad_handle, good_handle = service.submit_batch([bad, good])
        service.run()
        assert bad_handle.status is JobStatus.FAILED
        assert good_handle.status is JobStatus.DONE

    def test_pooled_jobs_stream_live_events(self):
        # Before the unified execution layer, max_workers > 1 delivered no
        # events at all (only post-hoc AttemptRecord summaries).
        events: dict[str, list] = {"Oracle-1": [], "Ambler-4": []}
        service = MigrationService(
            max_workers=2, on_event=lambda name, event: events[name].append(event)
        )
        handles = service.submit_batch([_job("Oracle-1"), _job("Ambler-4")])
        service.run()
        assert all(handle.status is JobStatus.DONE for handle in handles)
        for name, stream in events.items():
            assert stream, f"{name} streamed no events"
            assert isinstance(stream[0], VcSelected)
            assert any(event.kind == "solved" for event in stream)

    def test_single_job_pooled_batch_runs_in_worker(self):
        # A 1-job batch must still execute on a worker process: running the
        # pooled entry point inline would leak the worker-process globals
        # (shared pools/caches) into the parent.
        import repro.service as service_module

        pools_before = dict(service_module._process_pools)
        service = MigrationService(max_workers=2)
        (handle,) = service.submit_batch([_job("Oracle-1")])
        service.run()
        assert handle.status is JobStatus.DONE and handle.result.succeeded
        assert service_module._process_pools == pools_before

    def test_raising_on_event_does_not_fail_job(self):
        # Subscriber exceptions are isolated per event on BOTH transports
        # (recorded on the channel port, never propagated into the session),
        # so a buggy callback cannot flip a job's outcome between modes.
        def on_event(_name, _event):
            raise RuntimeError("buggy observer")

        for max_workers in (0, 2):
            service = MigrationService(max_workers=max_workers, on_event=on_event)
            (handle,) = service.submit_batch([_job("Oracle-1")])
            service.run()
            assert handle.status is JobStatus.DONE, max_workers
            assert handle.result.succeeded

    def test_pooled_cancel_mid_job(self):
        # Cancel the long enumerative job from its own live event stream:
        # the cancel signal must cross the process boundary and stop the
        # completion loop cooperatively, well before the ~20k-candidate
        # enumeration finishes.
        bench = get_benchmark("Oracle-2")
        job = MigrationJob("long", bench.source_program, bench.target_schema, _long_config())
        box: dict = {}

        def on_event(name, event):
            if isinstance(event, CandidateRejected):
                box["handle"].cancel()

        service = MigrationService(max_workers=2, on_event=on_event)
        (handle,) = service.submit_batch([job])
        box["handle"] = handle
        service.run()
        assert handle.status is JobStatus.CANCELLED
        assert handle.result is not None and handle.result.cancelled
        assert handle.result.iterations < 5000, "cancellation did not stop the worker"

    def test_killed_worker_is_retried_with_same_trajectory(self, monkeypatch, tmp_path):
        # Kill the worker running Oracle-1 once mid-batch: the scheduler's
        # crash recovery requeues the in-flight jobs onto a rebuilt pool, and
        # the job settles DONE with the exact in-process trajectory.
        import repro.service as service_module

        marker = tmp_path / "worker-crashed"
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(marker))
        monkeypatch.setenv("REPRO_TEST_CRASH_JOB", "Oracle-1")
        monkeypatch.setattr(
            service_module,
            "_real_run_job_for_test",
            service_module._run_job_in_worker,
            raising=False,
        )
        monkeypatch.setattr(service_module, "_run_job_in_worker", _crash_job_once)
        config = _config(counterexample_pool=False)
        names = ["Oracle-1", "Ambler-4"]
        service = MigrationService(max_workers=2)
        handles = service.submit_batch([_job(name, config) for name in names])
        service.run()
        assert marker.exists(), "the crash injection never fired"
        in_process = migrate_batch([_job(name, config) for name in names])
        for handle, reference in zip(handles, in_process):
            assert handle.status is JobStatus.DONE, handle.job.name
            assert handle.result.attempts == reference.attempts, handle.job.name
            assert format_program(handle.result.program) == format_program(
                reference.program
            ), handle.job.name


class TestWorkerCache:
    def test_worker_source_cache_capacity_only_grows(self):
        import repro.service as service_module
        from repro.service import _worker_cache

        saved = service_module._worker_source_cache
        service_module._worker_source_cache = None
        try:
            first = _worker_cache(100)
            assert first.max_entries == 100
            # A smaller request keeps the shared cache (and its entries)...
            assert _worker_cache(50) is first
            assert first.max_entries == 100
            # ... and a larger one grows it in place.
            assert _worker_cache(200) is first
            assert first.max_entries == 200
        finally:
            service_module._worker_source_cache = saved


class TestCrossTransportEquivalence:
    #: Registry slice for every tier-1 run; the full 20-workload sweep rides
    #: behind REPRO_FULL_EQUIV=1.
    QUICK = ["Oracle-1", "Ambler-3", "Ambler-5"]

    def _run(self, names: list[str], max_workers: int):
        events: dict[str, list] = {name: [] for name in names}
        service = MigrationService(
            max_workers=max_workers,
            on_event=lambda name, event: events[name].append(event),
        )
        handles = service.submit_batch([_job(name) for name in names])
        service.run()
        return handles, events

    def _assert_equivalent(self, names: list[str]):
        direct_handles, direct_events = self._run(names, 0)
        queued_handles, queued_events = self._run(names, 2)
        for name, direct, queued in zip(names, direct_handles, queued_handles):
            assert direct.status is queued.status is JobStatus.DONE, name
            # Same ordered event stream per job (queue events survive the
            # pickle round-trip with value equality)...
            assert direct_events[name] == queued_events[name], name
            # ... and the same trajectory on the results.
            assert _trajectory(direct.result) == _trajectory(queued.result), name

    def test_transports_equivalent_on_registry_slice(self):
        self._assert_equivalent(self.QUICK)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full 20-workload sweep; set REPRO_FULL_EQUIV=1",
    )
    def test_transports_equivalent_on_all_workloads(self):
        self._assert_equivalent(list(benchmark_names()))


class TestPriorityAndDeadline:
    def test_priority_orders_dispatch(self):
        first_event_order: list[str] = []

        def on_event(name, event):
            if name not in first_event_order:
                first_event_order.append(name)

        service = MigrationService(on_event=on_event)
        service.submit_batch(
            [
                _job("Oracle-1", priority=5),
                _job("Ambler-4", priority=1),
                _job("MathHotSpot", priority=3),
            ]
        )
        service.run()
        assert first_event_order == ["Ambler-4", "MathHotSpot", "Oracle-1"]

    def test_expired_deadline_skips_queued_job(self):
        service = MigrationService()
        ran, expired = service.submit_batch(
            [_job("Oracle-1"), _job("Ambler-4", deadline=0.0)]
        )
        service.run()
        assert ran.status is JobStatus.DONE
        assert expired.status is JobStatus.EXPIRED
        assert expired.result is None
        assert "deadline" in expired.error
        assert expired.done
        assert expired.to_dict()["status"] == "expired"

    def test_deadline_clips_running_job(self):
        # The long enumerative sketch would churn for a long time; a 0.5 s
        # job deadline must fold into its time_limit and stop it.
        bench = get_benchmark("Oracle-2")
        job = MigrationJob(
            "budgeted", bench.source_program, bench.target_schema, _long_config(),
            deadline=0.5,
        )
        service = MigrationService()
        (handle,) = service.submit_batch([job])
        service.run()
        assert handle.status is JobStatus.DONE
        assert handle.result is not None
        assert handle.result.timed_out and not handle.result.succeeded


class TestJobStoreAndResume:
    #: Distinct source programs: no observable cross-job sharing, so the
    #: resumed-vs-uninterrupted pinning is exact (same-source batches share
    #: counterexample pools, whose per-job observations depend on history).
    NAMES = ["Oracle-1", "Ambler-3", "Ambler-4"]

    def test_lifecycle_records_are_appended(self, recording_store):
        service = MigrationService(job_store=recording_store)
        service.submit_batch([_job("Oracle-1"), _job("Ambler-4")])
        service.run()
        records = recording_store.records
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record["job"])
        assert sorted(by_type["submitted"]) == ["Ambler-4", "Oracle-1"]
        assert sorted(by_type["running"]) == ["Ambler-4", "Oracle-1"]
        assert sorted(by_type["settled"]) == ["Ambler-4", "Oracle-1"]
        settled = [r for r in records if r["type"] == "settled"]
        assert all(r["status"] == "done" for r in settled)
        assert all(r["result"]["succeeded"] for r in settled)
        # Submission records carry the rebuild spec; settled records do not.
        assert all("spec" in r for r in records if r["type"] == "submitted")
        assert all("spec" not in r for r in settled)
        # The store folded them into one settled standing per job.
        standings = recording_store.load_jobs()
        assert sorted(standings) == ["Ambler-4", "Oracle-1"]
        assert all(entry.status == "done" for entry in standings.values())

    def test_resume_runs_only_unfinished_jobs_with_pinned_results(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        # Generation 1 settles the first two jobs...
        first = MigrationService(job_store=path)
        first.submit_batch([_job(name) for name in self.NAMES[:2]])
        first.run()
        # ... generation 2 submits the third and "crashes" before running it.
        interrupted = MigrationService(job_store=path)
        interrupted.submit_batch([_job(self.NAMES[2])])
        del interrupted

        ran: set[str] = set()
        resumed = MigrationService.resume(path, on_event=lambda name, _e: ran.add(name))
        assert sorted(h.job.name for h in resumed.handles) == sorted(self.NAMES)
        resumed.run()
        assert ran == {self.NAMES[2]}, "resume must run only the unfinished job"

        # Pinned: the combined batch is indistinguishable from one that was
        # never interrupted.
        uninterrupted = MigrationService()
        uninterrupted.submit_batch([_job(name) for name in self.NAMES])
        uninterrupted.run()
        expected = {h.job.name: h.to_dict() for h in uninterrupted.handles}
        for handle in resumed.handles:
            response = handle.to_dict()
            reference = expected[handle.job.name]
            assert response["status"] == reference["status"] == "done"
            assert response["result"]["attempts"] == reference["result"]["attempts"]
            assert response["result"]["program"] == reference["result"]["program"]
        # Restored handles serve recorded responses without rerunning.
        restored = [h for h in resumed.handles if h.restored]
        assert sorted(h.job.name for h in restored) == sorted(self.NAMES[:2])
        assert all(h.result is None and h.done for h in restored)

    def test_resume_reruns_job_interrupted_mid_run(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        service = MigrationService(job_store=path)
        handle = service.submit(_job("Oracle-1"))
        # Simulate dying mid-job: the store's last record says "running".
        service._store.record_running(handle)
        stored = service._store.load_jobs()["Oracle-1"]
        assert not stored.settled and stored.resumable

        resumed = MigrationService.resume(path)
        (rerun,) = resumed.handles
        assert rerun.status is JobStatus.PENDING and not rerun.restored
        resumed.run()
        assert rerun.status is JobStatus.DONE and rerun.result.succeeded

    def test_deferred_submissions_are_adopted_on_demand(self, tmp_path):
        # submit_deferred writes a store-only record (the job is not in the
        # live batch); adopt_unfinished pulls it in later — the deferred
        # pattern of the HTTP front.
        path = str(tmp_path / "jobs.sqlite")
        live = MigrationService(job_store=path)
        live.submit_batch([_job("Oracle-1")])
        live.run()
        live.submit_deferred(_job("Ambler-4"))
        assert [h.job.name for h in live.handles] == ["Oracle-1"]
        adopted = live.adopt_unfinished()
        assert [h.job.name for h in adopted] == ["Ambler-4"]
        assert live.adopt_unfinished() == []  # idempotent: already tracked
        live.run()
        assert adopted[0].status is JobStatus.DONE and adopted[0].result.succeeded

    def test_adopt_unfinished_on_fresh_store_is_empty(self, tmp_path):
        # Scanning a store nothing was submitted to must be a no-op, not an
        # error (the /resume route of a fresh HTTP front hits exactly this).
        service = MigrationService(job_store=str(tmp_path / "never-written.sqlite"))
        assert service.adopt_unfinished() == []
        with pytest.raises(ValueError):
            MigrationService().submit_deferred(_job("Oracle-1"))  # no store

    def test_resume_with_all_jobs_settled_is_a_noop(self, recording_store):
        service = MigrationService(job_store=recording_store)
        service.submit_batch([_job("Oracle-1")])
        service.run()
        written = len(recording_store.records)
        resumed = MigrationService.resume(recording_store)
        ran: list = []
        resumed._on_event = lambda name, _e: ran.append(name)
        resumed.run()
        assert not ran
        assert all(h.restored for h in resumed.handles)
        assert len(recording_store.records) == written, "no-op resume must not write"

    def test_load_ignores_torn_tail_record(self, recording_store, tmp_path):
        # A legacy JSONL log as an earlier service wrote it, torn mid-append:
        # the one-shot import keeps the intact history, so the settled job
        # resumes restored instead of rerunning.
        service = MigrationService(job_store=recording_store)
        service.submit_batch([_job("Oracle-1")])
        service.run()
        log = tmp_path / "legacy.jsonl"
        with open(log, "w", encoding="utf-8") as fh:
            for record in recording_store.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write('{"type": "settled", "job": "Oracle-1", "stat')  # torn write
        store = migrate_jsonl_to_sqlite(log, tmp_path / "imported.sqlite", fsync=False)
        assert store.load_jobs()["Oracle-1"].settled  # the intact history still wins
        (restored,) = MigrationService.resume(store).handles
        assert restored.restored and restored.to_dict()["status"] == "done"
        store.close()

    def test_resume_over_sqlite_store_is_pinned(self, tmp_path):
        # A sqlite: URL opens the same store a bare path does.
        path = "sqlite:" + str(tmp_path / "jobs.sqlite")
        first = MigrationService(job_store=path)
        first.submit_batch([_job("Oracle-1")])
        first.run()
        interrupted = MigrationService(job_store=path)
        interrupted.submit_batch([_job("Ambler-3")])
        del interrupted

        resumed = MigrationService.resume(path)
        resumed.run()
        reference = MigrationService()
        reference.submit_batch([_job("Oracle-1"), _job("Ambler-3")])
        reference.run()
        expected = {h.job.name: _trajectory(h.result) for h in reference.handles}
        for handle in resumed.handles:
            if handle.restored:
                assert handle.job.name == "Oracle-1"
                assert handle.to_dict()["status"] == "done"
            else:
                assert _trajectory(handle.result) == expected[handle.job.name]


class TestResumeRePinning:
    """resume() re-verifies stored specs against the current code/registry;
    anything unresolvable settles loudly as INCOMPATIBLE, never silently."""

    def _crashed_store(self, tmp_path, job) -> str:
        """A store whose only job died mid-run (last record: running)."""
        path = str(tmp_path / "jobs.sqlite")
        service = MigrationService(job_store=path)
        handle = service.submit(job)
        service._store.record_running(handle)
        return path

    def test_workload_job_repins_to_current_registry_program(self, tmp_path):
        path = self._crashed_store(tmp_path, _job("Oracle-1", workload="Oracle-1"))
        resumed = MigrationService.resume(path)
        (handle,) = resumed.handles
        assert handle.status is JobStatus.PENDING
        # The decoded pickle's program was swapped for the live registry
        # object — resume runs current code, the pin just proves it matches.
        assert handle.job.source_program is get_benchmark("Oracle-1").source_program
        resumed.run()
        assert handle.result.succeeded

    def test_vanished_workload_is_incompatible(self, tmp_path):
        job = _job("Oracle-1", workload="Retired-99")  # never in the registry
        path = self._crashed_store(tmp_path, job)
        resumed = MigrationService.resume(path)
        (handle,) = resumed.handles
        assert handle.status is JobStatus.INCOMPATIBLE
        assert handle.done and handle.result is None
        assert "gone from the registry" in handle.error
        # The verdict is terminal and persisted: the job is settled in the
        # store, and a second resume restores it instead of re-judging.
        stored = resumed._store.load_jobs()["Oracle-1"]
        assert stored.settled and stored.status == "incompatible"
        again = MigrationService.resume(path)
        (restored,) = again.handles
        assert restored.restored and restored.to_dict()["status"] == "incompatible"

    def test_drifted_workload_pin_is_incompatible(self, tmp_path):
        # The workload still exists, but its registry program is not the one
        # the spec was pinned against (registry drift between generations).
        job = _job("Oracle-1", workload="coachup")  # wrong program for the pin
        path = self._crashed_store(tmp_path, job)
        resumed = MigrationService.resume(path)
        (handle,) = resumed.handles
        assert handle.status is JobStatus.INCOMPATIBLE
        assert "no longer matches the stored pin" in handle.error

    def test_tampered_pin_is_incompatible(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "jobs.sqlite", fsync=False)
        MigrationService(job_store=store).submit_deferred(_job("Oracle-1"))
        record = store.load_jobs()["Oracle-1"].last
        assert record["pin"]["source"]
        record["pin"]["source"] = "deadbeefdeadbeef"
        store.append(record)  # the tampered submission replaces the real one

        resumed = MigrationService.resume(store)
        (handle,) = resumed.handles
        assert handle.status is JobStatus.INCOMPATIBLE
        assert "submission pin" in handle.error
        assert store.load_jobs()["Oracle-1"].status == "incompatible"
        store.close()

    def test_incompatible_jobs_do_not_block_the_batch(self, tmp_path):
        path = self._crashed_store(tmp_path, _job("Oracle-1", workload="Retired-99"))
        more = MigrationService(job_store=path)
        more.submit_deferred(_job("Ambler-4"))
        resumed = MigrationService.resume(path)
        resumed.run()
        by_name = {h.job.name: h for h in resumed.handles}
        assert by_name["Oracle-1"].status is JobStatus.INCOMPATIBLE
        assert by_name["Ambler-4"].status is JobStatus.DONE
        assert by_name["Ambler-4"].result.succeeded

    def test_retired_parallel_fields_in_stored_config_are_inert(self, tmp_path):
        # A 3.x spec pickled SynthesisConfig with the three wave-parallel
        # fields, a 4.x spec with the VC engine choice; unpickling restores
        # them as plain attributes that nothing reads, so the job resumes
        # and runs sequentially on the factored VC engine.
        config = _config()
        config.parallel_workers = 2
        config.parallel_wave_size = 1
        config.execution_fleet = ("127.0.0.1:9",)
        config.vc_engine = "maxsat"
        path = self._crashed_store(tmp_path, _job("Oracle-1", config, workload="Oracle-1"))
        resumed = MigrationService.resume(path)
        (handle,) = resumed.handles
        assert handle.status is JobStatus.PENDING
        assert handle.job.config.parallel_workers == 2  # the pickle kept it
        assert handle.job.config.vc_engine == "maxsat"
        resumed.run()
        assert handle.status is JobStatus.DONE
        assert handle.result.succeeded

    def test_retired_execution_backend_settles_failed(self, tmp_path):
        # A 2.x spec may name the retired "columnar" backend: it passes the
        # pins (the config is not part of them), runs, and settles FAILED
        # with the backend error instead of running on another engine.
        path = str(tmp_path / "jobs.sqlite")
        MigrationService(job_store=path).submit_deferred(
            _job("Oracle-1", _config(execution_backend="columnar"), workload="Oracle-1")
        )
        resumed = MigrationService.resume(path)
        resumed.run()
        (handle,) = resumed.handles
        assert handle.status is JobStatus.FAILED
        assert "unknown execution backend 'columnar'" in handle.error
        assert resumed._store.load_jobs()["Oracle-1"].status == "failed"


class TestCompiledClosureSharing:
    def test_same_schema_jobs_share_compiled_closures(self):
        # Two identical-schema jobs in one batch: the second must reuse the
        # first's compiled closures (the shared ProgramCompiler), observable
        # as cache counters well above a cold solo run's.
        bench = get_benchmark("coachup")
        config = _config()
        jobs = [
            MigrationJob("warm-a", bench.source_program, bench.target_schema, config),
            MigrationJob("warm-b", bench.source_program, bench.target_schema, config),
        ]
        warm_a, warm_b = MigrationService().migrate_batch(jobs)
        cold = migrate(bench.source_program, bench.target_schema, config)
        # The first job pays the compilations; the second reuses its closures
        # (it still *executes* via the cache, hence nonzero hits) and
        # compiles strictly less than a cold run — ideally nothing at all.
        assert warm_a.cache.compiled_function_misses == cold.cache.compiled_function_misses
        assert warm_b.cache.compiled_function_hits > 0
        assert warm_b.cache.compiled_function_misses < cold.cache.compiled_function_misses

    def test_counters_serialize_in_job_responses(self):
        service = MigrationService()
        (handle,) = service.submit_batch([_job("Oracle-1")])
        service.run()
        cache = handle.to_dict()["result"]["cache"]
        assert "compiled_function_hits" in cache
        assert "compiled_function_misses" in cache
