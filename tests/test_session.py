"""Tests for the streaming session API (repro.core.session).

Covers the event taxonomy, event-stream/final-result consistency,
cancellation mid-completion, the run-wide deadline threaded into sketch
completion, re-entrant consumption, and result serialization.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback

import pytest

from repro import SynthesisConfig, format_program, migrate
from repro.api import (
    TERMINAL_EVENTS,
    BudgetExhausted,
    BudgetTimeout,
    Cancelled,
    CandidateRejected,
    SketchGenerated,
    Solved,
    SynthesisSession,
    VcSelected,
)
from repro.workloads import benchmark_names, get_benchmark


def _config(**overrides) -> SynthesisConfig:
    config = SynthesisConfig()
    config.verifier_random_sequences = 10
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _comparable(result) -> tuple:
    """Everything except wall-clock fields, for byte-identical comparisons."""
    cache = dataclasses.asdict(result.cache)
    cache.pop("screening_time")
    return (
        result.succeeded,
        result.timed_out,
        result.cancelled,
        result.value_correspondences_tried,
        result.iterations,
        result.attempts,
        None if result.program is None else format_program(result.program),
        result.correspondence,
        cache,
    )


class TestEventStream:
    def test_successful_run_event_shape(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        events = list(session.events())
        assert session.finished
        # The stream starts by selecting the first correspondence and ends
        # with exactly one terminal event.
        assert isinstance(events[0], VcSelected)
        assert events[0].index == 1
        assert any(isinstance(event, SketchGenerated) for event in events)
        terminals = [event for event in events if isinstance(event, TERMINAL_EVENTS)]
        assert len(terminals) == 1
        assert isinstance(events[-1], Solved)

    def test_event_stream_matches_result(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        events = list(session.events())
        result = session.result
        assert result.succeeded
        # One VcSelected per attempted correspondence, in index order.
        selections = [event for event in events if isinstance(event, VcSelected)]
        assert [event.index for event in selections] == list(
            range(1, result.value_correspondences_tried + 1)
        )
        # Candidate rejections + the solved candidate account for the
        # completion iterations of the recorded attempts.
        rejections = [event for event in events if isinstance(event, CandidateRejected)]
        solved = [event for event in events if isinstance(event, Solved)]
        assert solved[0].iterations == result.attempts[-1].iterations
        assert len(rejections) <= result.iterations
        # The per-attempt summaries reflect the same stream.
        assert result.attempts[-1].events[-1].startswith("solved")

    def test_budget_exhausted_when_no_solution(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        session = SynthesisSession(people_program, target, _config())
        events = list(session.events())
        assert not session.result.succeeded
        assert isinstance(events[-1], BudgetExhausted)

    def test_on_event_callback_sees_every_event(self, course_program, course_target_schema):
        streamed: list = []
        session = SynthesisSession(
            course_program, course_target_schema, _config(), on_event=streamed.append
        )
        pulled = list(session.events())
        assert streamed == pulled

    def test_reentrant_consumption(self):
        # Events are delivered at attempt granularity, so a multi-attempt
        # workload (Ambler-5 tries 4 correspondences) can be paused midway:
        # the first attempt's events arrive while later attempts are pending.
        bench = get_benchmark("Ambler-5")
        session = SynthesisSession(bench.source_program, bench.target_schema, _config())
        stream = session.events()
        first = next(stream)
        assert isinstance(first, VcSelected)
        assert not session.finished
        assert session.result.value_correspondences_tried < 4
        # run() resumes the same stream instead of restarting the run.
        result = session.run()
        assert session.finished
        assert result.succeeded
        assert result.value_correspondences_tried == 4


class TestByteIdenticalWithMigrate:
    #: Small-but-representative slice for every tier-1 run; the full registry
    #: sweep rides behind REPRO_FULL_EQUIV=1 (it synthesizes all 20 twice).
    QUICK = ["Oracle-1", "Oracle-2", "Ambler-3", "Ambler-5"]

    @pytest.mark.parametrize("name", QUICK)
    def test_session_matches_migrate(self, name):
        bench = get_benchmark(name)
        blocking = migrate(bench.source_program, bench.target_schema, _config())
        session = SynthesisSession(bench.source_program, bench.target_schema, _config())
        streamed = session.run()
        assert _comparable(blocking) == _comparable(streamed)

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full 20-workload sweep; set REPRO_FULL_EQUIV=1",
    )
    def test_all_registry_workloads_match(self):
        for name in benchmark_names():
            bench = get_benchmark(name)
            blocking = migrate(bench.source_program, bench.target_schema, SynthesisConfig())
            streamed = SynthesisSession(
                bench.source_program, bench.target_schema, SynthesisConfig()
            ).run()
            assert _comparable(blocking) == _comparable(streamed), name


class TestCancellation:
    def test_cancel_before_start(self, course_program, course_target_schema):
        session = SynthesisSession(course_program, course_target_schema, _config())
        session.cancel()
        events = list(session.events())
        result = session.result
        assert result.cancelled and not result.succeeded and not result.timed_out
        assert isinstance(events[-1], Cancelled)
        assert result.attempts == []
        assert result.status == "CANCELLED"

    def test_cancel_mid_completion(self):
        # Ambler-3's first sketch rejects several candidates before solving;
        # cancelling from the rejection callback stops the completion loop
        # at its next iteration — mid-sketch, not between correspondences.
        bench = get_benchmark("Ambler-3")

        def on_event(event):
            if isinstance(event, CandidateRejected):
                session.cancel()

        session = SynthesisSession(
            bench.source_program, bench.target_schema, _config(), on_event=on_event
        )
        result = session.run()
        assert result.cancelled and not result.succeeded
        assert result.attempts, "the interrupted attempt must still be recorded"
        assert result.attempts[-1].failure_reason == "cancelled"
        baseline = migrate(bench.source_program, bench.target_schema, _config())
        assert result.iterations < baseline.iterations

    def test_cancelled_attempt_events_summary(self):
        bench = get_benchmark("Ambler-3")

        def on_event(event):
            if isinstance(event, CandidateRejected):
                session.cancel()

        session = SynthesisSession(
            bench.source_program, bench.target_schema, _config(), on_event=on_event
        )
        result = session.run()
        assert any("candidate_rejected" in entry for entry in result.attempts[-1].events)
        assert not any("solved" in entry for entry in result.attempts[-1].events)


class TestDeadline:
    def test_zero_time_limit_flags_timeout(self, course_program, course_target_schema):
        session = SynthesisSession(
            course_program, course_target_schema, _config(time_limit=0.0)
        )
        events = list(session.events())
        assert session.result.timed_out and not session.result.succeeded
        assert isinstance(events[-1], BudgetTimeout)

    def test_deadline_stops_long_sketch_mid_completion(self):
        # The enumerative strategy on Oracle-2 without iteration caps churns
        # through thousands of candidates on one sketch; before the deadline
        # redesign the global time_limit was only checked *between* VCs, so
        # this run would overshoot its budget by the whole sketch.
        bench = get_benchmark("Oracle-2")
        config = _config(
            completion_strategy="enumerative",
            counterexample_pool=False,
            final_verification=False,
            max_iterations_per_sketch=None,
            time_limit=1.0,
        )
        started = time.perf_counter()
        result = SynthesisSession(bench.source_program, bench.target_schema, config).run()
        elapsed = time.perf_counter() - started
        assert result.timed_out and not result.succeeded
        assert elapsed < 5.0, f"deadline overshot: {elapsed:.1f}s for a 1s budget"
        assert result.attempts[-1].failure_reason == "time limit reached"

    def test_deadline_stops_deep_verification_pass(self, monkeypatch):
        # coachup's verification pass dominates its run.  A deadline landing
        # inside that pass must interrupt it — the verifier polls the
        # session's deadline check once per block of its exhaustive phase —
        # instead of letting the run overshoot by the whole pass.  The
        # deadline "passes" at the verifier's fifth poll, so the outcome does
        # not depend on how fast the pass runs.
        from repro.equivalence import TestingInterrupted
        from repro.equivalence.verifier import BoundedVerifier

        trip_at = 5
        polls: list[None] = []
        stopped_in: list[str] = []
        original = BoundedVerifier.verify

        def verify(self, source, candidate):
            deadline_check = self.interrupt
            assert deadline_check is not None, "the session installs a deadline check"

            def check() -> bool:
                polls.append(None)
                return len(polls) >= trip_at or deadline_check()

            self.interrupt = check
            try:
                return original(self, source, candidate)
            except TestingInterrupted as stop:
                stopped_in.append(traceback.extract_tb(stop.__traceback__)[-1].name)
                raise
            finally:
                self.interrupt = deadline_check

        monkeypatch.setattr(BoundedVerifier, "verify", verify)
        bench = get_benchmark("coachup")
        config = _config(
            verifier_max_updates=3, verifier_random_sequences=300, time_limit=3600.0
        )
        result = SynthesisSession(bench.source_program, bench.target_schema, config).run()
        assert result.timed_out and not result.succeeded
        assert result.attempts[-1].failure_reason == "time limit reached"
        assert len(polls) == trip_at
        assert stopped_in == ["first_failing"]

    def test_verifier_interrupt_hook(self, course_program):
        from repro.equivalence import BoundedVerifier, TestingInterrupted

        verifier = BoundedVerifier(max_updates=2, random_sequences=10)
        verifier.interrupt = lambda: True
        with pytest.raises(TestingInterrupted):
            verifier.verify(course_program, course_program)


class TestSerialization:
    def test_result_to_dict_round_trips_json(self, course_program, course_target_schema):
        result = migrate(course_program, course_target_schema, _config())
        payload = json.loads(result.to_json())
        assert payload["succeeded"] is True
        assert payload["status"] == "OK"
        assert payload["source_program"] == course_program.name
        assert payload["program"] == format_program(result.program)
        assert payload["iterations"] == result.iterations
        assert payload["attempts"][0]["vc_weight"] == result.attempts[0].vc_weight
        assert payload["attempts"][0]["events"] == list(result.attempts[0].events)
        assert payload["cache"]["pool_hits"] == result.cache.pool_hits

    def test_to_dict_can_exclude_program(self, course_program, course_target_schema):
        result = migrate(course_program, course_target_schema, _config())
        payload = result.to_dict(include_program=False)
        assert payload["program"] is None
        assert payload["succeeded"] is True

    def test_failed_result_serializes(self, people_program):
        from repro.datamodel import DataType as T, make_schema

        target = make_schema("bad", {"Person": {"PersonId": T.INT, "Age": T.INT}})
        result = migrate(people_program, target, _config())
        payload = json.loads(result.to_json())
        assert payload["succeeded"] is False
        assert payload["program"] is None
        assert payload["status"] == "FAILED"

    def test_attempt_record_is_keyword_only(self):
        from repro.core.result import AttemptRecord

        with pytest.raises(TypeError):
            AttemptRecord(1, 2, 3, 4, False, "")  # positional construction is fragile
        record = AttemptRecord(vc_weight=1, succeeded=True)
        assert record.sketch_holes == 0 and record.events == ()
