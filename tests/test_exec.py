"""Tests for the unified execution layer (repro.exec).

Covers the priority/deadline scheduler inline and on its local fleet of
forked worker processes, cross-process cancellation, crash recovery (a
killed worker's task re-leased, peers uncharged, worker-killing tasks
quarantined, lost workers replaced), direct vs local-fleet stream
equivalence at the scheduler level, and the ExecutorUnavailable hand-back
when worker processes cannot start.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.exec import (
    ExecutorUnavailable,
    RetryPolicy,
    TaskState,
    WorkerLost,
    WorkScheduler,
)
from repro.exec.remote import LocalFleet


# ------------------------------------------------------------ worker bodies
# Module-level so they pickle by reference (forked workers hold this module).
def _double(payload, ctx):
    return payload * 2


def _crash_once(payload, ctx):
    # Kill the worker process outright on the first run (simulating a hard
    # crash — no exception, no cleanup); succeed on the retry.
    if not os.path.exists(payload):
        open(payload, "w").close()
        os._exit(1)
    return "recovered"


def _always_crash(payload, ctx):
    os._exit(1)


def _boom(payload, ctx):
    raise ValueError(f"boom {payload}")


def _emit_range(payload, ctx):
    for i in range(payload):
        ctx.emit(i)
    return payload


def _emit_and_poll(payload, ctx):
    for i in range(payload):
        ctx.emit(i)
        if ctx.cancel_event.is_set():
            return ("cancelled", i)
    return ("done", payload)


def _run_until_cancelled(payload, ctx):
    deadline = time.time() + payload
    ticks = 0
    while time.time() < deadline:
        if ctx.cancel_event.is_set():
            return ("cancelled", ticks)
        time.sleep(0.005)
        ticks += 1
    return ("timed-out", ticks)


# --------------------------------------------------------- inline scheduler
class TestInlineScheduler:
    def test_priority_orders_execution(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)
            return payload

        with WorkScheduler(max_workers=0) as scheduler:
            handles = [
                scheduler.submit(record, name, priority=priority)
                for name, priority in [("low", 5), ("high", 1), ("mid", 3)]
            ]
            scheduler.drain()
        assert order == ["high", "mid", "low"]
        assert all(handle.state is TaskState.DONE for handle in handles)

    def test_equal_priority_is_fifo(self):
        order: list = []

        def record(payload, ctx):
            order.append(payload)

        with WorkScheduler(max_workers=0) as scheduler:
            for i in range(4):
                scheduler.submit(record, i)
            scheduler.drain()
        assert order == [0, 1, 2, 3]

    def test_failure_is_isolated(self):
        with WorkScheduler(max_workers=0) as scheduler:
            bad = scheduler.submit(_boom, 1)
            good = scheduler.submit(_double, 21)
            scheduler.drain()
        assert bad.state is TaskState.FAILED
        assert "boom 1" in bad.error
        assert isinstance(bad.exception, ValueError)
        assert good.state is TaskState.DONE and good.result == 42

    def test_cancel_pending_task_skips_it(self):
        box: dict = {}
        with WorkScheduler(max_workers=0) as scheduler:
            first = scheduler.submit(
                _emit_range, 3, on_event=lambda _event: box["second"].cancel()
            )
            box["second"] = scheduler.submit(_double, 4)
            scheduler.drain()
        assert first.state is TaskState.DONE
        assert box["second"].state is TaskState.CANCELLED
        assert box["second"].result is None

    def test_cancel_running_task_from_event_callback(self):
        box: dict = {}
        with WorkScheduler(max_workers=0) as scheduler:
            box["h"] = scheduler.submit(
                _emit_and_poll,
                100,
                on_event=lambda event: box["h"].cancel() if event == 3 else None,
            )
            scheduler.drain()
        # The work function observed the cooperative signal mid-run.
        assert box["h"].state is TaskState.DONE
        assert box["h"].result == ("cancelled", 3)

    def test_past_deadline_expires_without_running(self):
        with WorkScheduler(max_workers=0) as scheduler:
            handle = scheduler.submit(_double, 2, deadline=time.time() - 1.0)
            alive = scheduler.submit(_double, 3)
            scheduler.drain()
        assert handle.state is TaskState.EXPIRED
        assert alive.state is TaskState.DONE and alive.result == 6


# --------------------------------------------------------- pooled scheduler
class TestPooledScheduler:
    def test_results_and_failures_cross_the_boundary(self):
        with WorkScheduler(max_workers=2) as scheduler:
            good = scheduler.submit(_double, 5)
            bad = scheduler.submit(_boom, 2)
            scheduler.drain()
        assert good.state is TaskState.DONE and good.result == 10
        assert bad.state is TaskState.FAILED
        assert isinstance(bad.exception, ValueError) and "boom 2" in bad.error

    def test_events_stream_live_and_complete(self):
        events: list = []
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_emit_range, 8, on_event=events.append)
            scheduler.drain()
        # Settling waits for the stream drain: nothing arrives late.
        assert handle.state is TaskState.DONE and handle.result == 8
        assert events == list(range(8))

    def test_cross_process_cancel_stops_running_task(self):
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_run_until_cancelled, 20.0)
            cancelled_from = []

            def cancel_soon(event=None):
                handle.cancel()
                cancelled_from.append(True)

            # Cancel shortly after dispatch, from the draining thread's
            # perspective an external thread.
            timer = threading.Timer(0.3, cancel_soon)
            timer.start()
            try:
                scheduler.drain()
            finally:
                timer.cancel()
        assert handle.state is TaskState.DONE
        assert handle.result[0] == "cancelled"

    def test_deadline_nudges_cooperative_cancel(self):
        # The work function ignores its payload budget for 8 s but polls the
        # cancel signal; the scheduler's deadline nudge must stop it early.
        started = time.perf_counter()
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(
                _run_until_cancelled, 8.0, deadline=time.time() + 0.4
            )
            scheduler.drain()
        elapsed = time.perf_counter() - started
        assert handle.state is TaskState.DONE
        assert handle.result[0] == "cancelled"
        assert elapsed < 6.0, f"deadline nudge too slow: {elapsed:.1f}s"

    def test_cross_transport_streams_are_identical(self):
        def run(workers: int):
            events: list = []
            with WorkScheduler(max_workers=workers) as scheduler:
                handle = scheduler.submit(_emit_and_poll, 6, on_event=events.append)
                scheduler.drain()
            return events, handle.result, handle.state

        direct = run(0)
        forked = run(2)
        assert direct == forked
        assert direct[0] == list(range(6))

    def test_local_fleet_opens_no_port(self):
        # Local workers hold one end of a socketpair each: there is no
        # listener another process could register on or take work from.
        with WorkScheduler(max_workers=2) as scheduler:
            scheduler.submit(_double, 1)
            scheduler.drain()
            fleet = scheduler._fleet
            assert fleet.bound_address is None
            families = {link.sock.family for link in fleet._links.values()}
        assert len(families) == 1
        assert not families & {socket.AF_INET, socket.AF_INET6}

    def test_slow_subscriber_costs_no_worker(self):
        # Heartbeats every 0.1 s, leases expire after 0.5 s of silence, and
        # the subscriber needs about 1.5 s for the task's events, so the
        # worker's heartbeats wait behind the event backlog in the stream.
        # Flow control slows the worker down; it never loses its lease.
        fleet = LocalFleet(1)
        fleet.heartbeat_interval, fleet.lease_ttl = 0.1, 0.5
        events: list = []

        def slow(event):
            time.sleep(0.015)
            events.append(event)

        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                handle = scheduler.submit(_emit_range, 100, on_event=slow)
                scheduler.drain()
        finally:
            fleet.close()
        assert handle.state is TaskState.DONE and handle.result == 100
        assert events == list(range(100))
        assert scheduler.stats.workers_lost == 0
        assert scheduler.stats.task_retries == 0
        assert scheduler.stats.events_dropped == 0


# ------------------------------------------------------------ crash recovery
class TestCrashRetry:
    def test_killed_worker_task_is_requeued_and_recovers(self, tmp_path):
        # The task hard-kills its worker process on the first run and
        # succeeds on the re-lease.  The peer task, leased to the other
        # worker, is not charged for the crash.
        marker = str(tmp_path / "crash-once")
        with WorkScheduler(max_workers=2) as scheduler:
            crash = scheduler.submit(_crash_once, marker, name="crash-once")
            peer = scheduler.submit(_double, 21)
            scheduler.drain()
        stats = scheduler.stats
        assert crash.state is TaskState.DONE
        assert crash.result == "recovered"
        assert crash.retries == 1
        assert peer.state is TaskState.DONE and peer.result == 42
        assert peer.retries == 0
        assert stats.task_retries == 1
        assert stats.workers_lost == 1
        assert stats.tasks_done == 2 and stats.tasks_failed == 0

    def test_worker_killer_is_quarantined_without_wholesale_fallback(self):
        # A task that kills its worker every time settles QUARANTINED with
        # the WorkerLost error once it has taken down more than
        # quarantine_after workers — drain() does not raise
        # ExecutorUnavailable — and the scheduler keeps working: the lost
        # workers are replaced and a later task runs on them.
        retry = RetryPolicy(quarantine_after=1)
        with WorkScheduler(max_workers=2, retry=retry) as scheduler:
            doomed = scheduler.submit(_always_crash, None, name="doomed")
            scheduler.drain()  # must NOT raise
            later = scheduler.submit(_double, 21)
            scheduler.drain()
            assert scheduler._fleet.capacity == 2
        stats = scheduler.stats
        assert doomed.state is TaskState.QUARANTINED
        assert doomed.worker_losses == 2  # first loss + one re-lease, then quarantine
        assert isinstance(doomed.exception, WorkerLost)
        assert "WorkerLost" in doomed.error
        assert later.state is TaskState.DONE and later.result == 42
        assert stats.tasks_quarantined == 1 and stats.tasks_done == 1
        assert stats.task_retries == 1
        assert stats.workers_lost == 2

    def test_idle_worker_killed_is_replaced_before_next_drain(self):
        # A worker killed between drains holds no lease, so no task is
        # charged; the next drain forks its replacement before dispatching
        # and runs at full width.
        with WorkScheduler(max_workers=2) as scheduler:
            scheduler.submit(_double, 1)
            scheduler.drain()
            fleet = scheduler._fleet
            os.kill(fleet._workers[0][0].pid, signal.SIGKILL)
            deadline = time.time() + 10.0
            while fleet.capacity == 2 and time.time() < deadline:
                time.sleep(0.01)
            assert fleet.capacity == 1
            widths: list = []
            handles = [
                scheduler.submit(
                    _double, index, on_start=lambda: widths.append(fleet.capacity)
                )
                for index in range(2)
            ]
            scheduler.drain()
            assert fleet.capacity == scheduler.max_workers
        assert widths == [2, 2]
        assert [handle.result for handle in handles] == [0, 2]
        assert scheduler.stats.workers_lost == 1
        assert scheduler.stats.task_retries == 0


# ----------------------------------------------------- executor degradation
class TestExecutorUnavailable:
    def test_drain_raises_and_requeues(self, monkeypatch):
        import repro.exec.remote as remote_module

        class NoProcesses:
            def Process(self, *_args, **_kwargs):
                raise OSError("no worker processes on this platform")

        monkeypatch.setattr(remote_module, "_mp_context", NoProcesses)
        with WorkScheduler(max_workers=2) as scheduler:
            handle = scheduler.submit(_double, 1)
            with pytest.raises(ExecutorUnavailable):
                scheduler.drain()
            assert handle.state is TaskState.PENDING  # ready for a fallback path
