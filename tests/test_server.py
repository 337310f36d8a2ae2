"""The multi-tenant service front (repro.server).

Layers under test, bottom up:

* tenants / quotas / stride pacing — pure-Python admission mechanics;
* the SSE bridge — sequencing, persist-before-fanout, bounded-queue
  shedding, subscription release, subscriptions churning on threads;
* the synchronous :class:`ServiceFront` core — durable-deferred admission,
  duplicate rejection, backlog cancellation;
* the HTTP surface over a real listening :class:`ServerThread` — auth,
  submission and its validation, quota 429s, tenant visibility,
  keep-alive after early answers, malformed ``Content-Length``, route
  failures, SSE streaming with ``Last-Event-ID`` resume (including across
  a server restart over the SQLite store), disconnect and stop cleanup;
* equivalence — server-submitted jobs settle with the same trajectories as
  direct :class:`MigrationService` runs (full registry sweep behind
  ``REPRO_FULL_EQUIV=1``);
* the CI server smoke (``REPRO_SERVER_SMOKE=1``): a real ``python -m
  repro.server`` subprocess, mixed two-tenant batch, rate-limit 429, SSE
  first-event latency, kill -9 mid-batch, resume from the SQLite store
  with pinned results.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import MigrationJob, MigrationService, SynthesisConfig
from repro.jobstore import SQLiteJobStore
from repro.server import (
    EventHub,
    QuotaExceeded,
    QuotaGate,
    ServerThread,
    ServiceFront,
    StridePacer,
    Tenant,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    event_payload,
    format_frame,
)
from repro.server.routes import _build_jobs
from repro.server.sse import jsonable
from repro.workloads import benchmark_names, get_benchmark

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {"verifier_random_sequences": 10}


def _config(**overrides) -> SynthesisConfig:
    config = SynthesisConfig()
    config.verifier_random_sequences = 10
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


# ------------------------------------------------------------------- tenants
class TestTenantRegistry:
    def test_resolve_by_key(self):
        registry = TenantRegistry([Tenant(name="acme", api_key="k1", weight=2)])
        tenant = registry.resolve("k1")
        assert tenant.name == "acme" and tenant.weight == 2
        assert registry.resolve("wrong") is None
        assert registry.resolve("") is None
        assert not registry.open

    def test_open_registry_resolves_everything_to_public(self):
        registry = TenantRegistry()
        assert registry.open
        tenant = registry.resolve("anything")
        assert tenant.name == "public"
        # The implicit tenant is unlimited on every axis.
        assert tenant.quota.max_queued == 0 and tenant.quota.submit_rate == 0.0

    def test_duplicate_names_and_keys_rejected(self):
        registry = TenantRegistry([Tenant(name="a", api_key="k1")])
        with pytest.raises(ValueError, match="already registered"):
            registry.add(Tenant(name="a", api_key="k2"))
        with pytest.raises(ValueError, match="already in use"):
            registry.add(Tenant(name="b", api_key="k1"))

    def test_from_specs(self):
        registry = TenantRegistry.from_specs(["acme:k1:3", "zed:k2"])
        assert registry.resolve("k1").weight == 3
        assert registry.resolve("k2").weight == 1
        with pytest.raises(ValueError, match="name:key"):
            TenantRegistry.from_specs(["lonely"])

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "acme",
                        "api_key": "k1",
                        "weight": 2,
                        "quota": {"max_queued": 5, "submit_rate": 1.5},
                    }
                ]
            )
        )
        tenant = TenantRegistry.from_file(str(path)).resolve("k1")
        assert tenant.quota.max_queued == 5
        assert tenant.quota.submit_rate == 1.5
        assert tenant.quota.max_running == TenantQuota().max_running  # default


# -------------------------------------------------------------------- quotas
class TestTokenBucket:
    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(0.0, 1)
        assert all(bucket.try_take() is None for _ in range(100))

    def test_burst_exhaustion_returns_wait_hint(self):
        bucket = TokenBucket(5.0, 3)
        assert [bucket.try_take() for _ in range(3)] == [None, None, None]
        wait = bucket.try_take()
        assert wait is not None and 0.0 < wait <= 0.2  # 1 token at 5/s

    def test_tokens_refill_over_time(self):
        bucket = TokenBucket(10.0, 1)
        assert bucket.try_take() is None
        assert bucket.try_take() is not None
        bucket._updated -= 1.0  # simulate a second passing
        assert bucket.try_take() is None

    def test_takes_at_one_instant_never_refill(self):
        bucket = TokenBucket(10.0, 2)
        now = bucket._updated + 1.0
        assert [bucket.try_take(now) for _ in range(2)] == [None, None]
        assert bucket.try_take(now) is not None
        # An instant older than the last charge refills nothing.
        assert bucket.try_take(now - 5.0) is not None


class TestQuotaGate:
    def _tenant(self, **quota) -> Tenant:
        return Tenant(name="t", quota=TenantQuota(**quota))

    def test_queue_depth_refusal_and_release(self):
        gate = QuotaGate()
        tenant = self._tenant(max_queued=2, submit_rate=0.0)
        gate.admit_submit(tenant)
        gate.admit_submit(tenant)
        with pytest.raises(QuotaExceeded, match="max_queued=2"):
            gate.admit_submit(tenant)
        gate.forget("t")
        gate.admit_submit(tenant)  # a settled job frees its slot
        assert gate.queued("t") == 2

    def test_rate_refusal_carries_retry_after(self):
        gate = QuotaGate()
        tenant = self._tenant(max_queued=0, submit_rate=100.0, burst=1)
        gate.admit_submit(tenant)
        with pytest.raises(QuotaExceeded) as excinfo:
            gate.admit_submit(tenant)
        assert excinfo.value.retry_after > 0

    def test_forget_refunds_failed_submission(self):
        gate = QuotaGate()
        tenant = self._tenant(submit_rate=0.0)
        gate.admit_submit(tenant)
        gate.forget("t")
        assert gate.queued("t") == 0


class TestStridePacer:
    def test_weight_two_gets_twice_the_share(self):
        pacer = StridePacer()
        heavy = Tenant(name="heavy", weight=2)
        light = Tenant(name="light", weight=1)
        # Alternating submissions: the weight-2 tenant's pass climbs 5000 a
        # job, the weight-1 tenant's 10000 — so per stretch of virtual time
        # heavy lands twice the slots (priority = dispatch order).
        trace = [
            pacer.next_priority(heavy),  # vt 0      -> 5000
            pacer.next_priority(light),  # vt 5000   -> 15000
            pacer.next_priority(heavy),  #           -> 10000
            pacer.next_priority(light),  #           -> 25000
            pacer.next_priority(heavy),  #           -> 15000
            pacer.next_priority(heavy),  #           -> 20000
        ]
        assert trace == [5000, 15000, 10000, 25000, 15000, 20000]
        # heavy fits four dispatch slots in the span light uses for two.
        assert max(trace[::2] + trace[5:]) <= 20000 < trace[3]

    def test_idle_tenant_rejoins_at_virtual_time(self):
        pacer = StridePacer()
        busy = Tenant(name="busy", weight=1)
        sleeper = Tenant(name="sleeper", weight=1)
        pacer.next_priority(sleeper)  # pass 10000, then idles
        for _ in range(5):
            pacer.next_priority(busy)  # pass climbs to 50000
        # Rejoining starts from the current virtual time (min outstanding
        # pass = 10000), not from zero — idling banked exactly one stride.
        assert pacer.next_priority(sleeper) == 20000
        assert pacer.next_priority(sleeper) == 30000


# ----------------------------------------------------------------- SSE bits
class TestSSEPayloads:
    def test_format_frame_shape(self):
        frame = format_frame(7, {"kind": "solved", "index": 1})
        assert frame == b'id: 7\nevent: solved\ndata: {"index": 1, "kind": "solved"}\n\n'

    def test_typed_event_projection(self):
        from repro.core.session import VcSelected

        payload = event_payload(VcSelected(index=3, weight=2))
        assert payload["kind"] == "vc_selected"
        assert payload["index"] == 3 and payload["weight"] == 2

    def test_non_json_fields_degrade_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable({"deep": [Opaque()]}) == {"deep": ["<opaque>"]}
        json.dumps(event_payload({"kind": "x", "payload": Opaque()}))  # serializable


class TestEventHub:
    def test_publish_persists_before_fanout_and_seeds_from_store(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)
        store.record_event("job", 5, {"kind": "old"})  # a previous life
        hub = EventHub(store)
        subscription = hub.subscribe("job")
        seq = hub.publish("job", {"kind": "fresh"})
        assert seq == 6  # monotonic across restarts
        # Persisted, and delivered on the publishing thread.
        assert store.last_event_seq("job") == 6
        assert subscription.queue.get_nowait() == (6, {"kind": "fresh"})
        assert hub.history("job", after=5) == [(6, {"kind": "fresh"})]

    def test_bounded_queue_sheds_oldest_and_counts(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)
        hub = EventHub(store)
        subscription = hub.subscribe("job", maxsize=3)
        for index in range(6):
            hub.publish("job", {"kind": "tick", "n": index})
        assert subscription.dropped == 3
        kept = [subscription.queue.get_nowait()[0] for _ in range(3)]
        assert kept == [4, 5, 6]  # freshest survive
        # Everything shed is still replayable from the store.
        assert [seq for seq, _ in hub.history("job", after=0)] == [1, 2, 3, 4, 5, 6]

    def test_unsubscribe_releases_the_bridge(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)
        hub = EventHub(store)
        subscription = hub.subscribe("job")
        assert hub.subscriber_count("job") == 1
        hub.unsubscribe(subscription)
        assert hub.subscriber_count("job") == 0
        hub.unsubscribe(subscription)  # idempotent

    def test_subscribers_churning_on_threads_are_never_lost(self, tmp_path):
        # SSE clients come and go on their own threads.  Each ends holding
        # one subscription, which must be registered and get the next
        # event; no subscribe or unsubscribe may fail or drop another's.
        # Two clients empty the job's subscriber list often, and that is
        # where an unguarded unsubscribe and subscribe collide.
        hub = EventHub(SQLiteJobStore(tmp_path / "events.sqlite", fsync=False))
        kept: list = []

        def client():
            for _ in range(5000):
                hub.unsubscribe(hub.subscribe("job", maxsize=1))
            kept.append(hub.subscribe("job", maxsize=1))

        clients = [threading.Thread(target=client, daemon=True) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert hub.subscriber_count("job") == len(kept) == 2
        seq = hub.publish("job", {"kind": "tick"})
        assert [subscription.queue.get_nowait()[0] for subscription in kept] == [seq, seq]


# ------------------------------------------------------- the front (no HTTP)
class TestServiceFrontCore:
    def _front(self, tmp_path, **quota) -> tuple[ServiceFront, Tenant]:
        tenant = Tenant(name="acme", api_key="k", quota=TenantQuota(**quota))
        front = ServiceFront(
            str(tmp_path / "jobs.sqlite"),
            tenants=TenantRegistry([tenant]),
            fsync=False,
        )
        return front, tenant

    def _job(self, name: str):
        from repro.service import MigrationJob

        bench = get_benchmark("Oracle-1")
        return MigrationJob(name, bench.source_program, bench.target_schema, _config())

    def test_admission_is_durable_deferred(self, tmp_path):
        front, tenant = self._front(tmp_path, submit_rate=0.0)
        summary = front.submit(tenant, self._job("j1"))
        assert summary["tenant"] == "acme" and summary["priority"] == 10000
        stored = front.store.load_jobs()["j1"]
        assert stored.deferred and stored.tenant == "acme"

    def test_duplicate_name_refunds_quota(self, tmp_path):
        front, tenant = self._front(tmp_path, submit_rate=0.0)
        front.submit(tenant, self._job("dup"))
        with pytest.raises(ValueError, match="already exists"):
            front.submit(tenant, self._job("dup"))
        assert front.quotas.queued("acme") == 1  # refused submit refunded

    def test_cancel_backlogged_job_settles_in_store(self, tmp_path):
        front, tenant = self._front(tmp_path, submit_rate=0.0)
        front.submit(tenant, self._job("doomed"))
        assert front.cancel("doomed") is True
        stored = front.store.load_jobs()["doomed"]
        assert stored.status == "cancelled" and stored.settled
        assert front.quotas.queued("acme") == 0
        assert front.cancel("doomed") is False  # nothing left to cancel

    def test_max_running_caps_running_jobs(self, recording_store):
        # max_running=1 over two worker processes: each runner cycle
        # dispatches one job, so the store never has two jobs running at
        # once.  The cycles run on this thread, as the runner thread runs
        # them.
        tenant = Tenant(
            name="acme", api_key="k", quota=TenantQuota(max_running=1, submit_rate=0.0)
        )
        front = ServiceFront(
            recording_store, tenants=TenantRegistry([tenant]), max_workers=2
        )
        names = [f"capped-{index}" for index in range(3)]
        for name in names:
            front.submit(tenant, self._job(name))
        try:
            for _ in names:
                front._dispatch_cycle()
                front._run_cycle()
        finally:
            front.stop()
        running: set = set()
        peak = 0
        for record in recording_store.records:
            if record["type"] == "running":
                running.add(record["job"])
                peak = max(peak, len(running))
            elif record["type"] == "settled":
                running.discard(record["job"])
        assert peak == 1
        stored = recording_store.load_jobs()
        assert [stored[name].status for name in names] == ["done"] * 3
        assert front.quotas.queued("acme") == 0


# --------------------------------------------------------------- HTTP layer
def _http(base: str, path: str, *, key: str = "", payload=None, headers=None):
    """One JSON request; returns (status, decoded body, response headers)."""
    request_headers = dict(headers or {})
    if key:
        request_headers["X-API-Key"] = key
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=data, headers=request_headers)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            headers_out = {k.lower(): v for k, v in response.headers.items()}
            return response.status, json.loads(response.read()), headers_out
    except urllib.error.HTTPError as error:
        headers_out = {k.lower(): v for k, v in error.headers.items()}
        return error.code, json.loads(error.read()), headers_out


def _sse_frames(base: str, name: str, *, key: str, after: int = 0, timeout: float = 120):
    """Consume one SSE stream to its job_settled end; [(id, kind)] pairs."""
    request = urllib.request.Request(
        f"{base}/jobs/{name}/events",
        headers={"X-API-Key": key, "Last-Event-ID": str(after)},
    )
    frames = []
    with urllib.request.urlopen(request, timeout=timeout) as response:
        event_id, kind = 0, ""
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("id: "):
                event_id = int(line[4:])
            elif line.startswith("event: "):
                kind = line[7:]
            elif not line and kind:
                frames.append((event_id, kind))
                if kind == "job_settled":
                    return frames
                kind = ""
    return frames


def _poll_settled(base: str, key: str, *, deadline: float = 120.0) -> list[dict]:
    end = time.time() + deadline
    while time.time() < end:
        _, jobs, _ = _http(base, "/jobs", key=key)
        if jobs and all(j["status"] not in ("pending", "running") for j in jobs):
            return jobs
        time.sleep(0.05)
    raise AssertionError("jobs did not settle in time")


def _two_tenant_registry(**alpha_quota) -> TenantRegistry:
    return TenantRegistry(
        [
            Tenant(name="alpha", api_key="k-alpha", weight=1, quota=TenantQuota(submit_rate=0.0, **alpha_quota)),
            Tenant(name="beta", api_key="k-beta", weight=2, quota=TenantQuota(submit_rate=0.0)),
        ]
    )


@pytest.fixture()
def server(tmp_path):
    front = ServiceFront(
        str(tmp_path / "jobs.sqlite"), tenants=_two_tenant_registry(), fsync=False
    )
    thread = ServerThread(front).start()
    try:
        yield thread, "http://%s:%d" % thread.address
    finally:
        thread.stop()


class TestServerHTTP:
    def test_healthz_needs_no_auth_but_jobs_do(self, server):
        _, base = server
        assert _http(base, "/healthz")[0] == 200
        status, body, _ = _http(base, "/jobs")
        assert status == 401 and "API key" in body["error"]
        assert _http(base, "/jobs", key="nope")[0] == 401
        assert _http(base, "/nothing", key="k-alpha")[0] == 404

    def test_submit_runs_and_serves_results(self, server):
        _, base = server
        status, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"benchmark": "Oracle-1", "config": CONFIG}
        )
        assert status == 202 and body["tenant"] == "alpha" and not body["deferred"]
        (name,) = body["submitted"]
        jobs = _poll_settled(base, "k-alpha")
        assert [j["status"] for j in jobs] == ["done"]
        status, job, _ = _http(base, f"/jobs/{name}", key="k-alpha")
        assert status == 200
        assert job["result"]["succeeded"] is True
        assert job["tenant"] == "alpha"

    def test_bad_requests_fail_loudly(self, server):
        _, base = server
        assert _http(base, "/jobs", key="k-alpha", payload={"benchmark": "nope"})[0] == 400
        status, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"config": {"no_such_field": 1}}
        )
        assert status == 400 and "no_such_field" in body["error"]
        # Retired in API 4.0.0: parallelism is per batch, not per job.
        status, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"config": {"parallel_workers": 2}}
        )
        assert status == 400 and "unknown config field 'parallel_workers'" in body["error"]
        # Retired in API 5.0.0: the factored VC engine is the only one.
        status, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"config": {"vc_engine": "maxsat"}}
        )
        assert status == 400 and "unknown config field 'vc_engine'" in body["error"]
        # Retired in API 7.0.0: the pool and source-cache sizes are fixed.
        for field in ("pool_max_size", "pool_screening_budget", "source_cache_max_entries"):
            status, body, _ = _http(
                base, "/jobs", key="k-alpha", payload={"config": {field: 64}}
            )
            assert status == 400 and f"unknown config field {field!r}" in body["error"]
        status, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"config": {"verifier_random_sequences": "many"}}
        )
        assert status == 400 and "expects int" in body["error"]

    @pytest.mark.parametrize(
        "field, value, known",
        [
            ("execution_backend", "columnar", "interpreter, compiled"),
            ("completion_strategy", "sat", "mfi, enumerative, bmc"),
            # Retired in API 5.0.0: the field itself is unknown now.
            ("vc_engine", "greedy", None),
        ],
    )
    def test_unknown_engine_names_rejected_before_storing(self, server, field, value, known):
        thread, base = server
        if known is None:
            expected = f"unknown config field {field!r}"
        else:
            expected = f"unknown {field} {value!r}; known: {known}"
        for defer in (False, True):
            status, body, _ = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "Oracle-1", "defer": defer, "config": {field: value}},
            )
            assert status == 400
            assert expected == body["error"]
        assert thread.front.store.query_jobs() == []
        if known is None:
            # The names the retired field once accepted are refused as well.
            for name in ("auto", "factored", "maxsat"):
                with pytest.raises(ValueError, match=expected):
                    _build_jobs(thread.front, {"benchmark": "Oracle-1", "config": {field: name}})
            return
        # Every known name is accepted.
        for name in known.split(", "):
            (job,) = _build_jobs(thread.front, {"benchmark": "Oracle-1", "config": {field: name}})
            assert getattr(job.config, field) == name

    def test_duplicate_submission_conflicts(self, server):
        _, base = server
        payload = {"benchmark": "Oracle-1", "config": CONFIG}
        assert _http(base, "/jobs", key="k-alpha", payload=payload)[0] == 202
        status, body, _ = _http(base, "/jobs", key="k-alpha", payload=payload)
        assert status == 409 and "already exists" in body["error"]

    def test_queue_quota_yields_429_with_partial_admission(self, tmp_path):
        front = ServiceFront(
            str(tmp_path / "jobs.sqlite"),
            tenants=_two_tenant_registry(max_queued=2),
            fsync=False,
        )
        with ServerThread(front) as thread:
            base = "http://%s:%d" % thread.address
            status, body, headers = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "Oracle-1", "variants": 3, "config": CONFIG},
            )
            assert status == 429
            assert "max_queued=2" in body["error"]
            assert len(body["submitted"]) == 2  # the accepted prefix stays
            assert int(headers["retry-after"]) >= 1
            # The accepted half still runs to completion.
            jobs = _poll_settled(base, "k-alpha")
            assert sorted(j["job"] for j in jobs) == sorted(body["submitted"])
            assert all(j["status"] == "done" for j in jobs)

    def test_oversized_post_is_charged_at_arrival(self, tmp_path, monkeypatch):
        # A clock that moves one token's refill forward on every read: a
        # request that read it again per job would never run dry.  Charged
        # at its arrival instant, one oversized POST admits exactly `burst`.
        import repro.server.quotas as quotas_module
        import repro.server.routes as routes_module

        class SteppingClock:
            def __init__(self):
                self.now = 100.0

            def monotonic(self):
                self.now += 1.0  # one token at 1/s
                return self.now

        clock = SteppingClock()
        monkeypatch.setattr(quotas_module, "time", clock)
        monkeypatch.setattr(routes_module, "time", clock, raising=False)
        registry = TenantRegistry(
            [
                Tenant(
                    name="alpha",
                    api_key="k-alpha",
                    quota=TenantQuota(submit_rate=1.0, burst=2),
                )
            ]
        )
        front = ServiceFront(str(tmp_path / "jobs.sqlite"), tenants=registry, fsync=False)
        with ServerThread(front) as thread:
            base = "http://%s:%d" % thread.address
            status, body, _ = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "Oracle-1", "variants": 3, "config": CONFIG},
            )
            assert status == 429
            assert len(body["submitted"]) == 2
            _poll_settled(base, "k-alpha")

    def test_resume_adopts_past_a_bad_deferred_record(self, server):
        thread, base = server
        front = thread.front
        front.store.append(
            {"type": "submitted", "job": "bad", "status": "pending", "spec": "99:AAAA"}
        )
        bench = get_benchmark("Oracle-1")
        front.service.submit_deferred(
            MigrationJob("good", bench.source_program, bench.target_schema, _config())
        )
        status, body, _ = _http(base, "/resume", key="k-alpha", payload={})
        assert status == 202 and body["resumed"] == ["good"]
        assert front.store.load_jobs()["bad"].status == "incompatible"
        deadline = time.time() + 120
        while _http(base, "/jobs/good", key="k-alpha")[1]["status"] in ("pending", "running"):
            assert time.time() < deadline, "the adopted job did not settle in time"
            time.sleep(0.05)
        assert _http(base, "/jobs/good", key="k-alpha")[1]["status"] == "done"
        assert _http(base, "/jobs/bad", key="k-alpha")[1]["status"] == "incompatible"

    def test_stride_priorities_favor_weighted_tenant(self, server):
        _, base = server
        _, alpha, _ = _http(
            base,
            "/jobs",
            key="k-alpha",
            payload={"benchmark": "Oracle-1", "variants": 1, "config": CONFIG},
        )
        _, beta, _ = _http(
            base,
            "/jobs",
            key="k-beta",
            payload={"benchmark": "Ambler-4", "variants": 1, "config": CONFIG},
        )
        # weight 1 strides 10000/job; weight 2 strides 5000/job, joining at
        # the current virtual time (alpha's pass, 20000).
        assert sorted(alpha["priorities"].values()) == [10000, 20000]
        assert sorted(beta["priorities"].values()) == [25000, 30000]
        _poll_settled(base, "k-alpha")
        _poll_settled(base, "k-beta")

    def test_tenant_visibility_is_scoped(self, server):
        _, base = server
        _, alpha, _ = _http(
            base, "/jobs", key="k-alpha", payload={"benchmark": "Oracle-1", "config": CONFIG}
        )
        _, beta, _ = _http(
            base, "/jobs", key="k-beta", payload={"benchmark": "Ambler-4", "config": CONFIG}
        )
        alpha_jobs = _poll_settled(base, "k-alpha")
        beta_jobs = _poll_settled(base, "k-beta")
        assert {j["job"] for j in alpha_jobs} == set(alpha["submitted"])
        assert {j["job"] for j in beta_jobs} == set(beta["submitted"])
        # Cross-tenant name lookups 404 (existence is not leaked).
        foreign = beta["submitted"][0]
        assert _http(base, f"/jobs/{foreign}", key="k-alpha")[0] == 404
        assert _http(base, f"/jobs/{foreign}/events", key="k-alpha")[0] == 404
        assert _http(base, f"/jobs/{foreign}/cancel", key="k-alpha", payload={})[0] == 404

    def test_cancel_unknown_job_404s(self, server):
        _, base = server
        assert _http(base, "/jobs/ghost/cancel", key="k-alpha", payload={})[0] == 404

    @pytest.mark.parametrize("deadline", ["soon", True, -1, [5]], ids=repr)
    def test_bad_deadline_is_400_and_the_runner_keeps_going(self, server, deadline):
        thread, base = server
        for defer in (False, True):
            status, body, _ = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "Oracle-1", "deadline": deadline, "defer": defer},
            )
            assert status == 400 and "deadline" in body["error"]
        assert thread.front.store.query_jobs() == []
        # A bad deadline used to reach the runner and end its thread.
        payload = {"benchmark": "Oracle-1", "deadline": 120, "config": CONFIG}
        assert _http(base, "/jobs", key="k-alpha", payload=payload)[0] == 202
        assert [job["status"] for job in _poll_settled(base, "k-alpha")] == ["done"]

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"benchmark": "Oracle-1", "variants": None}, "variants"),
            ({"benchmark": ["x"]}, "benchmark"),
            ({"benchmark": "Oracle-1", "config": [1]}, "config"),
        ],
        ids=["null-variants", "list-benchmark", "list-config"],
    )
    def test_malformed_field_is_400_before_anything_is_stored(self, server, payload, field):
        thread, base = server
        for defer in (False, True):
            status, body, _ = _http(
                base, "/jobs", key="k-alpha", payload=dict(payload, defer=defer)
            )
            assert status == 400 and body["error"].startswith(field)
        assert thread.front.store.query_jobs() == []

    def test_body_that_is_not_an_object_is_400(self, server):
        thread, base = server
        status, body, _ = _http(base, "/jobs", key="k-alpha", payload=[])
        assert status == 400 and "JSON object" in body["error"]
        assert thread.front.store.query_jobs() == []

    def test_config_checks_each_field_against_its_annotation(self, server):
        thread, base = server
        (job,) = _build_jobs(
            thread.front,
            {"benchmark": "Oracle-1", "config": {"time_limit": 5, "sketch_time_limit": 2.5}},
        )
        assert job.config.time_limit == 5.0 and isinstance(job.config.time_limit, float)
        assert job.config.sketch_time_limit == 2.5
        (job,) = _build_jobs(
            thread.front,
            {"benchmark": "Oracle-1", "config": {"max_iterations_per_sketch": None}},
        )
        assert job.config.max_iterations_per_sketch is None
        for field, value, expected in [
            ("time_limit", "soon", "expects float"),
            ("time_limit", True, "expects float"),
            ("max_iterations_per_sketch", 1.5, "expects int"),
            ("verifier_random_sequences", None, "expects int"),
            ("sketch", {}, "is not a scalar"),
        ]:
            status, body, _ = _http(
                base, "/jobs", key="k-alpha", payload={"config": {field: value}}
            )
            assert status == 400 and f"config field {field!r} {expected}" == body["error"]
        assert thread.front.store.query_jobs() == []

    @pytest.mark.parametrize("length", ["-5", "abc", ""])
    def test_malformed_content_length_is_400_and_closes(self, server, length):
        thread, _ = server
        with socket.create_connection(thread.address, timeout=10) as raw:
            raw.sendall(
                (
                    "POST /jobs HTTP/1.1\r\nHost: x\r\nX-API-Key: k-alpha\r\n"
                    f"Content-Length: {length}\r\n\r\n"
                ).encode()
            )
            reply = b""
            while chunk := raw.recv(4096):  # the server closes the connection
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert json.loads(body) == {"error": "invalid Content-Length"}

    def test_early_answers_keep_the_connection_at_the_next_request(self, server):
        thread, _ = server
        connection = http.client.HTTPConnection(*thread.address, timeout=10)
        try:
            # The body is read before routing, so a 404 or a 401 leaves the
            # connection at the next request.
            for headers, status in [({"X-API-Key": "k-alpha"}, 404), ({}, 401)]:
                connection.request("POST", "/nowhere", body=b'{"x": 1}', headers=headers)
                response = connection.getresponse()
                assert response.status == status and "error" in json.loads(response.read())
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}
        finally:
            connection.close()

    def test_other_methods_answer_401_or_the_json_404(self, server):
        thread, _ = server
        connection = http.client.HTTPConnection(*thread.address, timeout=10)
        try:
            for method in ("PUT", "DELETE", "PATCH"):
                connection.request(method, "/jobs")
                response = connection.getresponse()
                assert response.status == 401
                assert "API key" in json.loads(response.read())["error"]
                connection.request(method, "/jobs", headers={"X-API-Key": "k-alpha"})
                response = connection.getresponse()
                assert response.status == 404
                assert response.getheader("Content-Type") == "application/json"
                assert json.loads(response.read()) == {"error": "unknown route"}
        finally:
            connection.close()

    def test_route_failure_is_500_and_the_server_keeps_serving(self, server, monkeypatch):
        thread, base = server

        def broken(**_query):
            raise RuntimeError("store is down")

        monkeypatch.setattr(thread.front.store, "query_jobs", broken)
        request = urllib.request.Request(base + "/jobs", headers={"X-API-Key": "k-alpha"})
        with pytest.raises(urllib.error.HTTPError) as failure:
            urllib.request.urlopen(request, timeout=10)
        assert failure.value.code == 500
        assert _http(base, "/healthz")[0] == 200
        monkeypatch.undo()
        assert _http(base, "/jobs", key="k-alpha")[:2] == (200, [])

    def test_retired_age_after_flag_is_refused(self, tmp_path, capsys):
        from repro.server.__main__ import main

        store = str(tmp_path / "jobs.sqlite")
        # The unusable port stops a server that took the flag from serving.
        argv = ["--store", store, "--listen", "127.0.0.1:none", "--age-after", "30"]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert "--age-after" in capsys.readouterr().err
        assert not (tmp_path / "jobs.sqlite").exists()


class TestServerSSE:
    def test_stream_ends_with_job_settled_and_monotonic_ids(self, server):
        _, base = server
        _, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"benchmark": "Oracle-1", "config": CONFIG}
        )
        (name,) = body["submitted"]
        frames = _sse_frames(base, name, key="k-alpha")
        ids = [event_id for event_id, _ in frames]
        assert ids == list(range(1, len(frames) + 1))  # gap-free from 1
        assert frames[-1][1] == "job_settled"
        assert any(kind == "solved" for _, kind in frames)

    def test_last_event_id_resume_is_gap_and_duplicate_free(self, server):
        _, base = server
        _, body, _ = _http(
            base, "/jobs", key="k-alpha", payload={"benchmark": "Oracle-1", "config": CONFIG}
        )
        (name,) = body["submitted"]
        frames = _sse_frames(base, name, key="k-alpha")
        for cut in (0, 1, len(frames) - 1, len(frames)):
            after = frames[cut - 1][0] if cut else 0
            resumed = _sse_frames(base, name, key="k-alpha", after=after)
            assert resumed == frames[cut:], f"resume after id {after}"

    def test_resume_across_server_restart_on_same_store(self, tmp_path):
        store = str(tmp_path / "jobs.sqlite")
        front = ServiceFront(store, tenants=_two_tenant_registry(), fsync=False)
        with ServerThread(front) as thread:
            base = "http://%s:%d" % thread.address
            _, body, _ = _http(
                base, "/jobs", key="k-alpha", payload={"benchmark": "Oracle-1", "config": CONFIG}
            )
            (name,) = body["submitted"]
            frames = _sse_frames(base, name, key="k-alpha")

        # A brand-new server process (fresh hub, fresh seqs) on the old store.
        front2 = ServiceFront(store, tenants=_two_tenant_registry(), fsync=False)
        with ServerThread(front2) as thread2:
            base2 = "http://%s:%d" % thread2.address
            replayed = _sse_frames(base2, name, key="k-alpha")
            assert replayed == frames  # identical ids, no duplicate terminal
            mid = len(frames) // 2
            resumed = _sse_frames(base2, name, key="k-alpha", after=frames[mid][0])
            assert resumed == frames[mid + 1 :]

    def test_disconnect_mid_stream_releases_subscription(self, server):
        thread, base = server
        # A deferred job exists in the store but never settles — its SSE
        # stream stays open until the client goes away.
        _, body, _ = _http(
            base,
            "/jobs",
            key="k-alpha",
            payload={"benchmark": "Oracle-1", "defer": True, "config": CONFIG},
        )
        (name,) = body["submitted"]
        host, port = thread.address
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(
                (
                    f"GET /jobs/{name}/events HTTP/1.1\r\n"
                    f"Host: {host}\r\nX-API-Key: k-alpha\r\n\r\n"
                ).encode()
            )
            raw.recv(1024)  # response head: the stream is live
            deadline = time.time() + 10
            while thread.front.hub.subscriber_count(name) == 0:
                assert time.time() < deadline, "subscription never registered"
                time.sleep(0.02)
        # Closing the socket must tear the subscription down.
        deadline = time.time() + 10
        while thread.front.hub.subscriber_count(name) != 0:
            assert time.time() < deadline, "disconnect did not release the bridge"
            time.sleep(0.02)

    def test_bad_last_event_id_is_400(self, server):
        _, base = server
        _, body, _ = _http(
            base,
            "/jobs",
            key="k-alpha",
            payload={"benchmark": "Oracle-1", "defer": True, "config": CONFIG},
        )
        (name,) = body["submitted"]
        status, _, _ = _http(
            base, f"/jobs/{name}/events", key="k-alpha", headers={"Last-Event-ID": "seven"}
        )
        assert status == 400

    def test_stop_ends_open_streams(self, tmp_path):
        front = ServiceFront(
            str(tmp_path / "jobs.sqlite"), tenants=_two_tenant_registry(), fsync=False
        )
        thread = ServerThread(front).start()
        try:
            base = "http://%s:%d" % thread.address
            # A deferred job never settles: only the stop can end its stream.
            _, body, _ = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "Oracle-1", "defer": True, "config": CONFIG},
            )
            (name,) = body["submitted"]
            request = urllib.request.Request(
                f"{base}/jobs/{name}/events", headers={"X-API-Key": "k-alpha"}
            )
            response = urllib.request.urlopen(request, timeout=30)
            assert response.readline() == b": stream open\n"
        finally:
            thread.stop()
        stopped = time.time()
        with response:
            assert response.read() == b"\n"  # the rest of the open comment
        assert time.time() - stopped < 5.0
        assert front.hub.subscriber_count(name) == 0


# ------------------------------------------------------------- equivalence
def _direct_response(benchmark_name: str) -> dict:
    """The reference: one direct MigrationService run of the same job."""
    from repro.service import MigrationJob

    bench = get_benchmark(benchmark_name)
    service = MigrationService()
    (handle,) = service.submit_batch(
        [
            MigrationJob(
                f"{bench.name}->{bench.target_schema.name}",
                bench.source_program,
                bench.target_schema,
                _config(),
            )
        ]
    )
    service.run()
    return handle.to_dict(include_program=False)


def _comparable(response: dict) -> tuple:
    """Everything deterministic in a job response (no wall-clock fields)."""
    result = response["result"]
    return (
        response["status"],
        result["succeeded"],
        result["iterations"],
        result["attempts"],
        result["value_correspondences_tried"],
    )


class TestServerEquivalence:
    NAMES = ["Oracle-1", "Ambler-3", "Ambler-5"]

    def _assert_server_matches_direct(self, names, *, store):
        front = ServiceFront(store, tenants=_two_tenant_registry(), fsync=False)
        with ServerThread(front) as thread:
            base = "http://%s:%d" % thread.address
            submitted = {}
            for benchmark in names:
                _, body, _ = _http(
                    base,
                    "/jobs",
                    key="k-alpha",
                    payload={"benchmark": benchmark, "config": CONFIG},
                )
                (submitted[benchmark],) = body["submitted"]
            _poll_settled(base, "k-alpha", deadline=600.0)
            for benchmark, name in submitted.items():
                _, via_server, _ = _http(base, f"/jobs/{name}", key="k-alpha")
                assert _comparable(via_server) == _comparable(
                    _direct_response(benchmark)
                ), benchmark

    def test_server_jobs_match_direct_runs_on_registry_slice(self, tmp_path):
        self._assert_server_matches_direct(
            self.NAMES, store=str(tmp_path / "jobs.sqlite")
        )

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL_EQUIV", "") in ("", "0", "false"),
        reason="full registry sweep; set REPRO_FULL_EQUIV=1",
    )
    def test_server_jobs_match_direct_runs_on_all_workloads(self, tmp_path):
        self._assert_server_matches_direct(
            list(benchmark_names()), store=str(tmp_path / "jobs.sqlite")
        )


# ------------------------------------------------------------- server smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_SERVER_SMOKE", "") in ("", "0", "false"),
    reason="subprocess server smoke; set REPRO_SERVER_SMOKE=1",
)
class TestServerSmoke:
    """The CI smoke: a real ``python -m repro.server`` subprocess — mixed
    two-tenant batch, rate-limit 429, SSE latency, kill -9, pinned resume."""

    def _spawn(self, store: str) -> tuple[subprocess.Popen, str]:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--listen",
                "127.0.0.1:0",
                "--store",
                store,
                "--tenant",
                "alpha:k-alpha",
                "--tenant",
                "beta:k-beta:2",
                "--no-fsync",
            ],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline()
        assert "listening on " in line, f"server banner missing: {line!r}"
        return process, "http://" + line.strip().rpartition("listening on ")[2]

    def test_mixed_batch_429_sse_kill9_resume(self, tmp_path):
        store = f"sqlite:{tmp_path / 'smoke.sqlite'}"
        process, base = self._spawn(store)
        try:
            # Mixed two-tenant batch; the weighted tenant strides tighter.
            _, alpha, _ = _http(
                base,
                "/jobs",
                key="k-alpha",
                payload={"benchmark": "coachup", "variants": 1, "config": CONFIG},
            )
            _, beta, _ = _http(
                base,
                "/jobs",
                key="k-beta",
                payload={"benchmark": "Oracle-1", "variants": 1, "config": CONFIG},
            )
            alpha_steps = sorted(alpha["priorities"].values())
            beta_steps = sorted(beta["priorities"].values())
            assert alpha_steps[1] - alpha_steps[0] == 10000  # weight 1
            assert beta_steps[1] - beta_steps[0] == 5000  # weight 2

            # SSE first-event latency: the stream yields a frame promptly.
            start = time.time()
            frames = _sse_frames(base, alpha["submitted"][0], key="k-alpha")
            assert frames, "no SSE frames before settle"
            assert time.time() - start < 60.0
            assert frames[-1][1] == "job_settled"

            # Default tenant quotas: burst 20 → the 22-job batch trips the
            # rate limit with a Retry-After hint, accepted prefix intact.
            status, body, headers = _http(
                base,
                "/jobs",
                key="k-beta",
                payload={
                    "benchmark": "Ambler-4",
                    "variants": 21,
                    "config": CONFIG,
                    "name_prefix": "flood-",
                },
            )
            assert status == 429 and "submit rate" in body["error"]
            assert 0 < len(body["submitted"]) < 22
            assert "retry-after" in headers

            # Let some of the flood land, then kill -9 mid-batch.
            time.sleep(1.0)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        # Reboot on the same store: boot-time resume re-pins and finishes.
        process, base = self._spawn(store)
        try:
            alpha_jobs = _poll_settled(base, "k-alpha", deadline=300.0)
            beta_jobs = _poll_settled(base, "k-beta", deadline=300.0)
            assert all(j["status"] == "done" for j in alpha_jobs + beta_jobs)

            # Pinned: the planned coachup job matches a direct run exactly.
            name = next(j["job"] for j in alpha_jobs if j["job"].endswith("->coachup_tgt"))
            _, via_server, _ = _http(base, f"/jobs/{name}", key="k-alpha")
            assert _comparable(via_server) == _comparable(_direct_response("coachup"))

            # Cross-restart SSE replay: still gap-free from id 1.
            frames = _sse_frames(base, name, key="k-alpha")
            assert [i for i, _ in frames] == list(range(1, len(frames) + 1))
            assert frames[-1][1] == "job_settled"
        finally:
            process.kill()
            process.wait(timeout=10)
