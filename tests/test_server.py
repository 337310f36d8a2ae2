"""The async multi-tenant service front (repro.server).

Layers under test, bottom up:

* tenants / quotas / stride pacing — pure-Python admission mechanics;
* the SSE bridge — sequencing, persist-before-fanout, bounded-queue
  shedding, subscription release;
* the synchronous :class:`ServiceFront` core — durable-deferred admission,
  duplicate rejection, backlog cancellation;
* the HTTP surface over a real listening :class:`ServerThread` — auth,
  submission, quota 429s, tenant visibility, SSE streaming with
  ``Last-Event-ID`` resume (including across a server restart over the
  SQLite store), disconnect cleanup;
* equivalence — server-submitted jobs settle with the same trajectories as
  direct :class:`MigrationService` runs (full registry sweep behind
  ``REPRO_FULL_EQUIV=1``);
* the CI server smoke (``REPRO_SERVER_SMOKE=1``): a real ``python -m
  repro.server`` subprocess, mixed two-tenant batch, rate-limit 429, SSE
  first-event latency, kill -9 mid-batch, resume from the SQLite store
  with pinned results.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import MigrationService, SynthesisConfig
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
        gate.job_settled("t", was_dispatched=False)
        gate.admit_submit(tenant)  # a settled job frees its slot
        assert gate.counts("t") == (2, 0)

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
        assert gate.counts("t") == (0, 0)

    def test_may_dispatch_tracks_running(self):
        gate = QuotaGate()
        tenant = self._tenant(max_running=1, submit_rate=0.0)
        assert gate.may_dispatch(tenant)
        gate.job_dispatched("t")
        assert not gate.may_dispatch(tenant)
        gate.job_settled("t", was_dispatched=True)
        assert gate.may_dispatch(tenant)


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
    def _run(self, coro):
        return asyncio.run(coro)

    def test_publish_persists_before_fanout_and_seeds_from_store(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)
        store.record_event("job", 5, {"kind": "old"})  # a previous life

        async def scenario():
            hub = EventHub(store, asyncio.get_running_loop())
            subscription = hub.subscribe("job")
            seq = hub.publish("job", {"kind": "fresh"})
            assert seq == 6  # monotonic across restarts
            # Persisted already, delivered after the loop tick.
            assert store.last_event_seq("job") == 6
            await asyncio.sleep(0)
            assert subscription.queue.get_nowait() == (6, {"kind": "fresh"})
            assert hub.history("job", after=5) == [(6, {"kind": "fresh"})]

        self._run(scenario())

    def test_bounded_queue_sheds_oldest_and_counts(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)

        async def scenario():
            hub = EventHub(store, asyncio.get_running_loop())
            subscription = hub.subscribe("job", maxsize=3)
            for index in range(6):
                hub.publish("job", {"kind": "tick", "n": index})
            await asyncio.sleep(0)
            assert subscription.dropped == 3
            kept = [subscription.queue.get_nowait()[0] for _ in range(3)]
            assert kept == [4, 5, 6]  # freshest survive
            # Everything shed is still replayable from the store.
            assert [seq for seq, _ in hub.history("job", after=0)] == [1, 2, 3, 4, 5, 6]

        self._run(scenario())

    def test_unsubscribe_releases_the_bridge(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "events.sqlite", fsync=False)

        async def scenario():
            hub = EventHub(store, asyncio.get_running_loop())
            subscription = hub.subscribe("job")
            assert hub.subscriber_count("job") == 1
            hub.unsubscribe(subscription)
            assert hub.subscriber_count("job") == 0
            hub.unsubscribe(subscription)  # idempotent

        self._run(scenario())


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
        assert front.quotas.counts("acme") == (1, 0)  # refused submit refunded

    def test_cancel_backlogged_job_settles_in_store(self, tmp_path):
        front, tenant = self._front(tmp_path, submit_rate=0.0)
        front.submit(tenant, self._job("doomed"))
        assert front.cancel("doomed") is True
        stored = front.store.load_jobs()["doomed"]
        assert stored.status == "cancelled" and stored.settled
        assert front.quotas.counts("acme") == (0, 0)
        assert front.cancel("doomed") is False  # nothing left to cancel


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
