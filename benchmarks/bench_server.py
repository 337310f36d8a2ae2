"""Service-front benchmark: the job store under the HTTP server.

The server (:mod:`repro.server`) keeps every admission durable — a
``POST /jobs`` is a store append before it is anything else — so the SQLite
job store is on the submit path, and on the query path of every
``GET /jobs``.  This benchmark measures it behind a
:class:`~repro.server.ServiceFront`:

* **concurrent-submit throughput** — N deferred jobs pushed over HTTP from
  4 client threads (deferred admission isolates the store append + quota +
  stride work from synthesis itself): accepted submissions per second;
* **query latency** — ``store.query_jobs(tenant=..., status=...)`` against
  the N-job store (exactly the call behind ``GET /jobs?status=…``), in two
  shapes: a *broad* query every row matches (all N standings materialize —
  reported for context) and a *selective* query matching nothing, which
  the tenant/status indexes answer without touching a row.  The selective
  query is gated against a full ``load_jobs()`` replay filtered in Python —
  the work an unindexed store does for every query, and what the retired
  JSONL store did;
* **time-to-first-SSE-event** — one real (cheap) synthesis job, submit →
  first typed event frame on ``GET /jobs/{n}/events``, proving the
  persist-then-fanout bridge stays live.

Run with ``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_server.py``;
``REPRO_BENCH_SMOKE=1`` (the CI job) shrinks the flood and asserts only the
directional gate (the indexed query beats the full replay once the store
is long).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

from repro.eval.reporting import render_table
from repro.server import ServerThread, ServiceFront, Tenant, TenantQuota, TenantRegistry

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0", "false")

#: Deferred jobs in the submit flood.
FLOOD = 48 if SMOKE else 200
#: Client threads driving the flood.
CLIENTS = 4
#: query_jobs calls measured against the populated store.
QUERIES = 20 if SMOKE else 50

API_KEY = "k-bench"
CONFIG = {"verifier_random_sequences": 10}


def _registry() -> TenantRegistry:
    return TenantRegistry(
        [
            Tenant(
                name="bench",
                api_key=API_KEY,
                quota=TenantQuota(max_queued=0, max_running=0, submit_rate=0.0),
            )
        ]
    )


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"X-API-Key": API_KEY},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _submit_flood(base: str) -> float:
    """FLOOD deferred submissions from CLIENTS threads; returns wall time."""
    counter = iter(range(FLOOD))
    lock = threading.Lock()

    def drive() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            _post(
                base,
                "/jobs",
                {
                    "benchmark": "Oracle-1",
                    "defer": True,
                    "name_prefix": f"flood-{index}-",
                    "config": CONFIG,
                },
            )

    threads = [threading.Thread(target=drive) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def _replay_query(store, *, tenant: str, status: str) -> list:
    """``query_jobs`` without an index: replay every standing, then filter."""
    return [
        job
        for job in store.load_jobs().values()
        if job.tenant == tenant and job.status == status
    ]


def _per_query_ms(query) -> tuple[float, list]:
    started = time.perf_counter()
    for _ in range(QUERIES):
        rows = query()
    return (time.perf_counter() - started) / QUERIES * 1000.0, rows


def _measure_store(tmp_path) -> dict:
    front = ServiceFront(f"sqlite:{tmp_path / 'bench.sqlite'}", tenants=_registry(), fsync=False)
    with ServerThread(front) as server:
        base = "http://%s:%d" % server.address
        submit_wall = _submit_flood(base)
        store = front.store
        standings = store.load_jobs()
        assert sum(1 for job in standings.values() if job.deferred) == FLOOD

        # The call behind GET /jobs?status=… on the now-long store.  Broad:
        # every row matches, all FLOOD standings materialize.
        broad_ms, rows = _per_query_ms(
            lambda: store.query_jobs(tenant="bench", status="pending")
        )
        assert len(rows) == FLOOD
        # Selective: nothing settled yet, so zero rows match — the indexes
        # answer without a row, the replay reads and decodes all FLOOD.
        selective_ms, rows = _per_query_ms(
            lambda: store.query_jobs(tenant="bench", status="done")
        )
        assert rows == []
        replay_ms, rows = _per_query_ms(
            lambda: _replay_query(store, tenant="bench", status="done")
        )
        assert rows == []
    return {
        "submit_wall": submit_wall,
        "submit_rate": FLOOD / max(submit_wall, 1e-9),
        "broad_ms": broad_ms,
        "selective_ms": selective_ms,
        "replay_ms": replay_ms,
    }


def _first_event_latency(tmp_path) -> float:
    """Submit one real job; wall time from POST to its first SSE id frame."""
    front = ServiceFront(str(tmp_path / "sse.sqlite"), tenants=_registry(), fsync=False)
    with ServerThread(front) as server:
        base = "http://%s:%d" % server.address
        started = time.perf_counter()
        body = _post(base, "/jobs", {"benchmark": "Oracle-1", "config": CONFIG})
        (name,) = body["submitted"]
        request = urllib.request.Request(
            f"{base}/jobs/{name}/events", headers={"X-API-Key": API_KEY}
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            for raw in response:
                if raw.decode("utf-8").startswith("id: "):
                    return time.perf_counter() - started
    raise AssertionError("SSE stream closed without an event frame")


def test_store_indexed_query_ab(tmp_path):
    """Submit-flood throughput and query latency: indexed vs full replay."""
    entry = _measure_store(tmp_path)

    print()
    print(
        render_table(
            ["Submits", "Wall(s)", "Submits/s", "broad(ms)", "selective(ms)", "replay(ms)"],
            [
                [
                    FLOOD,
                    f"{entry['submit_wall']:.2f}",
                    f"{entry['submit_rate']:.0f}",
                    f"{entry['broad_ms']:.2f}",
                    f"{entry['selective_ms']:.3f}",
                    f"{entry['replay_ms']:.3f}",
                ]
            ],
            title=f"Service front job store ({FLOOD} deferred jobs, {CLIENTS} clients)",
        )
    )
    # The indexed query must win the selective race: a replay reads and
    # decodes all FLOOD standings whatever it returns, the indexed query
    # reads its tenant/status index and touches no rows.  (Submit
    # throughput and broad queries have no gate — there row
    # materialization and the HTTP layer dominate, not the lookup.)
    assert entry["selective_ms"] < entry["replay_ms"], (
        "indexed query_jobs slower than a full load_jobs replay: "
        f"{entry['selective_ms']:.3f}ms vs {entry['replay_ms']:.3f}ms"
    )


def test_sse_first_event_latency(tmp_path):
    """Submit → first SSE frame with one real job."""
    latency = _first_event_latency(tmp_path)
    # Liveness gate: the bridge must deliver while the job runs — a
    # post-hoc replay would sit behind the whole synthesis (~seconds).
    assert latency < 30.0
    print()
    print(
        render_table(
            ["FirstSSE(ms)"],
            [[f"{latency * 1000:.0f}"]],
            title="Time to first SSE event (submit -> first id frame)",
        )
    )
