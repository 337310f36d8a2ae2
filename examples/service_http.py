"""Driving the ``repro.server`` service front as a plain HTTP client.

Since API v2.3.0 the HTTP front is part of the library
(:mod:`repro.server`): an asyncio multi-tenant server with per-tenant
quotas, weighted fair scheduling, SSE event streaming, and a durable job
store (indexed SQLite).  This example is therefore a *client*: it
boots a server in-process (:class:`~repro.server.ServerThread` — exactly
what ``python -m repro.server`` wraps) and then speaks nothing but HTTP
and SSE to it, the way an external consumer would:

* ``POST /jobs``                — submit a batch (authenticated, quota-gated);
* ``GET  /jobs/{name}/events``  — stream the typed session events as SSE,
  and resume the stream gap-free with ``Last-Event-ID``;
* ``POST /jobs/{name}/cancel``  — cooperative cancellation;
* ``GET  /jobs``                — the tenant's job responses;
* kill the server mid-batch, boot a fresh one on the same store, and watch
  the interrupted batch finish (``POST /resume`` adopts deferred records;
  interrupted-mid-run jobs are re-pinned and rerun at boot).

Run with::

    python examples/service_http.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import urllib.error
import urllib.request

from repro.eval.reporting import render_service_report
from repro.server import ServerThread, ServiceFront, Tenant, TenantQuota, TenantRegistry

API_KEY = "k-demo"
CONFIG = {"verifier_random_sequences": 25}


def _registry() -> TenantRegistry:
    return TenantRegistry(
        [
            Tenant(
                name="demo",
                api_key=API_KEY,
                weight=2,
                quota=TenantQuota(max_queued=16, max_running=4, submit_rate=0.0),
            )
        ]
    )


def _request(base: str, path: str, payload: dict | None = None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, headers={"X-API-Key": API_KEY}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _stream_events(base: str, name: str, *, after: int = 0) -> list[tuple[int, str]]:
    """Consume one SSE stream to its ``job_settled`` end; (id, kind) pairs."""
    request = urllib.request.Request(
        f"{base}/jobs/{name}/events",
        headers={"X-API-Key": API_KEY, "Last-Event-ID": str(after)},
    )
    frames: list[tuple[int, str]] = []
    with urllib.request.urlopen(request, timeout=120) as response:
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


def _poll_until_settled(base: str) -> list[dict]:
    while True:
        _, responses = _request(base, "/jobs")
        if responses and all(
            r["status"] not in ("pending", "running") for r in responses
        ):
            return responses
        time.sleep(0.1)


def _serve(store: str) -> tuple[ServerThread, str]:
    server = ServerThread(ServiceFront(store, tenants=_registry())).start()
    return server, "http://%s:%d" % server.address


def main() -> None:
    store = "sqlite:" + os.path.join(tempfile.mkdtemp(prefix="repro-srv-"), "jobs.db")

    # ---- generation 1: submit, stream, cancel — leave deferred work behind
    server, base = _serve(store)
    print(f"service front listening on {base} (store: {store})")
    try:
        status, submitted = _request(
            base, "/jobs", {"benchmark": "coachup", "variants": 2, "config": CONFIG}
        )
        names = submitted["submitted"]
        print(f"submitted {len(names)} jobs (priorities {submitted['priorities']})")

        # Cancel the last job while the batch runs.
        print(_request(base, f"/jobs/{names[-1]}/cancel", {})[1])

        # Live-stream the first job's typed events to its terminal frame...
        frames = _stream_events(base, names[0])
        kinds = [kind for _id, kind in frames]
        print(f"SSE stream of {names[0]}: {' -> '.join(kinds)}")
        # ...then prove Last-Event-ID resume: reconnecting after the second
        # id replays exactly the rest, no gaps, no duplicates.
        resumed_frames = _stream_events(base, names[0], after=frames[1][0])
        assert [f for f in resumed_frames] == frames[2:], (resumed_frames, frames)
        print(f"reconnect after id {frames[1][0]} replayed {len(resumed_frames)} frames")

        responses = _poll_until_settled(base)

        # Enqueue one more job WITHOUT running it: a deferred record is what
        # an interrupted submission looks like in the store.
        _, deferred = _request(
            base, "/jobs", {"benchmark": "Oracle-1", "defer": True, "config": CONFIG}
        )
        deferred_name = deferred["submitted"][0]
        print(f"deferred (recorded, not started): {deferred['submitted']}")
        print()
        print(render_service_report(responses, title="Jobs via service front (generation 1)"))
    finally:
        server.stop()
    print("\nserver stopped with deferred work in the store; restarting...\n")

    # ---- generation 2: fresh front, same store — resume finishes the batch
    server, base = _serve(store)
    try:
        # Boot already re-pinned the store's unfinished records and queued
        # them (settled jobs come back verbatim); POST /resume is for records
        # appended by external writers while the server runs, so it finds
        # nothing left to adopt here.
        _, resumed = _request(base, "/resume", {})
        print(f"POST /resume after boot-time adoption: {resumed['resumed']}")
        responses = _poll_until_settled(base)
        print()
        print(render_service_report(responses, title="Jobs via service front (after resume)"))
        _, one = _request(base, f"/jobs/{deferred_name}")
        assert one["status"] not in ("pending", "running"), one
        print()
        print(f"Deferred job {deferred_name!r} finished after restart (truncated):")
        print(json.dumps(one, indent=2)[:500], "...")
    finally:
        server.stop()


if __name__ == "__main__":
    main()
