"""Remote worker runner: ``python -m repro.worker --connect HOST:PORT``.

One worker process serves one coordinator connection at a time.  It
registers over the :mod:`repro.exec.wire` handshake, heartbeats on the
interval the coordinator announced, and executes leased tasks — a leased
service job runs ``service._run_job_in_worker``; the worker itself is
transport only.  Typed session events stream back as ``event`` frames,
followed by a ``task_end`` end-of-stream marker and a ``result`` frame, in
that order on one TCP connection — which is what lets the coordinator's
:class:`~repro.exec.remote.SocketChannel` guarantee a task's stream is
fully drained before its future settles.

Two modes, same protocol (the worker always sends ``hello`` first):

* ``--connect HOST:PORT`` — dial a listening coordinator (a
  ``RemoteFleet(listen=...)``), retrying briefly; exit when the
  coordinator closes the connection.
* ``--listen [HOST:]PORT`` — bind and wait to be dialed (the
  ``MigrationService(workers=[...])`` / ``RemoteFleet(workers=[...])``
  topology).  Port 0 picks a free port; the bound address is printed as
  ``listening on HOST:PORT`` for harnesses to parse.  Serves coordinator
  connections sequentially until killed.

:class:`WorkerAgent` is also the body of every local worker process:
``WorkScheduler(max_workers=N)`` forks N of them, each serving one end of a
socketpair whose other end its private fleet holds
(:class:`~repro.exec.remote.LocalFleet`).

Cache state (compiled-closure caches, counterexample pools) lives in this
process's one worker artifact set (``repro.service._worker_artifacts``),
remote or local alike; pool deltas arrive inside task payloads and fresh
counterexamples travel back in results, so remote workers share
discoveries at job granularity without shared memory.
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import sys
import threading
import time
from typing import Optional

from repro.exec import faults, wire
from repro.exec.channel import build_work_context, run_streamed_task
from repro.exec.policy import RetryPolicy


class WorkerAgent:
    """Executes leased tasks for one coordinator connection."""

    def __init__(self, worker_id: Optional[str] = None, slots: int = 1):
        self.worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
        self.slots = max(1, slots)

    # ------------------------------------------------------------------ modes
    def connect(self, host: str, port: int, *, retries: int = 25, delay: float = 0.2) -> int:
        """Dial a listening coordinator; serve until it closes the link.

        Connect retries back off with jitter (seeded by the worker id, so a
        herd of restarted workers spreads out deterministically); *delay*
        remains the floor of the first retry's wait.
        """
        last_error: Optional[OSError] = None
        policy = RetryPolicy(backoff_base=delay, backoff_max=2.0, backoff_jitter=0.5)
        rng = random.Random(self.worker_id)
        for attempt in range(1, max(1, retries) + 1):
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
                break
            except OSError as error:
                last_error = error
                time.sleep(policy.backoff_delay(attempt, rng))
        else:
            print(f"{self.worker_id}: cannot reach {host}:{port}: {last_error}", file=sys.stderr)
            return 1
        with sock:
            # A generous handshake window (the coordinator may still be
            # starting its accept machinery); serve() lifts it once welcomed.
            sock.settimeout(30.0)
            return self.serve(sock)

    def listen(self, host: str, port: int) -> int:
        """Bind and serve dialing coordinators, one at a time, until killed."""
        with socket.create_server((host, port)) as listener:
            bound_host, bound_port = listener.getsockname()[:2]
            print(f"listening on {bound_host}:{bound_port}", flush=True)
            while True:
                conn, _peer = listener.accept()
                with conn:
                    self.serve(conn)

    # ------------------------------------------------------------------ serve
    def serve(self, sock: socket.socket) -> int:
        """Handshake then run the task loop until the coordinator closes."""
        wire.set_nodelay(sock)
        welcome = wire.worker_hello(
            sock, worker_id=self.worker_id, slots=self.slots, pid=os.getpid()
        )
        # Welcomed: idle gaps between leases are unbounded, so drop any
        # handshake timeout before entering the task loop.
        sock.settimeout(None)
        # The coordinator announces the *effective* (already jittered)
        # interval; ``jitter`` additionally spreads beat-to-beat timing so
        # renewals from a restarted fleet drift apart instead of phase-locking.
        heartbeat_interval = float(welcome.get("heartbeat") or 1.0)
        beat_jitter = max(0.0, float(welcome.get("jitter") or 0.0))
        beat_rng = random.Random(f"beat:{self.worker_id}")
        send_lock = threading.Lock()
        cancels: dict[int, threading.Event] = {}
        cancels_lock = threading.Lock()
        inflight = [0]
        done = threading.Event()

        def send(header: dict, payload: bytes = b"") -> None:
            with send_lock:
                wire.send_frame(sock, header, payload)

        def heartbeat_loop() -> None:
            while True:
                wait = heartbeat_interval
                if beat_jitter > 0:
                    wait *= 1.0 + beat_rng.uniform(-beat_jitter, beat_jitter)
                if done.wait(max(0.01, wait)):
                    return
                injector = faults.active()
                if injector is not None and not injector.before_heartbeat(self.worker_id):
                    continue  # injected dropped/stalled beat
                try:
                    send({"type": "heartbeat", "inflight": inflight[0]})
                except OSError:
                    return

        beat = threading.Thread(target=heartbeat_loop, name="repro-worker-beat", daemon=True)
        beat.start()
        try:
            while True:
                try:
                    header, payload = wire.recv_frame(sock)
                except (wire.ConnectionClosed, wire.FrameError, OSError):
                    return 0
                kind = header.get("type")
                if kind == "task":
                    task_id = header["task"]
                    cancel = threading.Event()
                    with cancels_lock:
                        cancels[task_id] = cancel
                    inflight[0] += 1
                    runner = threading.Thread(
                        target=self._run_task,
                        args=(send, header, payload, cancel),
                        kwargs={
                            "finish": lambda tid=task_id: self._finish_task(
                                tid, cancels, cancels_lock, inflight
                            )
                        },
                        name=f"repro-worker-task-{task_id}",
                        daemon=True,
                    )
                    runner.start()
                elif kind == "cancel":
                    with cancels_lock:
                        cancel = cancels.get(header.get("task"))
                    if cancel is not None:
                        cancel.set()
                elif kind == "shutdown":
                    return 0
                # Unknown types ignored: additive evolution within a version.
        finally:
            done.set()

    @staticmethod
    def _finish_task(task_id, cancels, cancels_lock, inflight) -> None:
        with cancels_lock:
            cancels.pop(task_id, None)
        inflight[0] -= 1

    def _run_task(self, send, header: dict, payload: bytes, cancel, *, finish) -> None:
        task_id = header["task"]
        name = header.get("name") or f"task-{task_id}"
        streaming = bool(header.get("streaming"))

        def emit(event) -> None:
            send({"type": "event", "task": task_id}, wire.dump_payload(event))

        def end_stream() -> None:
            if streaming:
                send({"type": "task_end", "task": task_id})

        try:
            try:
                fn, task_payload = wire.load_payload(payload)
                ctx = build_work_context(emit if streaming else None, cancel, streaming)
                value = run_streamed_task(
                    fn,
                    task_payload,
                    ctx,
                    end_stream,
                    context={"task": task_id, "name": name, "worker": self.worker_id},
                )
            except BaseException as error:  # noqa: BLE001 - shipped to the peer
                end_stream()
                self._send_result(send, task_id, name, ok=False, value=error)
            else:
                self._send_result(send, task_id, name, ok=True, value=value)
        except OSError:
            pass  # link is gone; the coordinator re-leases this task
        finally:
            finish()

    @staticmethod
    def _send_result(send, task_id: int, name: str, *, ok: bool, value) -> None:
        try:
            body = wire.dump_payload(value)
        except Exception as error:  # noqa: BLE001 - unpicklable result/exception
            ok = False
            body = wire.dump_payload(
                RuntimeError(f"remote task produced an unpicklable value: {error!r}")
            )
        # ``name`` rides along (additive within WIRE_VERSION 1) so fault
        # plans can target a specific task's result frame by name.
        send({"type": "result", "task": task_id, "name": name, "ok": ok}, body)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Run a remote synthesis worker for a repro coordinator.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect", metavar="HOST:PORT", help="dial a listening coordinator"
    )
    mode.add_argument(
        "--listen",
        metavar="[HOST:]PORT",
        help="bind and wait to be dialed (port 0 picks a free port)",
    )
    parser.add_argument("--id", dest="worker_id", default=None, help="worker id override")
    parser.add_argument(
        "--slots", type=int, default=1, help="concurrent task slots to advertise"
    )
    options = parser.parse_args(argv)
    plan_json = os.environ.get(faults.PLAN_ENV)
    if plan_json:
        # Chaos harnesses ship the coordinator's fault plan into worker
        # processes through the environment; activation is process-wide
        # for the worker's whole life.
        faults.install(faults.FaultPlan.from_json(plan_json))
    agent = WorkerAgent(worker_id=options.worker_id, slots=options.slots)
    if options.connect:
        host, port = wire.parse_address(options.connect)
        return agent.connect(host, port)
    host, port = wire.parse_address(options.listen)
    try:
        return agent.listen(host, port)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
