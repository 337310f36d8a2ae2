"""Length-prefixed wire framing for the socket transport.

One frame carries one protocol message between a coordinator (the
:class:`~repro.exec.remote.RemoteFleet` side of a scheduler) and a remote
worker (:mod:`repro.worker`).  The layout is deliberately dumb::

    u32 json_length | u32 payload_length | json header | pickle payload

Both length words are big-endian.  The JSON *header* is a flat object whose
``type`` field routes the message (``hello`` / ``welcome`` / ``task`` /
``event`` / ``task_end`` / ``result`` / ``cancel`` / ``heartbeat`` /
``shutdown``); the optional *payload* is a Python pickle for the messages
that ship objects (task functions and arguments, session events, results,
exceptions).  Control messages keep an empty payload, so a protocol trace
is mostly human-readable JSON.

Payloads are pickles for the same reason the job store's ``spec`` fields
are: this is a trusted, same-codebase operational link (workers are
processes *you* started against *your* coordinator), not an interchange
format — never point a worker at an untrusted peer or vice versa.

Handshake: after the connection is up, the **worker** always speaks
first — a ``hello`` carrying :data:`WIRE_VERSION`, its worker id, slot
count and pid — regardless of which side dialed (a worker may ``--connect``
to a listening coordinator, or listen and be dialed).  The coordinator
answers ``welcome`` (echoing its version plus the heartbeat interval and
lease TTL the worker must honour) or ``reject`` and closes.  Version
checking is exact: the frame layout and the message vocabulary version
together, so a mismatch fails loudly at registration instead of corrupting
mid-run.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import socket
import struct
from typing import Any, Optional

from repro.exec import faults

#: Version of the frame layout *and* message vocabulary (exact-match check).
WIRE_VERSION = 1

#: Refuse frames larger than this: a corrupt length word must fail loudly,
#: not allocate gigabytes.  Generous — pool snapshots and result payloads
#: are kilobytes, not hundreds of megabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTHS = struct.Struct(">II")


class FrameError(RuntimeError):
    """The byte stream does not parse as a frame (torn, oversized, corrupt)."""


class ConnectionClosed(FrameError):
    """The peer closed the connection at a frame boundary (clean EOF)."""


class HandshakeError(FrameError):
    """Registration failed: version mismatch or a non-handshake first frame."""


def set_nodelay(sock) -> None:
    """Send small frames at once on a TCP connection (no-op for other sockets).

    Without ``TCP_NODELAY`` a streamed task's ``event``, ``task_end`` and
    ``result`` frames wait on Nagle's algorithm behind the peer's delayed
    ACK, about 40 ms per task.  Local workers talk over Unix socketpairs,
    which have no such delay and reject the option.
    """
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def dump_payload(obj: Any) -> bytes:
    """Pickle a frame payload (see the module docstring's trust model)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def load_payload(data: bytes) -> Any:
    return pickle.loads(data)


def _recv_exactly(sock, count: int) -> bytes:
    """Read exactly *count* bytes; '' mid-message is a torn frame."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError(f"connection closed {remaining} byte(s) into a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, header: dict, payload: bytes = b"") -> None:
    """Send one frame: header dict (JSON) plus an optional pickled payload."""
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(body) + len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body) + len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    # One sendall: small frames leave in one segment, and concatenating
    # keeps a concurrent sender (guarded by the caller's send lock) from
    # interleaving header and payload of different frames.
    data = _LENGTHS.pack(len(body), len(payload)) + body + payload
    injector = faults.active()
    if injector is not None:
        data = injector.before_send(sock, header, data)
    sock.sendall(data)


def recv_frame(sock) -> tuple[dict, bytes]:
    """Receive one frame; returns ``(header, payload_bytes)``.

    Raises :class:`ConnectionClosed` on a clean EOF between frames and
    :class:`FrameError` on a torn or unparseable one.
    """
    injector = faults.active()
    if injector is not None:
        injector.before_recv(sock)
    first = sock.recv(_LENGTHS.size)
    if not first:
        raise ConnectionClosed("peer closed the connection")
    while len(first) < _LENGTHS.size:
        more = sock.recv(_LENGTHS.size - len(first))
        if not more:
            raise FrameError("connection closed inside a frame length prefix")
        first += more
    json_length, payload_length = _LENGTHS.unpack(first)
    if json_length + payload_length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {json_length + payload_length} bytes "
            f"(> MAX_FRAME_BYTES); stream is corrupt or not a repro peer"
        )
    body = _recv_exactly(sock, json_length) if json_length else b""
    payload = _recv_exactly(sock, payload_length) if payload_length else b""
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame header is not JSON: {error}") from error
    if not isinstance(header, dict):
        raise FrameError(f"frame header must be an object, got {type(header).__name__}")
    return header, payload


# ----------------------------------------------------------------- handshake
def worker_hello(
    sock, *, worker_id: str, slots: int = 1, pid: Optional[int] = None
) -> dict:
    """Worker side of the handshake: send ``hello``, await ``welcome``.

    Returns the coordinator's ``welcome`` header (carrying ``heartbeat`` and
    ``lease`` intervals).  Raises :class:`HandshakeError` on rejection or
    version mismatch.
    """
    send_frame(
        sock,
        {
            "type": "hello",
            "version": WIRE_VERSION,
            "worker": worker_id,
            "slots": slots,
            "pid": pid,
        },
    )
    header, _payload = recv_frame(sock)
    if header.get("type") == "reject":
        raise HandshakeError(f"coordinator rejected registration: {header.get('reason')}")
    if header.get("type") != "welcome":
        raise HandshakeError(f"expected welcome, got {header.get('type')!r}")
    if header.get("version") != WIRE_VERSION:
        raise HandshakeError(
            f"wire version mismatch: coordinator speaks {header.get('version')}, "
            f"this worker speaks {WIRE_VERSION}"
        )
    return header


def effective_heartbeat(base: float, jitter: float, worker_id: str) -> float:
    """Deterministic per-worker heartbeat interval.

    With ``jitter`` at 0.3 each worker beats at ``base * (1 ± 0.3)``,
    spread by a hash of its id — so a fleet restarted en masse does not
    renew leases in lockstep, and the spread is reproducible (the same
    worker id always lands on the same interval).
    """
    if jitter <= 0:
        return base
    digest = hashlib.sha256(worker_id.encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return max(0.01, base * (1.0 + jitter * (2.0 * unit - 1.0)))


def coordinator_accept(
    sock, *, heartbeat_interval: float, lease_ttl: float, heartbeat_jitter: float = 0.0
) -> dict:
    """Coordinator side: await ``hello``, answer ``welcome`` (or ``reject``).

    Returns the worker's ``hello`` header.  On version mismatch the worker
    gets a ``reject`` with the reason before :class:`HandshakeError` is
    raised here — both sides fail loudly, neither hangs.

    The ``welcome``'s ``heartbeat`` field is the *effective* (jittered)
    interval this worker must honour; ``heartbeat_base`` and ``jitter``
    record how it was derived.  With ``heartbeat_jitter=0`` (the default)
    the effective interval equals the base, byte-for-byte compatible with
    pre-jitter coordinators.
    """
    header, _payload = recv_frame(sock)
    if header.get("type") != "hello":
        send_frame(sock, {"type": "reject", "reason": "expected hello"})
        raise HandshakeError(f"expected hello, got {header.get('type')!r}")
    if header.get("version") != WIRE_VERSION:
        reason = (
            f"wire version mismatch: worker speaks {header.get('version')}, "
            f"coordinator speaks {WIRE_VERSION}"
        )
        send_frame(sock, {"type": "reject", "reason": reason})
        raise HandshakeError(reason)
    if not isinstance(header.get("worker"), str) or not header["worker"]:
        send_frame(sock, {"type": "reject", "reason": "hello carries no worker id"})
        raise HandshakeError("hello carries no worker id")
    effective = effective_heartbeat(
        heartbeat_interval, heartbeat_jitter, header["worker"]
    )
    send_frame(
        sock,
        {
            "type": "welcome",
            "version": WIRE_VERSION,
            "heartbeat": effective,
            "heartbeat_base": heartbeat_interval,
            "jitter": heartbeat_jitter,
            "lease": lease_ttl,
        },
    )
    header["heartbeat_effective"] = effective
    return header


def parse_address(address: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) into a connectable pair."""
    text = address.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError as error:
        raise ValueError(f"invalid address {address!r}: port is not an integer") from error
    return host, port
