"""Server CLI: ``python -m repro.server --listen HOST:PORT --store PATH``.

Boots one :class:`~repro.server.ServiceFront` (resuming any history the
store already holds) behind the stdlib threaded HTTP server, one thread
per connection, serving on the main thread until interrupted.  The bound
address is printed as ``listening on HOST:PORT`` for harnesses to parse
(port 0 picks a free port — the same contract as ``python -m
repro.worker --listen``).

Tenants come from ``--tenants-file tenants.json`` (see
:meth:`~repro.server.tenants.TenantRegistry.from_file`) or inline
``--tenant name:key[:weight]`` flags (default quotas); with neither, the
server runs open (one implicit unlimited tenant).
"""

from __future__ import annotations

import argparse
import sys

from repro.exec.wire import parse_address
from repro.server.app import ServiceFront, make_server
from repro.server.tenants import TenantRegistry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="HOST:PORT to bind (port 0 picks a free port; default %(default)s)",
    )
    parser.add_argument(
        "--store",
        required=True,
        help="SQLite job store path (created if missing; a sqlite: prefix is "
        "accepted). A log of the retired JSONL store is refused",
    )
    parser.add_argument(
        "--tenants-file", default=None, help="JSON tenant registry file"
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME:KEY[:WEIGHT]",
        help="inline tenant spec (repeatable; default quotas)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=0,
        help="service worker processes (0 = inline execution; default 0)",
    )
    parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="trade store durability for append latency",
    )
    args = parser.parse_args(argv)

    host, port = parse_address(args.listen)
    if args.tenants_file:
        registry = TenantRegistry.from_file(args.tenants_file)
    elif args.tenant:
        registry = TenantRegistry.from_specs(args.tenant)
    else:
        registry = TenantRegistry()

    front = ServiceFront(
        args.store,
        tenants=registry,
        max_workers=args.max_workers,
        fsync=not args.no_fsync,
    )
    server = make_server(front, host, port)
    bound = server.server_address
    print(f"listening on {bound[0]}:{bound[1]}", flush=True)
    front.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        front.stop()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
