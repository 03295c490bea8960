"""One fleet shard: a :class:`~repro.serve.MonitorServer` in its own
process.

``python -m repro.fleet.worker DOMAIN --shard NAME --ready-file PATH``
is what :class:`~repro.fleet.manager.FleetManager` spawns, one process
per shard. A worker is deliberately *just* the PR-6 server — it knows
nothing about rings, routing, or the other shards; everything
fleet-shaped (ownership, migration, merged reports) lives in the router
in front of it. That keeps a shard bit-identical to a standalone
``python -m repro serve`` process, which is exactly what the migration
determinism proofs rely on.

The ready file announces ``{host, port, pid, shard, domain}`` once the
socket is listening (atomic write, so a watching manager never reads a
torn file). SIGINT/SIGTERM drain the pipeline and — with ``--snapshot``
— write the shard's service snapshot before exiting, mirroring
``repro serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.domains.registry import domain_names
from repro.serve import MonitorServer, MonitorService, ServerConfig
from repro.serve.snapshot import load_snapshot_payload, save_service_snapshot
from repro.utils.io import atomic_write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.worker",
        description="Run one shard of a sharded monitor fleet.",
    )
    parser.add_argument("domain", help="registered domain (av, ecg, tvnews, video)")
    parser.add_argument("--shard", required=True, metavar="NAME",
                        help="this shard's name on the ring (e.g. shard-0)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral; see --ready-file)")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write {host, port, pid, shard, domain} JSON once listening")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="service checkpoint: restored first if it exists, "
                             "written on shutdown")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="most raw units coalesced into one service batch")
    parser.add_argument("--max-delay", type=float, default=0.005,
                        help="seconds a unit may wait for batch-mates before flush")
    parser.add_argument("--max-pending", type=int, default=1024,
                        help="admitted-unit bound; beyond it requests get "
                             "an explicit `overloaded` error")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.domain not in domain_names():
        raise SystemExit(
            f"error: unknown domain {args.domain!r}; "
            f"registered domains: {', '.join(domain_names())}"
        )
    try:
        service = MonitorService(args.domain)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            max_pending=args.max_pending,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    if args.snapshot and os.path.exists(args.snapshot):
        try:
            service.restore(load_snapshot_payload(args.snapshot))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None

    async def _main() -> None:
        server = MonitorServer(service, config)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Explicit handlers, like `repro serve`: the manager stops shards
        # with SIGTERM, which must drain the pipeline (and write the
        # shutdown snapshot) instead of killing us mid-batch.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(
            f"[{args.shard}] {args.domain} shard on {server.host}:{server.port}",
            flush=True,
        )
        if args.ready_file:
            atomic_write_json(
                {
                    "host": server.host,
                    "port": server.port,
                    "pid": os.getpid(),
                    "shard": args.shard,
                    "domain": args.domain,
                },
                args.ready_file,
            )
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # signal arrived before the handlers did
        pass
    if args.snapshot:
        save_service_snapshot(service, args.snapshot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
