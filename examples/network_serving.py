"""Network serving: monitored streams over TCP, end to end in-process.

The ROADMAP's north star is serving heavy traffic; this example runs the
whole network stack — :class:`~repro.serve.MonitorServer` (asyncio,
newline-delimited JSON over TCP, request batching, bounded-queue
backpressure) and :class:`~repro.serve.ServiceClient` — against the
TV-news domain on an ephemeral localhost port:

1. three clients connect and concurrently stream scenes into their own
   feeds; the server coalesces their pipelined requests into service
   batches under a max-delay flush, yet every feed's units apply in
   send order;
2. assertion fires come back on the ingest responses, decoded to the
   same :class:`AssertionRecord` objects a direct ``service.ingest``
   returns (floats bit-exact through the wire);
3. a fleet report and the server's accounting ledger (offered ==
   accepted + rejected — rejections are explicit ``overloaded``
   errors, never silent drops) are fetched over the same connection;
4. the fleet is checkpointed over the wire, the server is torn down,
   and a *fresh* server restores the snapshot and keeps serving —
   the rolling-restart story, now over TCP.

The same server runs standalone via ``python -m repro serve tvnews``,
and ``servebench/run.py`` drives it with closed/open-loop load (see
the README's "Network serving").

Run:  python examples/network_serving.py
"""

import asyncio

from repro.serve import MonitorServer, MonitorService, ServerConfig, ServiceClient

N_CLIENTS = 3
UNITS_BEFORE_SNAPSHOT = 5
UNITS_AFTER_SNAPSHOT = 5


async def drive_feed(client: ServiceClient, stream_id: str, stream, n_units: int):
    """One client's closed loop: send a unit, await fires, repeat."""
    fired = 0
    for _ in range(n_units):
        records = await client.ingest(stream_id, next(stream))
        fired += len(records)
    return fired


async def main() -> None:
    service = MonitorService("tvnews")
    domain = service.domain
    server = MonitorServer(
        service, ServerConfig(port=0, max_batch=16, max_delay=0.005)
    )
    await server.start()
    print(f"Serving tvnews on {server.host}:{server.port} (ephemeral port)")

    # One independently seeded world per feed, one TCP client per feed.
    streams = {
        f"feed-{k}": domain.iter_stream(domain.build_world(seed=k))
        for k in range(N_CLIENTS)
    }
    clients = {
        stream_id: await ServiceClient.connect(server.host, server.port)
        for stream_id in streams
    }

    fired = await asyncio.gather(
        *(
            drive_feed(clients[sid], sid, streams[sid], UNITS_BEFORE_SNAPSHOT)
            for sid in streams
        )
    )
    print(f"Concurrent ingest done; fires per feed: {dict(zip(streams, fired))}")

    reporter = next(iter(clients.values()))
    stats = await reporter.stats()
    print(
        f"Ledger: offered={stats['offered']} accepted={stats['accepted']} "
        f"rejected={stats['rejected']} batches={stats['batches']}"
    )
    assert stats["offered"] == stats["accepted"] + stats["rejected"]

    # Checkpoint the fleet over the wire, then restart the server.
    checkpoint = await reporter.snapshot()
    for client in clients.values():
        await client.close()
    await server.stop()
    print("Server stopped; restoring the fleet into a fresh server ...")

    service2 = MonitorService("tvnews")
    server2 = MonitorServer(service2, ServerConfig(port=0))
    await server2.start()
    client = await ServiceClient.connect(server2.host, server2.port)
    restored = await client.restore(checkpoint)
    print(f"Restored streams: {restored}")

    for sid in streams:
        await drive_feed(client, sid, streams[sid], UNITS_AFTER_SNAPSHOT)
    fleet = await client.fleet_report()
    print(fleet.format_table())

    await client.close()
    await server2.stop()


if __name__ == "__main__":
    asyncio.run(main())
