"""Bench: the network front-end extracts concurrency from closed-loop clients.

Drives an in-process :class:`~repro.serve.MonitorServer` on the TV-news
domain (model-free raw units, so the timer sees the serving stack:
framing, admission, batch coalescing, the service fan-out) with 1 and
then 4 :class:`~repro.serve.ServiceClient` s over real TCP, each keeping
one unit in flight. Every point gets a fresh service and server, and
each client cycles through 32 units pre-generated before the clock
starts.

Asserted, per point: the ledger holds exactly (offered == accepted +
rejected; completed + failed == accepted), nothing failed, latencies
were measured and are finite. Across points: 4 clients reach at least
1.2x the items/s of 1 client — batching must extract concurrency, not
serialize it away. The ``SERVE_SCALING`` line is read by the nightly CI
job summary.

The benchmark of record for the deployed server is ``servebench/``
(``BENCHMARK.json``); this test only guards the scaling floor.
"""

import asyncio
import math

import pytest

from repro.core.seeding import derive_seed
from repro.domains.registry import get_domain
from repro.serve import MonitorServer, MonitorService, ServerConfig, ServiceClient

#: Timed TCP runs; excluded from the fast tier via -m "not slow".
pytestmark = pytest.mark.slow

DOMAIN = "tvnews"
UNITS_PER_CLIENT = 32
WARMUP_S = 0.5
WINDOW_S = 2.0


def unit_pools(n_clients: int) -> list:
    """Raw units per client, seeded per (client count, client index)."""
    domain = get_domain(DOMAIN)
    pools = []
    for k in range(n_clients):
        stream = domain.iter_stream(
            domain.build_world(derive_seed(0, "loadtest", n_clients, k))
        )
        pools.append([next(stream) for _ in range(UNITS_PER_CLIENT)])
    return pools


async def closed_loop_point(n_clients: int) -> dict:
    pools = unit_pools(n_clients)
    server = MonitorServer(
        MonitorService(DOMAIN),
        ServerConfig(max_batch=32, max_delay=0.002, max_pending=1024),
    )
    await server.start()
    loop = asyncio.get_running_loop()
    clients = []
    try:
        for _ in range(n_clients):
            clients.append(await ServiceClient.connect(server.host, server.port))
        latencies = []
        warmup_end = loop.time() + WARMUP_S
        t_end = warmup_end + WINDOW_S

        async def drive(client, stream_id, units):
            sent = 0
            while loop.time() < t_end:
                t0 = loop.time()
                await client.ingest(stream_id, units[sent % len(units)])
                sent += 1
                if t0 >= warmup_end:
                    latencies.append(loop.time() - t0)

        await asyncio.gather(
            *(drive(c, f"client-{k}", pools[k]) for k, c in enumerate(clients))
        )
        measured = loop.time() - warmup_end
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    return {
        "clients": n_clients,
        "latencies": latencies,
        "items_per_s": len(latencies) / measured,
        "stats": stats,
    }


def check_point(point: dict) -> None:
    stats = point["stats"]
    assert stats["offered"] == stats["accepted"] + stats["rejected"], stats
    assert stats["completed"] + stats["failed"] == stats["accepted"], stats
    assert stats["failed"] == 0, stats
    assert point["latencies"], point["clients"]
    assert all(math.isfinite(t) and t > 0 for t in point["latencies"])


def test_four_closed_loop_clients_outrun_one():
    one = asyncio.run(closed_loop_point(1))
    four = asyncio.run(closed_loop_point(4))
    for point in (one, four):
        check_point(point)
    ratio = four["items_per_s"] / one["items_per_s"]
    print(
        f"SERVE_SCALING domain={DOMAIN} clients=1 "
        f"items_per_s={one['items_per_s']:.1f} clients=4 "
        f"items_per_s={four['items_per_s']:.1f} ratio={ratio:.2f}"
    )
    assert four["items_per_s"] >= 1.2 * one["items_per_s"]
