"""Load harness for the network serving front-end (``repro loadtest``).

Drives a real :class:`~repro.serve.net.MonitorServer` over real TCP
sockets (self-hosted on an ephemeral port) with concurrent client
tasks, and measures what the ROADMAP's "heavy traffic" goal actually
needs measured: request latency percentiles (p50/p95/p99), sustained
throughput (items/s), and the backpressure ledger (offered = accepted +
rejected — rejections are explicit ``overloaded`` responses, never
silent drops).

Two load models, the standard pair for serving systems:

- **closed loop** — each client keeps exactly one request in flight
  (send, await, repeat); throughput self-limits to the server's
  capacity, so latency reflects service + batching time.
- **open loop** — clients offer units at a fixed aggregate ``rate``
  regardless of responses (pipelined), which is how real crowds behave;
  at saturation the bounded queue pushes back and the rejected count
  grows instead of latencies growing without bound.

A *saturation sweep* runs one measurement point per entry of
``client_counts`` (each point on a fresh service + server, so state
never leaks between points) and :func:`write_bench` persists the sweep
as ``BENCH_serve.json`` — the committed trajectory later PRs must not
regress (compare p99 and items/s line by line).

``shard_counts`` extends the sweep along a second axis: with
``shards > 1`` each point stands up a whole sharded fleet —
:class:`~repro.fleet.manager.FleetManager` worker processes behind an
in-process :class:`~repro.fleet.router.FleetRouter` — and the clients
drive the router through the identical protocol, so the 1-shard and
N-shard numbers are directly comparable.

Raw units are pre-generated from the domain's seeded worlds *before*
the clock starts (one world per client, cycled), so generation cost
never pollutes latency numbers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.seeding import derive_seed
from repro.serve.net import MonitorServer, ServerConfig, ServiceClient, ServiceError
from repro.serve.service import MonitorService
from repro.utils.io import atomic_write_json

#: Schema version of the ``BENCH_serve.json`` payload.
#: 2: points carry ``shards`` (the sharded-fleet sweep axis).
BENCH_FORMAT = 2


@dataclass(frozen=True)
class LoadTestConfig:
    """One sweep's knobs (see module docstring for the load models).

    ``items`` switches the closed loop from a timed window to exactly
    ``items`` units per client (deterministic work, used by the CI
    smoke); ``duration``/``warmup`` stay time-based either way.
    """

    domain: str = "tvnews"
    client_counts: tuple = (1, 4)
    shard_counts: tuple = (1,)
    mode: str = "closed"
    duration: float = 2.0
    warmup: float = 0.5
    items: "int | None" = None
    rate: float = 200.0
    seed: int = 0
    pool_units: int = 32
    max_batch: int = 32
    max_delay: float = 0.002
    max_pending: int = 1024

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if not self.client_counts or any(c < 1 for c in self.client_counts):
            raise ValueError(
                f"client_counts must be >= 1, got {self.client_counts!r}"
            )
        if not self.shard_counts or any(s < 1 for s in self.shard_counts):
            raise ValueError(
                f"shard_counts must be >= 1, got {self.shard_counts!r}"
            )
        if self.duration <= 0 and self.items is None:
            raise ValueError("duration must be > 0 (or give items)")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.items is not None and self.mode != "closed":
            raise ValueError("items is only valid in closed-loop mode")
        if self.items is not None and self.items < 1:
            raise ValueError(f"items must be >= 1, got {self.items}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.pool_units < 1:
            raise ValueError(f"pool_units must be >= 1, got {self.pool_units}")

    def as_dict(self) -> dict:
        return {
            "domain": self.domain,
            "client_counts": list(self.client_counts),
            "shard_counts": list(self.shard_counts),
            "mode": self.mode,
            "duration": self.duration,
            "warmup": self.warmup,
            "items": self.items,
            "rate": self.rate,
            "seed": self.seed,
            "pool_units": self.pool_units,
            "max_batch": self.max_batch,
            "max_delay": self.max_delay,
            "max_pending": self.max_pending,
        }


@dataclass
class LoadTestPoint:
    """One measurement point of the saturation sweep."""

    clients: int
    mode: str
    shards: int
    elapsed: float
    measured: float
    n_samples: int
    items_per_s: float
    latency_ms: dict
    offered: int
    accepted: int
    rejected: int
    completed: int
    failed: int
    batches: int

    @property
    def ledger_ok(self) -> bool:
        """No silent drops: every offered unit was accepted or rejected."""
        return self.offered == self.accepted + self.rejected

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "mode": self.mode,
            "shards": self.shards,
            "elapsed_s": self.elapsed,
            "measured_s": self.measured,
            "n_samples": self.n_samples,
            "items_per_s": self.items_per_s,
            "latency_ms": self.latency_ms,
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "ledger_ok": self.ledger_ok,
        }

    def summary_line(self) -> str:
        lat = self.latency_ms
        return (
            f"BENCH_SERVE clients={self.clients} shards={self.shards} "
            f"mode={self.mode} "
            f"p50_ms={_fmt(lat.get('p50'))} p95_ms={_fmt(lat.get('p95'))} "
            f"p99_ms={_fmt(lat.get('p99'))} items_per_s={self.items_per_s:.1f} "
            f"offered={self.offered} accepted={self.accepted} "
            f"rejected={self.rejected}"
        )


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


@dataclass
class LoadTestResult:
    """The whole sweep: one point per client count."""

    domain: str
    config: LoadTestConfig
    points: list = field(default_factory=list)

    def summary_lines(self) -> list:
        return [point.summary_line() for point in self.points]

    def format_table(self) -> str:
        from repro.utils.tables import format_table

        rows = [
            (
                point.clients,
                point.shards,
                point.mode,
                _fmt(point.latency_ms.get("p50")),
                _fmt(point.latency_ms.get("p95")),
                _fmt(point.latency_ms.get("p99")),
                f"{point.items_per_s:.1f}",
                point.offered,
                point.accepted,
                point.rejected,
                "yes" if point.ledger_ok else "NO",
            )
            for point in self.points
        ]
        return format_table(
            ["Clients", "Shards", "Mode", "p50 ms", "p95 ms", "p99 ms",
             "items/s", "Offered", "Accepted", "Rejected", "Ledger"],
            rows,
            title=f"Load test — domain {self.domain!r}, "
            f"{len(self.points)} point(s)",
        )


def _latency_stats(latencies: list) -> dict:
    if not latencies:
        return {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    arr = np.asarray(latencies, dtype=np.float64) * 1000.0
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _unit_pools(config: LoadTestConfig, n_clients: int) -> list:
    """Pre-generate ``pool_units`` raw units per client, seeded per
    (sweep seed, client count, client index) so points are independent
    and reproducible."""
    from repro.domains.registry import get_domain

    domain = get_domain(config.domain)
    pools = []
    for k in range(n_clients):
        world = domain.build_world(
            derive_seed(config.seed, "loadtest", n_clients, k)
        )
        stream = domain.iter_stream(world)
        pools.append([next(stream) for _ in range(config.pool_units)])
    return pools


async def _closed_client(
    client: ServiceClient,
    stream_id: str,
    units: list,
    t_end: float,
    warmup_end: float,
    items: "int | None",
    latencies: list,
) -> None:
    loop = asyncio.get_running_loop()
    sent = 0
    while (items is None and loop.time() < t_end) or (
        items is not None and sent < items
    ):
        raw = units[sent % len(units)]
        sent += 1
        t0 = loop.time()
        try:
            await client.ingest(stream_id, raw)
        except ServiceError as exc:
            if exc.type != "overloaded":
                raise
        else:
            if t0 >= warmup_end:
                latencies.append(loop.time() - t0)


async def _open_client(
    client: ServiceClient,
    stream_id: str,
    units: list,
    interval: float,
    t_end: float,
    warmup_end: float,
    latencies: list,
) -> None:
    loop = asyncio.get_running_loop()

    async def track(t0: float, future) -> None:
        envelope = await future
        t1 = loop.time()
        if envelope.get("ok") and t0 >= warmup_end:
            latencies.append(t1 - t0)

    trackers = []
    sent = 0
    next_send = loop.time()
    while True:
        now = loop.time()
        if now >= t_end:
            break
        if now < next_send:
            await asyncio.sleep(min(next_send - now, t_end - now))
            continue
        raw = units[sent % len(units)]
        sent += 1
        t0 = loop.time()
        future = client.submit("ingest", stream_id=stream_id, raw=raw)
        trackers.append(asyncio.create_task(track(t0, future)))
        next_send += interval
    await asyncio.gather(*trackers)


class _SinglePoint:
    """Endpoint for a 1-shard point: one in-process server."""

    def __init__(self, config: LoadTestConfig) -> None:
        self.config = config
        self.server: "MonitorServer | None" = None

    async def start(self) -> tuple:
        self.server = MonitorServer(
            MonitorService(self.config.domain),
            ServerConfig(
                max_batch=self.config.max_batch,
                max_delay=self.config.max_delay,
                max_pending=self.config.max_pending,
            ),
        )
        await self.server.start()
        return self.server.host, self.server.port

    async def stop(self) -> None:
        if self.server is not None:
            await self.server.stop()


class _FleetPoint:
    """Endpoint for an N-shard point: worker processes behind a router.

    The workers are real subprocesses (:class:`FleetManager`) so each
    shard gets its own GIL and pipeline; the router runs on the load
    generator's loop and serves the identical protocol, which is what
    makes the 1-shard and N-shard latency columns comparable.
    """

    def __init__(self, config: LoadTestConfig, n_shards: int) -> None:
        self.config = config
        self.n_shards = n_shards
        self.manager = None
        self.router = None
        self._workdir: "str | None" = None

    async def start(self) -> tuple:
        import shutil
        import tempfile

        from repro.fleet.manager import FleetManager
        from repro.fleet.router import FleetRouter

        loop = asyncio.get_running_loop()
        self._workdir = tempfile.mkdtemp(prefix="repro-fleet-loadtest-")
        self.manager = FleetManager(
            self.config.domain,
            self.n_shards,
            workdir=self._workdir,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay,
            max_pending=self.config.max_pending,
        )
        try:
            await loop.run_in_executor(None, self.manager.start)
        except Exception:
            shutil.rmtree(self._workdir, ignore_errors=True)
            raise
        self.router = FleetRouter(self.config.domain, self.manager.addresses())
        await self.router.start()
        return self.router.host, self.router.port

    async def stop(self) -> None:
        import shutil

        loop = asyncio.get_running_loop()
        if self.router is not None:
            await self.router.stop()
        if self.manager is not None:
            await loop.run_in_executor(None, self.manager.stop)
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)


async def _run_point(
    config: LoadTestConfig, n_clients: int, n_shards: int = 1
) -> LoadTestPoint:
    pools = _unit_pools(config, n_clients)
    endpoint = (
        _SinglePoint(config) if n_shards == 1 else _FleetPoint(config, n_shards)
    )
    host, port = await endpoint.start()
    loop = asyncio.get_running_loop()
    clients = [
        await ServiceClient.connect(host, port) for _ in range(n_clients)
    ]
    try:
        latencies: list = []
        t_start = loop.time()
        warmup_end = t_start + config.warmup
        t_end = warmup_end + config.duration
        if config.mode == "closed":
            tasks = [
                _closed_client(
                    clients[k],
                    f"client-{k}",
                    pools[k],
                    t_end,
                    warmup_end,
                    config.items,
                    latencies,
                )
                for k in range(n_clients)
            ]
        else:
            interval = n_clients / config.rate
            tasks = [
                _open_client(
                    clients[k],
                    f"client-{k}",
                    pools[k],
                    interval,
                    t_end,
                    warmup_end,
                    latencies,
                )
                for k in range(n_clients)
            ]
        await asyncio.gather(*tasks)
        elapsed = loop.time() - t_start
        measured = max(loop.time() - warmup_end, 1e-9)
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
        await endpoint.stop()
    return LoadTestPoint(
        clients=n_clients,
        mode=config.mode,
        shards=n_shards,
        elapsed=elapsed,
        measured=measured,
        n_samples=len(latencies),
        items_per_s=len(latencies) / measured,
        latency_ms=_latency_stats(latencies),
        offered=stats["offered"],
        accepted=stats["accepted"],
        rejected=stats["rejected"],
        completed=stats["completed"],
        failed=stats["failed"],
        batches=stats["batches"],
    )


def run_loadtest(config: "LoadTestConfig | None" = None, *, echo=None) -> LoadTestResult:
    """Run the full saturation sweep; one fresh server (or fleet) per
    ``(shards, clients)`` point.

    ``echo`` (e.g. ``print``) receives a progress line per point.
    """
    config = config if config is not None else LoadTestConfig()
    result = LoadTestResult(domain=config.domain, config=config)
    for n_shards in config.shard_counts:
        for n_clients in config.client_counts:
            point = asyncio.run(_run_point(config, n_clients, n_shards))
            result.points.append(point)
            if echo is not None:
                echo(point.summary_line())
    return result


def write_bench(result: LoadTestResult, path: str) -> dict:
    """Persist a sweep as ``BENCH_serve.json`` (atomic write).

    The file is a trajectory artifact: commit it next to the code so a
    later PR's sweep can be diffed point-by-point against this one.
    """
    payload = {
        "bench": "serve_loadtest",
        "format": BENCH_FORMAT,
        "domain": result.domain,
        "created_unix": int(time.time()),
        "config": result.config.as_dict(),
        "points": [point.as_dict() for point in result.points],
    }
    atomic_write_json(payload, path)
    return payload
