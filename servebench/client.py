"""Benchmark client: drives the locally spawned server over loopback TCP.

The client talks only to the server (or fleet) that ``run.py`` spawned
on 127.0.0.1 for this run. All streams and control ops share at most
``nproc`` connections (request ids correlate responses). Ingest frames
are glued from bytes encoded at set-up, and responses are matched by
their ``{"id":N,"ok":...`` prefix without a full JSON decode, so the
client's own cost per unit stays far below the server's.

Time is ``perf_counter_ns`` throughout. Per unit the client keeps a
span, ``[stream, i, request id, scheduled, sent, received, ok, response
bytes]``: in a closed loop a unit is scheduled when the previous
response of its stream arrived, in an open loop at ``start + k / rate``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

#: Column order of a unit record (``Client.units`` rows).
UNIT_COLUMNS = ("stream", "i", "id", "sched_ns", "send_ns", "recv_ns", "ok", "resp_bytes")
STREAM, INDEX, RID, SCHED, SEND, RECV, OK, RESP = range(len(UNIT_COLUMNS))

#: Seconds between two ping probes in a probed slice.
PROBE_EVERY = 0.025
#: Seconds per slice of a traced window: probes run in every other
#: slice, so probed and unprobed units see sessions of the same age.
PROBE_SLICE = 0.5
#: Seconds per live-migration slot on a fleet (``Client._migrations``).
MIGRATE_EVERY = 0.5
#: Seconds to wait for outstanding responses after the last send.
SETTLE_TIMEOUT = 60.0


class _Wire(asyncio.Protocol):
    """One NDJSON connection; hands each complete line to the client."""

    def __init__(self, client: "Client") -> None:
        self.client = client
        self.buf = bytearray()
        self.transport = None
        self.closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter_ns()
        scan = len(self.buf)  # no newline before the new bytes
        self.buf += data
        start = 0
        while True:
            end = self.buf.find(b"\n", scan)
            if end < 0:
                break
            self.client._on_line(bytes(self.buf[start:end + 1]), now)
            start = scan = end + 1
        del self.buf[:start]

    def connection_lost(self, exc) -> None:
        if not self.closing:
            self.client._on_lost(exc)

    def write(self, data: bytes) -> None:
        self.transport.write(data)

    def close(self) -> None:
        self.closing = True
        self.transport.close()


class Client:
    """Drive one workload against a started deployment.

    ``run(warmup, seconds)`` sends for ``warmup + seconds`` seconds; the
    measured window spans ``bounds[0]`` to ``bounds[1]``, and ``cpu_s``
    holds the servers' CPU seconds at both edges. With ``probe`` set,
    every other ``PROBE_SLICE`` of the window (see :meth:`probed`)
    carries ping probes (the front door and every server process
    directly, on probe connections of their own), and ``stats`` is read
    at both edges.
    """

    def __init__(self, workload, inputs, deployment) -> None:
        self.workload = workload
        self.inputs = inputs
        self.deployment = deployment
        self.wires: list = []
        self.units: list = []
        self.sent = [0] * workload.streams
        self.pending: dict = {}
        self.next_id = 0
        self.in_flight = 0
        self.transport_errors = 0
        self.migrations: list = []  # [start_ns, end_ns]
        self.pings: list = []  # [kind, start_ns, end_ns]
        self.stats: dict = {}
        self.cpu_s: list = []
        self.owner: dict = {}
        self.bounds: list = []
        self.stop_ns = 0
        self.lost: "asyncio.Future | None" = None
        self.idle: "asyncio.Event | None" = None

    # -- connections -------------------------------------------------------
    async def open(self) -> None:
        self.lost = asyncio.get_running_loop().create_future()
        self.idle = asyncio.Event()
        # At most nproc connections, and never more than 2, so the
        # workload is the same on a bigger host.
        n_wires = min(os.cpu_count() or 1, 2)
        self.wires = [await self._dial(self.deployment.address) for _ in range(n_wires)]

    def close(self) -> None:
        for wire in self.wires:
            wire.close()
        if not self.lost.done():
            self.lost.cancel()

    async def _dial(self, address: tuple) -> _Wire:
        loop = asyncio.get_running_loop()
        _transport, wire = await loop.create_connection(lambda: _Wire(self), *address)
        return wire

    def _on_line(self, line: bytes, now: int) -> None:
        if line.startswith(b'{"id":'):
            comma = line.find(b",", 6)
            rid = int(line[6:comma])
            ok = line.startswith(b'"ok":true', comma + 1)
        else:  # not the compact layout: take the slow path
            doc = json.loads(line)
            rid, ok = doc.get("id"), bool(doc.get("ok"))
        handler = self.pending.pop(rid, None)
        if handler is not None:
            handler(ok, line, now)

    def _on_lost(self, exc) -> None:
        self.transport_errors += len(self.pending)
        self.pending.clear()
        if not self.lost.done():
            self.lost.set_exception(ConnectionError(f"connection lost: {exc}"))

    def _rid(self) -> int:
        self.next_id += 1
        return self.next_id

    async def call(self, wire: _Wire, op: str, **fields) -> dict:
        """Send one control op and return its ``result`` (raise on error)."""
        rid = self._rid()
        future = asyncio.get_running_loop().create_future()

        def done(ok: bool, line: bytes, now: int) -> None:
            if not future.done():
                future.set_result(json.loads(line))

        self.pending[rid] = done
        request = {"op": op, "id": rid}
        request.update(fields)
        wire.write(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        await asyncio.wait([future, self.lost], return_when=asyncio.FIRST_COMPLETED)
        if not future.done():
            self.lost.result()  # raises the connection error
        doc = future.result()
        if not doc.get("ok"):
            raise RuntimeError(f"{op} failed: {doc.get('error')}")
        return doc.get("result") or {}

    # -- ingest ------------------------------------------------------------
    def _send(self, stream: int, sched_ns: int) -> None:
        i = self.sent[stream]
        self.sent[stream] = i + 1
        rid = self._rid()
        record = [stream, i, rid, sched_ns, 0, 0, False, 0]
        self.units.append(record)
        self.in_flight += 1
        self.pending[rid] = lambda ok, line, now: self._on_unit(record, ok, line, now)
        data = self.inputs.frame(stream, i, rid)
        record[SEND] = time.perf_counter_ns()
        self.wires[stream % len(self.wires)].write(data)

    def _on_unit(self, record: list, ok: bool, line: bytes, now: int) -> None:
        record[RECV] = now
        record[OK] = ok
        record[RESP] = len(line)
        self.in_flight -= 1
        if self.workload.mode == "closed" and now < self.stop_ns:
            self._send(record[STREAM], now)
        elif self.in_flight == 0:
            self.idle.set()

    async def _scheduled(self, t0: int) -> None:
        """Open loop: unit ``k`` is due at ``t0 + k / rate``, round-robin."""
        period = 1e9 / self.workload.rate
        k = 0
        while True:
            now = time.perf_counter_ns()
            due = t0 + int(k * period)
            while due <= now and due < self.stop_ns:
                self._send(k % self.workload.streams, due)
                k += 1
                due = t0 + int(k * period)
            if due >= self.stop_ns:
                return
            await asyncio.sleep((due - time.perf_counter_ns()) / 1e9)

    # -- control traffic beside ingest ---------------------------------------
    async def _migrations(self, t0: int) -> None:
        """A live ``migrate`` through the fleet's router in every
        ``MIGRATE_EVERY`` slot: round-robin over the streams, each time to
        a shard that does not own the stream.

        Each start falls at a seeded random point of its slot. At a fixed
        phase to the open-loop schedule, whether a unit of the moved
        stream lands inside the freeze flips on a few ms of migrate time,
        which made ``p99_ms`` jump from run to run.
        """
        every = int(MIGRATE_EVERY * 1e9)
        sids = self.inputs.stream_ids
        shards = sorted(self.deployment.ready["shards"])
        phase = random.Random(self.inputs.seed)
        m = 0
        while True:
            due = t0 + int((m + phase.random()) * every)
            if due >= self.stop_ns:
                return
            await asyncio.sleep(max(0, due - time.perf_counter_ns()) / 1e9)
            sid = sids[m % len(sids)]
            wire = self.wires[m % len(self.wires)]
            start = time.perf_counter_ns()
            if sid not in self.owner:
                self.owner.update((await self.call(wire, "ring"))["owners"])
            target = shards[(shards.index(self.owner[sid]) + 1) % len(shards)]
            result = await self.call(wire, "migrate", stream_id=sid, to=target)
            self.owner[sid] = result["to"]
            self.migrations.append([start, time.perf_counter_ns()])
            m += 1

    async def _edges(self, probe: bool) -> None:
        """At both edges of the window: the servers' CPU seconds and,
        when probing, a ``stats`` answer."""
        for edge, due in zip(("window_start", "window_end"), self.bounds):
            await asyncio.sleep(max(0, due - time.perf_counter_ns()) / 1e9)
            self.cpu_s.append(self.deployment.cpu_s())
            if probe:
                self.stats[edge] = await self.call(self.wires[0], "stats")

    def probed(self, ns: int) -> bool:
        """True when ``ns`` falls in a slice of the window that carries probes."""
        return (ns - self.bounds[0]) // int(PROBE_SLICE * 1e9) % 2 == 0

    async def _probes(self) -> None:
        """Ping the front door and every server process directly, in the
        probed slices of the window."""
        front = await self._dial(self.deployment.address)
        direct = [await self._dial(addr) for addr in self.deployment.direct]
        slice_ns = int(PROBE_SLICE * 1e9)
        try:
            k = 0
            while True:
                now = time.perf_counter_ns()
                if now >= self.bounds[1]:
                    return
                if now < self.bounds[0] or not self.probed(now):
                    # Sleep to the start of the next slice (the first one
                    # before the window opens).
                    n = max(-1, (now - self.bounds[0]) // slice_ns)
                    await asyncio.sleep((self.bounds[0] + (n + 1) * slice_ns - now) / 1e9)
                    continue
                if k % 2 == 0:
                    wire, kind = front, "front"
                else:
                    wire, kind = direct[(k // 2) % len(direct)], "direct"
                start = time.perf_counter_ns()
                await self.call(wire, "ping")
                self.pings.append([kind, start, time.perf_counter_ns()])
                k += 1
                await asyncio.sleep(PROBE_EVERY)
        finally:
            for wire in [front, *direct]:
                wire.close()

    # -- the run -----------------------------------------------------------
    async def run(self, warmup: float, seconds: float, probe: bool = False) -> None:
        t0 = time.perf_counter_ns()
        self.bounds = [t0 + int(warmup * 1e9), t0 + int((warmup + seconds) * 1e9)]
        self.stop_ns = self.bounds[1]
        # ``_edges`` lasts until ``stop_ns``, so the settle wait below
        # starts only after the last send, in a closed loop too.
        side = [asyncio.ensure_future(self._edges(probe))]
        if self.workload.shards:
            side.append(asyncio.ensure_future(self._migrations(t0)))
        if self.workload.mode == "closed":
            for stream in range(self.workload.streams):
                self._send(stream, t0)
        else:
            side.append(asyncio.ensure_future(self._scheduled(t0)))
        if probe:
            side.append(asyncio.ensure_future(self._probes()))
        try:
            await asyncio.gather(*side)
            self.idle.clear()  # it may have been set by a lull mid-run
            if self.in_flight:
                waiter = asyncio.ensure_future(self.idle.wait())
                await asyncio.wait([waiter, self.lost], timeout=SETTLE_TIMEOUT,
                                   return_when=asyncio.FIRST_COMPLETED)
                waiter.cancel()
        finally:
            for task in side:
                task.cancel()
        if self.lost.done() and not self.lost.cancelled():
            self.lost.result()
        if self.in_flight:
            raise RuntimeError(f"{self.in_flight} unit(s) unanswered after the run")
