"""The fleet's front door: route streams to shards, migrate them live.

:class:`FleetRouter` is an asyncio TCP server speaking exactly the
NDJSON protocol of a single :class:`~repro.serve.MonitorServer`
(:mod:`repro.serve.net`) — a :class:`~repro.serve.ServiceClient` or
``servebench`` pointed at a router cannot tell it from one big
server. Behind it, each stream lives on exactly one worker shard,
chosen by the :class:`~repro.fleet.ring.RoutingTable`.

Routing invariants (``tests/fleet/test_router.py`` pins each):

- **Per-stream FIFO end to end.** Ingest requests are forwarded to the
  owning shard *synchronously, in arrival order*, inside the callback
  that read the line; each forwarded unit carries a callback that
  answers the client when the shard's response arrives, so nothing
  awaits between reading a unit and forwarding it. Two units of one
  stream can never reorder, even across interleaved connections, a
  migration, or a shard redial.
- **Typed errors, never hangups.** A dead shard surfaces as a
  ``shard-unavailable`` error payload naming the shard; requests queued
  while a shard link is redialing are flushed in order once it returns,
  and requests that were *in flight* when the connection died are failed
  (never resent — a resend could double-ingest against state the shard
  already applied before crashing).
- **Merged views.** ``fleet_report`` answers every shard's stream
  reports in one document, as a single server would (rows in router
  first-seen order); the reports pass through as the shards encoded
  them. ``stats`` sums the shard ledgers and carries the per-stream and
  per-shard breakdowns.

**Live migration** (the ``migrate``/``rebalance`` ops) moves a stream
between shards mid-run with zero unit loss or reorder:

1. *Quiesce* — freeze the stream (new units buffer at the router) and
   drain its in-flight responses, leaving the source at a raw-unit
   boundary (the shard's single pipeline guarantees a control op queued
   after N ingests sees all N applied);
2. *Snapshot* — ``snapshot_stream`` on the source (validating the
   requested ``tick`` against the session's consumed-unit count);
3. *Restore* — ``restore_stream`` on the destination, then ``evict``
   on the source;
4. *Flip* — pin the stream to the destination in the routing table and
   flush the buffered units there, in order.

A migrated stream's fires, reports, and final state are bit-identical
to a never-migrated run — including migrations straddling an
``apply_suite`` reconfiguration or a client-side model hot-swap
(``tests/fleet/test_migration.py``).

The ``snapshot``/``restore`` ops extend the same quiesce to the whole
fleet: gate all admissions, drain everything, snapshot every shard, and
compose one :func:`~repro.fleet.snapshot.fleet_snapshot_payload`.
"""

from __future__ import annotations

import asyncio
import functools
from collections import OrderedDict
from dataclasses import dataclass

from repro.fleet.ring import HashRing, RoutingTable
from repro.fleet.snapshot import (
    SnapshotFormatError,
    fleet_snapshot_payload,
    validate_fleet_payload,
)
from repro.serve.net import (
    _BAD_INGEST,
    ServiceClient,
    ServiceError,
    _Connection,
    _error_doc,
    _ingest_pairs,
    _LineServer,
)
from repro.utils.framing import MAX_FRAME_BYTES, FrameError


@dataclass(frozen=True)
class RouterConfig:
    """Network and shard-link knobs of :class:`FleetRouter`.

    ``link_retries``/``link_backoff``/``link_max_backoff`` bound how long
    a shard link redials a lost worker before declaring it dead; while
    redialing, new requests queue (in order), and once dead every request
    for that shard fails fast with ``shard-unavailable``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame_bytes: int = MAX_FRAME_BYTES
    replicas: int = 64
    link_retries: int = 8
    link_backoff: float = 0.05
    link_max_backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.link_retries < 1:
            raise ValueError(f"link_retries must be >= 1, got {self.link_retries}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


class ShardUnavailableError(ConnectionError):
    """A shard that cannot currently take requests (dead or mid-crash)."""

    def __init__(self, shard: str, cause) -> None:
        super().__init__(f"shard {shard!r} is unavailable: {cause}")
        self.shard = shard
        self.cause = cause


class _RouterOpError(Exception):
    """An op-level failure the router answers with a typed error doc."""

    def __init__(self, error_type: str, message: str, **extra) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.extra = extra


class _ShardLink:
    """One persistent connection to one worker shard.

    :meth:`submit` writes the request before it returns (no await),
    which is what preserves per-stream FIFO order across everything the
    router forwards, and hands back the client's own response future.
    On a lost connection the link redials with bounded exponential
    backoff; requests submitted while redialing queue in order, requests
    in flight at the moment of death fail (:meth:`unavailable` names the
    error) — deliberately *not* resent, because the shard may have
    applied them before crashing.
    """

    def __init__(self, name: str, host: str, port: int, config: RouterConfig) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.config = config
        self._client: "ServiceClient | None" = None
        self._backlog: list = []
        self._redial_task: "asyncio.Task | None" = None
        self._dead = False
        self._last_error: "Exception | None" = None

    async def start(self) -> None:
        self._client = await ServiceClient.connect(self.host, self.port)

    async def close(self) -> None:
        if self._redial_task is not None:
            self._redial_task.cancel()
            try:
                await self._redial_task
            except asyncio.CancelledError:
                pass
            self._redial_task = None
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()
        self._dead = True
        self._fail_backlog(ConnectionError("link closed"))

    @property
    def alive(self) -> bool:
        return not self._dead

    def submit(self, op: str, fields: dict) -> "asyncio.Future":
        """Send one request. The future resolves to the shard's response
        envelope, or fails with a :class:`ConnectionError` when the
        request cannot be answered (pass it to :meth:`unavailable`)."""
        self._check_connection()
        if self._client is not None:
            return self._client.submit(op, **fields)
        future = asyncio.get_running_loop().create_future()
        if self._dead:
            future.set_exception(ShardUnavailableError(self.name, self._last_error))
        else:
            self._backlog.append((op, fields, future))
        return future

    async def request(self, op: str, **fields) -> dict:
        """Call-and-wait; raises :class:`ServiceError` on ``ok: false``
        and :class:`ShardUnavailableError` on transport loss."""
        try:
            envelope = await self.submit(op, fields)
        except (ConnectionError, FrameError) as exc:
            raise self.unavailable(exc) from None
        if not envelope.get("ok"):
            raise ServiceError(envelope.get("error"))
        return envelope.get("result") or {}

    def unavailable(self, exc: Exception) -> ShardUnavailableError:
        """The error to report for a request that failed with ``exc``.
        The connection died with it in flight, so start redialing for
        later requests."""
        self._check_connection()
        if isinstance(exc, ShardUnavailableError):
            return exc
        return ShardUnavailableError(self.name, exc)

    def _check_connection(self) -> None:
        if self._client is None or self._client.connected:
            return
        client, self._client = self._client, None
        asyncio.ensure_future(client.close())
        if self._redial_task is None or self._redial_task.done():
            self._redial_task = asyncio.create_task(self._redial())

    async def _redial(self) -> None:
        delay = self.config.link_backoff
        for attempt in range(self.config.link_retries):
            try:
                client = await ServiceClient.connect(self.host, self.port)
            except OSError as exc:
                self._last_error = exc
                await asyncio.sleep(delay)
                delay = min(delay * 2, self.config.link_max_backoff)
            else:
                self._client = client
                backlog, self._backlog = self._backlog, []
                for op, fields, future in backlog:  # flush in arrival order
                    if future.done():
                        continue
                    try:
                        _chain(client.submit(op, **fields), future)
                    except ConnectionError as exc:  # died on arrival
                        future.set_exception(exc)
                return
        self._dead = True
        self._fail_backlog(self._last_error)

    def _fail_backlog(self, cause) -> None:
        backlog, self._backlog = self._backlog, []
        for _op, _fields, future in backlog:
            if not future.done():
                future.set_exception(ShardUnavailableError(self.name, cause))


def _chain(source: "asyncio.Future", target: "asyncio.Future") -> None:
    """Settle ``target`` the way ``source`` settles."""

    def _relay(fut: "asyncio.Future") -> None:
        if target.done():
            return
        if fut.exception() is not None:
            target.set_exception(fut.exception())
        else:
            target.set_result(fut.result())

    source.add_done_callback(_relay)


class _StreamRoute:
    """Router-side state of one stream: in-flight shard requests (for
    draining) and the hold-back buffer used while the stream is frozen
    mid-migration."""

    __slots__ = ("pending", "frozen", "buffer")

    def __init__(self) -> None:
        self.pending: "set[asyncio.Future]" = set()
        self.frozen = False
        self.buffer: list = []  # [(raw, on_doc), ...]


class FleetRouter(_LineServer):
    """Front a sharded fleet with one NDJSON endpoint (see module doc).

    Like :class:`~repro.serve.MonitorServer`, the router is driven by
    connection callbacks: a line is parsed, and its units forwarded to
    their shards, in the callback that read it. A forwarded unit's
    response arrives as a callback on the shard link's future, which
    writes the client's answer (an ``ingest_batch`` answers once its
    last pair is back). Only control ops run as tasks.

    Parameters
    ----------
    domain:
        The served domain name (every shard must serve the same one).
    addresses:
        ``{shard_name: (host, port)}`` — e.g.
        :meth:`~repro.fleet.manager.FleetManager.addresses`, or
        in-process :class:`~repro.serve.MonitorServer` s in tests.
    config:
        :class:`RouterConfig`; the ring is built from the shard names
        with ``config.replicas`` virtual nodes each.
    """

    _role = "router"

    def __init__(
        self,
        domain: str,
        addresses: dict,
        config: "RouterConfig | None" = None,
    ) -> None:
        super().__init__(domain)
        if not addresses:
            raise ValueError("a fleet needs at least one shard address")
        self.domain = domain
        self.config = config if config is not None else RouterConfig()
        self.table = RoutingTable(
            HashRing(addresses.keys(), replicas=self.config.replicas)
        )
        self._links = {
            name: _ShardLink(name, host, port, self.config)
            for name, (host, port) in sorted(addresses.items())
        }
        self._routes: "OrderedDict[str, _StreamRoute]" = OrderedDict()
        self._tasks: "set[asyncio.Task]" = set()
        self._control_lock = asyncio.Lock()
        self._gated = False
        self._gate_buffer: list = []  # [(stream_id, raw, on_doc), ...]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("router already started")
        for link in self._links.values():
            await link.start()
        await super().start()

    async def stop(self) -> None:
        await self._close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for link in self._links.values():
            await link.close()

    async def fleet_snapshot(self) -> dict:
        """Coordinated snapshot of the whole fleet (the ``snapshot`` op,
        callable in-process — what ``repro fleet --snapshot`` writes)."""
        return (await self._op_snapshot({}))["snapshot"]

    async def restore_fleet(self, payload: dict) -> dict:
        """Restore a :func:`fleet_snapshot` payload across the shards."""
        return await self._op_restore({"snapshot": payload})

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _pong(self) -> dict:
        return {**super()._pong(), "role": "router", "shards": list(self._links)}

    def _handle_request(self, op: str, request_id, request: dict, conn) -> None:
        if op in ("ingest", "ingest_batch"):
            # Submission MUST stay synchronous here: forwarding order to
            # the shard links is what defines per-stream FIFO.
            self._handle_ingest(op, request_id, request, conn)
            return
        handler = {
            "report": self._op_report,
            "evict": self._op_evict,
            "stats": self._op_stats,
            "fleet_report": self._op_fleet_report,
            "snapshot": self._op_snapshot,
            "restore": self._op_restore,
            "migrate": self._op_migrate,
            "rebalance": self._op_rebalance,
            "apply_suite": self._op_apply_suite,
            "ring": self._op_ring,
        }.get(op)
        if handler is None:
            conn.send(_error_doc(request_id, "bad-request", f"unknown op {op!r}"))
            return
        task = asyncio.create_task(
            self._run_op(handler, op, request_id, request, conn)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_op(self, handler, op: str, request_id, request: dict, conn) -> None:
        # A failure after part of the answer was written has closed the
        # connection, so the error answers below are no-ops then.
        try:
            self._answer(conn, request_id, op, await handler(request))
        except _RouterOpError as exc:
            conn.send(
                _error_doc(request_id, exc.error_type, str(exc), **exc.extra)
            )
        except ShardUnavailableError as exc:
            conn.send(
                _error_doc(request_id, "shard-unavailable", str(exc), shard=exc.shard)
            )
        except ServiceError as exc:
            conn.send({"id": request_id, "ok": False, "error": exc.error})
        except Exception as exc:
            conn.send(
                _error_doc(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                )
            )

    # ------------------------------------------------------------------
    # Ingest forwarding
    # ------------------------------------------------------------------
    def _handle_ingest(
        self, op: str, request_id, request: dict, conn: _Connection
    ) -> None:
        raw_pairs = _ingest_pairs(op, request)
        if raw_pairs is None:
            conn.send(_error_doc(request_id, "bad-request", _BAD_INGEST))
            return
        # Forward every pair now, in order (raw units pass through
        # undecoded — validation happens on the owning shard).
        if op == "ingest":
            ((stream_id, raw),) = raw_pairs

            def on_doc(doc: dict) -> None:
                if doc["ok"]:
                    conn.send({"id": request_id, "ok": True, "result": doc})
                else:
                    conn.send({"id": request_id, "ok": False, "error": doc["error"]})

            self._submit_pair(stream_id, raw, on_doc)
            return
        docs: list = [None] * len(raw_pairs)
        missing = len(raw_pairs)

        def answer() -> None:
            failed: "OrderedDict[str, bool]" = OrderedDict()
            for (sid, _raw), doc in zip(raw_pairs, docs):
                if not doc["ok"]:
                    failed[doc["error"].get("stream_id", sid)] = True
            conn.send(
                {
                    "id": request_id,
                    "ok": not failed,
                    "result": {"results": docs, "failed_streams": list(failed)},
                }
            )

        def on_pair_doc(index: int, doc: dict) -> None:
            nonlocal missing
            docs[index] = doc
            missing -= 1
            if missing == 0:
                answer()

        if not raw_pairs:
            answer()
        for index, (sid, raw) in enumerate(raw_pairs):
            self._submit_pair(sid, raw, functools.partial(on_pair_doc, index))

    def _route(self, stream_id: str) -> _StreamRoute:
        route = self._routes.get(stream_id)
        if route is None:
            route = self._routes[stream_id] = _StreamRoute()
        return route

    def _submit_pair(self, stream_id: str, raw, on_doc) -> None:
        """Forward (or buffer) one unit; ``on_doc`` receives its per-pair
        doc. Transport failures arrive as a ``shard-unavailable`` doc."""
        route = self._route(stream_id)
        if self._gated:
            self._gate_buffer.append((stream_id, raw, on_doc))
        elif route.frozen:
            route.buffer.append((raw, on_doc))
        else:
            self._forward(route, stream_id, raw, on_doc)

    def _forward(self, route: _StreamRoute, stream_id: str, raw, on_doc) -> None:
        link = self._links[self.table.owner(stream_id)]
        future = link.submit("ingest", {"stream_id": stream_id, "raw": raw})
        route.pending.add(future)

        def _done(fut: "asyncio.Future") -> None:
            route.pending.discard(fut)
            if fut.cancelled():  # a drain cancelled by stop(): no one to answer
                return
            exc = fut.exception()
            if exc is not None:
                exc = link.unavailable(exc)
                on_doc(
                    {
                        "ok": False,
                        "error": {
                            "type": "shard-unavailable",
                            "stream_id": stream_id,
                            "shard": exc.shard,
                            "message": str(exc),
                        },
                    }
                )
                return
            envelope = fut.result()
            if envelope.get("ok"):
                on_doc(
                    {
                        "ok": True,
                        "stream_id": stream_id,
                        "fires": envelope["result"]["fires"],
                    }
                )
            else:
                error = dict(envelope.get("error") or {})
                error.setdefault("stream_id", stream_id)
                on_doc({"ok": False, "error": error})

        future.add_done_callback(_done)

    def _flush_route(self, route: _StreamRoute, stream_id: str) -> None:
        """Forward a frozen stream's held-back units, in order, to its
        (possibly new) owner. Synchronous — no await may interleave."""
        buffered, route.buffer = route.buffer, []
        for raw, on_doc in buffered:
            self._forward(route, stream_id, raw, on_doc)

    # ------------------------------------------------------------------
    # Quiesce primitives
    # ------------------------------------------------------------------
    async def _drain_route(self, route: _StreamRoute) -> None:
        while route.pending:
            await asyncio.gather(*list(route.pending), return_exceptions=True)

    async def _quiesce_all(self) -> None:
        self._gated = True
        pending = [
            fut for route in self._routes.values() for fut in route.pending
        ]
        while pending:
            await asyncio.gather(*pending, return_exceptions=True)
            pending = [
                fut for route in self._routes.values() for fut in route.pending
            ]

    def _release_gate(self) -> None:
        self._gated = False
        buffered, self._gate_buffer = self._gate_buffer, []
        for stream_id, raw, on_doc in buffered:
            route = self._route(stream_id)
            if route.frozen:  # a migration froze it while we were gated
                route.buffer.append((raw, on_doc))
            else:
                self._forward(route, stream_id, raw, on_doc)

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    async def _op_report(self, request: dict) -> dict:
        stream_id = request.get("stream_id")
        if not isinstance(stream_id, str):
            raise _RouterOpError("bad-request", "report needs a stream_id")
        link = self._links[self.table.owner(stream_id)]
        return await link.request("report", stream_id=stream_id)

    async def _op_evict(self, request: dict) -> dict:
        stream_id = request.get("stream_id")
        if not isinstance(stream_id, str):
            raise _RouterOpError("bad-request", "evict needs a stream_id")
        link = self._links[self.table.owner(stream_id)]
        result = await link.request("evict", stream_id=stream_id)
        self._routes.pop(stream_id, None)
        self.table.unpin(stream_id)
        return result

    async def _op_stats(self, request: dict) -> dict:
        names = list(self._links)
        results = await asyncio.gather(
            *(self._links[name].request("stats") for name in names)
        )
        totals = {
            key: 0
            for key in (
                "offered",
                "accepted",
                "rejected",
                "rejected_overload",
                "rejected_bad",
                "completed",
                "failed",
                "batches",
                "pending",
            )
        }
        per_stream: dict = {}
        sessions: dict = {}
        shards: dict = {}
        for name, result in zip(names, results):
            shards[name] = result
            for key in totals:
                totals[key] += result.get(key, 0)
            for stream_id, entry in result.get("per_stream", {}).items():
                merged = per_stream.setdefault(
                    stream_id, {"completed": 0, "failed": 0}
                )
                merged["completed"] += entry.get("completed", 0)
                merged["failed"] += entry.get("failed", 0)
            sessions.update(result.get("sessions", {}))
        totals["per_stream"] = per_stream
        totals["sessions"] = sessions
        totals["streams"] = len(sessions)
        totals["domain"] = self.domain
        totals["shards"] = shards
        totals["routing"] = {
            "pins": self.table.pins,
            "owners": {sid: self.table.owner(sid) for sid in self._routes},
        }
        return totals

    async def _op_fleet_report(self, request: dict) -> dict:
        names = list(self._links)
        results = await asyncio.gather(
            *(self._links[name].request("fleet_report") for name in names)
        )
        # The reports stay the decoded JSON the shards sent: re-emitting
        # them needs no codec round trip.
        collected: dict = {}
        for result in results:
            collected.update(result["stream_reports"])
        # Rows stack in router first-seen order — the order a single
        # unsharded service would have created the sessions — with any
        # stream the router never touched (e.g. restored from a fleet
        # snapshot before traffic) appended in sorted order.
        ordered = [
            (stream_id, collected.pop(stream_id))
            for stream_id in self._routes
            if stream_id in collected
        ]
        ordered.extend((stream_id, collected[stream_id]) for stream_id in sorted(collected))
        return {
            "domain": self.domain,
            "assertion_names": results[0]["assertion_names"],
            "stream_reports": ordered,
        }

    async def _op_snapshot(self, request: dict) -> dict:
        async with self._control_lock:
            await self._quiesce_all()
            try:
                names = list(self._links)
                results = await asyncio.gather(
                    *(self._links[name].request("snapshot") for name in names)
                )
                payload = fleet_snapshot_payload(
                    self.domain,
                    self.table,
                    {
                        name: result["snapshot"]
                        for name, result in zip(names, results)
                    },
                    stream_order=list(self._routes),
                )
            finally:
                self._release_gate()
        return {"snapshot": payload}

    async def _op_restore(self, request: dict) -> dict:
        payload = request.get("snapshot")
        try:
            validate_fleet_payload(payload)
        except SnapshotFormatError as exc:
            raise _RouterOpError(
                "bad-request", str(exc), found=exc.found, supported=exc.supported
            ) from None
        if payload["domain"] != self.domain:
            raise _RouterOpError(
                "unknown-domain",
                f"fleet snapshot is for domain {payload['domain']!r}, "
                f"this router serves {self.domain!r}",
                domain=self.domain,
            )
        unknown = sorted(set(payload["shards"]) - set(self._links))
        if unknown:
            raise _RouterOpError(
                "bad-request",
                f"fleet snapshot names shard(s) this fleet does not run: "
                f"{', '.join(unknown)} (running: {', '.join(self._links)})",
            )
        async with self._control_lock:
            await self._quiesce_all()
            try:
                names = list(payload["shards"])
                # Shards restore one by one, so keep each one's own state:
                # if a shard refuses its payload, the shards restored
                # before it are put back, and the unchanged table still
                # routes every session the fleet holds.
                snapshots = await asyncio.gather(
                    *(self._links[name].request("snapshot") for name in names)
                )
                before = dict(zip(names, snapshots))
                restored: dict = {}
                try:
                    for name in names:
                        result = await self._links[name].request(
                            "restore", snapshot=payload["shards"][name]
                        )
                        restored[name] = result["streams"]
                except (ServiceError, ShardUnavailableError):
                    for name in restored:
                        await self._links[name].request(
                            "restore", snapshot=before[name]["snapshot"]
                        )
                    raise
                self.table = RoutingTable.restore(payload["routing"])
                self._routes.clear()
                # Recreate routes in the recorded fleet-wide creation
                # order (fleet_report row order), then any stream the
                # payload's order list doesn't mention, sorted.
                live = {
                    sid for streams in restored.values() for sid in streams
                }
                for stream_id in payload.get("streams", []):
                    if stream_id in live:
                        self._route(stream_id)
                        live.discard(stream_id)
                for stream_id in sorted(live):
                    self._route(stream_id)
            finally:
                self._release_gate()
        return {
            # "streams" keeps ServiceClient.restore() working against a
            # router exactly as against a single server.
            "streams": sorted(
                sid for streams in restored.values() for sid in streams
            ),
            "shards": restored,
        }

    async def _op_migrate(self, request: dict) -> dict:
        stream_id = request.get("stream_id")
        target = request.get("to")
        if not isinstance(stream_id, str) or not isinstance(target, str):
            raise _RouterOpError("bad-request", "migrate needs stream_id + to")
        tick = request.get("tick")
        if tick is not None and not isinstance(tick, int):
            raise _RouterOpError("bad-request", "migrate tick must be an integer")
        async with self._control_lock:
            return await self._migrate(stream_id, target, tick)

    async def _op_rebalance(self, request: dict) -> dict:
        plan = request.get("plan")
        if not isinstance(plan, dict) or not all(
            isinstance(sid, str) and isinstance(shard, str)
            for sid, shard in plan.items()
        ):
            raise _RouterOpError(
                "bad-request", "rebalance needs plan={stream_id: shard, ...}"
            )
        tick = request.get("tick")
        if tick is not None and not isinstance(tick, int):
            raise _RouterOpError("bad-request", "rebalance tick must be an integer")
        async with self._control_lock:
            moves = {}
            for stream_id, target in plan.items():
                moves[stream_id] = await self._migrate(stream_id, target, tick)
        return {"moves": moves}

    async def _migrate(self, stream_id: str, target: str, tick) -> dict:
        """One live migration (caller holds the control lock)."""
        if target not in self._links:
            raise _RouterOpError(
                "bad-request",
                f"unknown target shard {target!r} "
                f"(running: {', '.join(self._links)})",
            )
        source = self.table.owner(stream_id)
        if source == target:
            return {
                "stream_id": stream_id,
                "from": source,
                "to": target,
                "moved": False,
            }
        route = self._route(stream_id)
        route.frozen = True
        try:
            await self._drain_route(route)
            src_link, dst_link = self._links[source], self._links[target]
            try:
                snap = await src_link.request(
                    "snapshot_stream", stream_id=stream_id
                )
            except ServiceError as exc:
                if exc.type == "unknown-stream":
                    # No session on the source — the move is pure routing.
                    self.table.pin(stream_id, target)
                    return {
                        "stream_id": stream_id,
                        "from": source,
                        "to": target,
                        "moved": False,
                    }
                raise
            if tick is not None and snap["n_raw"] != tick:
                raise _RouterOpError(
                    "bad-request",
                    f"migration tick {tick} is not a raw-unit boundary for "
                    f"stream {stream_id!r}, which has consumed "
                    f"{snap['n_raw']} unit(s)",
                )
            await dst_link.request(
                "restore_stream", stream_id=stream_id, session=snap["session"]
            )
            try:
                await src_link.request("evict", stream_id=stream_id)
            except (ServiceError, ShardUnavailableError):
                # Source kept its copy; undo the destination's so exactly
                # one shard owns the stream, then surface the failure.
                await dst_link.request("evict", stream_id=stream_id)
                raise
            self.table.pin(stream_id, target)
            return {
                "stream_id": stream_id,
                "from": source,
                "to": target,
                "moved": True,
                "n_raw": snap["n_raw"],
            }
        finally:
            # Whatever happened, release the stream toward whichever
            # shard the table now names — buffered units first, in order.
            self._flush_route(route, stream_id)
            route.frozen = False

    async def _op_apply_suite(self, request: dict) -> dict:
        suite_payload = request.get("suite")
        if not isinstance(suite_payload, dict):
            raise _RouterOpError("bad-request", "apply_suite needs a suite payload")
        tick = request.get("tick")
        if tick is not None and not isinstance(tick, int):
            raise _RouterOpError("bad-request", "apply_suite tick must be an integer")
        async with self._control_lock:
            await self._quiesce_all()
            try:
                names = list(self._links)
                if tick is not None:
                    # Validate the boundary across the WHOLE fleet before
                    # touching any shard — a per-shard failure halfway
                    # through would leave the fleet split across suites.
                    stats = await asyncio.gather(
                        *(self._links[name].request("stats") for name in names)
                    )
                    for name, result in zip(names, stats):
                        for stream_id, n_raw in result.get("sessions", {}).items():
                            if n_raw != tick:
                                raise _RouterOpError(
                                    "bad-request",
                                    f"apply_suite(tick={tick}) is not a "
                                    f"raw-unit boundary for stream "
                                    f"{stream_id!r} on shard {name!r}, which "
                                    f"has consumed {n_raw} unit(s)",
                                )
                streams: dict = {}
                for name in names:
                    result = await self._links[name].request(
                        "apply_suite", suite=suite_payload, tick=tick
                    )
                    streams.update(result["streams"])
            finally:
                self._release_gate()
        return {"streams": streams}

    async def _op_ring(self, request: dict) -> dict:
        return {
            "routing": self.table.snapshot(),
            "shards": {
                name: {"alive": link.alive, "host": link.host, "port": link.port}
                for name, link in self._links.items()
            },
            "owners": {sid: self.table.owner(sid) for sid in self._routes},
        }
