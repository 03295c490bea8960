"""Asyncio network front-end for :class:`~repro.serve.MonitorService`.

``MonitorService`` was in-process only; this module puts it on the
network so real traffic can reach a monitored fleet: newline-delimited
JSON over TCP (framing in :mod:`repro.utils.framing`), one request
document per line, one response document per request.

The transport is callback-driven: one :class:`_Connection`
(an :class:`asyncio.BufferedProtocol`) per socket, shared by
:class:`MonitorServer`, the fleet router and :class:`ServiceClient`. It
hands each complete line to its owner as it arrives and writes each
response straight to the socket — no reader loop, writer queue or
worker task sits between the wire and the service.

Design contract (``tests/serve/test_net.py`` pins each clause):

- **Batching with a max-delay flush.** Admitted ingest requests join one
  pending batch, flushed as a single
  :meth:`MonitorService.ingest_batch_outcomes` call once it holds
  ``max_batch`` raw units or ``max_delay`` seconds after its first unit,
  whichever comes first — low-rate traffic is never parked indefinitely
  waiting for a full batch.
- **Strict per-stream ordering.** Batches leave the pending list in
  arrival order and run one at a time, and ``ingest_batch`` groups
  preserve arrival order per stream — so two requests for the same
  ``stream_id`` are applied in the order the server received them, even
  when their batches interleave many streams or they arrived on
  different connections. A control op first flushes every unit admitted
  before it, so it sees them all applied.
- **Bounded-queue backpressure, no silent drops.** At most
  ``max_pending`` raw units may be queued; a unit beyond that is
  *rejected immediately* with a typed ``overloaded`` error response.
  Every offered unit is accounted for: ``accepted + rejected ==
  offered`` (:class:`ServerStats`), and every accepted unit eventually
  gets exactly one response — also when the client half-closes its end
  right after sending.
- **Structured error surfaces.** ``malformed-unit`` (a unit broke its
  session), ``broken-session`` (use of a fail-stopped stream),
  ``unknown-domain`` (request pinned a domain this server does not
  serve), ``unknown-stream``, ``bad-request``, ``overloaded``,
  ``shard-unavailable`` (fleet router only) and ``internal`` — each a
  typed error payload, never a dropped connection.
  A multi-pair ``ingest_batch`` request reports *every* failed stream
  (per-pair outcomes via :class:`~repro.serve.service.PairOutcome`),
  not just the first.

The protocol (request → response, one JSON document per line)::

    {"op": "ingest", "id": 1, "stream_id": "s0", "raw": <codec unit>}
    → {"id": 1, "ok": true, "result": {"stream_id": "s0", "fires": [...]}}

    {"op": "ingest", "id": 2, "stream_id": "s0", "raw": <bad unit>}
    → {"id": 2, "ok": false,
       "error": {"type": "malformed-unit", "stream_id": "s0",
                 "message": "..."}}

    {"op": "fleet_report", "id": 3}
    → {"id": 3, "ok": true,
       "result": {"domain": "ecg", "assertion_names": [...],
                  "stream_reports": {"s0": <codec MonitoringReport>, ...}}}

Protocol version 2 (echoed by ``ping``) dropped the stacked
``aggregate`` and ``row_offsets`` from the ``fleet_report`` result: they
repeated every severity row and fire record of ``stream_reports``.
:meth:`ServiceClient.fleet_report` rebuilds them with
:func:`~repro.serve.service.build_fleet_report`. The server writes that
response one stream report at a time
(:func:`~repro.utils.framing.encode_frame_pieces`), so answering it
holds one stream's report, not the fleet's, besides the frame itself.

Every op, its fields and the path it takes is one entry of
:data:`_OPS`, shared by the server and the fleet router; each serves
the ops it has an ``_op_<name>`` handler for. The README's "Network
serving" section lists them. Any request may carry ``"domain"``; a
mismatch with the served domain is an ``unknown-domain`` error.
"""

from __future__ import annotations

import asyncio
import functools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.utils.codec import from_jsonable, to_jsonable
from repro.utils.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    encode_frame_pieces,
)

if TYPE_CHECKING:
    from repro.core.runtime import MonitoringReport
    from repro.serve.service import FleetReport, MonitorService, PairOutcome

#: Protocol version, echoed by ``ping``.
PROTOCOL_VERSION = 2

#: Per-line bound on the responses a :class:`ServiceClient` reads (the
#: router's shard links are clients too). Requests stay bounded by
#: ``max_frame_bytes``; responses are larger by nature, since a
#: ``fleet_report`` grows with every live stream.
MAX_RESPONSE_BYTES = 256 * 1024 * 1024

#: Slack over ``max_frame_bytes`` that a line may reach before the
#: stream counts as unsynchronisable (answered once, then hung up).
_READ_SLACK = 1024

#: Size of each connection's reusable receive buffer: the most bytes
#: asyncio's selector transport reads per ``recv`` into a fresh buffer.
_RECV_BUFFER_BYTES = 256 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Network and batching knobs of :class:`MonitorServer`.

    Attributes
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`MonitorServer.port`).
    max_batch:
        Raw-unit cap per coalesced ``ingest_batch`` flush.
    max_delay:
        Seconds the first queued unit of a batch may wait for company
        before the batch flushes anyway.
    max_pending:
        Bound on queued-but-unfinished raw units; admission beyond it is
        rejected with an ``overloaded`` error (never silently dropped).
    max_frame_bytes:
        Per-line bound on received request frames.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 32
    max_delay: float = 0.005
    max_pending: int = 1024
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {self.max_frame_bytes}"
            )


@dataclass
class ServerStats:
    """Raw-unit accounting; the no-silent-drops ledger.

    ``offered == accepted + rejected_overload + rejected_bad`` at every
    instant, and once the pipeline drains, ``completed + failed ==
    accepted`` — every accepted unit produced exactly one ok/error
    response. ``per_stream`` breaks ``completed``/``failed`` down by
    stream id (fleet totals alone cannot prove a migrated stream was
    neither double-ingested nor dropped; the per-stream ledger can).
    """

    offered: int = 0
    accepted: int = 0
    rejected_overload: int = 0
    rejected_bad: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    per_stream: dict = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return self.rejected_overload + self.rejected_bad

    def count_outcome(self, stream_id: str, ok: bool) -> None:
        """Account one finished unit, fleet-wide and per stream."""
        entry = self.per_stream.setdefault(
            stream_id, {"completed": 0, "failed": 0}
        )
        if ok:
            self.completed += 1
            entry["completed"] += 1
        else:
            self.failed += 1
            entry["failed"] += 1

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rejected_overload": self.rejected_overload,
            "rejected_bad": self.rejected_bad,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "per_stream": {
                stream_id: dict(entry)
                for stream_id, entry in self.per_stream.items()
            },
        }


class _Connection(asyncio.BufferedProtocol):
    """One NDJSON connection, driven by the event loop's callbacks.

    Reads land in one ``bytearray`` of :data:`_RECV_BUFFER_BYTES`
    allocated with the connection: the transport receives into it
    (:meth:`get_buffer`) instead of allocating a fresh buffer per read,
    and :meth:`buffer_updated` copies out only the bytes that arrived.
    No line or held partial aliases the reused buffer. The copy goes to
    ``_cut_lines``, which cuts complete lines out of the byte stream and
    hands each one to ``owner._handle_line(line, conn)``, with no await
    in between; :meth:`send` writes one encoded frame straight to the
    transport. The owner — a :class:`MonitorServer`, a fleet router or a
    :class:`ServiceClient` — also implements ``_connection_made(conn)``,
    ``_handle_overrun(conn)``, called once when a line outgrows
    ``read_limit`` (the byte stream cannot be resynchronised, so reading
    stops), and ``_connection_lost(conn, exc)``.

    Every line read is answered by exactly one frame sent, so ``lines
    read - frames sent`` is what the connection still owes its peer. On
    EOF — a client that sent its requests and then half-closed — the
    connection stays open for writing until that count drops to zero,
    then closes. A client reads only answers to frames it sent, so its
    count never goes above zero and EOF closes it at once.
    """

    def __init__(self, owner, read_limit: int) -> None:
        self._owner = owner
        self._read_limit = read_limit
        self._partial: list = []  # chunks of a line still missing its end
        self._owed = 0
        self._reading = True
        self._eof = False
        self._lost = asyncio.get_running_loop().create_future()
        self._recv = memoryview(bytearray(_RECV_BUFFER_BYTES))
        self.transport: "asyncio.Transport | None" = None

    @property
    def closed(self) -> bool:
        return self.transport.is_closing()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._owner._connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        self._cut_lines(bytes(self._recv[:nbytes]))

    def _cut_lines(self, data: bytes) -> None:
        if self._partial:
            if b"\n" not in data:
                self._hold(data)
                return
            self._partial.append(data)
            data = b"".join(self._partial)
            self._partial = []
        start = 0
        end = data.find(b"\n")
        while end >= 0 and self._reading:
            if end - start > self._read_limit:
                self._overrun()
                return
            self._owed += 1
            self._owner._handle_line(data[start : end + 1], self)
            start = end + 1
            end = data.find(b"\n", start)
        if start < len(data) and self._reading:
            self._hold(data[start:])

    def _hold(self, chunk: bytes) -> None:
        self._partial.append(chunk)
        if sum(map(len, self._partial)) > self._read_limit:
            self._overrun()

    def _overrun(self) -> None:
        self._reading = False
        self._partial = []
        self._owed += 1
        self._owner._handle_overrun(self)

    def eof_received(self) -> bool:
        self.finish()
        return True  # finish() closed the transport, or send() will

    def connection_lost(self, exc) -> None:
        self._reading = False
        if not self._lost.done():
            self._lost.set_result(None)
        self._owner._connection_lost(self, exc)

    def send(self, document: dict) -> None:
        """Write one frame; a no-op once the connection is closing."""
        self.send_pieces((encode_frame(document),))

    def send_pieces(self, pieces) -> None:
        """Write one frame given as consecutive byte pieces, each as soon
        as ``pieces`` yields it; a no-op once the connection is closing.

        If producing a piece raises, part of the frame may already be
        written, and the peer cannot find the next line after it: the
        connection is closed (frames written before still flush) and
        the error re-raised.
        """
        if self.closed:
            return
        try:
            for piece in pieces:
                self.transport.write(piece)
        except Exception:
            self.close()
            raise
        self._owed -= 1
        if self._eof and self._owed <= 0:
            self.transport.close()

    def finish(self) -> None:
        """Stop reading; close once every line read has been answered."""
        self._reading = False
        self._eof = True
        if self._owed <= 0:
            self.close()

    def close(self) -> None:
        """Close after the frames already written are flushed."""
        self._reading = False
        if not self.closed:
            self.transport.close()

    async def wait_closed(self) -> None:
        await self._lost


#: The JSON kinds a request field may hold. No field takes a bool,
#: though Python counts one as an integer.
_KINDS = {
    "string": str,
    "object": dict,
    "int or null": (int, type(None)),
}

#: Every op of the protocol: ``(control, {field: kind})``. A control
#: op's fields are checked before its handler runs on the role's control
#: path. The ingest ops declare none: they check theirs as they admit
#: units (:data:`_BAD_INGEST`), so a malformed unit is in the ledger.
_OPS = {
    "ping": (False, {}),
    "ingest": (False, {}),
    "ingest_batch": (False, {}),
    "report": (True, {"stream_id": "string"}),
    "fleet_report": (True, {}),
    "snapshot": (True, {}),
    "restore": (True, {"snapshot": "object"}),
    "evict": (True, {"stream_id": "string"}),
    "stats": (True, {}),
    "snapshot_stream": (True, {"stream_id": "string"}),
    "restore_stream": (True, {"stream_id": "string", "session": "object"}),
    "apply_suite": (True, {"suite": "object", "tick": "int or null"}),
    "migrate": (True, {"stream_id": "string", "to": "string", "tick": "int or null"}),
    "rebalance": (True, {"plan": "object", "tick": "int or null"}),
    "ring": (True, {}),
}


def _field_error(op: str, fields: dict, request: dict) -> "str | None":
    """Why ``request`` does not fit its op's fields, or None if it does."""
    for name, kind in fields.items():
        value = request.get(name)
        if not isinstance(value, _KINDS[kind]) or isinstance(value, bool):
            return f"{op} needs {name} as {kind}, got {type(value).__name__}"
    return None


class _LineServer:
    """The listening side shared by :class:`MonitorServer` and the fleet
    router, which both serve the same protocol for one domain from a
    ``config`` with ``host``, ``port`` and ``max_frame_bytes``.

    It accepts :class:`_Connection` s, parses each line, answers what
    :data:`_OPS` refuses (malformed frames, a foreign ``domain``, an op
    without a handler, an ill-typed field), answers a line past the read
    bound with one ``bad-request`` before hanging up, and closes every
    connection on shutdown. Subclasses implement the ``_op_<name>``
    handlers, and ``_control``, which runs a control op's handler and
    answers it through :meth:`_answer`.
    """

    _role = "server"

    def __init__(self, domain_name: str) -> None:
        self._domain_name = domain_name
        self._server: "asyncio.base_events.Server | None" = None
        self._connections: "set[_Connection]" = set()
        self._ops = {
            op: (control, fields, getattr(self, f"_op_{op}"))
            for op, (control, fields) in _OPS.items()
            if hasattr(self, f"_op_{op}")
        }

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError(f"{self._role} already started")
        read_limit = self.config.max_frame_bytes + _READ_SLACK
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self, read_limit), self.config.host, self.config.port
        )

    @property
    def host(self) -> str:
        return self._bound_address()[0]

    @property
    def port(self) -> int:
        return self._bound_address()[1]

    def _bound_address(self) -> tuple:
        if self._server is None:
            raise RuntimeError(f"{self._role} not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def _close(self) -> None:
        """Stop listening and close every connection, flushing what each
        has written; returns once all are closed."""
        if self._server is None:
            return
        self._server.close()
        connections = list(self._connections)
        for conn in connections:
            conn.close()
        for conn in connections:
            await conn.wait_closed()
        await self._server.wait_closed()
        self._server = None

    def _handle_line(self, line: bytes, conn: _Connection) -> None:
        try:
            request = decode_frame(line, max_bytes=self.config.max_frame_bytes)
        except FrameError as exc:
            conn.send(_error_doc(None, "bad-request", str(exc)))
            return
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            conn.send(_error_doc(None, "bad-request", 'expected {"op": ..., ...}'))
            return
        request_id = request.get("id")
        op = request["op"]
        domain = request.get("domain")
        if domain is not None and domain != self._domain_name:
            conn.send(
                _error_doc(
                    request_id,
                    "unknown-domain",
                    f"domain {domain!r} is not served here; this endpoint "
                    f"serves {self._domain_name!r}",
                    domain=self._domain_name,
                )
            )
            return
        entry = self._ops.get(op)
        if entry is None:
            conn.send(_error_doc(request_id, "bad-request", f"unknown op {op!r}"))
            return
        control, fields, handler = entry
        if not control:
            handler(op, request_id, request, conn)
            return
        problem = _field_error(op, fields, request)
        if problem is not None:
            conn.send(_error_doc(request_id, "bad-request", problem))
            return
        self._control(op, handler, request_id, request, conn)

    def _op_ping(self, op: str, request_id, request: dict, conn) -> None:
        conn.send({"id": request_id, "ok": True, "result": self._pong()})

    def _pong(self) -> dict:
        return {"domain": self._domain_name, "protocol": PROTOCOL_VERSION}

    @staticmethod
    def _answer(conn: _Connection, request_id, op: str, compute) -> None:
        """Answer a control op with the result ``compute()`` returns, or
        with the typed error it raises (:func:`_error_for`).

        A ``fleet_report`` result carries its ``stream_reports`` as
        ``(stream_id, report)`` pairs; they go out one per piece of the
        frame, in order, each encoded only when its turn comes.
        """
        # A failure after part of the answer was written has closed the
        # connection, so the error answer is a no-op then.
        try:
            result = compute()
            document = {"id": request_id, "ok": True, "result": result}
            if op != "fleet_report":
                conn.send(document)
                return
            reports = result["stream_reports"]
            document["result"] = {**result, "stream_reports": {}}
            conn.send_pieces(encode_frame_pieces(document, reports))
        except Exception as exc:
            conn.send(_error_for(request_id, exc))

    def _handle_overrun(self, conn: _Connection) -> None:
        conn.send(_error_doc(None, "bad-request", "frame too long"))
        conn.finish()

    def _connection_made(self, conn: _Connection) -> None:
        self._connections.add(conn)

    def _connection_lost(self, conn: _Connection, exc) -> None:
        self._connections.discard(conn)


class MonitorServer(_LineServer):
    """Serve one :class:`MonitorService` fleet over TCP (see module doc).

    Everything runs in event-loop callbacks. A connection hands each
    line to :meth:`_handle_line`, which validates and admits it. An
    admitted ingest request joins the pending batch; a full batch is
    flushed right after the current read has been admitted, anything
    less by a timer ``max_delay`` after its first unit. Batches and
    control ops drive the service directly on the event loop (serially —
    the evaluators are pure Python, so neither a thread hop nor a thread
    pool buys anything under the GIL) and write their responses
    straight to the connections. The service must not be touched by
    other threads while the server runs.

    Usage::

        server = MonitorServer(MonitorService("tvnews"))
        await server.start()
        ...  # clients connect to server.host:server.port
        await server.stop()
    """

    def __init__(
        self, service: MonitorService, config: "ServerConfig | None" = None
    ) -> None:
        super().__init__(service.domain.name)
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats()
        #: Admitted ingest requests, oldest first, as
        #: ``(op, request_id, conn, pairs)``; they hold every pending unit.
        self._queued: "deque[tuple]" = deque()
        self._pending_units = 0
        self._flush_handle: "asyncio.Handle | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Stop accepting, answer every queued unit, close every connection."""
        if self._server is None:
            return
        self._drain()
        await self._close()

    # ------------------------------------------------------------------
    # Ingest: validate, admit, enqueue
    # ------------------------------------------------------------------
    def _op_ingest(
        self, op: str, request_id, request: dict, conn: _Connection
    ) -> None:
        raw_pairs = _ingest_pairs(op, request)
        if raw_pairs is None:
            self.stats.offered += 1
            self.stats.rejected_bad += 1
            conn.send(_error_doc(request_id, "bad-request", _BAD_INGEST))
            return
        self.stats.offered += len(raw_pairs)
        budget = self.config.max_pending - self._pending_units
        if len(raw_pairs) > budget:
            self.stats.rejected_overload += len(raw_pairs)
            conn.send(
                _error_doc(
                    request_id,
                    "overloaded",
                    f"{self._pending_units} unit(s) pending of "
                    f"{self.config.max_pending} allowed; retry later",
                    pending=self._pending_units,
                    limit=self.config.max_pending,
                )
            )
            return
        try:
            pairs = [(sid, from_jsonable(raw)) for sid, raw in raw_pairs]
        except Exception as exc:
            # Any codec failure is the unit's fault (a tagged unit with a
            # missing key raises KeyError, not just TypeError/ValueError):
            # answer it typed, never by dropping the connection.
            self.stats.rejected_bad += len(raw_pairs)
            conn.send(
                _error_doc(
                    request_id,
                    "malformed-unit",
                    f"raw unit does not decode: {type(exc).__name__}: {exc}",
                )
            )
            return
        self.stats.accepted += len(pairs)
        self._pending_units += len(pairs)
        self._queued.append((op, request_id, conn, pairs))
        self._arm()

    _op_ingest_batch = _op_ingest

    # ------------------------------------------------------------------
    # Coalescer: flush, respond
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        """Schedule the next flush of the queued units: as soon as the
        current read is admitted once they fill a batch, else
        ``max_delay`` after the batch's first unit."""
        loop = asyncio.get_running_loop()
        if self._pending_units >= self.config.max_batch:
            if isinstance(self._flush_handle, asyncio.TimerHandle):
                self._flush_handle.cancel()
                self._flush_handle = None
            if self._flush_handle is None:
                self._flush_handle = loop.call_soon(self._on_flush)
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(
                self.config.max_delay, self._on_flush
            )

    def _on_flush(self) -> None:
        self._flush_handle = None
        self._flush_batch()
        if self._queued:
            self._arm()

    def _drain(self) -> None:
        """Flush every queued unit now, batch by batch."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        while self._queued:
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Run the oldest queued requests, up to ``max_batch`` units
        (the request that crosses it included), as one service batch."""
        pairs: list = []
        slices = []
        while self._queued and len(pairs) < self.config.max_batch:
            op, request_id, conn, request_pairs = self._queued.popleft()
            start = len(pairs)
            pairs.extend(request_pairs)
            slices.append((op, request_id, conn, start, len(pairs)))
        self.stats.batches += 1
        try:
            outcomes = self.service.ingest_batch_outcomes(pairs, parallel=False)
        except Exception as exc:  # e.g. batch wider than the LRU bound
            for _op, request_id, conn, _start, _stop in slices:
                conn.send(
                    _error_doc(
                        request_id, "internal", f"{type(exc).__name__}: {exc}"
                    )
                )
            for stream_id, _raw in pairs:
                self.stats.count_outcome(stream_id, ok=False)
            self._pending_units -= len(pairs)
            return
        for op, request_id, conn, start, stop in slices:
            conn.send(self._ingest_response(op, request_id, outcomes[start:stop]))
        self._pending_units -= len(pairs)

    def _ingest_response(self, op: str, request_id, outcomes: list) -> dict:
        results = []
        failed_streams: "OrderedDict[str, bool]" = OrderedDict()
        for outcome in outcomes:
            self.stats.count_outcome(outcome.stream_id, ok=outcome.ok)
            if outcome.ok:
                results.append(
                    {
                        "ok": True,
                        "stream_id": outcome.stream_id,
                        "fires": [fire.record for fire in outcome.fires],
                    }
                )
            else:
                failed_streams[outcome.stream_id] = True
                results.append(
                    {"ok": False, "error": _outcome_error(outcome)}
                )
        if op == "ingest":
            (result,) = results
            if result["ok"]:
                return {"id": request_id, "ok": True, "result": result}
            return {"id": request_id, "ok": False, "error": result["error"]}
        # A multi-pair batch reports every failed stream, not just the
        # first — the per-pair outcomes plus a summary list.
        return {
            "id": request_id,
            "ok": not failed_streams,
            "result": {
                "results": results,
                "failed_streams": list(failed_streams),
            },
        }

    # ------------------------------------------------------------------
    # Control ops: each runs on the event loop between batches, like the
    # ingest batches, so the service sees strictly serialized access
    # ------------------------------------------------------------------
    def _control(self, op: str, handler, request_id, request: dict, conn) -> None:
        self._drain()  # the op sees every unit admitted before it
        self._answer(conn, request_id, op, functools.partial(handler, request))

    def _op_report(self, request: dict) -> dict:
        stream_id = request["stream_id"]
        return {"stream_id": stream_id, "report": self.service.report(stream_id)}

    def _op_fleet_report(self, request: dict) -> dict:
        # Reports are built lazily, while _answer writes the frame in
        # the same callback, so no session changes meanwhile.
        return {
            "domain": self.service.domain.name,
            "assertion_names": self.service.assertion_names(),
            "stream_reports": self.service.stream_reports(),
        }

    def _op_snapshot(self, request: dict) -> dict:
        return {"snapshot": self.service.snapshot()}

    def _op_restore(self, request: dict) -> dict:
        self.service.restore(request["snapshot"])
        return {"streams": self.service.stream_ids()}

    def _op_evict(self, request: dict) -> dict:
        self.service.evict(request["stream_id"])
        return {"stream_id": request["stream_id"]}

    def _op_stats(self, request: dict) -> dict:
        payload = self.stats.as_dict()
        payload["pending"] = self._pending_units
        payload["streams"] = len(self.service)
        payload["sessions"] = self.service.session_units()
        payload["domain"] = self.service.domain.name
        return payload

    def _op_snapshot_stream(self, request: dict) -> dict:
        # One stream's restorable session snapshot — the migration read
        # half. Runs after every unit admitted before it, so the payload
        # always sits at a raw-unit boundary.
        stream_id = request["stream_id"]
        session = self.service.session_snapshot(stream_id)
        return {"stream_id": stream_id, "session": session, "n_raw": session["n_raw"]}

    def _op_restore_stream(self, request: dict) -> dict:
        # The migration write half: re-admit one stream exactly where
        # another shard's snapshot_stream left it.
        stream_id = request["stream_id"]
        restored = self.service.restore_session(stream_id, request["session"])
        return {"stream_id": stream_id, "n_raw": restored.n_raw}

    def _op_apply_suite(self, request: dict) -> dict:
        from repro.core.spec import AssertionSuite

        try:
            suite = from_jsonable(request["suite"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"suite payload does not decode: {exc}") from exc
        if not isinstance(suite, AssertionSuite):
            raise ValueError(
                "suite payload does not decode to an AssertionSuite "
                f"(got {type(suite).__name__})"
            )
        return {"streams": self.service.apply_suite(suite, tick=request.get("tick"))}


_BAD_INGEST = (
    "ingest needs stream_id+raw; ingest_batch needs pairs=[[stream_id, raw], ...]"
)


def _ingest_pairs(op: str, request: dict) -> "list | None":
    """The ``(stream_id, raw)`` pairs of an ``ingest``/``ingest_batch``
    request, or None when it is malformed."""
    try:
        if op == "ingest":
            pairs = [(request["stream_id"], request["raw"])]
        else:
            pairs = [(sid, raw) for sid, raw in request["pairs"]]
    except (KeyError, TypeError, ValueError):
        return None
    return pairs if all(isinstance(sid, str) for sid, _raw in pairs) else None


def _error_doc(request_id, error_type: str, message: str, **extra) -> dict:
    error = {"type": error_type, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}


def _error_for(request_id, exc: Exception) -> dict:
    """The typed wire error for what a control op raised, on either role.

    A shard's :class:`ServiceError` passes through. An exception with a
    ``wire_type`` (and ``wire_fields``) names its error itself, so this
    module imports neither the service nor the router. Any other
    ``ValueError`` is a payload the op refuses, ``bad-request``; the
    rest, a bare ``KeyError`` included, is ``internal``.
    """
    if isinstance(exc, ServiceError):
        return {"id": request_id, "ok": False, "error": exc.error}
    fields = getattr(exc, "wire_fields", {})
    if hasattr(exc, "wire_type"):
        return _error_doc(request_id, exc.wire_type, str(exc), **fields)
    if isinstance(exc, ValueError):
        return _error_doc(request_id, "bad-request", str(exc), **fields)
    return _error_doc(request_id, "internal", f"{type(exc).__name__}: {exc}")


def _outcome_error(outcome: PairOutcome) -> dict:
    """Typed wire error for one failed :class:`PairOutcome`."""
    from repro.serve.service import BrokenSessionError

    exc = outcome.error
    if outcome.skipped or isinstance(exc, BrokenSessionError):
        error_type = "broken-session"
        message = (
            f"stream {outcome.stream_id!r} is broken"
            + (
                " (an earlier unit of this stream failed in the same batch)"
                if outcome.skipped
                else f": {exc}"
            )
        )
    else:
        error_type = "malformed-unit"
        message = f"unit broke stream {outcome.stream_id!r}: {type(exc).__name__}: {exc}"
    return {
        "type": error_type,
        "stream_id": outcome.stream_id,
        "message": message,
    }


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
def _from_wire(payload):
    """:func:`from_jsonable` of a response field, with the codec types a
    response carries (reports, fire records) registered first: a process
    that only runs a client may not have imported them yet."""
    import repro.serve.service  # noqa: F401  (registers the codec types)

    return from_jsonable(payload)


class ServiceError(Exception):
    """A typed error response from the server (``ok: false``)."""

    def __init__(self, error: dict) -> None:
        self.error = error if isinstance(error, dict) else {"message": str(error)}
        self.type = self.error.get("type", "unknown")
        super().__init__(f"{self.type}: {self.error.get('message', '')}")


class ServiceClient:
    """Asyncio NDJSON client for :class:`MonitorServer`.

    Supports both call-and-wait (:meth:`request` and the typed helpers)
    and pipelining (:meth:`submit`, which returns a future resolving to
    the raw response envelope — what the open-loop load generator uses).
    Request ids are assigned per connection; responses correlate by id,
    so many requests may be in flight at once.
    """

    def __init__(self) -> None:
        self._conn: "_Connection | None" = None
        self._futures: "dict[int, asyncio.Future]" = {}
        self._next_id = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        client = cls()
        await asyncio.get_running_loop().create_connection(
            lambda: _Connection(client, MAX_RESPONSE_BYTES + _READ_SLACK), host, port
        )
        return client

    @property
    def connected(self) -> bool:
        """False once the connection is closing: the server hung up,
        sent an unreadable frame, or :meth:`close` ran.

        From then on :meth:`submit` raises :class:`ConnectionError`, and
        every request still pending fails with one once the close
        completes, so no submitted request is left hanging — callers
        (the fleet router's shard links, :class:`ReconnectingClient`)
        check it to redial instead of writing into a dead transport.
        """
        return not self._conn.closed

    async def close(self) -> None:
        self._fail_pending(ConnectionError("client closed"))
        self._conn.close()
        await self._conn.wait_closed()

    def _connection_made(self, conn: _Connection) -> None:
        self._conn = conn

    def _handle_line(self, line: bytes, conn: _Connection) -> None:
        try:
            response = decode_frame(line, max_bytes=MAX_RESPONSE_BYTES)
            if not isinstance(response, dict):
                raise FrameError(
                    f"expected a response object, got {type(response).__name__}"
                )
        except FrameError as exc:
            self._fail_pending(exc)
            conn.close()
            return
        future = self._futures.pop(response.get("id"), None)
        if future is not None and not future.done():
            future.set_result(response)

    def _handle_overrun(self, conn: _Connection) -> None:
        self._fail_pending(FrameError("response frame too long"))
        conn.close()

    def _connection_lost(self, conn: _Connection, exc) -> None:
        reason = f"connection lost: {exc}" if exc else "server closed the connection"
        self._fail_pending(ConnectionError(reason))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._futures.values():
            if not future.done():
                future.set_exception(exc)
        self._futures.clear()

    def submit(self, op: str, **fields) -> "asyncio.Future":
        """Send one request without waiting; resolves to the envelope.

        Raises :class:`ConnectionError` at once when the client is no
        longer :attr:`connected`: nothing could ever answer it.
        """
        if self._conn.closed:
            raise ConnectionError("the connection to the server is closed")
        request_id = self._next_id
        self._next_id += 1
        request = {"op": op, "id": request_id}
        request.update(fields)
        self._conn.send(request)
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        return future

    async def request(self, op: str, **fields) -> dict:
        """Send one request, await its response, raise on ``ok: false``."""
        envelope = await self.submit(op, **fields)
        if not envelope.get("ok"):
            raise ServiceError(envelope.get("error"))
        return envelope.get("result") or {}

    # -- typed helpers -------------------------------------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    # Helpers taking user values encode them here: encode_frame writes
    # a bare tuple as a list, so tuples must be tagged before framing.
    async def ingest(self, stream_id: str, raw) -> list:
        """Feed one raw unit; returns decoded fresh AssertionRecords."""
        result = await self.request(
            "ingest", stream_id=stream_id, raw=to_jsonable(raw)
        )
        return _from_wire(result["fires"])

    async def ingest_batch(self, pairs: list) -> dict:
        """Feed many ``(stream_id, raw)`` pairs as one request.

        Returns the result document: per-pair ``results`` (fires decoded)
        plus ``failed_streams`` naming every stream that failed. Unlike
        :meth:`ingest`, per-stream failures do not raise — inspect the
        outcomes, exactly like
        :meth:`MonitorService.ingest_batch_outcomes`.
        """
        envelope = await self.submit(
            "ingest_batch", pairs=[[sid, to_jsonable(raw)] for sid, raw in pairs]
        )
        if envelope.get("result") is None:
            raise ServiceError(envelope.get("error"))
        result = envelope["result"]
        for entry in result["results"]:
            if entry.get("ok"):
                entry["fires"] = _from_wire(entry["fires"])
        return result

    async def report(self, stream_id: str) -> MonitoringReport:
        result = await self.request("report", stream_id=stream_id)
        return _from_wire(result["report"])

    async def fleet_report(self) -> FleetReport:
        """The per-stream reports, with the fleet aggregate stacked here
        the way :meth:`MonitorService.fleet_report` stacks it."""
        from repro.serve.service import build_fleet_report

        result = await self.request("fleet_report")
        stream_reports = OrderedDict(
            (sid, _from_wire(report))
            for sid, report in result["stream_reports"].items()
        )
        return build_fleet_report(
            result["domain"], stream_reports, result["assertion_names"]
        )

    async def snapshot(self) -> dict:
        return (await self.request("snapshot"))["snapshot"]

    async def restore(self, snapshot: dict) -> list:
        result = await self.request("restore", snapshot=to_jsonable(snapshot))
        return result["streams"]

    async def evict(self, stream_id: str) -> None:
        await self.request("evict", stream_id=stream_id)

    async def snapshot_stream(self, stream_id: str) -> dict:
        """One stream's session snapshot (the migration read half)."""
        return await self.request("snapshot_stream", stream_id=stream_id)

    async def restore_stream(self, stream_id: str, session: dict) -> dict:
        """Restore one session payload (the migration write half)."""
        return await self.request(
            "restore_stream", stream_id=stream_id, session=to_jsonable(session)
        )

    async def apply_suite(self, suite, tick: "int | None" = None) -> dict:
        """Hot-swap the assertion suite on the server; returns diffs."""
        return await self.request(
            "apply_suite", suite=to_jsonable(suite), tick=tick
        )

    async def stats(self) -> dict:
        return await self.request("stats")


class ConnectionLostError(ConnectionError):
    """Raised by :class:`ReconnectingClient` once its retry budget is
    spent: the server stayed unreachable through every backoff attempt.

    Carries ``attempts`` (connection attempts made) and ``last_error``
    (the final underlying failure) so callers can log a precise story.
    """

    def __init__(self, message: str, *, attempts: int, last_error=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ReconnectingClient:
    """A :class:`ServiceClient` wrapper that survives server bounces.

    A plain client's in-flight requests die with the connection; this
    wrapper redials with bounded exponential backoff (``retries``
    attempts, ``backoff`` doubling up to ``max_backoff`` seconds) and —
    for :meth:`request` — resends the request on the fresh connection.

    Semantics are **at-least-once**: a request whose connection died
    mid-flight may have been applied before the crash, so a resent
    ingest can be ingested twice. That is fine for idempotent control
    ops (``report``, ``stats``, ``snapshot``...) and for callers that
    tolerate duplicates; callers needing exactly-once must not resend
    (the fleet router's shard links deliberately fail such requests with
    ``shard-unavailable`` instead of using this wrapper for ingest).

    Once ``retries`` consecutive redials fail, every method raises
    :class:`ConnectionLostError` naming the attempt count and the last
    underlying error.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retries: int = 5,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._client: "ServiceClient | None" = None

    @classmethod
    async def connect(cls, host: str, port: int, **knobs) -> "ReconnectingClient":
        client = cls(host, port, **knobs)
        await client._ensure_client()
        return client

    async def _ensure_client(self) -> ServiceClient:
        if self._client is not None:
            return self._client
        delay = self.backoff
        last_error: "Exception | None" = None
        for attempt in range(1, self.retries + 1):
            try:
                self._client = await ServiceClient.connect(self.host, self.port)
                return self._client
            except OSError as exc:
                last_error = exc
                if attempt < self.retries:
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, self.max_backoff)
        raise ConnectionLostError(
            f"{self.host}:{self.port} unreachable after {self.retries} "
            f"attempt(s): {last_error}",
            attempts=self.retries,
            last_error=last_error,
        )

    async def _drop_client(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    async def close(self) -> None:
        await self._drop_client()

    async def request(self, op: str, **fields) -> dict:
        """Call-and-wait with redial-and-resend (at-least-once).

        :class:`ServiceError` (a typed ``ok: false`` response) is *not*
        retried — the server answered; only transport failures are.
        """
        last_error: "Exception | None" = None
        for _attempt in range(self.retries):
            client = await self._ensure_client()
            try:
                return await client.request(op, **fields)
            except ServiceError:
                raise
            except (ConnectionError, FrameError, OSError) as exc:
                last_error = exc
                await self._drop_client()
        raise ConnectionLostError(
            f"request {op!r} to {self.host}:{self.port} failed after "
            f"{self.retries} attempt(s): {last_error}",
            attempts=self.retries,
            last_error=last_error,
        )

    # -- typed helpers (same shapes as ServiceClient) ------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def ingest(self, stream_id: str, raw) -> list:
        result = await self.request(
            "ingest", stream_id=stream_id, raw=to_jsonable(raw)
        )
        return _from_wire(result["fires"])

    async def report(self, stream_id: str) -> MonitoringReport:
        result = await self.request("report", stream_id=stream_id)
        return _from_wire(result["report"])

    async def stats(self) -> dict:
        return await self.request("stats")
