"""The NDJSON transport shared by MonitorServer and FleetRouter, seen
from a raw socket: how lines are cut out of the byte stream (split,
coalesced, larger than the receive buffer, oversize and
unsynchronisable frames) and what a client that
half-closes its end gets back. Every test runs against a single server
and against a 2-shard router."""

import asyncio
import contextlib
import json

import pytest

from repro.fleet import RouterConfig
from repro.serve import MonitorServer, MonitorService, ServerConfig, ServiceClient
from repro.utils.codec import to_jsonable
from repro.utils.framing import encode_frame
from tests.fleet.test_router import sharded
from tests.serve.test_service import SyntheticDomain, raw_units

#: ``max_frame_bytes`` of the endpoint under test; lines up to
#: FRAME_BOUND + 1024 bytes are still read (and answered bad-request).
FRAME_BOUND = 512
READ_BOUND = FRAME_BOUND + 1024

#: A bound for frames that span several fills of a connection's
#: 256 KiB receive buffer: a ~1 MiB request fits under it.
LARGE_BOUND = 1024 * 1024 + 4096

KINDS = ["server", "router"]


@contextlib.asynccontextmanager
async def endpoint(kind, frame_bound=FRAME_BOUND, **server_knobs):
    """``(host, port)`` of a started server, or of a router in front of
    two shards, reading frames up to ``frame_bound`` bytes;
    ``server_knobs`` configure the server(s) that ingest."""
    if kind == "server":
        server = MonitorServer(
            MonitorService(SyntheticDomain()),
            ServerConfig(max_frame_bytes=frame_bound, **server_knobs),
        )
        await server.start()
        try:
            yield server.host, server.port
        finally:
            await server.stop()
    else:
        config = RouterConfig(max_frame_bytes=frame_bound)
        async with sharded(config=config, **server_knobs) as (router, _s, _c):
            yield router.host, router.port


async def exchange(host, port, chunks, *, half_close=True, pace=False) -> list:
    """Write ``chunks`` on a fresh socket and return every response frame
    read until the peer hangs up. ``half_close`` sends EOF after the
    last chunk; ``pace`` yields to the loop after each chunk, so each
    one reaches the peer as its own read."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            if pace:
                await asyncio.sleep(0.001)
        if half_close:
            writer.write_eof()
        data = await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()
        await writer.wait_closed()
    return [json.loads(line) for line in data.splitlines()]


def ingest_frame(request_id, stream_id, raw) -> bytes:
    return encode_frame(
        {"op": "ingest", "id": request_id, "stream_id": stream_id,
         "raw": to_jsonable(raw)}
    )


def chunked(data: bytes, size) -> list:
    """``data`` as one write (``size=None``) or in ``size``-byte pieces."""
    if size is None:
        return [data]
    return [data[i : i + size] for i in range(0, len(data), size)]


@pytest.mark.parametrize("kind", KINDS)
class TestLineSplitting:
    def test_split_and_coalesced_frames_decode_like_whole_ones(self, kind):
        units = raw_units(5, 3)

        def frames(stream_id):
            return [encode_frame({"op": "ping", "id": 0})] + [
                ingest_frame(i + 1, stream_id, raw) for i, raw in enumerate(units)
            ]

        async def drive():
            async with endpoint(kind) as (host, port):
                whole = await exchange(host, port, frames("whole"))
                one_byte = b"".join(frames("bytes"))
                split = await exchange(
                    host,
                    port,
                    [one_byte[i : i + 1] for i in range(len(one_byte))],
                    pace=True,
                )
                joined = await exchange(host, port, [b"".join(frames("joined"))])
                return whole, split, joined

        whole, split, joined = asyncio.run(drive())
        assert len(whole) == 1 + len(units)
        assert all(response["ok"] for response in whole)
        normalised = json.dumps(whole).replace('"whole"', '"S"')
        assert json.dumps(split).replace('"bytes"', '"S"') == normalised
        assert json.dumps(joined).replace('"joined"', '"S"') == normalised

    @pytest.mark.parametrize("size", [None, 100_003, 300_007])
    def test_frame_spanning_receive_buffer_fills_is_answered_once(
        self, kind, size
    ):
        """A ~1 MiB ping, written whole or in odd-sized pieces, takes
        several fills of the 256 KiB receive buffer to arrive."""
        large = encode_frame({"op": "ping", "id": "large", "pad": "x" * 2**20})
        assert 2**20 < len(large) <= LARGE_BOUND

        async def drive():
            async with endpoint(kind, frame_bound=LARGE_BOUND) as (host, port):
                return await exchange(
                    host,
                    port,
                    chunked(large + encode_frame({"op": "ping", "id": 7}), size),
                    pace=True,
                )

        responses = asyncio.run(drive())
        assert [(r["id"], r["ok"]) for r in responses] == [("large", True), (7, True)]

    @pytest.mark.parametrize(
        "bound, size", [(FRAME_BOUND, None), (LARGE_BOUND, 100_003)]
    )
    def test_oversize_frame_is_answered_and_the_connection_stays_usable(
        self, kind, bound, size
    ):
        oversize = b'{"op": "ping", "pad": "' + b"x" * bound + b'"}\n'
        assert bound < len(oversize) <= bound + 1024

        async def drive():
            async with endpoint(kind, frame_bound=bound) as (host, port):
                return await exchange(
                    host,
                    port,
                    chunked(oversize, size) + [encode_frame({"op": "ping", "id": 7})],
                    pace=size is not None,
                )

        bad, pong = asyncio.run(drive())
        assert bad["id"] is None and bad["error"]["type"] == "bad-request"
        assert "exceeds" in bad["error"]["message"]
        assert pong["id"] == 7 and pong["ok"] is True

    @pytest.mark.parametrize("newline", [True, False])
    def test_line_past_the_read_bound_gets_one_answer_then_a_hangup(
        self, kind, newline
    ):
        overlong = b"x" * (READ_BOUND + 100) + (b"\n" if newline else b"")
        trailing = encode_frame({"op": "ping", "id": 1}) if newline else b""

        async def drive():
            async with endpoint(kind) as (host, port):
                # no EOF from us: the peer must hang up on its own
                responses = await exchange(
                    host, port, [overlong + trailing], half_close=False
                )
                # ...and keeps serving everyone else
                client = await ServiceClient.connect(host, port)
                try:
                    pong = await client.ping()
                finally:
                    await client.close()
                return responses, pong

        responses, pong = asyncio.run(drive())
        assert len(responses) == 1
        (bad,) = responses
        assert bad == {
            "id": None,
            "ok": False,
            "error": {"type": "bad-request", "message": "frame too long"},
        }
        assert pong["domain"] == "synthetic"


@pytest.mark.parametrize("kind", KINDS)
def test_half_closed_client_gets_every_answer(kind):
    """A client that writes its requests and half-closes at once still
    gets one answer per request: the ingests sit in a batch past EOF."""
    units = raw_units(9, 4)

    async def drive():
        async with endpoint(kind, max_delay=0.05) as (host, port):
            frames = [
                ingest_frame(i, f"s{i % 2}", raw) for i, raw in enumerate(units)
            ] + [encode_frame({"op": "ping", "id": "last"})]
            responses = await exchange(host, port, [b"".join(frames)])
            client = await ServiceClient.connect(host, port)
            try:
                stats = await client.stats()
            finally:
                await client.close()
            return responses, stats

    responses, stats = asyncio.run(drive())
    assert sorted(str(r["id"]) for r in responses) == ["0", "1", "2", "3", "last"]
    assert all(response["ok"] for response in responses)
    assert stats["completed"] == stats["offered"] == len(units)
