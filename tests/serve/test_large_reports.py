"""Large ``fleet_report`` answers: readable, and written one stream at a time.

A ``fleet_report`` grows with every live stream, so its frame outgrows
the request bound long before a request does. The client (and the
router's shard links, which are clients) read responses under their own
bound, and the server encodes the answer stream by stream instead of
building the whole document first.
"""

import asyncio
import tracemalloc

from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.domains.registry import Domain, RawItem
from repro.serve import MonitorServer, MonitorService
from repro.serve.net import _Connection
from repro.utils.framing import MAX_FRAME_BYTES, encode_frame
from tests.fleet.test_router import sharded
from tests.serve.test_net import serving
from tests.serve.test_service import SyntheticDomain, assert_reports_equal, raw_units

#: A name this long makes every fire record ~2 kB on the wire.
LONG_NAME = "fires-on-every-item-" + "x" * 2000


class WideFireDomain(Domain):
    """A raw unit is an item count; every item fires one long-named
    assertion, so a report's records outweigh everything else."""

    name = "widefire"

    def build_monitor(self, config=None) -> OMG:
        omg = OMG(AssertionDatabase(), window_size=4)
        omg.add_assertion(lambda inp, outputs: 1.0, name=LONG_NAME)
        return omg

    def build_world(self, seed: int = 0):
        return None

    def iter_stream(self, world):
        return iter(())

    def item_from_raw(self, raw, state=None):
        return [RawItem([], None)] * int(raw)


#: 9 units of 500 items: each ingest answer is ~1 MB, the report ~9.5 MB.
UNITS = [500] * 9


def wide_service() -> MonitorService:
    service = MonitorService(WideFireDomain())
    for raw in UNITS:
        service.ingest("s", raw)
    return service


class TestResponsesOverTheRequestBound:
    def check(self, fleet):
        direct = wide_service().fleet_report()
        assert len(encode_frame(direct.stream_reports["s"])) > MAX_FRAME_BYTES
        assert list(fleet.stream_reports) == ["s"]
        assert_reports_equal(fleet.stream_reports["s"], direct.stream_reports["s"])
        assert_reports_equal(fleet.aggregate, direct.aggregate)
        assert fleet.row_offsets == direct.row_offsets
        assert fleet.aggregate.total_fires() == sum(UNITS)

    def test_service_client_reads_a_report_over_8_mib(self):
        async def drive():
            async with serving(wide_service()) as (server, connect):
                client = await connect()
                return await client.fleet_report()

        self.check(asyncio.run(drive()))

    def test_one_shard_router_relays_a_report_over_8_mib(self):
        async def drive():
            async with sharded(WideFireDomain, n_shards=1) as (router, servers, connect):
                client = await connect()
                for raw in UNITS:
                    await client.ingest("s", raw)
                return await client.fleet_report()

        self.check(asyncio.run(drive()))


class CaptureTransport:
    """Keeps every byte written, as a socket transport's buffer does
    while the peer reads slower than the server writes."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.writes = 0
        self.closed = False

    def write(self, data) -> None:
        self.data += data
        self.writes += 1

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def capture_connection(server) -> tuple:
    """``(transport, conn)``: a connection to ``server`` whose transport
    captures what the server writes. Call it inside a running loop."""
    transport = CaptureTransport()
    conn = _Connection(server, read_limit=MAX_FRAME_BYTES)
    conn.connection_made(transport)
    return transport, conn


class TestStreamedAnswer:
    def test_peak_allocation_is_at_most_twice_the_bytes_written(self):
        """With one stream's report encoded at a time, answering peaks
        under twice the frame, the written frame itself included."""
        # Encoding one report takes ~12x its size in temporaries, so a
        # fleet of 48 streams keeps that term near a quarter of the frame.
        n_streams, n_raw = 48, 100
        units = {f"s{k}": raw_units(k, n_raw) for k in range(n_streams)}
        service = MonitorService(SyntheticDomain())
        for i in range(n_raw):
            service.ingest_batch([(sid, units[sid][i]) for sid in units])
        server = MonitorServer(service)
        line = encode_frame({"op": "fleet_report", "id": 1})

        async def answer() -> tuple:
            transport, conn = capture_connection(server)
            tracemalloc.start()
            try:
                server._handle_line(line, conn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return transport, peak

        transport, peak = asyncio.run(answer())
        assert transport.writes == n_streams + 2  # head, one per stream, tail
        assert peak <= 2 * len(transport.data), (peak, len(transport.data))

    def test_a_report_failing_mid_frame_closes_the_connection(self):
        """Once part of the frame is written, no error answer can follow
        it on the same line: the server hangs up instead."""
        service = MonitorService(SyntheticDomain())
        for sid in ("s0", "s1"):
            service.ingest(sid, raw_units(0, 1)[0])

        def broken():
            raise RuntimeError("report failed")

        service._sessions["s1"].report = broken
        server = MonitorServer(service)

        async def answer():
            transport, conn = capture_connection(server)
            server._handle_line(encode_frame({"op": "fleet_report", "id": 1}), conn)
            return transport

        transport = asyncio.run(answer())
        assert transport.closed
        assert transport.data.startswith(b'{"id":1,"ok":true,')
        assert b"\n" not in transport.data  # the cut frame never ends
