"""Byte identity of the wire encoding.

``to_jsonable`` dispatches on exact types, with a generic fallback, and
``encode_frame`` hands plain content straight to ``json.dumps`` and
walks only live codec objects. Neither change may move a byte. These
tests pin both against a reference encoder: the plain ``isinstance``
walk ``to_jsonable`` used to be. They cover every document shape the
server, the router and the client build.
"""

import asyncio
import dataclasses
import json
from collections import OrderedDict

import numpy as np
import pytest

import repro.serve.net as net
from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.core.seeding import derive_seed
from repro.core.types import AssertionRecord
from repro.domains.registry import Domain, RawItem, get_domain
from repro.serve import MonitorServer, MonitorService, ServerConfig, ServiceClient
from repro.utils.codec import registered_result_types, to_jsonable
from repro.utils.framing import encode_frame, encode_frame_pieces
from tests.fleet.test_router import sharded
from tests.serve.test_large_reports import capture_connection


def reference_to_jsonable(obj):
    """The codec's encoding rules as one ``isinstance`` chain."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in registered_result_types():
            raise TypeError(f"{name} is not registered")
        return {
            "__dataclass__": name,
            "fields": {
                f.name: reference_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": {"dtype": str(obj.dtype), "data": obj.tolist()}}
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, tuple):
        return {"__tuple__": [reference_to_jsonable(v) for v in obj]}
    if isinstance(obj, list):
        return [reference_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        encoded = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"non-str key {key!r}")
            encoded[key] = reference_to_jsonable(value)
        return encoded
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__}")


def reference_frame(doc) -> bytes:
    text = json.dumps(reference_to_jsonable(doc), separators=(",", ":"))
    return text.encode("utf-8") + b"\n"


def same_encoding(obj) -> bool:
    """Equal JSON text *and* equal Python types (``True`` vs ``1``)."""
    fast, ref = to_jsonable(obj), reference_to_jsonable(obj)
    return json.dumps(fast) == json.dumps(ref) and _typed(fast) == _typed(ref)


def _typed(obj):
    if isinstance(obj, dict):
        return {k: _typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_typed(v) for v in obj]
    return (type(obj).__name__, obj)


def tvnews_service(n_streams=2, n_units=6):
    """A tvnews service that ingested a few interleaved units, plus the
    units (``Scene`` dataclasses) it saw."""
    domain = get_domain("tvnews")
    service = MonitorService("tvnews")
    units = {}
    for k in range(n_streams):
        stream = domain.iter_stream(domain.build_world(derive_seed(0, "stream", k)))
        units[f"tvnews-{k}"] = [next(stream) for _ in range(n_units)]
    fires = []
    for i in range(n_units):
        fires.extend(
            service.ingest_batch([(sid, raws[i]) for sid, raws in units.items()])
        )
    return service, units, fires


@pytest.fixture(scope="module")
def tvnews():
    return tvnews_service()


class TestToJsonable:
    def test_scene_record_report_and_suite(self, tvnews):
        service, units, fires = tvnews
        scene = units["tvnews-0"][0]
        assert type(scene).__name__ == "Scene"
        assert fires, "the fixture should fire at least once"
        report = service.report("tvnews-0")
        suite = get_domain("tvnews").assertion_suite()
        for obj in (scene, fires[0].record, report, suite, service.snapshot()):
            assert same_encoding(obj)

    def test_numpy_values(self):
        values = [
            np.arange(6, dtype=np.float32).reshape(2, 3),
            np.array([1, 2], dtype=np.int64),
            np.array([], dtype=bool),
            np.float64(0.1 + 0.2),
            np.float32(0.1),
            np.int64(-3),
            np.uint8(7),
            np.bool_(True),
        ]
        for value in values:
            assert same_encoding(value)
            assert same_encoding({"nested": [value, (value,)]})
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert type(to_jsonable(np.float64(0.5))) is float

    def test_tuples_and_container_subclasses(self):
        record = AssertionRecord("a", 3, 0.1 + 0.2, context="s")
        values = [
            (1, "x", None),
            ((1, 2), [3, (4,)]),
            (),
            OrderedDict([("b", 1), ("a", (2, record))]),
            [True, False, 0, 1, 1.5, "s", None],
            {"t": (record, np.int64(1))},
        ]
        for value in values:
            assert same_encoding(value)
        assert to_jsonable((1, 2)) == {"__tuple__": [1, 2]}
        encoded = to_jsonable(OrderedDict([("b", 1), ("a", 2)]))
        assert list(encoded) == ["b", "a"]

    def test_unregistered_types_and_non_str_keys_raise(self):
        @dataclasses.dataclass
        class NotRegistered:
            x: int = 0

        with pytest.raises(TypeError, match="not registered"):
            to_jsonable(NotRegistered())
        with pytest.raises(TypeError, match="not registered"):
            to_jsonable({"inner": [NotRegistered()]})
        with pytest.raises(TypeError, match="keys must be str"):
            to_jsonable({1: "x"})
        with pytest.raises(TypeError, match="keys must be str"):
            to_jsonable(OrderedDict([(("a",), 1)]))
        with pytest.raises(TypeError, match="cannot encode set"):
            to_jsonable({"s": {1, 2}})
        with pytest.raises(TypeError, match="cannot encode object"):
            to_jsonable([object()])


class TestEncodeFrame:
    def test_server_document_shapes(self, tvnews):
        service, units, fires = tvnews
        scene = units["tvnews-1"][2]
        fleet = service.fleet_report()
        session = service.session_snapshot("tvnews-0")
        docs = {
            "ingest request": {
                "op": "ingest", "id": 3, "stream_id": "tvnews-1", "raw": scene,
            },
            "fires": {
                "id": 3,
                "ok": True,
                "result": {
                    "ok": True,
                    "stream_id": "tvnews-1",
                    "fires": [fire.record for fire in fires],
                },
            },
            "report": {
                "id": 4,
                "ok": True,
                "result": {
                    "stream_id": "tvnews-0",
                    "report": service.report("tvnews-0"),
                },
            },
            "fleet_report": {
                "id": 5,
                "ok": True,
                "result": {
                    "domain": fleet.domain,
                    "assertion_names": fleet.aggregate.assertion_names,
                    "stream_reports": dict(fleet.stream_reports),
                },
            },
            "session snapshot": {
                "id": 6,
                "ok": True,
                "result": {
                    "stream_id": "tvnews-0",
                    "session": session,
                    "n_raw": session["n_raw"],
                },
            },
            "stats": {
                "id": 7,
                "ok": True,
                "result": {
                    "offered": 12,
                    "per_stream": {"tvnews-0": {"completed": 6, "failed": 0}},
                    "sessions": service.session_units(),
                    "domain": "tvnews",
                },
            },
        }
        for name, doc in docs.items():
            assert encode_frame(doc) == reference_frame(doc), name

    def test_streamed_fleet_report_frame_equals_encode_frame(self, tvnews):
        """The server writes the fleet_report answer one stream report
        per piece; the pieces make up exactly the frame ``encode_frame``
        gives for the whole document, and each stream's piece holds that
        report's own ``encode_frame`` bytes."""
        service, units, fires = tvnews
        server = MonitorServer(service)

        async def answer():
            transport, conn = capture_connection(server)
            server._handle_line(encode_frame({"op": "fleet_report", "id": 5}), conn)
            return transport

        written = bytes(asyncio.run(answer()).data)
        reports = dict(service.stream_reports())
        doc = {
            "id": 5,
            "ok": True,
            "result": {
                "domain": "tvnews",
                "assertion_names": service.assertion_names(),
                "stream_reports": reports,
            },
        }
        assert written == encode_frame(doc) == reference_frame(doc)

        head = dict(doc, result=dict(doc["result"], stream_reports={}))
        pieces = list(encode_frame_pieces(head, reports.items()))
        assert b"".join(pieces) == written
        assert len(pieces) == len(reports) + 2
        for k, (sid, report) in enumerate(reports.items()):
            sep = b"," if k else b""
            key = encode_frame(sid)[:-1]
            assert pieces[1 + k] == sep + key + b":" + encode_frame(report)[:-1]

    def test_numpy_values_inside_plain_documents(self):
        doc = {
            "a": np.arange(3),
            "f": np.float64(0.1 + 0.2),
            "g": np.float32(0.1),
            "i": np.int64(3),
            "b": np.bool_(False),
            "nan": float("nan"),
        }
        assert encode_frame(doc) == reference_frame(doc)

    def test_bare_tuples_outside_codec_objects_are_lists(self):
        # the encode contract: tuples are tagged only inside codec
        # objects; callers tag user values with to_jsonable first
        assert encode_frame({"t": (1, 2)}) == b'{"t":[1,2]}\n'
        record = AssertionRecord("a", 0, 1.0, context=("x", 1))
        assert encode_frame({"r": record}) == reference_frame({"r": record})
        assert b'"__tuple__"' in encode_frame({"r": record})

    def test_every_frame_of_a_fleet_run_matches_the_reference(self, monkeypatch):
        """Record every frame the client, the router and both shards
        write during a tvnews run with a live migration and a restore.
        The ``fleet_report`` answers are written in pieces, not through
        ``encode_frame``; the test above pins their bytes."""
        frames = []
        real = net.encode_frame

        def recording(doc):
            data = real(doc)
            try:
                expected = reference_frame(doc)
            except TypeError as exc:
                expected = exc
            frames.append((doc, data, expected))
            return data

        monkeypatch.setattr(net, "encode_frame", recording)
        domain = get_domain("tvnews")
        streams = {
            f"tvnews-{k}": domain.iter_stream(
                domain.build_world(derive_seed(0, "stream", k))
            )
            for k in range(3)
        }

        async def drive():
            async with sharded(lambda: get_domain("tvnews")) as (
                router,
                servers,
                connect,
            ):
                client = await connect()
                for sid, stream in streams.items():
                    await client.ingest(sid, next(stream))
                await client.ingest_batch(
                    [(sid, next(stream)) for sid, stream in streams.items()]
                )
                await client.report("tvnews-0")
                ring = await client.request("ring")
                owner = ring["owners"]["tvnews-0"]
                target = next(name for name in servers if name != owner)
                move = await client.request(
                    "migrate", stream_id="tvnews-0", to=target, tick=2
                )
                assert move["moved"] is True
                await client.ingest("tvnews-0", next(streams["tvnews-0"]))
                await client.fleet_report()
                await client.stats()
                snapshot = await client.snapshot()
                await client.restore(snapshot)

        asyncio.run(drive())
        ops = {doc.get("op") for doc, _data, _expected in frames}
        assert {
            "ingest", "ingest_batch", "report", "migrate", "snapshot_stream",
            "restore_stream", "fleet_report", "stats", "snapshot", "restore",
        } <= ops
        for doc, data, expected in frames:
            assert data == expected, doc.get("op") or sorted(doc)


class RawTypeDomain(Domain):
    """Records the Python type of every raw unit the server decodes."""

    name = "rawtype"

    def __init__(self):
        self.seen = []

    def build_monitor(self, config=None) -> OMG:
        omg = OMG(AssertionDatabase(), window_size=4)
        omg.add_assertion(lambda inp, outputs: 0.0, name="noop")
        return omg

    def build_world(self, seed: int = 0):
        return None

    def iter_stream(self, world):
        return iter(())

    def item_from_raw(self, raw, state=None):
        self.seen.append(raw)
        return [RawItem([], None)]


def test_client_helpers_tag_tuples_in_user_values():
    domain = RawTypeDomain()

    async def drive():
        server = MonitorServer(MonitorService(domain), ServerConfig())
        await server.start()
        client = await ServiceClient.connect(server.host, server.port)
        try:
            await client.ingest("s", ("a", 1))
            await client.ingest_batch([("s", (2, np.int64(3))), ("t", [("x",)])])
        finally:
            await client.close()
            await server.stop()

    asyncio.run(drive())
    assert domain.seen == [("a", 1), (2, 3), [("x",)]]
