"""One op table for both roles: a server and a fleet router check a
request against ``repro.serve.net._OPS`` once and map what a handler
raises to the same typed wire error, so a malformed request gets the
same answer from either, and the README's op reference is that table.
"""

import asyncio
import json
import pathlib
import re

import pytest

from repro.fleet import FleetRouter
from repro.serve import MonitorServer, MonitorService, ServiceError
from repro.serve.net import _OPS, _error_for
from tests.fleet.test_router import sharded
from tests.serve.test_net import serving
from tests.serve.test_service import SyntheticDomain, raw_units

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"

#: Ops both roles serve.
SHARED = sorted(
    op
    for op in _OPS
    if hasattr(MonitorServer, f"_op_{op}") and hasattr(FleetRouter, f"_op_{op}")
)

#: A missing or ill-typed field for every shared op that has fields.
MALFORMED = [
    ("ingest", {"stream_id": "s"}),
    ("ingest", {"stream_id": 7, "raw": {}}),
    ("ingest_batch", {}),
    ("ingest_batch", {"pairs": "s"}),
    ("report", {}),
    ("report", {"stream_id": 7}),
    ("evict", {}),
    ("evict", {"stream_id": ["s"]}),
    ("restore", {}),
    ("restore", {"snapshot": []}),
    ("apply_suite", {}),
    ("apply_suite", {"suite": {}, "tick": True}),
    ("apply_suite", {"suite": {}, "tick": "3"}),
    ("frobnicate", {}),
] + [(op, {"domain": "nope"}) for op in SHARED]


async def error_from(connect, op, fields):
    envelope = await (await connect()).submit(op, **fields)
    assert envelope["ok"] is False, envelope
    return envelope["error"]


def case_id(case) -> str:
    op, fields = case
    return f"{op}({','.join(f'{k}={v!r}' for k, v in fields.items())})"


@pytest.mark.parametrize("op, fields", MALFORMED, ids=map(case_id, MALFORMED))
def test_server_and_router_answer_a_malformed_request_alike(op, fields):
    async def drive():
        async with serving(MonitorService(SyntheticDomain())) as (_, connect):
            single = await error_from(connect, op, fields)
        async with sharded() as (_, _servers, connect):
            fleet = await error_from(connect, op, fields)
        return single, fleet

    single, fleet = asyncio.run(drive())
    assert single["type"] == fleet["type"]
    assert single["message"] == fleet["message"]
    if op == "frobnicate" or "domain" in fields:
        return
    assert single["type"] == "bad-request"
    if op not in ("ingest", "ingest_batch"):  # these name all their fields
        assert re.search(r"needs \w+ as ", single["message"]), single


def readme_op_table() -> dict:
    """``op → (fields, roles)`` from the README's op reference."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not re.fullmatch(r"`\w+`", cells[0]):
            continue
        fields = dict(re.findall(r"`(\w+)` \(([\w ]+)\)", cells[1]))
        roles = {role.strip() for role in cells[2].split(",")}
        rows[cells[0].strip("`")] = (fields, roles)
    return rows


def test_readme_op_reference_is_the_op_table():
    table = {
        op: (
            fields,
            {
                role
                for role, cls in (("server", MonitorServer), ("router", FleetRouter))
                if hasattr(cls, f"_op_{op}")
            },
        )
        for op, (_control, fields) in _OPS.items()
    }
    assert readme_op_table() == table


class TestUnknownStreamOnlyForAMissingStream:
    def test_a_session_without_its_monitor_is_a_bad_request(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (_, connect):
                client = await connect()
                with pytest.raises(ServiceError) as err:
                    await client.restore_stream("s", {})
                return err.value

        error = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "'monitor'" in str(error)

    def test_restore_of_a_session_without_its_monitor_is_a_bad_request(self):
        def strip_monitor(payload):
            del payload["sessions"][0][1]["monitor"]
            return payload

        async def drive():
            errors = {}
            async with serving(MonitorService(SyntheticDomain())) as (_, connect):
                client = await connect()
                await client.ingest("s", raw_units(3, 1)[0])
                payload = json.loads(json.dumps(await client.snapshot()))
                with pytest.raises(ServiceError) as err:
                    await client.restore(strip_monitor(payload))
                errors["server"] = err.value
            async with sharded() as (router, _servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(3, 1)[0])
                payload = json.loads(json.dumps(await client.snapshot()))
                shard = payload["shards"][router.table.owner("s")]
                strip_monitor(shard)
                with pytest.raises(ServiceError) as err:
                    await client.restore(payload)
                errors["router"] = err.value
            return errors

        for role, error in asyncio.run(drive()).items():
            assert error.type == "bad-request", role
            assert "'monitor'" in str(error), role

    def test_an_absent_stream_stays_unknown_stream(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (_, connect):
                client = await connect()
                errors = []
                for call in (
                    client.report("ghost"),
                    client.evict("ghost"),
                    client.snapshot_stream("ghost"),
                ):
                    with pytest.raises(ServiceError) as err:
                        await call
                    errors.append(err.value)
                return errors

        for error in asyncio.run(drive()):
            assert error.type == "unknown-stream"
            assert str(error) == "unknown-stream: no live stream 'ghost'"


def test_only_a_refused_payload_is_a_bad_request():
    # A handler's own KeyError is a fault of the endpoint, not of the
    # client, whichever role raised it.
    assert _error_for(1, ValueError("no"))["error"]["type"] == "bad-request"
    assert _error_for(1, KeyError("shard-0"))["error"]["type"] == "internal"


class TestTickIsAnIntegerNotABool:
    def test_server_apply_suite_refuses_a_bool_tick(self):
        suite = MonitorService("tvnews").domain.assertion_suite()

        async def drive():
            async with serving(MonitorService("tvnews")) as (server, connect):
                client = await connect()
                with pytest.raises(ServiceError) as err:
                    await client.apply_suite(
                        suite.without(suite.entries[0].name), tick=True
                    )
                return err.value, server.service.suite

        error, applied = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "tick" in str(error) and "bool" in str(error)
        assert applied is None

    @pytest.mark.parametrize("op", ["migrate", "rebalance"])
    def test_router_moves_refuse_a_bool_tick(self, op):
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(5, 1)[0])  # n_raw == True
                source = router.table.owner("s")
                target = next(name for name in servers if name != source)
                fields = (
                    {"stream_id": "s", "to": target}
                    if op == "migrate"
                    else {"plan": {"s": target}}
                )
                with pytest.raises(ServiceError) as err:
                    await client.request(op, tick=True, **fields)
                return err.value, router.table.owner("s") == source

        error, stayed = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "tick" in str(error) and "bool" in str(error)
        assert stayed
