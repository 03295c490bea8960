"""Coordinated fleet snapshot/restore: a mid-run snapshot restored onto
a *fresh* fleet (new servers, new router) continues bit-identically to
the uninterrupted run, pins survive, and every format-mismatch path
fails loudly at the boundary."""

import asyncio
import json

import pytest

from repro.fleet import (
    FLEET_SNAPSHOT_FORMAT,
    SnapshotFormatError,
    fleet_snapshot_payload,
    load_fleet_snapshot,
    save_fleet_snapshot,
    validate_fleet_payload,
)
from repro.serve import MonitorService, ServiceError
from tests.fleet.test_router import STREAMS, sharded
from tests.serve.test_service import (
    SyntheticDomain,
    assert_reports_equal,
    raw_units,
)

T, M = 4, 4


class TestCoordinatedSnapshotRestore:
    def test_restored_fresh_fleet_continues_bit_identically(self):
        units = {sid: raw_units(90 + k, T + M) for k, sid in enumerate(STREAMS)}

        async def interrupted():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                # pin one stream off its ring home first, so the restore
                # has routing state to carry, not just sessions
                moved = STREAMS[0]
                target = next(
                    n for n in servers if n != router.table.owner(moved)
                )
                await client.request("migrate", stream_id=moved, to=target)
                payload = await client.snapshot()
                return json.loads(json.dumps(payload)), moved, target

        payload, moved, target = asyncio.run(interrupted())
        assert payload["kind"] == "fleet"
        assert payload["format"] == FLEET_SNAPSHOT_FORMAT
        assert sorted(payload["shards"]) == ["shard-0", "shard-1"]

        async def resumed():
            async with sharded() as (router, servers, connect):
                client = await connect()
                restored = await client.restore(payload)
                assert restored == sorted(STREAMS)
                # the pin flowed through the routing snapshot
                assert router.table.pins == {moved: target}
                for i in range(T, T + M):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                assert moved in servers[target].service
                reports = {sid: await client.report(sid) for sid in STREAMS}
                fleet = await client.fleet_report()
                return reports, fleet

        reports, fleet = asyncio.run(resumed())

        direct = MonitorService(SyntheticDomain())
        for i in range(T + M):
            for sid in STREAMS:
                direct.ingest(sid, units[sid][i])
        for sid in STREAMS:
            assert_reports_equal(reports[sid], direct.report(sid))
        direct_fleet = direct.fleet_report()
        assert list(fleet.stream_reports) == list(direct_fleet.stream_reports)
        assert_reports_equal(fleet.aggregate, direct_fleet.aggregate)

    def test_in_process_snapshot_helpers_round_trip(self, tmp_path):
        units = {sid: raw_units(17 + k, T) for k, sid in enumerate(STREAMS[:2])}
        path = str(tmp_path / "fleet.json")

        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    for sid in units:
                        await client.ingest(sid, units[sid][i])
                payload = await router.fleet_snapshot()
                save_fleet_snapshot(payload, path)
            loaded = load_fleet_snapshot(path)
            async with sharded() as (router, servers, connect):
                await router.restore_fleet(loaded)
                client = await connect()
                stats = await client.stats()
                return stats

        stats = asyncio.run(drive())
        assert stats["sessions"] == {sid: T for sid in units}


class TestFormatValidation:
    def payload(self):
        service = MonitorService(SyntheticDomain())
        service.ingest("s", raw_units(0, 1)[0])
        from repro.fleet.ring import HashRing, RoutingTable

        return fleet_snapshot_payload(
            "synthetic",
            RoutingTable(HashRing(["shard-0"])),
            {"shard-0": service.snapshot()},
        )

    def test_valid_payload_passes(self):
        assert validate_fleet_payload(self.payload())["kind"] == "fleet"

    def test_wrong_format_version_is_loud(self):
        bad = dict(self.payload(), format=FLEET_SNAPSHOT_FORMAT + 1)
        with pytest.raises(SnapshotFormatError) as err:
            validate_fleet_payload(bad)
        assert err.value.found == FLEET_SNAPSHOT_FORMAT + 1
        assert err.value.supported == FLEET_SNAPSHOT_FORMAT
        assert "unsupported fleet snapshot format" in str(err.value)

    def test_service_payload_is_identified_by_hint(self):
        service_payload = MonitorService(SyntheticDomain()).snapshot()
        with pytest.raises(SnapshotFormatError, match="MonitorService snapshot"):
            validate_fleet_payload(service_payload)

    def test_non_dict_and_missing_sections(self):
        with pytest.raises(SnapshotFormatError, match="expected a JSON object"):
            validate_fleet_payload([1, 2])
        truncated = self.payload()
        del truncated["routing"]
        with pytest.raises(SnapshotFormatError, match="'routing' section"):
            validate_fleet_payload(truncated)

    def test_load_names_the_file_on_mismatch(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"format": 99, "kind": "fleet"}))
        with pytest.raises(SnapshotFormatError, match="stale.json"):
            load_fleet_snapshot(str(path))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(SnapshotFormatError, match="not valid JSON"):
            load_fleet_snapshot(str(garbled))

    def test_save_refuses_invalid_payloads(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            save_fleet_snapshot({"kind": "fleet"}, str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()

    def test_monitor_and_fleet_layers_raise_one_class(self):
        # The router loads it without the monitor core; a caller catching
        # either layer's error must still catch both.
        import repro.core.runtime

        assert repro.core.runtime.SnapshotFormatError is SnapshotFormatError


class TestRestoreGuards:
    def test_router_rejects_wrong_domain_and_unknown_shards(self):
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(5, 1)[0])
                payload = await client.snapshot()

                wrong_domain = dict(payload, domain="tvnews")
                with pytest.raises(ServiceError) as domain_err:
                    await client.restore(wrong_domain)

                alien = dict(
                    payload,
                    shards=dict(payload["shards"], **{"shard-9": payload["shards"]["shard-0"]}),
                )
                with pytest.raises(ServiceError) as shard_err:
                    await client.restore(alien)

                with pytest.raises(ServiceError) as format_err:
                    await client.restore({"kind": "fleet", "format": 99,
                                          "domain": "synthetic", "routing": {},
                                          "shards": {}})
                # the fleet still serves after every rejected restore
                report = await client.report("s")
                return domain_err.value, shard_err.value, format_err.value, report

        domain_err, shard_err, format_err, report = asyncio.run(drive())
        assert domain_err.type == "unknown-domain"
        assert shard_err.type == "bad-request"
        assert "shard-9" in str(shard_err)
        assert format_err.type == "bad-request"
        assert format_err.error.get("found") == 99
        assert report.n_items > 0

    def test_router_restore_refuses_a_format_2_monitor_by_name(self):
        # A fleet payload is valid at the router's layer, but one of its
        # monitors is format 2: the shard's restore names that format.
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(5, 1)[0])
                payload = json.loads(json.dumps(await client.snapshot()))
                shard = router.table.owner("s")
                sessions = payload["shards"][shard]["sessions"]
                sessions[0][1]["monitor"]["format"] = 2
                with pytest.raises(ServiceError) as err:
                    await client.restore(payload)
                return err.value

        err = asyncio.run(drive())
        assert err.type == "bad-request"
        assert "unsupported monitor snapshot format 2" in str(err)
