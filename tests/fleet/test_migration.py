"""Live snapshot-based migration: the headline acceptance of the
sharded fleet. A migrated stream's fires, reports, and fleet aggregate
must be bit-identical to a never-migrated run — including migrations
straddling an ``apply_suite`` reconfiguration and a client-side model
hot-swap — and every failure mode must leave the stream serving."""

import asyncio

import numpy as np
import pytest

from repro.core.seeding import derive_seed
from repro.domains.registry import get_domain
from repro.serve import MonitorService, ServiceError
from tests.fleet.test_router import STREAMS, sharded
from tests.serve.test_apply_suite import crowded_entry
from tests.serve.test_service import (
    SyntheticDomain,
    assert_reports_equal,
    raw_units,
)

T, M = 5, 5  # units per stream before / after the boundary


def fire_keys(records):
    return [(r.assertion_name, r.item_index, r.severity) for r in records]


def direct_reference(units):
    """An unsharded service fed the same per-stream unit order."""
    service = MonitorService(SyntheticDomain())
    for i in range(T + M):
        for sid in units:
            service.ingest(sid, units[sid][i])
    return service


class TestMigrationBitIdentity:
    def test_midrun_migration_matches_never_migrated_run(self):
        units = {sid: raw_units(70 + k, T + M) for k, sid in enumerate(STREAMS)}

        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                moved_sid = STREAMS[0]
                source = router.table.owner(moved_sid)
                target = next(
                    name for name in servers if name != source
                )
                move = await client.request(
                    "migrate", stream_id=moved_sid, to=target, tick=T
                )
                assert move == {
                    "stream_id": moved_sid,
                    "from": source,
                    "to": target,
                    "moved": True,
                    "n_raw": T,
                }
                # the session now lives on the target, and only there
                assert moved_sid in servers[target].service
                assert moved_sid not in servers[source].service

                post_fires = []
                for i in range(T, T + M):
                    post_fires.extend(await client.ingest(moved_sid, units[moved_sid][i]))
                    for sid in STREAMS[1:]:
                        await client.ingest(sid, units[sid][i])
                reports = {sid: await client.report(sid) for sid in STREAMS}
                fleet = await client.fleet_report()
                stats = await client.stats()
                return post_fires, reports, fleet, stats, moved_sid, target

        post_fires, reports, fleet, stats, moved_sid, target = asyncio.run(drive())

        direct = MonitorService(SyntheticDomain())
        direct_post = []
        for i in range(T + M):
            for sid in STREAMS:
                fires = direct.ingest(sid, units[sid][i])
                if sid == moved_sid and i >= T:
                    direct_post.extend(fire.record for fire in fires)

        # fires emitted after the move are the never-migrated fires
        assert fire_keys(post_fires) == fire_keys(direct_post)
        for sid in STREAMS:
            assert_reports_equal(reports[sid], direct.report(sid))
        direct_fleet = direct.fleet_report()
        assert list(fleet.stream_reports) == list(direct_fleet.stream_reports)
        assert_reports_equal(fleet.aggregate, direct_fleet.aggregate)
        # the accounting ledger never lost a unit
        assert stats["completed"] == (T + M) * len(STREAMS)
        assert stats["failed"] == 0
        assert stats["sessions"][moved_sid] == T + M
        assert stats["routing"]["pins"].get(moved_sid) == target

    def test_rebalance_moves_streams_in_one_op(self):
        units = {sid: raw_units(80 + k, T + M) for k, sid in enumerate(STREAMS)}

        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                # Drain everything onto shard-0, as one rebalance op.
                plan = {sid: "shard-0" for sid in STREAMS}
                moves = (
                    await client.request("rebalance", plan=plan, tick=T)
                )["moves"]
                for i in range(T, T + M):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                reports = {sid: await client.report(sid) for sid in STREAMS}
                placement = {
                    name: server.service.stream_ids()
                    for name, server in servers.items()
                }
                return moves, reports, placement

        moves, reports, placement = asyncio.run(drive())
        assert set(moves) == set(STREAMS)
        assert any(move["moved"] for move in moves.values())
        assert sorted(placement["shard-0"]) == sorted(STREAMS)
        assert placement["shard-1"] == []

        direct = direct_reference(units)
        for sid in STREAMS:
            assert_reports_equal(reports[sid], direct.report(sid))


class TestMigrationFailureModes:
    def test_wrong_tick_is_rejected_and_the_stream_keeps_serving(self):
        units = {"s": raw_units(11, T + 1)}

        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest("s", units["s"][i])
                source = router.table.owner("s")
                target = next(n for n in servers if n != source)
                with pytest.raises(ServiceError) as err:
                    await client.request(
                        "migrate", stream_id="s", to=target, tick=T + 3
                    )
                # not moved: still on the source, no pin
                assert "s" in servers[source].service
                assert router.table.pins == {}
                await client.ingest("s", units["s"][T])
                report = await client.report("s")
                return err.value, report

        error, report = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "boundary" in str(error)

        direct = MonitorService(SyntheticDomain())
        for raw in units["s"]:
            direct.ingest("s", raw)
        assert_reports_equal(report, direct.report("s"))

    def test_unknown_target_shard_is_rejected(self):
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(12, 1)[0])
                with pytest.raises(ServiceError) as err:
                    await client.request("migrate", stream_id="s", to="shard-99")
                return err.value

        error = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "shard-99" in str(error)

    def test_migrating_an_unseen_stream_is_a_pure_routing_pin(self):
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                home = router.table.owner("later")
                target = next(n for n in servers if n != home)
                move = await client.request(
                    "migrate", stream_id="later", to=target
                )
                assert move["moved"] is False
                # first ingest after the pin lands on the pinned shard
                await client.ingest("later", raw_units(13, 1)[0])
                return target, {
                    name: server.service.stream_ids()
                    for name, server in servers.items()
                }

        target, placement = asyncio.run(drive())
        assert placement[target] == ["later"]

    def test_migrate_to_current_owner_is_a_noop(self):
        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                await client.ingest("s", raw_units(14, 1)[0])
                owner = router.table.owner("s")
                move = await client.request("migrate", stream_id="s", to=owner)
                return move

        move = asyncio.run(drive())
        assert move["moved"] is False

    def test_refused_source_evict_undoes_the_copy_and_surfaces_the_error(self):
        # The destination has restored the session when the source
        # refuses to evict its own: the router evicts the destination's
        # copy, so exactly one shard owns the stream, and answers with
        # the source's error.
        units = {"s": raw_units(15, T + 1)}

        async def drive():
            async with sharded() as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest("s", units["s"][i])
                source = router.table.owner("s")
                target = next(n for n in servers if n != source)
                link = router._links[source]
                request = link.request

                async def refuse_evict(op, **fields):
                    if op == "evict":
                        raise ServiceError(
                            {"type": "internal", "message": "evict refused"}
                        )
                    return await request(op, **fields)

                link.request = refuse_evict
                with pytest.raises(ServiceError) as err:
                    await client.request("migrate", stream_id="s", to=target)
                link.request = request
                placement = {
                    name: server.service.stream_ids()
                    for name, server in servers.items()
                }
                pins = dict(router.table.pins)
                await client.ingest("s", units["s"][T])
                report = await client.report("s")
                return err.value, source, target, placement, pins, report

        error, source, target, placement, pins, report = asyncio.run(drive())
        assert error.type == "internal"
        assert "evict refused" in str(error)
        assert placement == {source: ["s"], target: []}
        assert pins == {}

        direct = MonitorService(SyntheticDomain())
        for raw in units["s"]:
            direct.ingest("s", raw)
        assert_reports_equal(report, direct.report("s"))


class TestMigrationAcrossReconfiguration:
    def test_migration_straddling_an_apply_suite_boundary(self):
        """apply_suite at tick T through the router, then migrate one
        stream — post-boundary monitoring matches an unsharded service
        that applied the same suite at the same tick."""
        domain = get_domain("tvnews")
        new_suite = domain.assertion_suite().with_entry(crowded_entry())

        def stream_units(k):
            world = domain.build_world(derive_seed(7, "fleet-suite", k))
            stream = domain.iter_stream(world)
            return [next(stream) for _ in range(T + M)]

        units = {sid: stream_units(k) for k, sid in enumerate(STREAMS)}

        async def drive():
            async with sharded(lambda: "tvnews") as (router, servers, connect):
                client = await connect()
                for i in range(T):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                diffs = (await client.apply_suite(new_suite, tick=T))["streams"]
                assert set(diffs) == set(STREAMS)
                assert all(d["added"] == ["crowded"] for d in diffs.values())

                moved_sid = STREAMS[0]
                target = next(
                    n for n in servers if n != router.table.owner(moved_sid)
                )
                move = await client.request(
                    "migrate", stream_id=moved_sid, to=target, tick=T
                )
                assert move["moved"] is True

                for i in range(T, T + M):
                    await client.ingest_batch(
                        [(sid, units[sid][i]) for sid in STREAMS]
                    )
                reports = {sid: await client.report(sid) for sid in STREAMS}
                fleet = await client.fleet_report()
                return reports, fleet

        reports, fleet = asyncio.run(drive())

        direct = MonitorService("tvnews")
        for i in range(T):
            for sid in STREAMS:
                direct.ingest(sid, units[sid][i])
        direct.apply_suite(new_suite, tick=T)
        for i in range(T, T + M):
            for sid in STREAMS:
                direct.ingest(sid, units[sid][i])

        for sid in STREAMS:
            assert "crowded" in reports[sid].assertion_names
            assert_reports_equal(reports[sid], direct.report(sid))
        assert_reports_equal(fleet.aggregate, direct.fleet_report().aggregate)

    def test_wrong_tick_apply_suite_is_rejected_fleet_wide(self):
        domain = get_domain("tvnews")
        new_suite = domain.assertion_suite().with_entry(crowded_entry())

        async def drive():
            async with sharded(lambda: "tvnews") as (router, servers, connect):
                client = await connect()
                stream = domain.iter_stream(domain.build_world(3))
                for _ in range(2):
                    await client.ingest("s", next(stream))
                with pytest.raises(ServiceError) as err:
                    await client.apply_suite(new_suite, tick=5)
                # no shard applied it — the fleet is not split
                suites = [
                    server.service.suite for server in servers.values()
                ]
                return err.value, suites

        error, suites = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "boundary" in str(error)
        assert all(suite is None for suite in suites)

    def test_migration_across_a_model_hot_swap(self):
        """The model lives client-side (shards only monitor), so a
        hot-swap composes freely with migration: fine-tune between two
        unit batches, migrate at the same boundary, and the monitored
        stream stays bit-identical to an unsharded never-migrated run."""
        domain = get_domain("ecg")
        sensor = domain.build_sensor(0)
        stream = domain.iter_samples(sensor)
        samples = [next(stream) for _ in range(T + M)]

        adapter = domain.retrainable(0)
        v1 = adapter.get_state()
        tuned = domain.retrainable(0, bootstrap=False)
        tuned.set_state(v1)
        tuned.fine_tune([(s, tuned.oracle_label(s)) for s in samples[:4]])
        v2 = tuned.get_state()

        # Precompute the raw units each model version emits, so the
        # sharded and unsharded runs see byte-identical inputs.
        v1_adapter = domain.retrainable(0, bootstrap=False)
        v1_adapter.set_state(v1)
        v2_adapter = domain.retrainable(0, bootstrap=False)
        v2_adapter.set_state(v2)
        raws = [v1_adapter.predict_raw(s) for s in samples[:T]] + [
            v2_adapter.predict_raw(s) for s in samples[T:]
        ]

        async def drive():
            async with sharded(lambda: "ecg") as (router, servers, connect):
                client = await connect()
                for raw in raws[:T]:  # v1 era
                    await client.ingest("patient", raw)
                target = next(
                    n for n in servers if n != router.table.owner("patient")
                )
                move = await client.request(
                    "migrate", stream_id="patient", to=target, tick=T
                )
                assert move["moved"] is True
                for raw in raws[T:]:  # v2 era, on the new shard
                    await client.ingest("patient", raw)
                return await client.report("patient")

        report = asyncio.run(drive())

        direct = MonitorService("ecg")
        for raw in raws:
            direct.ingest("patient", raw)
        direct_report = direct.report("patient")
        assert report.assertion_names == direct_report.assertion_names
        np.testing.assert_array_equal(report.severities, direct_report.severities)
        assert report.n_items == direct_report.n_items
