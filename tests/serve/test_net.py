"""The asyncio TCP front-end: bit-identity with direct service calls,
per-stream ordering under interleaved batches, bounded-queue
backpressure with a complete accounting ledger, and the typed error
surface."""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.core.seeding import derive_seed
from repro.domains.registry import Domain, RawItem
from repro.serve import (
    ConnectionLostError,
    MonitorServer,
    MonitorService,
    ReconnectingClient,
    ServerConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.utils.framing import FrameError
from tests.serve.test_service import (
    SyntheticDomain,
    assert_reports_equal,
    raw_units,
)


class ExplodingDomain(SyntheticDomain):
    """String units are malformed and break their stream (fail-stop)."""

    def item_from_raw(self, raw, state=None):
        if isinstance(raw, str):
            raise RuntimeError(f"malformed unit {raw}")
        return super().item_from_raw(raw, state)


class SeqDomain(Domain):
    """Records server-side arrival order of every unit, per stream."""

    name = "seq"

    def __init__(self):
        self.observed = {}

    def build_monitor(self, config=None) -> OMG:
        omg = OMG(AssertionDatabase(), window_size=4)
        omg.add_assertion(lambda inp, outputs: 0.0, name="noop")
        return omg

    def build_world(self, seed: int = 0):
        return None

    def iter_stream(self, world):
        return iter(())

    def item_from_raw(self, raw, state=None):
        self.observed.setdefault(raw["sid"], []).append(raw["seq"])
        return [RawItem([], None)]


@contextlib.asynccontextmanager
async def serving(service, **knobs):
    """A started server plus a client factory; tears both down."""
    server = MonitorServer(service, ServerConfig(**knobs))
    await server.start()
    clients = []

    async def connect() -> ServiceClient:
        client = await ServiceClient.connect(server.host, server.port)
        clients.append(client)
        return client

    try:
        yield server, connect
    finally:
        for client in clients:
            await client.close()
        await server.stop()


class TestWireBitIdentity:
    def test_interleaved_tcp_clients_match_direct_service(self):
        n_streams, n_raw = 4, 12
        units = {f"s{k}": raw_units(50 + k, n_raw) for k in range(n_streams)}

        async def over_the_wire():
            service = MonitorService(SyntheticDomain())
            async with serving(service) as (server, connect):
                async def drive(sid):
                    client = await connect()
                    fires = []
                    for raw in units[sid]:
                        fires.extend(await client.ingest(sid, raw))
                    return sid, fires

                driven = await asyncio.gather(*(drive(sid) for sid in units))
                client = await connect()
                reports = {sid: await client.report(sid) for sid in units}
                return dict(driven), reports

        wire_fires, wire_reports = asyncio.run(over_the_wire())

        for sid, raws in units.items():
            solo = MonitorService(SyntheticDomain())
            direct_fires = []
            for raw in raws:
                direct_fires.extend(fire.record for fire in solo.ingest(sid, raw))
            # the records that crossed the wire are the direct ones,
            # bit-exact (floats included), and the accumulated session
            # state behind them matches too
            assert wire_fires[sid] == direct_fires
            assert_reports_equal(wire_reports[sid], solo.report(sid))

    def test_tvnews_tcp_run_matches_repro_stream_cli(self):
        """The server path is bit-identical to `python -m repro stream`
        with the same seeds (the acceptance criterion)."""
        from tests.experiments.test_cli import run_cli

        n_streams, n_items, seed = 2, 4, 0

        async def over_the_wire():
            service = MonitorService("tvnews")
            async with serving(service) as (server, connect):
                domain = service.domain

                async def drive(k):
                    client = await connect()
                    sid = f"tvnews-{k}"
                    stream = domain.iter_stream(
                        domain.build_world(derive_seed(seed, "stream", k))
                    )
                    for _ in range(n_items):
                        await client.ingest(sid, next(stream))

                await asyncio.gather(*(drive(k) for k in range(n_streams)))
                client = await connect()
                return await client.fleet_report()

        fleet = asyncio.run(over_the_wire())
        payload = json.loads(
            run_cli(
                "stream", "tvnews", "--streams", str(n_streams),
                "--items", str(n_items), "--seed", str(seed), "--json",
            ).stdout
        )
        assert set(fleet.stream_reports) == set(payload["streams"])
        for sid, report in fleet.stream_reports.items():
            assert report.n_items == payload["streams"][sid]["n_items"]
            assert report.fire_counts() == payload["streams"][sid]["fire_counts"]
        assert fleet.aggregate.n_items == payload["fleet"]["n_items"]
        assert fleet.fire_counts() == payload["fleet"]["fire_counts"]

    def test_restart_from_snapshot_matches_uninterrupted_run(self):
        units = {f"s{k}": raw_units(70 + k, 16) for k in range(2)}

        async def interrupted():
            service_a = MonitorService(SyntheticDomain())
            async with serving(service_a) as (server, connect):
                client = await connect()
                for i in range(8):
                    for sid in units:
                        await client.ingest(sid, units[sid][i])
                checkpoint = await client.snapshot()
            # "restart": a brand-new service + server resumes the fleet
            # from the wire-transported snapshot
            service_b = MonitorService(SyntheticDomain())
            async with serving(service_b) as (server, connect):
                client = await connect()
                assert sorted(await client.restore(checkpoint)) == sorted(units)
                for i in range(8, 16):
                    for sid in units:
                        await client.ingest(sid, units[sid][i])
                return {sid: await client.report(sid) for sid in units}

        wire_reports = asyncio.run(interrupted())
        solo = MonitorService(SyntheticDomain())
        for i in range(16):
            for sid in units:
                solo.ingest(sid, units[sid][i])
        for sid in units:
            assert_reports_equal(wire_reports[sid], solo.report(sid))

    def test_zero_item_report_keeps_its_shape_over_the_wire(self):
        """A stream whose units produced no item reports a ``(0, k)``
        severity matrix. It must decode as ``(0, k)``, so its columns
        read and the client stacks it beside a non-empty stream."""

        class QuietDomain(SyntheticDomain):
            def item_from_raw(self, raw, state=None):
                if raw == "quiet":
                    return []
                return super().item_from_raw(raw, state)

        busy = raw_units(90, 3)

        async def over_the_wire():
            service = MonitorService(QuietDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                await client.ingest("quiet", "quiet")
                for raw in busy:
                    await client.ingest("busy", raw)
                quiet = await client.report("quiet")
                return quiet, await client.fleet_report(), service.fleet_report()

        quiet, fleet, direct = asyncio.run(over_the_wire())
        names = quiet.assertion_names
        assert quiet.severities.shape == (0, len(names))
        assert quiet.column(names[0]).shape == (0,)
        assert fleet.row_offsets == direct.row_offsets == {"quiet": 0, "busy": 0}
        assert fleet.aggregate.severities.shape == (len(busy), len(names))
        assert_reports_equal(fleet.aggregate, direct.aggregate)


class TestOrdering:
    def test_per_stream_fifo_across_pipelined_clients_and_batches(self):
        """Each stream's units are applied in send order even when the
        worker coalesces requests from many connections into one
        service batch."""
        domain = SeqDomain()
        n = 25

        async def drive():
            service = MonitorService(domain)
            async with serving(service, max_batch=8, max_delay=0.02) as (
                server,
                connect,
            ):
                a, b, c = await connect(), await connect(), await connect()
                # a and b pipeline their own stream; c mixes both streams
                # inside ingest_batch requests
                futs = []
                for i in range(n):
                    futs.append(a.submit("ingest", stream_id="sa",
                                         raw={"sid": "sa", "seq": i}))
                    futs.append(b.submit("ingest", stream_id="sb",
                                         raw={"sid": "sb", "seq": i}))
                    futs.append(c.submit("ingest_batch", pairs=[
                        ["sc", {"sid": "sc", "seq": 2 * i}],
                        ["sd", {"sid": "sd", "seq": i}],
                        ["sc", {"sid": "sc", "seq": 2 * i + 1}],
                    ]))
                envelopes = await asyncio.gather(*futs)
                assert all(env["ok"] for env in envelopes)
                stats = await a.stats()
                # coalescing actually happened (else this test proves
                # nothing about cross-request batches)
                assert stats["batches"] < stats["accepted"]

        asyncio.run(drive())
        assert domain.observed["sa"] == list(range(n))
        assert domain.observed["sb"] == list(range(n))
        assert domain.observed["sc"] == list(range(2 * n))
        assert domain.observed["sd"] == list(range(n))


class TestEventLoopExecution:
    def test_batches_run_on_the_event_loop_thread(self):
        """The worker drives the service on the loop thread: no executor
        hop and no thread fan-out, even for multi-stream batches."""
        n_streams, n_raw = 4, 10
        units = {f"s{k}": raw_units(70 + k, n_raw) for k in range(n_streams)}
        # A pooled config: the server must still ingest on the loop thread.
        service = MonitorService(SyntheticDomain(), config=ServiceConfig(parallel=True))
        fire_threads = []
        service.on_fire(lambda fire: fire_threads.append(threading.get_ident()))
        observe_threads = []
        real_item_from_raw = service.domain.item_from_raw

        def recording_item_from_raw(raw, state=None):
            observe_threads.append(threading.get_ident())
            return real_item_from_raw(raw, state)

        service.domain.item_from_raw = recording_item_from_raw

        async def drive():
            async with serving(service, max_delay=0.01) as (server, connect):
                async def feed(sid):
                    client = await connect()
                    futs = [
                        client.submit("ingest", stream_id=sid, raw=raw)
                        for raw in units[sid]
                    ]
                    return await asyncio.gather(*futs)

                envelopes = await asyncio.gather(*(feed(sid) for sid in units))
                stats = await (await connect()).stats()
                return threading.get_ident(), envelopes, stats

        loop_thread, envelopes, stats = asyncio.run(drive())
        assert all(env["ok"] for per in envelopes for env in per)
        assert stats["batches"] < stats["accepted"]  # multi-unit batches
        assert len(observe_threads) == n_streams * n_raw
        assert fire_threads, "the synthetic streams should fire"
        assert set(observe_threads) == set(fire_threads) == {loop_thread}


class TestBatchingAndBackpressure:
    def test_pipelined_ingests_coalesce_under_max_delay(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service, max_batch=16, max_delay=0.05) as (
                server,
                connect,
            ):
                client = await connect()
                raw = raw_units(0, 1)[0]
                futs = [
                    client.submit("ingest", stream_id=f"s{i % 4}", raw=raw)
                    for i in range(32)
                ]
                envelopes = await asyncio.gather(*futs)
                assert all(env["ok"] for env in envelopes)
                return await client.stats()

        stats = asyncio.run(drive())
        assert stats["completed"] == 32
        assert stats["batches"] < 32  # coalesced, not one batch per request

    def test_max_delay_zero_flushes_immediately(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service, max_delay=0.0) as (server, connect):
                client = await connect()
                fires = await client.ingest("s", raw_units(0, 1)[0])
                assert isinstance(fires, list)
                return await client.stats()

        stats = asyncio.run(drive())
        assert stats["completed"] == 1

    def test_full_batch_flushes_without_waiting_for_the_deadline(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service, max_batch=4, max_delay=30) as (
                server,
                connect,
            ):
                client = await connect()
                raw = raw_units(0, 1)[0]
                futs = [
                    client.submit("ingest", stream_id=f"s{i}", raw=raw)
                    for i in range(4)
                ]
                envelopes = await asyncio.wait_for(asyncio.gather(*futs), 5)
                assert all(env["ok"] for env in envelopes)
                return server.stats.batches

        assert asyncio.run(drive()) == 1

    def test_control_op_answers_after_the_units_queued_before_it(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service, max_delay=30) as (server, connect):
                client = await connect()
                raw = raw_units(0, 1)[0]
                answered = []
                for i in range(3):
                    fut = client.submit("ingest", stream_id=f"s{i}", raw=raw)
                    fut.add_done_callback(lambda _f, i=i: answered.append(i))
                stats = await asyncio.wait_for(client.stats(), 5)
                return answered, stats

        answered, stats = asyncio.run(drive())
        assert answered == [0, 1, 2]  # written before the stats answer
        assert stats["completed"] == 3 and stats["pending"] == 0

    def test_stop_answers_queued_units_and_leaves_no_timer(self):
        max_delay = 0.3

        async def drive():
            service = MonitorService(SyntheticDomain())
            server = MonitorServer(service, ServerConfig(max_delay=max_delay))
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                raw = raw_units(0, 1)[0]
                futs = [
                    client.submit("ingest", stream_id=f"s{i}", raw=raw)
                    for i in range(3)
                ]
                while server.stats.accepted < 3:
                    await asyncio.sleep(0.005)
                await server.stop()  # the batch is still waiting
                envelopes = await asyncio.wait_for(asyncio.gather(*futs), 5)
                batches = server.stats.batches
                await asyncio.sleep(max_delay + 0.1)  # a stray timer would fire
                return envelopes, batches, server.stats
            finally:
                await client.close()

        envelopes, batches, stats = asyncio.run(drive())
        assert all(env["ok"] for env in envelopes)
        assert stats.batches == batches == 1
        assert stats.completed == 3

    def test_backpressure_is_explicit_and_accounted(self):
        """The acceptance ledger: accepted + rejected == offered, every
        rejection an explicit `overloaded` error, nothing silently
        dropped, and the queue drains completely."""
        n_offered = 60

        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(
                service, max_pending=2, max_batch=2, max_delay=0.01
            ) as (server, connect):
                client = await connect()
                raw = raw_units(0, 1)[0]
                futs = [
                    client.submit("ingest", stream_id="s", raw=raw)
                    for _ in range(n_offered)
                ]
                envelopes = await asyncio.gather(*futs)
                ok = sum(1 for env in envelopes if env["ok"])
                overloaded = [
                    env["error"] for env in envelopes if not env["ok"]
                ]
                assert all(err["type"] == "overloaded" for err in overloaded)
                assert all(
                    err["limit"] == 2 and "pending" in err for err in overloaded
                )
                stats = await client.stats()  # queued after all ingests
                return ok, len(overloaded), stats

        ok, rejected, stats = asyncio.run(drive())
        assert ok >= 1  # at least the first admission succeeded
        assert rejected >= 1  # the tiny bound actually pushed back
        assert ok + rejected == n_offered  # every request answered
        assert stats["offered"] == n_offered
        assert stats["accepted"] == ok
        assert stats["rejected_overload"] == rejected
        assert stats["accepted"] + stats["rejected"] == stats["offered"]
        assert stats["completed"] + stats["failed"] == stats["accepted"]
        assert stats["pending"] == 0  # fully drained


class TestErrorSurface:
    def run(self, coro):
        return asyncio.run(coro)

    def test_malformed_unit_then_broken_session(self):
        async def drive():
            service = MonitorService(ExplodingDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                good = raw_units(0, 1)[0]
                await client.ingest("s", good)
                with pytest.raises(ServiceError) as excinfo:
                    await client.ingest("s", "boom")
                assert excinfo.value.type == "malformed-unit"
                assert excinfo.value.error["stream_id"] == "s"
                # fail-stop: the stream now rejects everything, loudly
                with pytest.raises(ServiceError) as excinfo:
                    await client.ingest("s", good)
                assert excinfo.value.type == "broken-session"
                with pytest.raises(ServiceError) as excinfo:
                    await client.report("s")
                assert excinfo.value.type == "broken-session"
                # eviction clears the slot; the id is usable again
                await client.evict("s")
                assert isinstance(await client.ingest("s", good), list)

        self.run(drive())

    def test_batch_response_names_every_failed_stream(self):
        async def drive():
            service = MonitorService(ExplodingDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                good = raw_units(0, 1)[0]
                result = await client.ingest_batch(
                    [
                        ("ok", good),
                        ("bad1", "boom1"),
                        ("bad2", "boom2"),
                        ("bad1", good),  # skipped: bad1 already broke
                    ]
                )
                assert result["failed_streams"] == ["bad1", "bad2"]
                entries = result["results"]
                assert entries[0]["ok"]
                assert entries[1]["error"]["type"] == "malformed-unit"
                assert "boom1" in entries[1]["error"]["message"]
                assert entries[2]["error"]["type"] == "malformed-unit"
                assert entries[3]["error"]["type"] == "broken-session"

        self.run(drive())

    def test_unknown_stream_and_unknown_domain(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                with pytest.raises(ServiceError) as excinfo:
                    await client.report("nope")
                assert excinfo.value.type == "unknown-stream"
                with pytest.raises(ServiceError) as excinfo:
                    await client.request("ping", domain="tvnews")
                assert excinfo.value.type == "unknown-domain"
                assert excinfo.value.error["domain"] == "synthetic"

        self.run(drive())

    def test_bad_requests_are_typed_not_dropped(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                with pytest.raises(ServiceError) as excinfo:
                    await client.request("frobnicate")
                assert excinfo.value.type == "bad-request"
                with pytest.raises(ServiceError) as excinfo:
                    await client.request("ingest")  # missing stream_id/raw
                assert excinfo.value.type == "bad-request"
                # codec-tagged units that do not decode (KeyError inside
                # from_jsonable) are typed, and the ledger counts them
                for raw in ({"__dataclass__": "AssertionRecord"}, {"__ndarray__": {}}):
                    with pytest.raises(ServiceError) as excinfo:
                        await client.request("ingest", stream_id="s", raw=raw)
                    assert excinfo.value.type == "malformed-unit"
                stats = await client.stats()
                assert stats["offered"] == 3
                assert stats["rejected_bad"] == 3
                assert stats["offered"] == stats["accepted"] + stats["rejected"]
                # raw garbage on a fresh socket gets an id-less error
                # frame back, not a hangup
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["id"] is None
                assert response["error"]["type"] == "bad-request"
                writer.close()
                await writer.wait_closed()

        self.run(drive())

    def test_client_fails_pending_requests_on_a_non_object_frame(self):
        """A response frame that is valid JSON but not an object must
        fail every pending request, not kill the reader and hang them."""

        async def fake_server(reader, writer):
            await reader.readline()
            await reader.readline()
            writer.write(b"[1,2]\n")
            await writer.drain()
            await reader.read()  # hold the connection open
            writer.close()

        async def drive():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                first = client.submit("ping")
                second = client.submit("stats")
                results = await asyncio.wait_for(
                    asyncio.gather(first, second, return_exceptions=True), 5
                )
                return results, client.connected
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        results, connected = asyncio.run(drive())
        assert all(isinstance(r, FrameError) for r in results), results
        assert "list" in str(results[0])
        assert not connected

    def test_ping_and_stats_roundtrip(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            async with serving(service) as (server, connect):
                client = await connect()
                pong = await client.ping()
                assert pong["domain"] == "synthetic"
                await client.ingest("s", raw_units(0, 1)[0])
                stats = await client.stats()
                assert stats["domain"] == "synthetic"
                assert stats["streams"] == 1
                assert stats["offered"] == stats["accepted"] == 1

        self.run(drive())

    def test_internal_error_answers_every_batched_request(self):
        # A whole-batch service failure (batch wider than the LRU bound)
        # must produce one typed `internal` response per request, and
        # the pending counter must still drain.
        async def drive():
            service = MonitorService(
                SyntheticDomain(), config=ServiceConfig(max_sessions=2)
            )
            async with serving(service, max_delay=0.05) as (server, connect):
                client = await connect()
                raw = raw_units(0, 1)[0]
                futs = [
                    client.submit("ingest", stream_id=f"s{i}", raw=raw)
                    for i in range(3)  # coalesce into one 3-stream batch
                ]
                envelopes = await asyncio.gather(*futs)
                assert all(not env["ok"] for env in envelopes)
                assert all(
                    env["error"]["type"] == "internal" for env in envelopes
                )
                stats = await client.stats()
                assert stats["pending"] == 0
                assert stats["completed"] + stats["failed"] == stats["accepted"]

        self.run(drive())


class TestStreamSnapshotOps:
    """The migration wire ops: ``snapshot_stream`` hands one session
    across servers, ``restore_stream`` re-admits it, and the moved
    stream stays bit-identical to one that never moved."""

    def test_session_handoff_between_two_servers(self):
        T, M = 5, 5
        units = raw_units(31, T + M)

        async def drive():
            source = MonitorService(SyntheticDomain())
            target = MonitorService(SyntheticDomain())
            async with serving(source) as (_, connect_src):
                async with serving(target) as (_, connect_dst):
                    src, dst = await connect_src(), await connect_dst()
                    for raw in units[:T]:
                        await src.ingest("s", raw)
                    snap = await src.snapshot_stream("s")
                    assert snap["stream_id"] == "s"
                    assert snap["n_raw"] == T
                    restored = await dst.restore_stream("s", snap["session"])
                    assert restored["n_raw"] == T
                    await src.evict("s")
                    for raw in units[T:]:
                        await dst.ingest("s", raw)
                    return await dst.report("s")

        report = asyncio.run(drive())
        direct = MonitorService(SyntheticDomain())
        for raw in units:
            direct.ingest("s", raw)
        assert_reports_equal(report, direct.report("s"))

    def test_snapshot_stream_unknown_stream_is_typed(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (
                _,
                connect,
            ):
                client = await connect()
                with pytest.raises(ServiceError) as err:
                    await client.snapshot_stream("ghost")
                return err.value

        assert asyncio.run(drive()).type == "unknown-stream"

    def test_restore_stream_refuses_to_clobber_a_live_stream(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (
                _,
                connect,
            ):
                client = await connect()
                await client.ingest("s", raw_units(4, 1)[0])
                snap = await client.snapshot_stream("s")
                with pytest.raises(ServiceError) as err:
                    await client.restore_stream("s", snap["session"])
                return err.value

        error = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "live" in str(error)


class TestApplySuiteOverWire:
    def test_wire_apply_suite_matches_direct(self):
        from tests.serve.test_apply_suite import crowded_entry

        domain = MonitorService("tvnews").domain
        new_suite = domain.assertion_suite().with_entry(crowded_entry())
        world = domain.build_world(derive_seed(3, "wire-suite", 0))
        units = [
            next(stream)
            for stream in [domain.iter_stream(world)]
            for _ in range(4)
        ]

        async def drive():
            async with serving(MonitorService("tvnews")) as (_, connect):
                client = await connect()
                for raw in units[:2]:
                    await client.ingest("s", raw)
                diffs = (await client.apply_suite(new_suite, tick=2))["streams"]
                assert diffs["s"]["added"] == ["crowded"]
                with pytest.raises(ServiceError) as err:
                    await client.apply_suite(new_suite, tick=99)
                for raw in units[2:]:
                    await client.ingest("s", raw)
                return err.value, await client.report("s")

        error, report = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "crowded" in report.assertion_names

    def test_undecodable_suite_payload_is_bad_request(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (
                _,
                connect,
            ):
                client = await connect()
                with pytest.raises(ServiceError) as err:
                    await client.request("apply_suite", suite={"nope": 1})
                return err.value

        error = asyncio.run(drive())
        assert error.type == "bad-request"
        assert "does not decode" in str(error)
        assert "dict" in str(error)


class TestPerStreamStats:
    def test_stats_break_down_by_stream_and_expose_session_units(self):
        async def drive():
            service = MonitorService(ExplodingDomain())
            async with serving(service) as (_, connect):
                client = await connect()
                good = raw_units(8, 3)
                for raw in good:
                    await client.ingest("ok", raw)
                await client.ingest("doomed", good[0])
                with pytest.raises(ServiceError):
                    await client.ingest("doomed", "malformed")
                return await client.stats()

        stats = asyncio.run(drive())
        assert stats["per_stream"] == {
            "ok": {"completed": 3, "failed": 0},
            "doomed": {"completed": 1, "failed": 1},
        }
        # sessions maps live streams to consumed raw units; the broken
        # stream is still live (fail-stop, not evicted) at 1 unit
        assert stats["sessions"] == {"ok": 3, "doomed": 1}
        assert sum(e["completed"] for e in stats["per_stream"].values()) == (
            stats["completed"]
        )


class TestReconnectingClient:
    def test_survives_a_server_bounce_mid_run(self):
        """Regression: a ReconnectingClient keeps working across a full
        server stop/start on the same port, redialing and resending; the
        final report matches an unbounced run."""
        T, M = 4, 4
        units = raw_units(22, T + M)

        async def drive():
            service = MonitorService(SyntheticDomain())
            server = MonitorServer(service, ServerConfig())
            await server.start()
            port = server.port
            client = await ReconnectingClient.connect(
                "127.0.0.1", port, retries=10, backoff=0.02
            )
            try:
                for raw in units[:T]:
                    await client.ingest("s", raw)
                await server.stop()  # the bounce

                async def revive():
                    await asyncio.sleep(0.1)
                    revived = MonitorServer(
                        service, ServerConfig(host="127.0.0.1", port=port)
                    )
                    await revived.start()
                    return revived

                revive_task = asyncio.create_task(revive())
                # issued while the server is DOWN: redial + resend
                for raw in units[T:]:
                    await client.ingest("s", raw)
                report = await client.report("s")
                server = await revive_task
                return report
            finally:
                await client.close()
                await server.stop()

        report = asyncio.run(drive())
        direct = MonitorService(SyntheticDomain())
        for raw in units:
            direct.ingest("s", raw)
        assert_reports_equal(report, direct.report("s"))

    def test_redials_after_a_bounce_between_requests(self):
        """Regression: a server that went away *between* requests left
        the client's connection dead; the next request must redial, not
        wait forever for an answer on it."""

        async def drive():
            service = MonitorService(SyntheticDomain())
            server = MonitorServer(service, ServerConfig())
            await server.start()
            port = server.port
            client = await ReconnectingClient.connect(
                "127.0.0.1", port, retries=3, backoff=0.02
            )
            try:
                await client.ping()
                await server.stop()
                server = MonitorServer(
                    service, ServerConfig(host="127.0.0.1", port=port)
                )
                await server.start()
                return await asyncio.wait_for(client.ping(), 5)
            finally:
                await client.close()
                await server.stop()

        assert asyncio.run(drive())["domain"] == "synthetic"

    def test_plain_client_fails_fast_once_the_server_hung_up(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (
                server,
                connect,
            ):
                client = await connect()
                await client.ping()
                await server.stop()
                while client.connected:
                    await asyncio.sleep(0.005)
                with pytest.raises(ConnectionError):
                    client.submit("ping")

        asyncio.run(asyncio.wait_for(drive(), 5))

    def test_service_errors_are_not_retried(self):
        async def drive():
            async with serving(MonitorService(SyntheticDomain())) as (
                server,
                _connect,
            ):
                client = await ReconnectingClient.connect(
                    server.host, server.port
                )
                try:
                    with pytest.raises(ServiceError) as err:
                        await client.report("ghost")
                    return err.value, (await client.stats())["offered"]
                finally:
                    await client.close()

        error, offered = asyncio.run(drive())
        assert error.type == "unknown-stream"
        assert offered == 0

    def test_exhausted_retries_raise_connection_lost(self):
        async def drive():
            # a port nothing listens on
            probe = MonitorServer(MonitorService(SyntheticDomain()))
            await probe.start()
            port = probe.port
            await probe.stop()
            with pytest.raises(ConnectionLostError) as err:
                await ReconnectingClient.connect(
                    "127.0.0.1", port, retries=2, backoff=0.01
                )
            return err.value

        error = asyncio.run(drive())
        assert error.attempts == 2
        assert isinstance(error.last_error, OSError)

    def test_request_exhaustion_after_losing_the_server_for_good(self):
        async def drive():
            service = MonitorService(SyntheticDomain())
            server = MonitorServer(service, ServerConfig())
            await server.start()
            client = await ReconnectingClient.connect(
                "127.0.0.1", server.port, retries=2, backoff=0.01
            )
            try:
                await client.ingest("s", raw_units(1, 1)[0])
                await server.stop()  # ...and never comes back
                with pytest.raises(ConnectionLostError) as err:
                    await client.ingest("s", raw_units(1, 2)[1])
                return err.value
            finally:
                await client.close()

        error = asyncio.run(drive())
        assert error.attempts == 2
        assert error.last_error is not None
