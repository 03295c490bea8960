"""Worker process lifecycle under :class:`FleetManager`: spawn +
readiness, crash-restart (fresh incarnation, new pid, empty service),
and the log-tail diagnostics when a worker dies before becoming ready.

These spawn real ``python -m repro.fleet.worker`` subprocesses — kept to
a minimum; everything protocol-level runs against in-process servers in
the other ``tests/fleet`` files.
"""

import asyncio

import pytest

from repro.fleet import FleetManager, shard_names
from repro.serve import ServiceClient


class TestShardNames:
    def test_canonical_names(self):
        assert shard_names(3) == ["shard-0", "shard-1", "shard-2"]
        with pytest.raises(ValueError, match="at least 1"):
            shard_names(0)


class TestWorkerLifecycle:
    def test_spawn_ping_restart_stop(self, tmp_path):
        manager = FleetManager("tvnews", 2, workdir=str(tmp_path))
        try:
            specs = manager.start()
            assert sorted(specs) == ["shard-0", "shard-1"]
            assert all(status is None for status in manager.poll().values())

            async def ping(spec):
                client = await ServiceClient.connect(spec.host, spec.port)
                try:
                    return await client.ping()
                finally:
                    await client.close()

            for spec in specs.values():
                pong = asyncio.run(ping(spec))
                assert pong["domain"] == "tvnews"

            async def count_sessions(spec):
                client = await ServiceClient.connect(spec.host, spec.port)
                try:
                    return (await client.stats())["streams"]
                finally:
                    await client.close()

            old = specs["shard-0"]
            new = manager.restart("shard-0")
            assert new.pid != old.pid
            # a restarted incarnation is empty by design
            assert asyncio.run(count_sessions(new)) == 0
        finally:
            manager.stop()
        assert manager.poll() == {}

    def test_dead_worker_aborts_start_with_log_tail(self, tmp_path):
        manager = FleetManager("no-such-domain", 1, workdir=str(tmp_path))
        try:
            with pytest.raises(RuntimeError) as err:
                manager.start()
        finally:
            manager.stop()
        message = str(err.value)
        assert "shard-0" in message
        assert "before becoming ready" in message
        # the worker's own traceback is surfaced, naming the bad domain
        assert "no-such-domain" in message

    def test_failed_start_reaps_every_spawned_worker(self, tmp_path):
        manager = FleetManager("tvnews", 2, workdir=str(tmp_path), ready_timeout=0.05)
        spawned = []
        spawn = manager._spawn

        def recording_spawn(name):
            spawn(name)
            spawned.append(manager._procs[name])

        manager._spawn = recording_spawn
        with pytest.raises(RuntimeError, match="did not become ready"):
            manager.start()
        assert len(spawned) == 2
        # no `stop()` needed: the failed start already killed and reaped them
        assert all(proc.returncode is not None for proc in spawned)
        assert manager.poll() == {}
