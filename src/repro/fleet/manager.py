"""Spawn and supervise the worker processes of a sharded fleet.

:class:`FleetManager` turns "N shards of domain D" into N running
``python -m repro.fleet.worker`` processes, each announcing its bound
address through a ready file in the manager's working directory. The
manager owns only *process* lifecycle — spawn, readiness, liveness,
restart, orderly stop; stream placement and migration are the router's
job (:mod:`repro.fleet.router`), and a restarted worker comes back
*empty* by design: re-seeding its sessions is an explicit
``restore_stream``/fleet-restore decision, never something the manager
does implicitly.

Workers inherit this process's environment (so ``PYTHONPATH=src`` test
runs spawn importable children) and write stderr to
``<workdir>/<shard>.log`` — the first thing :meth:`FleetManager.start`
shows you when a worker dies before its ready file appears.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.utils.io import read_json

#: Seconds a spawned worker gets to write its ready file.
READY_TIMEOUT = 30.0


@dataclass(frozen=True)
class ShardSpec:
    """One running shard: its name on the ring and where it listens."""

    name: str
    host: str
    port: int
    pid: int

    def address(self) -> tuple:
        return (self.host, self.port)


def shard_names(n_shards: int) -> list:
    """Canonical shard names ``shard-0 .. shard-N-1``.

    Shared by the manager and the CLI so a ring built from ``--shards N``
    alone owns streams identically everywhere.
    """
    if n_shards < 1:
        raise ValueError(f"a fleet needs at least 1 shard, got {n_shards}")
    return [f"shard-{index}" for index in range(n_shards)]


class FleetManager:
    """Run one worker process per shard (see module docstring).

    Usage::

        manager = FleetManager("tvnews", 2, workdir="/tmp/fleet")
        specs = manager.start()          # blocks until every shard is up
        ...                              # specs[name].address() per shard
        manager.stop()

    or as a context manager (``with FleetManager(...) as specs:``).
    """

    def __init__(
        self,
        domain: str,
        n_shards: int,
        *,
        workdir: str,
        host: str = "127.0.0.1",
        max_batch: int = 32,
        max_delay: float = 0.005,
        max_pending: int = 1024,
        ready_timeout: float = READY_TIMEOUT,
    ) -> None:
        self.domain = domain
        self.names = shard_names(n_shards)
        self.workdir = workdir
        self.host = host
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_pending = max_pending
        self.ready_timeout = ready_timeout
        self._procs: "dict[str, subprocess.Popen]" = {}
        self._specs: "dict[str, ShardSpec]" = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> dict:
        """Spawn every worker; returns ``{name: ShardSpec}`` once all are
        listening. Any worker that dies (or stays silent past
        ``ready_timeout``) aborts the whole start with its log tail, after
        every worker already spawned has been killed and reaped."""
        if self._procs:
            raise RuntimeError("fleet already started")
        os.makedirs(self.workdir, exist_ok=True)
        try:
            for name in self.names:
                self._spawn(name)
            for name in self.names:
                self._specs[name] = self._await_ready(name)
        except BaseException:
            for proc in self._procs.values():
                proc.kill()  # a no-op for a worker that already exited
                proc.wait()
            self._procs.clear()
            self._specs.clear()
            raise
        return dict(self._specs)

    def _spawn(self, name: str) -> None:
        ready = self._ready_file(name)
        if os.path.exists(ready):
            os.unlink(ready)  # never trust a previous incarnation's file
        command = [
            sys.executable,
            "-m",
            "repro.fleet.worker",
            self.domain,
            "--shard", name,
            "--host", self.host,
            "--port", "0",
            "--ready-file", ready,
            "--max-batch", str(self.max_batch),
            "--max-delay", str(self.max_delay),
            "--max-pending", str(self.max_pending),
        ]
        log = open(self._log_file(name), "ab")
        try:
            self._procs[name] = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()  # the child holds its own descriptor

    def _await_ready(self, name: str) -> ShardSpec:
        proc = self._procs[name]
        ready = self._ready_file(name)
        deadline = time.monotonic() + self.ready_timeout
        while time.monotonic() < deadline:
            if os.path.exists(ready):
                try:
                    payload = read_json(ready)
                except ValueError:
                    pass  # torn read cannot happen (atomic write) — but be safe
                else:
                    return ShardSpec(
                        name=name,
                        host=payload["host"],
                        port=int(payload["port"]),
                        pid=int(payload["pid"]),
                    )
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard {name!r} exited with status {proc.returncode} "
                    f"before becoming ready:\n{self._log_tail(name)}"
                )
            time.sleep(0.002)
        raise RuntimeError(
            f"shard {name!r} did not become ready within "
            f"{self.ready_timeout:.0f}s:\n{self._log_tail(name)}"
        )

    def poll(self) -> dict:
        """``{name: None | exit_status}`` — None means still running."""
        return {name: proc.poll() for name, proc in self._procs.items()}

    def restart(self, name: str) -> ShardSpec:
        """Bounce one worker: SIGKILL (simulating a crash), respawn, wait
        for readiness. The new incarnation is *empty* — restore state
        through the router / ``restore_stream`` explicitly."""
        proc = self._procs.get(name)
        if proc is None:
            raise KeyError(name)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        self._spawn(name)
        self._specs[name] = self._await_ready(name)
        return self._specs[name]

    def addresses(self) -> dict:
        """``{name: (host, port)}`` of every started shard."""
        return {name: spec.address() for name, spec in self._specs.items()}

    def stop(self, *, timeout: float = 10.0) -> None:
        """SIGTERM every worker (drains + snapshots), SIGKILL stragglers."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
        self._specs.clear()

    def __enter__(self) -> dict:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Paths / diagnostics
    # ------------------------------------------------------------------
    def _ready_file(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.ready.json")

    def _log_file(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.log")

    def _log_tail(self, name: str, lines: int = 20) -> str:
        try:
            with open(self._log_file(name), "r", errors="replace") as handle:
                tail = handle.readlines()[-lines:]
        except OSError:
            return "(no worker log)"
        return "".join(tail) or "(empty worker log)"
