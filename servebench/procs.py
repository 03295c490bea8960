"""Spawn, time, measure and stop the deployed servers.

The benchmark drives the real deployment: ``python -m repro serve`` or
``python -m repro fleet`` as a subprocess with its CLI defaults plus
``--ready-file``. Set-up time runs from ``Popen`` until the ready file
exists and the first ``ping`` over TCP is answered.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

#: Seconds a deployment gets to write its ready file and answer a ping.
READY_TIMEOUT = 60.0
#: Seconds a deployment gets to exit after SIGTERM before SIGKILL.
STOP_TIMEOUT = 30.0


class Deployment:
    """One ``repro serve`` / ``repro fleet`` process tree.

    ``address`` is the front door (the server, or the fleet's router);
    ``direct`` lists the address of every process that runs a
    ``MonitorServer`` (the server itself, or each shard).
    """

    def __init__(self, domain: str, shards: int, rundir: str, src: str, tag: str) -> None:
        self.domain = domain
        self.shards = shards
        self.rundir = rundir
        self.ready_file = os.path.join(rundir, f"{tag}.ready.json")
        self.log_file = os.path.join(rundir, f"{tag}.log")
        self.workdir = os.path.join(rundir, f"{tag}.fleet")
        self.env = dict(os.environ, PYTHONPATH=src, TMPDIR=rundir)
        self.proc: "subprocess.Popen | None" = None
        self.ready: dict = {}

    def command(self) -> list:
        command = [sys.executable, "-m", "repro"]
        if self.shards:
            command += ["fleet", self.domain, "--shards", str(self.shards),
                        "--workdir", self.workdir]
        else:
            command += ["serve", self.domain]
        return command + ["--ready-file", self.ready_file]

    def start(self) -> float:
        """Spawn and wait until the front door answers a ping; returns
        the set-up time in seconds."""
        if os.path.exists(self.ready_file):
            os.unlink(self.ready_file)
        t0 = time.perf_counter()
        with open(self.log_file, "ab") as log:
            self.proc = subprocess.Popen(
                self.command(), stdout=log, stderr=subprocess.STDOUT, env=self.env
            )
        deadline = t0 + READY_TIMEOUT
        while not os.path.exists(self.ready_file):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.command()} exited with {self.proc.returncode} before "
                    f"it was ready; see {self.log_file}"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"{self.command()} not ready in {READY_TIMEOUT}s")
            time.sleep(0.002)
        with open(self.ready_file) as handle:
            self.ready = json.load(handle)
        sync_ping(self.address)
        return time.perf_counter() - t0

    @property
    def address(self) -> tuple:
        return (self.ready["host"], int(self.ready["port"]))

    @property
    def direct(self) -> list:
        if not self.shards:
            return [self.address]
        return [
            (spec["host"], int(spec["port"]))
            for _name, spec in sorted(self.ready["shards"].items())
        ]

    def pids(self) -> list:
        pids = [int(self.ready["pid"])]
        pids += [int(spec["pid"]) for spec in self.ready.get("shards", {}).values()]
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) summed over every server process."""
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User plus system CPU seconds used so far by every server process."""
        ticks = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM the front process, wait for it and for every shard."""
        if self.proc is None:
            return
        pids = self.pids() if self.ready else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in pids[1:]:  # shards: children of the fleet process
            _wait_gone(pid)
        self.proc = None


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_gone(pid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT
    while _alive(pid):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + STOP_TIMEOUT
        time.sleep(0.01)


def sync_ping(address: tuple) -> None:
    """One blocking ``ping`` round trip (set-up only)."""
    with socket.create_connection(address, timeout=READY_TIMEOUT) as sock:
        sock.sendall(b'{"op":"ping","id":0}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"{address} closed before answering ping")
            data += chunk
    if not json.loads(data).get("ok"):
        raise RuntimeError(f"ping to {address} failed: {data!r}")
