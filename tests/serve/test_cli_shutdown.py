"""Signal shutdown of the long-running ``python -m repro serve`` and
``python -m repro fleet`` commands.

Each case launches the real command, ingests a few units over TCP, sends
SIGINT or SIGTERM and checks that the process exits 0 after writing its
shutdown snapshot, and that relaunching the same command restores the
stream from it. One case per command launches it with SIGINT ignored,
the way a shell starts a background job: the explicit handlers must
still stop it on SIGINT.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.domains.registry import get_domain
from repro.serve import ServiceClient
from tests.experiments.test_cli import SRC

#: Seconds allowed for a launch to announce itself and for a shutdown.
TIMEOUT_S = 60.0


def launch(command: str, tmp_path, tag: str, *, ignore_sigint: bool = False):
    ready = str(tmp_path / f"ready-{tag}.json")
    argv = [
        sys.executable, "-m", "repro", command, "tvnews",
        "--port", "0",
        "--ready-file", ready,
        "--snapshot", str(tmp_path / "snapshot.json"),
    ]
    if command == "fleet":
        argv += ["--shards", "1", "--workdir", str(tmp_path / "workers")]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=(
            (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
            if ignore_sigint
            else None
        ),
    )
    deadline = time.monotonic() + TIMEOUT_S
    while not os.path.exists(ready):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            _, err = proc.communicate()
            raise AssertionError(f"{command} never became ready:\n{err}")
        time.sleep(0.05)
    with open(ready) as fh:
        return proc, json.load(fh)


def stop(proc, signum) -> str:
    """Send ``signum`` and return stdout once the process has exited 0."""
    proc.send_signal(signum)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise AssertionError(f"no exit within {TIMEOUT_S}s of {signum!r}")
    assert proc.returncode == 0, err
    assert "interrupted — shutting down" in out
    return out


async def ingest_units(address: dict, n_units: int) -> None:
    domain = get_domain("tvnews")
    stream = domain.iter_stream(domain.build_world(0))
    client = await ServiceClient.connect(address["host"], address["port"])
    try:
        for _ in range(n_units):
            await client.ingest("tvnews-0", next(stream))
    finally:
        await client.close()


@pytest.mark.parametrize(
    "signum, ignore_sigint",
    [
        (signal.SIGINT, False),
        (signal.SIGTERM, False),
        (signal.SIGINT, True),
    ],
    ids=["SIGINT", "SIGTERM", "SIGINT-ignored-at-launch"],
)
@pytest.mark.parametrize("command", ["serve", "fleet"])
def test_signal_writes_snapshot_and_relaunch_restores(
    command, signum, ignore_sigint, tmp_path
):
    proc, address = launch(command, tmp_path, "first", ignore_sigint=ignore_sigint)
    try:
        asyncio.run(ingest_units(address, 3))
        out = stop(proc, signum)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert "napshot written to" in out
    assert os.path.exists(tmp_path / "snapshot.json")

    proc, _ = launch(command, tmp_path, "second")
    try:
        out = stop(proc, signal.SIGTERM)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert "1 stream(s) restored from" in out
