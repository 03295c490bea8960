"""Bench: the ledger holds across real fleet processes.

Runs servebench's ``video-fleet-2`` workload for one second: a
``python -m repro fleet video --shards 2`` deployment (worker processes
behind the consistent-hash router) under open-loop ingest with live
migrations. servebench's gate (``servebench/gate.py``) checks, after
the run, the fleet ledger (offered == accepted + rejected; completed +
failed == accepted), every stream's completed count against the units
sent, and the final reports bit for bit against an in-process service.
A unit lost anywhere in router forwarding or migration fails the run.

``servebench/selftest.py`` runs the same smoke but is not collected by
the repository's test run, so this test keeps the fleet ledger in it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

#: Spawns a router and two worker processes; excluded from the fast tier.
pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


def test_video_fleet_run_passes_the_servebench_gate():
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "video-fleet-2",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    assert result["failed"] == 0, result
    assert result["attempted"] > 0, result
