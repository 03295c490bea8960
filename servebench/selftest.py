"""The benchmark's own tests (outside the repository's tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest servebench/selftest.py -q

The smoke tests spawn the real servers and take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
from gate import GateError, check_counts, check_ledger, check_reports
from repro.core.types import AssertionRecord
from repro.serve.service import MonitorService
from workloads import WORKLOADS, Inputs


def reference_reports() -> dict:
    """Two tvnews streams fed six units each, as the gate sees them."""
    inputs = Inputs(WORKLOADS["tvnews-closed-4"], seed=0)
    service = MonitorService("tvnews")
    for i in range(6):
        for j, sid in enumerate(inputs.stream_ids[:2]):
            service.ingest(sid, inputs.raws[inputs.pool_index(j, i)])
    return {sid: service.report(sid) for sid in service.stream_ids()}


class TestGate:
    def test_identical_reports_pass(self):
        check_reports(reference_reports(), reference_reports())

    def test_tampered_severity_fails_naming_the_stream(self):
        wire = reference_reports()
        severities = wire["s01"].severities.copy()
        severities[0, 0] = np.nextafter(severities[0, 0], 1.0)
        wire["s01"].severities = severities
        with pytest.raises(GateError, match="stream 's01' severities"):
            check_reports(wire, reference_reports())

    def test_tampered_record_fails_naming_the_stream(self):
        wire = reference_reports()
        wire["s00"].records = wire["s00"].records + [
            AssertionRecord(assertion_name="news:attr:hair", item_index=0, severity=1.0)
        ]
        with pytest.raises(GateError, match="stream 's00' fire records"):
            check_reports(wire, reference_reports())

    def test_missing_stream_fails(self):
        wire = reference_reports()
        del wire["s00"]
        with pytest.raises(GateError, match="stream 's00' is missing"):
            check_reports(wire, reference_reports())

    def test_ledger_and_per_stream_counts(self):
        ok = {"offered": 5, "accepted": 5, "rejected": 0, "completed": 5,
              "failed": 0, "per_stream": {"s00": {"completed": 5, "failed": 0}}}
        check_ledger(ok)
        check_counts(ok, {"s00": 5})
        with pytest.raises(GateError, match="ledger: offered 6"):
            check_ledger(dict(ok, offered=6))
        with pytest.raises(GateError, match="ledger: completed 4"):
            check_ledger(dict(ok, completed=4))
        with pytest.raises(GateError, match="stream 's00' completed 5"):
            check_counts(ok, {"s00": 6})


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", *args],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_has_no_failures_and_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio 0
    assert list(result["metrics"]) == [m["name"] for m in bench.spec()["end_to_end"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in bench.spec()["per_layer"]]


def test_without_the_program_exits_nonzero_and_prints_no_result():
    bare = bench.RUNDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.ROOT / "servebench", bare / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "tvnews-closed-4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
