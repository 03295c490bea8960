"""Bench: multi-stream ``MonitorService`` ingest vs N serial solo runs.

The serving layer's promise is that interleaving N independent streams
through one service costs what N solo runs cost (no cross-stream
interference) while keeping reports bit-identical. Measured on the
TV-news domain (model-free raw units, so the timer sees serving overhead
rather than detector inference):

- **solo**: N separate single-stream services, each ingesting its feed
  end to end (the per-stream baseline);
- **interleaved**: one service, round-robin ``ingest_batch`` with the
  thread fan-out (``ServiceConfig(parallel=True)``).

Asserted: per-stream reports from the interleaved run equal the solo
runs bit-for-bit, and interleaved throughput stays within 2× of the solo
aggregate (fan-out overhead must not swamp serving). The
``SERVICE_THROUGHPUT`` line is machine-readable for the nightly CI job
summary.
"""

import time

import numpy as np
import pytest

from conftest import run_once

from repro.serve import MonitorService, ServiceConfig

pytestmark = pytest.mark.slow

N_STREAMS = 8
N_RAW_PER_STREAM = 40  # scenes; each expands to several stream items


def build_feeds():
    from repro.domains.registry import get_domain

    domain = get_domain("tvnews")
    feeds = {}
    for k in range(N_STREAMS):
        stream = domain.iter_stream(domain.build_world(seed=k))
        feeds[f"feed-{k}"] = [next(stream) for _ in range(N_RAW_PER_STREAM)]
    return feeds


def run_comparison() -> dict:
    feeds = build_feeds()
    results: dict = {}

    solo_reports = {}
    started = time.perf_counter()
    for stream_id, raws in feeds.items():
        service = MonitorService("tvnews")
        for raw in raws:
            service.ingest(stream_id, raw)
        solo_reports[stream_id] = service.report(stream_id)
    solo_elapsed = time.perf_counter() - started

    service = MonitorService("tvnews", config=ServiceConfig(parallel=True))
    started = time.perf_counter()
    for round_index in range(N_RAW_PER_STREAM):
        service.ingest_batch(
            [(stream_id, feeds[stream_id][round_index]) for stream_id in feeds]
        )
    interleaved_elapsed = time.perf_counter() - started

    n_items = sum(report.n_items for report in solo_reports.values())
    results["n_items"] = n_items
    results["solo"] = n_items / solo_elapsed
    results["interleaved"] = n_items / interleaved_elapsed

    # Correctness: interleaved == solo, bit for bit, on every stream.
    for stream_id, solo in solo_reports.items():
        report = service.report(stream_id)
        assert report.assertion_names == solo.assertion_names
        assert np.array_equal(report.severities, solo.severities)
        assert report.records == solo.records
    return results


def test_service_throughput(benchmark):
    results = run_once(benchmark, run_comparison)
    ratio = results["interleaved"] / results["solo"]
    print(
        "\nSERVICE_THROUGHPUT "
        f"streams={N_STREAMS} raw/stream={N_RAW_PER_STREAM} "
        f"items={results['n_items']} | "
        f"solo={results['solo']:,.0f} items/s | "
        f"interleaved={results['interleaved']:,.0f} items/s "
        f"({ratio:.2f}x solo)"
    )
    # Interleaving must not collapse under fan-out overhead; parallel
    # speedups are hardware-dependent, so only the floor is asserted.
    assert ratio >= 0.5, (
        f"interleaved multi-stream ingest is {ratio:.2f}x the solo baseline "
        "(need ≥ 0.5x)"
    )
