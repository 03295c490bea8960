"""Bench: streaming engine throughput vs a per-item trailing-window replay.

Setup mirrors the acceptance bar for the incremental engine: 8
registered assertions (4 per-item functions, 2 windowed functions, one
attribute-consistency and one temporal-consistency assertion sharing a
spec) at ``window_size=64``. Three paths are timed over the same
synthetic stream:

- **legacy**: :func:`replay_trailing_window` — re-evaluates every
  assertion over the trailing window per item and keeps the newest
  severity (what ``observe`` did before the streaming engine);
- **streaming**: ``OMG().observe`` — stateful evaluators, O(assertions)
  amortized per item;
- **batch**: ``OMG().observe_batch`` in chunks of 256.

Asserted: streaming is ≥ 5× legacy items/sec, batch ≥ streaming-single
within tolerance, and all three paths produce identical severity
matrices. The ``STREAMING_THROUGHPUT`` line is machine-readable for the
nightly CI job summary.
"""

import time
from collections import deque

import numpy as np
import pytest

from conftest import run_once

from repro.core.assertion import FunctionAssertion
from repro.core.consistency import ConsistencySpec, generate_assertions
from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.core.types import AssertionRecord, make_stream

#: Not long-running, but the ≥5× assertion is wall-clock-sensitive: keep
#: it out of the fast per-push CI tier; the nightly job runs it explicitly.
pytestmark = pytest.mark.slow

N_ITEMS = 3000
WINDOW_SIZE = 64
CHUNK = 256
MIN_SPEEDUP = 5.0


def build_database() -> AssertionDatabase:
    """The 8-assertion mix from the acceptance criteria."""
    database = AssertionDatabase()
    for j in range(4):
        database.add(
            FunctionAssertion(lambda inp, outs, j=j: float(len(outs) > 1 + j), f"count_gt_{j + 1}")
        )
    database.add(
        FunctionAssertion(
            lambda ins, outs: float(sum(len(o) for o in outs) > 6), "busy_w3", window=3
        )
    )
    database.add(
        FunctionAssertion(
            lambda ins, outs: float(len(outs) == 8 and len(outs[0]) == len(outs[-1])),
            "echo_w8",
            window=8,
        )
    )
    spec = ConsistencySpec(
        id_fn=lambda o: o.get("id"),
        attrs_fn=lambda o: {"color": o["color"]},
        temporal_threshold=2.5,
        name="track",
    )
    for assertion in generate_assertions(spec, attr_keys=["color"], temporal_modes=["both"]):
        database.add(assertion)
    return database


def build_stream():
    rng = np.random.default_rng(0)
    outputs, timestamps = [], []
    t = 0.0
    for _ in range(N_ITEMS):
        t += float(rng.uniform(0.5, 2.0))
        timestamps.append(t)
        outputs.append(
            [
                {"id": int(rng.integers(0, 6)), "color": str(rng.choice(["r", "g", "b"]))}
                for _ in range(int(rng.integers(0, 4)))
            ]
        )
    return outputs, timestamps


def replay_trailing_window(database: AssertionDatabase, items: list) -> list:
    """The pre-streaming runtime's per-item work, inlined as the baseline:
    every assertion re-evaluated over the trailing ``WINDOW_SIZE`` items,
    the newest item's severity kept, one record per fire."""
    window: deque = deque(maxlen=WINDOW_SIZE)
    records: list = []
    for item in items:
        window.append(item)
        history = list(window)
        for assertion in database:
            severity = float(assertion.evaluate_stream(history)[-1])
            if severity > 0:
                records.append(
                    AssertionRecord(
                        assertion_name=assertion.name,
                        item_index=item.index,
                        severity=severity,
                    )
                )
    return records


def _throughput(elapsed: float) -> float:
    return N_ITEMS / elapsed


def run_comparison() -> dict:
    outputs, timestamps = build_stream()
    items = make_stream(outputs, timestamps=timestamps)
    results: dict = {}

    database = build_database()
    started = time.perf_counter()
    replay_trailing_window(database, items)
    results["legacy"] = _throughput(time.perf_counter() - started)

    streaming = OMG(build_database(), window_size=WINDOW_SIZE)
    started = time.perf_counter()
    for item in items:
        streaming.observe(None, list(item.outputs), timestamp=item.timestamp)
    results["streaming"] = _throughput(time.perf_counter() - started)

    batched = OMG(build_database(), window_size=WINDOW_SIZE)
    started = time.perf_counter()
    for pos in range(0, N_ITEMS, CHUNK):
        batched.observe_batch(
            None, outputs[pos : pos + CHUNK], timestamps=timestamps[pos : pos + CHUNK]
        )
    results["batch"] = _throughput(time.perf_counter() - started)

    # Correctness cross-check: both online paths agree with each other
    # and with the offline monitor on every column.
    offline = OMG(build_database(), window_size=WINDOW_SIZE).monitor(items)
    online = streaming.online_report()
    assert np.array_equal(online.severities, batched.online_report().severities)
    assert np.array_equal(online.severities, offline.severities)
    return results


def test_streaming_throughput(benchmark):
    results = run_once(benchmark, run_comparison)
    speedup = results["streaming"] / results["legacy"]
    batch_speedup = results["batch"] / results["legacy"]
    print(
        "\nSTREAMING_THROUGHPUT "
        f"window={WINDOW_SIZE} assertions=8 items={N_ITEMS} | "
        f"legacy={results['legacy']:,.0f} items/s | "
        f"streaming={results['streaming']:,.0f} items/s ({speedup:.1f}x) | "
        f"batch={results['batch']:,.0f} items/s ({batch_speedup:.1f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"streaming path is only {speedup:.1f}x legacy (need ≥ {MIN_SPEEDUP}x)"
    )
    assert results["batch"] >= 0.8 * results["streaming"]
