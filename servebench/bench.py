"""One benchmark run: set up, drive, check, measure.

:func:`run` spawns the workload's deployment ``SETUPS`` times (the
median spawn-to-first-ping time is ``setup_s``; the last deployment
serves the run; a traced run spawns once), drives it for ``WARMUP +
seconds``, reads ``stats``, the final ``fleet_report`` and the servers'
peak RSS, and stops every process. The correctness gate and all metric
arithmetic happen after that, outside the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
from pathlib import Path
from statistics import median

import numpy as np

from client import (
    INDEX, OK, PROBE_SLICE, RECV, RESP, RID, SCHED, SEND, STREAM, UNIT_COLUMNS, Client,
)
from gate import GateError, check_counts, check_ledger, check_reports, decode_reports
from procs import Deployment
from replay import entry_costs, replay_service, state_costs, unit_spans
from workloads import SUITE_ENTRIES, WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artefacts: ready files, server logs and traces (ignored by git).
RUNDIR = ROOT / ".servebench"
#: Seconds of load before the measured window opens.
WARMUP = 1.0
#: Deployments spawned per untraced run (see the module docstring).
SETUPS = 5


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units() -> dict:
    data = spec()
    return {m["name"]: m["unit"] for m in data["end_to_end"] + data["per_layer"]}


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def window(client: Client) -> tuple:
    """Units scheduled in the measured window, and the units completed
    ok per second inside it."""
    lo, hi = client.bounds
    units = [u for u in client.units if lo <= u[SCHED] < hi]
    done = sum(1 for u in client.units if u[OK] and lo <= u[RECV] < hi)
    return units, done / ((hi - lo) / 1e9)


def latency_ms(client: Client, units: list) -> list:
    """Latency of each unit answered ok: from the send in a closed loop,
    from the unit's scheduled send time in an open loop."""
    start = SEND if client.workload.mode == "closed" else SCHED
    return [(u[RECV] - u[start]) / 1e6 for u in units if u[OK]]


def lateness_ms(units: list) -> list:
    return [(u[SEND] - u[SCHED]) / 1e6 for u in units]


async def _drive(workload, inputs, deployment, seconds: float, trace: bool) -> tuple:
    client = Client(workload, inputs, deployment)
    await client.open()
    try:
        await client.run(WARMUP, seconds, probe=trace)
        stats = await client.call(client.wires[0], "stats")
        report = await client.call(client.wires[0], "fleet_report")
    finally:
        client.close()
    return client, stats, report


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """``{"problems", "attempted", "failed", "metrics"}`` of one run."""
    workload = WORKLOADS[name]
    RUNDIR.mkdir(exist_ok=True)
    inputs = Inputs(workload, seed)
    tag = f"{workload.name}-{os.getpid()}"
    setup_s: list = []
    deployment = None
    try:
        for _ in range(1 if trace else SETUPS):
            if deployment is not None:
                deployment.stop()
            deployment = Deployment(
                workload.domain, workload.shards, str(RUNDIR), str(SRC), tag
            )
            setup_s.append(deployment.start())
        # The client's own collector pauses would read as server latency.
        gc.collect()
        gc.disable()
        try:
            client, stats, report = asyncio.run(
                _drive(workload, inputs, deployment, seconds, trace)
            )
        finally:
            gc.enable()
        rss_mb = deployment.peak_rss_mb()
    finally:
        if deployment is not None:
            deployment.stop()

    sids = inputs.stream_ids
    problems: list = []
    # The reference and the service.* replays feed the units in send
    # order, batched at the size the server coalesced on average.
    if trace:
        first, last = client.stats["window_start"], client.stats["window_end"]
        per_batch = (last["completed"] - first["completed"]) / max(
            1, last["batches"] - first["batches"]
        )
    else:
        per_batch = stats["completed"] / max(1, stats["batches"])
    size = max(1, round(per_batch))
    pairs = [
        (sids[u[STREAM]], inputs.raws[inputs.pool_index(u[STREAM], u[INDEX])])
        for u in client.units
    ]
    batches = [pairs[k:k + size] for k in range(0, len(pairs), size)]
    reference, serial_ns = replay_service(workload.domain, batches, parallel=False)
    try:
        check_ledger(stats)
        check_counts(stats, {sid: client.sent[j] for j, sid in enumerate(sids)})
        check_reports(
            decode_reports(report),
            {sid: reference.report(sid) for sid in reference.stream_ids()},
        )
    except GateError as exc:
        problems.append(str(exc))

    units, units_per_s = window(client)
    latency = latency_ms(client, units)
    # Client validity: open-loop latency counts the client's own lag,
    # so a median lag beyond the p50_ms bound voids the run instead of
    # reading as a slower server.
    share = next(m["bound"] for m in spec()["end_to_end"] if m["name"] == "p50_ms")
    lag, limit = pct(lateness_ms(units), 50), share * pct(latency, 50)
    if lag > limit:
        problems.append(
            f"invalid run: the client sent a median {lag:.2f} ms behind "
            f"schedule, more than {share:.0%} of p50_ms ({limit:.2f} ms)"
        )

    attempted = len(client.units)
    failed = sum(1 for u in client.units if not u[OK]) + client.transport_errors
    if trace:
        metrics = _layers(
            workload, seed, inputs, client, units, stats, reference, serial_ns, batches
        )
        names = [m["name"] for m in spec()["per_layer"]]
    else:
        cpu_start, cpu_end = client.cpu_s
        metrics = {
            "setup_s": median(setup_s),
            "units_per_s": units_per_s,
            "p50_ms": pct(latency, 50),
            "ok_ratio": (attempted - failed) / attempted,
            "cpu_ms_per_unit": (cpu_end - cpu_start) * 1e3 / (units_per_s * seconds),
            "server_rss_mb": rss_mb,
            "n_samples": len(latency),
        }
        names = [m["name"] for m in spec()["end_to_end"]]
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: float(metrics[name]) for name in names},
    }


def _layers(workload, seed, inputs, client, units, stats, reference, serial_ns,
            batches) -> dict:
    """Per-layer metrics of a traced run; writes the trace file."""
    sids = inputs.stream_ids
    latency = latency_ms(client, units)
    # Probes run in every other slice of the window, so both halves see
    # sessions of the same age; their p50s give the tracing overhead.
    p50_probed = pct(latency_ms(client, [u for u in units if client.probed(u[SCHED])]), 50)
    p50_unprobed = pct(
        latency_ms(client, [u for u in units if not client.probed(u[SCHED])]), 50
    )
    frames = [
        (sids[u[STREAM]], inputs.frame(u[STREAM], u[INDEX], u[RID]))
        for u in client.units
    ]
    spans = unit_spans(workload.domain, frames)
    entries = entry_costs(workload.domain, spans.pop("items"), SUITE_ENTRIES)
    _service, parallel_ns = replay_service(workload.domain, batches, parallel=True)
    report_ns = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference.fleet_report()
        report_ns.append(time.perf_counter_ns() - t0)
    state = state_costs(reference, workload.domain)
    snapshot_ms, restore_ms = state["snapshot_ns"] / 1e6, state["restore_ns"] / 1e6

    first, last = client.stats["window_start"], client.stats["window_end"]
    front = [(end - start) / 1e6 for kind, start, end in client.pings if kind == "front"]
    direct = [(end - start) / 1e6 for kind, start, end in client.pings if kind == "direct"]
    hop = median(front) - median(direct)
    if workload.shards:
        done = [shard["completed"] for shard in stats["shards"].values()]
        skew = max(done) / max(1, min(done))
        migrate_ms = median((end - start) / 1e6 for start, end in client.migrations)
    else:
        skew = 1.0
        # One server has no router to migrate through: the in-process
        # snapshot plus restore is the part of a move it would pay.
        migrate_ms = snapshot_ms + restore_ms

    def us(key: str) -> float:
        return median(spans[key]) / 1e3

    batch_ms = median(parallel_ns) / 1e6
    # What a unit's median latency is attributed to in-process: its own
    # decode and encode, the whole batch it waits for, and the router
    # hop where there is a router.
    attributed_ms = (
        (us("decode") + us("from_jsonable") + us("encode")) / 1e3
        + batch_ms
        + (hop if workload.shards else 0.0)
    )
    n_items = sum(spans["n_items"])
    metrics = {
        "loadgen.late_p99_ms": pct(lateness_ms(units), 99),
        "loadgen.p99_ms": pct(latency, 99),
        "loadgen.offered": len(units),
        "framing.decode_us": us("decode"),
        "framing.encode_us": us("encode"),
        "framing.req_bytes": median(
            len(inputs.frame(u[STREAM], u[INDEX], u[RID])) for u in units
        ),
        "framing.resp_bytes": median(u[RESP] for u in units),
        "codec.from_jsonable_us": us("from_jsonable"),
        "domain.item_from_raw_us": us("item_from_raw"),
        "domain.items_per_unit": n_items / len(spans["n_items"]),
        "engine.observe_us": us("observe_item"),
        "engine.fires_per_item": sum(spans["n_fires"]) / max(1, n_items),
        **{f"engine.observe_us.{name}": cost / 1e3 for name, cost in entries.items()},
        "service.batch_ms": batch_ms,
        "service.batch_serial_ms": median(serial_ns) / 1e6,
        "service.pool_speedup": median(serial_ns) / median(parallel_ns),
        "service.fleet_report_ms": median(report_ns) / 1e6,
        "net.units_per_batch": (last["completed"] - first["completed"])
        / max(1, last["batches"] - first["batches"]),
        "net.ping_ms": median(direct),
        "net.unattributed_ms": p50_unprobed - attributed_ms,
        "router.hop_ms": hop,
        "router.ping_ms": median(front),
        "router.shard_skew": skew,
        "state.session_kb": state["session_bytes"] / 1024,
        "state.snapshot_ms": snapshot_ms,
        "state.restore_ms": restore_ms,
        "state.migrate_ms": migrate_ms,
        "trace.overhead_pct": (p50_probed / p50_unprobed - 1.0) * 100.0,
    }
    replay_columns = ("decode", "from_jsonable", "item_from_raw", "observe",
                      "encode", "n_items", "n_fires")
    trace = {
        "workload": workload.name,
        "seed": seed,
        "streams": sids,
        "bounds_ns": client.bounds,
        "probe_slice_s": PROBE_SLICE,
        "unit_columns": list(UNIT_COLUMNS),
        "units": client.units,
        "pings": client.pings,
        "migrations": client.migrations,
        "stats": client.stats,
        "replay_columns": list(replay_columns),
        "replay_units": [list(row) for row in zip(*(spans[c] for c in replay_columns))],
        "batch_ns": {"serial": serial_ns, "parallel": parallel_ns},
        "p50_ms": {"unprobed": p50_unprobed, "probed": p50_probed},
        "metrics": metrics,
    }
    path = RUNDIR / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return metrics
