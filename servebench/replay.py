"""In-process replays of the exact unit sequences a run completed.

Three replays, each through the layers' public calls only:

- :func:`replay_service` feeds ``MonitorService.ingest_batch_outcomes``
  batch by batch, in the order the client sent the units (so every
  stream keeps its order). The serial replay is the correctness gate's
  reference; both replays time each batch (``service.*``).
- :func:`unit_spans` walks every unit through the layers a server
  applies to it, timing each call with ``perf_counter_ns``: frame
  decode, codec decode, ``Domain.item_from_raw``, one ``OMG.observe``
  per item, and the response's ``encode_frame``.
- :func:`entry_costs` re-observes a prefix of those items with only one
  suite entry enabled at a time (``AssertionSuite.with_enabled``).
"""

from __future__ import annotations

import time
from statistics import median

from repro.core.runtime import OMG
from repro.core.spec import compile_suite
from repro.domains.registry import get_domain
from repro.serve.service import MonitorService, ServiceConfig
from repro.utils.codec import from_jsonable
from repro.utils.framing import decode_frame, encode_frame

#: Items re-observed per suite entry by :func:`entry_costs`.
ENTRY_ITEMS = 20000

ns = time.perf_counter_ns


def replay_service(domain: str, batches: list, *, parallel: bool) -> tuple:
    """``(service, per-batch ns)`` after feeding ``batches`` of pairs."""
    service = MonitorService(domain, config=ServiceConfig(parallel=parallel))
    times = []
    for pairs in batches:
        t0 = ns()
        outcomes = service.ingest_batch_outcomes(pairs)
        times.append(ns() - t0)
        for outcome in outcomes:
            if not outcome.ok:
                raise RuntimeError(
                    f"replay: stream {outcome.stream_id!r} failed: {outcome.error!r}"
                )
    return service, times


def unit_spans(domain_name: str, frames: list) -> dict:
    """Per-layer ns for each ``(stream id, request frame)`` in order.

    Returns per-unit span lists (``decode``, ``from_jsonable``,
    ``item_from_raw``, ``observe`` summed over the unit's items,
    ``encode``), the per-item ``observe_item`` spans, per-unit item and
    fire counts, and ``items``: ``(stream id, outputs, timestamp)`` for
    the :func:`entry_costs` pass.
    """
    domain = get_domain(domain_name)
    states: dict = {}
    monitors: dict = {}
    out = {key: [] for key in (
        "decode", "from_jsonable", "item_from_raw", "observe", "encode",
        "observe_item", "n_items", "n_fires", "items",
    )}
    for sid, frame in frames:
        if sid not in states:
            states[sid] = domain.new_state()
            monitors[sid] = domain.build_monitor()
        t0 = ns()
        request = decode_frame(frame)
        t1 = ns()
        raw = from_jsonable(request["raw"])
        t2 = ns()
        items = domain.item_from_raw(raw, states[sid])
        t3 = ns()
        fires: list = []
        observe = 0
        for outputs, timestamp in items:
            a = ns()
            fires.extend(monitors[sid].observe(None, outputs, timestamp=timestamp))
            span = ns() - a
            observe += span
            out["observe_item"].append(span)
            if len(out["items"]) < ENTRY_ITEMS:
                out["items"].append((sid, outputs, timestamp))
        t4 = ns()
        # The response document MonitorServer writes for one ingest.
        encode_frame({"id": request["id"], "ok": True,
                      "result": {"ok": True, "stream_id": sid, "fires": fires}})
        t5 = ns()
        out["decode"].append(t1 - t0)
        out["from_jsonable"].append(t2 - t1)
        out["item_from_raw"].append(t3 - t2)
        out["observe"].append(observe)
        out["encode"].append(t5 - t4)
        out["n_items"].append(len(items))
        out["n_fires"].append(len(fires))
    return out


def entry_costs(domain_name: str, items: list, entries: tuple) -> dict:
    """entry name -> median ns per ``observe`` with only it enabled.

    An entry the domain's suite lacks leaves every entry disabled: its
    cost is the runtime's fixed per-item cost.
    """
    suite = get_domain(domain_name).assertion_suite()
    by_enabled: dict = {}
    costs = {}
    for name in entries:
        enabled = tuple(e for e in suite.entry_names() if e == name)
        if enabled not in by_enabled:
            only = suite
            for entry in suite.entry_names():
                only = only.with_enabled(entry, entry in enabled)
            monitors: dict = {}
            spans = []
            for sid, outputs, timestamp in items:
                monitor = monitors.get(sid)
                if monitor is None:
                    monitor = monitors[sid] = OMG(compile_suite(only))
                t0 = ns()
                monitor.observe(None, outputs, timestamp=timestamp)
                spans.append(ns() - t0)
            by_enabled[enabled] = median(spans)
        costs[name] = by_enabled[enabled]
    return costs


def state_costs(service: MonitorService, domain: str) -> dict:
    """Median session snapshot size and snapshot/restore time per stream."""
    scratch = MonitorService(domain)
    sizes, snaps, restores = [], [], []
    for sid in service.stream_ids():
        t0 = ns()
        payload = service.session_snapshot(sid)
        t1 = ns()
        scratch.restore_session(sid, payload)
        t2 = ns()
        sizes.append(len(encode_frame(payload)))
        snaps.append(t1 - t0)
        restores.append(t2 - t1)
    return {
        "session_bytes": median(sizes),
        "snapshot_ns": median(snaps),
        "restore_ns": median(restores),
    }
