"""Workload definitions and their seeded, pre-encoded inputs.

A workload fixes the deployment (one ``repro serve`` process or a
``repro fleet`` of N shards), the domain, the stream count and the load
model. Its inputs come only from ``--seed``: stream ``j`` cycles through
units of a domain world seeded by ``(seed, workload, j)``. Every unit is
encoded to its wire JSON once, at set-up, so the client only glues
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.seeding import derive_seed
from repro.domains.registry import get_domain
from repro.utils.codec import from_jsonable, to_jsonable


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment.

    ``mode`` is ``"closed"`` (each stream keeps one unit in flight) or
    ``"open"`` (``rate`` units/s on a fixed schedule, round-robin over the
    streams). ``shards == 0`` spawns ``python -m repro serve``; ``N > 0``
    spawns ``python -m repro fleet --shards N``.
    """

    name: str
    domain: str
    streams: int
    mode: str
    rate: float = 0.0
    shards: int = 0


#: Distinct raw units generated per run, spread evenly over the streams.
POOL = 256

#: Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="tvnews-closed-4", domain="tvnews", streams=4, mode="closed"),
        # At 800 units/s (the knee) run-to-run noise on a shared 2-CPU
        # host swamped p50 and p99: spreads of 0.26 and 0.56 over 5 seeds.
        Workload(name="ecg-open-64", domain="ecg", streams=64, mode="open", rate=600.0),
        Workload(name="video-fleet-2", domain="video", streams=16, mode="open",
                 rate=200.0, shards=2),
    )
}

#: Every suite entry of the served domains, for the per-entry engine cost.
SUITE_ENTRIES = ("news", "ecg", "multibox", "video")


def stream_ids(workload: Workload) -> list:
    return [f"s{j:02d}" for j in range(workload.streams)]


class Inputs:
    """A workload's seeded unit pools, decoded and pre-encoded.

    Every stream draws from its own seeded world (so a run averages over
    as many worlds, and demo models, as it has streams) and cycles
    through ``POOL // streams`` units of it. ``raws[p]`` is pool unit
    ``p`` exactly as the server decodes it (the wire JSON run back
    through the codec); :meth:`frame` glues a complete ingest request.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        domain = get_domain(workload.domain)
        self.workload = workload
        self.seed = seed
        self.stream_ids = stream_ids(workload)
        self.per_stream = max(8, POOL // workload.streams)
        self.wire = []
        for j in range(workload.streams):
            world = domain.build_world(derive_seed(seed, "servebench", workload.name, j))
            stream = domain.iter_stream(world)
            self.wire += [
                json.dumps(to_jsonable(next(stream)), separators=(",", ":")).encode()
                for _ in range(self.per_stream)
            ]
        self.raws = [from_jsonable(json.loads(data)) for data in self.wire]
        self.prefix = [
            b'{"op":"ingest","stream_id":"%s","raw":' % sid.encode()
            for sid in self.stream_ids
        ]

    def pool_index(self, stream: int, i: int) -> int:
        return stream * self.per_stream + i % self.per_stream

    def frame(self, stream: int, i: int, request_id: int) -> bytes:
        return b"%s%s,\"id\":%d}\n" % (
            self.prefix[stream],
            self.wire[self.pool_index(stream, i)],
            request_id,
        )
