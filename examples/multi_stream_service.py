"""Multi-stream serving: one ``MonitorService``, many monitored feeds.

The paper pitches model assertions as one runtime abstraction shared
across deployments (Figure 2); the ROADMAP's north star is serving heavy
traffic. This example puts both together on the TV-news domain (chosen
because its "model" is precomputed — no training, instant startup):

1. four independent news feeds stream scenes into one service,
   interleaved, one batch ingest per round;
2. assertion fires route to a corrective-action hook tagged with the
   stream they came from;
3. the whole fleet is checkpointed to JSON mid-run, restored into a
   *fresh* service, and both services continue side by side — their
   reports stay bit-identical, which is what makes rolling restarts of
   a monitoring tier safe;
4. the fleet report aggregates per-stream severities into one table.

Run:  python examples/multi_stream_service.py
"""

import json

import numpy as np

from repro.serve import MonitorService

N_STREAMS = 4
ROUNDS_BEFORE_SNAPSHOT = 6
ROUNDS_AFTER_SNAPSHOT = 6


def main() -> None:
    service = MonitorService("tvnews")
    domain = service.domain

    fires = []
    service.on_fire(fires.append)

    # One independently seeded world per feed.
    streams = {
        f"feed-{k}": domain.iter_stream(domain.build_world(seed=k))
        for k in range(N_STREAMS)
    }

    print(f"Interleaving {N_STREAMS} news feeds through one service ...")
    for _ in range(ROUNDS_BEFORE_SNAPSHOT):
        service.ingest_batch(
            [(stream_id, next(stream)) for stream_id, stream in streams.items()]
        )

    # Checkpoint the fleet: plain JSON, restorable bit-exactly.
    payload = json.loads(json.dumps(service.snapshot()))
    restored = MonitorService.from_snapshot(payload)
    print(
        f"Checkpointed {len(service)} sessions "
        f"({len(json.dumps(payload)) / 1024:.0f} KiB of JSON) and restored "
        "them into a fresh service."
    )

    # Both services continue; the restored one never misses a beat.
    for _ in range(ROUNDS_AFTER_SNAPSHOT):
        pairs = [(stream_id, next(stream)) for stream_id, stream in streams.items()]
        service.ingest_batch(pairs)
        restored.ingest_batch(pairs)
    for stream_id in streams:
        assert np.array_equal(
            service.report(stream_id).severities,
            restored.report(stream_id).severities,
        )
    print("Original and restored fleets agree bit-for-bit after resuming.\n")

    print(service.fleet_report().format_table())
    if fires:
        by_stream = {}
        for fire in fires:
            by_stream.setdefault(fire.stream_id, []).append(fire.record)
        noisiest = max(by_stream, key=lambda s: len(by_stream[s]))
        print(
            f"\n{len(fires)} corrective-action callbacks routed with "
            f"provenance; noisiest stream: {noisiest!r} "
            f"({len(by_stream[noisiest])} fires)."
        )


if __name__ == "__main__":
    main()
