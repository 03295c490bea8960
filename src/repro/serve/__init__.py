"""The serving layer: many monitored streams over one ``Domain`` contract.

- :class:`MonitorService` — keyed multi-stream sessions with batched
  ingest, LRU/TTL eviction, fleet reporting, fire routing with
  stream provenance, and bit-exact snapshot/restore;
- :class:`MonitorServer` / :class:`ServiceClient` — the asyncio network
  front-end: newline-delimited JSON over TCP with request batching,
  per-stream ordering, bounded-queue backpressure, and typed error
  payloads (``python -m repro serve``);
- :func:`run_loadtest` — closed/open-loop load harness with latency
  percentiles and a saturation sweep (``python -m repro loadtest``);
- :func:`save_service_snapshot` / :func:`load_service_snapshot` — JSON
  checkpoint files (what ``python -m repro stream --snapshot`` writes).

See :mod:`repro.domains.registry` for the per-domain contract this layer
drives, and the README's "Serving API" and "Network serving & load
testing" sections for quickstarts.
"""

from repro.serve.loadtest import (
    LoadTestConfig,
    LoadTestPoint,
    LoadTestResult,
    run_loadtest,
    write_bench,
)
from repro.serve.net import (
    ConnectionLostError,
    MonitorServer,
    ReconnectingClient,
    ServerConfig,
    ServerStats,
    ServiceClient,
    ServiceError,
)
from repro.serve.service import (
    BatchIngestError,
    BrokenSessionError,
    FleetReport,
    MonitorService,
    PairOutcome,
    ServiceConfig,
    StreamFire,
    StreamSession,
    build_fleet_report,
)
from repro.serve.snapshot import (
    load_service_snapshot,
    load_snapshot_payload,
    save_service_snapshot,
)

__all__ = [
    "BatchIngestError",
    "BrokenSessionError",
    "ConnectionLostError",
    "FleetReport",
    "LoadTestConfig",
    "LoadTestPoint",
    "LoadTestResult",
    "MonitorServer",
    "MonitorService",
    "PairOutcome",
    "ReconnectingClient",
    "ServerConfig",
    "ServerStats",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "StreamFire",
    "StreamSession",
    "build_fleet_report",
    "load_service_snapshot",
    "load_snapshot_payload",
    "run_loadtest",
    "save_service_snapshot",
    "write_bench",
]
