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

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.loadtest": (
            "LoadTestConfig",
            "LoadTestPoint",
            "LoadTestResult",
            "run_loadtest",
            "write_bench",
        ),
        "repro.serve.net": (
            "ConnectionLostError",
            "MonitorServer",
            "ReconnectingClient",
            "ServerConfig",
            "ServerStats",
            "ServiceClient",
            "ServiceError",
        ),
        "repro.serve.service": (
            "BatchIngestError",
            "BrokenSessionError",
            "FleetReport",
            "MonitorService",
            "PairOutcome",
            "ServiceConfig",
            "StreamFire",
            "StreamSession",
            "build_fleet_report",
        ),
        "repro.serve.snapshot": (
            "load_service_snapshot",
            "load_snapshot_payload",
            "save_service_snapshot",
        ),
    },
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
