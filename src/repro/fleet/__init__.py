"""Horizontal sharding: one monitored fleet across many worker processes.

One process caps how many streams a :class:`~repro.serve.MonitorService`
can hold; this package is the architectural step from "a service" to "a
fleet" (ROADMAP):

- :class:`HashRing` / :class:`RoutingTable` — deterministic consistent-
  hash ownership of ``stream_id`` s across shards (virtual nodes,
  minimal remap on resize, explicit per-stream pins for migrations);
- :mod:`repro.fleet.worker` — one shard: a
  :class:`~repro.serve.MonitorServer` + ``MonitorService`` in its own
  process (``python -m repro.fleet.worker``);
- :class:`FleetManager` — spawns and supervises the worker processes;
- :class:`FleetRouter` — an asyncio front door speaking the same
  newline-delimited-JSON protocol as a single server
  (:mod:`repro.serve.net`), so :class:`~repro.serve.ServiceClient` and
  ``repro loadtest`` drive a sharded fleet unchanged: per-stream
  forwarding with FIFO order, merged fleet reports and stats, typed
  ``shard-unavailable`` errors, and **live snapshot-based migration**
  (:meth:`FleetRouter.rebalance`) that moves a stream between shards
  mid-run bit-identically;
- :mod:`repro.fleet.snapshot` — coordinated fleet-wide snapshot files
  with an explicit schema-version header and loud mismatch errors.

``python -m repro fleet DOMAIN --shards N`` runs the whole stack; see
the README's "Sharded fleet" section for the architecture diagram and
migration semantics.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fleet.manager": ("FleetManager", "ShardSpec", "shard_names"),
        "repro.fleet.ring": ("HashRing", "RoutingTable", "stable_hash"),
        "repro.fleet.router": ("FleetRouter", "RouterConfig", "ShardUnavailableError"),
        "repro.fleet.snapshot": (
            "FLEET_SNAPSHOT_FORMAT",
            "SnapshotFormatError",
            "fleet_snapshot_payload",
            "load_fleet_snapshot",
            "save_fleet_snapshot",
            "validate_fleet_payload",
        ),
    },
)

__all__ = [
    "FLEET_SNAPSHOT_FORMAT",
    "FleetManager",
    "FleetRouter",
    "HashRing",
    "RouterConfig",
    "RoutingTable",
    "ShardSpec",
    "ShardUnavailableError",
    "SnapshotFormatError",
    "fleet_snapshot_payload",
    "load_fleet_snapshot",
    "save_fleet_snapshot",
    "shard_names",
    "stable_hash",
    "validate_fleet_payload",
]
