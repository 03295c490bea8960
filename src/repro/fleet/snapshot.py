"""Coordinated fleet-wide snapshot files, with an explicit schema version.

A fleet snapshot composes one :meth:`~repro.serve.MonitorService.snapshot`
payload per shard with the routing table that places every stream, under
a top-level ``format``/``kind`` header. Earlier snapshot layers learned
the hard way that a payload from the wrong layer (or an older schema)
must fail *loudly at the boundary* — not as an opaque ``KeyError`` deep
inside a restore — so every reader here goes through
:func:`validate_fleet_payload`, which raises :class:`SnapshotFormatError`
naming what was found and what is supported.

The determinism contract mirrors the single-service one: a fleet
restored from a coordinated snapshot and driven through the remaining
units is bit-identical to the uninterrupted fleet — and to an unsharded
run over the same per-stream unit sequences
(``tests/fleet/test_fleet_snapshot.py``).
"""

from __future__ import annotations

import functools

from repro.fleet.ring import RoutingTable
from repro.utils.io import SnapshotFormatError, atomic_write_json, read_json

#: Schema version of the fleet snapshot payload. Bump on layout changes;
#: readers reject other versions with a :class:`SnapshotFormatError`.
FLEET_SNAPSHOT_FORMAT = 1

#: Discriminator distinguishing fleet snapshots from the service- and
#: loop-level payloads that also carry a ``format`` integer.
FLEET_SNAPSHOT_KIND = "fleet"

#: The error every fleet-layer check raises, naming the supported format.
_FormatError = functools.partial(SnapshotFormatError, supported=FLEET_SNAPSHOT_FORMAT)


def fleet_snapshot_payload(
    domain: str,
    table: RoutingTable,
    shard_payloads: dict,
    stream_order: "list | None" = None,
) -> dict:
    """Compose the coordinated snapshot of a whole sharded fleet.

    ``shard_payloads`` maps shard name → that shard's service snapshot
    (each already carries its own ``format`` header, validated on
    restore by :meth:`MonitorService.restore`). ``stream_order`` records
    fleet-wide session creation order — each shard's payload preserves
    only its *own* order, and ``fleet_report`` row order (identical to
    an unsharded service's) would otherwise be lost across a restore.
    """
    return {
        "format": FLEET_SNAPSHOT_FORMAT,
        "kind": FLEET_SNAPSHOT_KIND,
        "domain": domain,
        "routing": table.snapshot(),
        "streams": list(stream_order) if stream_order is not None else [],
        "shards": dict(shard_payloads),
    }


def validate_fleet_payload(payload) -> dict:
    """Check header and shape; returns ``payload`` or raises loudly.

    Every failure mode gets a message naming the problem — an old or
    future ``format``, a service/loop-level payload handed to the fleet
    layer, missing sections — instead of surfacing later as a
    ``KeyError`` from the middle of a shard restore.
    """
    if not isinstance(payload, dict):
        raise _FormatError(
            f"not a fleet snapshot: expected a JSON object, got {type(payload).__name__}"
        )
    found = payload.get("format")
    kind = payload.get("kind")
    if kind != FLEET_SNAPSHOT_KIND:
        hint = ""
        if "sessions" in payload:
            hint = " (this looks like a MonitorService snapshot — restore it with repro.serve.snapshot)"
        elif "registry" in payload:
            hint = " (this looks like an improvement-loop snapshot — restore it with repro.improve.snapshot)"
        raise _FormatError(
            f"not a fleet snapshot: kind={kind!r}, expected {FLEET_SNAPSHOT_KIND!r}{hint}",
            found=found,
        )
    if found != FLEET_SNAPSHOT_FORMAT:
        raise _FormatError(
            f"unsupported fleet snapshot format {found!r}; this build reads "
            f"format {FLEET_SNAPSHOT_FORMAT} — re-snapshot the fleet with a "
            "matching version instead of reusing this file",
            found=found,
        )
    for key in ("domain", "routing", "shards"):
        if key not in payload:
            raise _FormatError(
                f"fleet snapshot (format {found}) lacks its {key!r} section — "
                "the file is truncated or was not written by "
                "repro.fleet.snapshot.save_fleet_snapshot",
                found=found,
            )
    if not isinstance(payload["shards"], dict):
        raise _FormatError(
            "fleet snapshot 'shards' must map shard name -> service snapshot",
            found=found,
        )
    return payload


def save_fleet_snapshot(payload: dict, path: str) -> dict:
    """Validate and write a fleet snapshot atomically; returns it."""
    validate_fleet_payload(payload)
    atomic_write_json(payload, path)
    return payload


def load_fleet_snapshot(path: str) -> dict:
    """Read and validate a fleet snapshot file (loud on mismatch)."""
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise _FormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return validate_fleet_payload(payload)
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(
            f"{path}: {exc}", found=exc.found, supported=exc.supported
        ) from None
