"""The correctness gate, checked after the timed window of every run.

Three named checks; each failure raises :class:`GateError` with a
message that names the check and, where there is one, the stream:

- ``ledger``: the front door's ``stats`` hold offered == accepted +
  rejected and completed + failed == accepted;
- ``per-stream counts``: every stream completed exactly the units the
  generator sent it, none failed, and the server knows no other stream;
- ``reports``: the final ``fleet_report`` equals, stream by stream and
  bit for bit (columns, severities, records), the reports of an
  in-process ``MonitorService`` fed the same per-stream sequences.
"""

from __future__ import annotations

from repro.utils.codec import from_jsonable


class GateError(AssertionError):
    """A correctness check failed (the message names check and stream)."""


def check_ledger(stats: dict) -> None:
    offered, accepted, rejected = stats["offered"], stats["accepted"], stats["rejected"]
    if offered != accepted + rejected:
        raise GateError(
            f"ledger: offered {offered} != accepted {accepted} + rejected {rejected}"
        )
    if stats["completed"] + stats["failed"] != accepted:
        raise GateError(
            f"ledger: completed {stats['completed']} + failed {stats['failed']} "
            f"!= accepted {accepted}"
        )


def check_counts(stats: dict, sent: dict) -> None:
    per_stream = stats["per_stream"]
    for sid in sorted(set(per_stream) | set(sent)):
        entry = per_stream.get(sid, {})
        completed, failed = entry.get("completed", 0), entry.get("failed", 0)
        if completed != sent.get(sid, 0) or failed:
            raise GateError(
                f"per-stream counts: stream {sid!r} completed {completed} and "
                f"failed {failed} unit(s); the generator sent {sent.get(sid, 0)}"
            )


def decode_reports(fleet_report: dict) -> dict:
    """stream id -> MonitoringReport from a ``fleet_report`` result."""
    return {
        sid: from_jsonable(report)
        for sid, report in fleet_report["stream_reports"].items()
    }


def check_reports(wire: dict, reference: dict) -> None:
    for sid in sorted(set(wire) | set(reference)):
        if sid not in wire:
            raise GateError(f"reports: stream {sid!r} is missing from the fleet_report")
        if sid not in reference:
            raise GateError(f"reports: stream {sid!r} was reported but never sent")
        got, want = wire[sid], reference[sid]
        if got.assertion_names != want.assertion_names:
            raise GateError(
                f"reports: stream {sid!r} columns {got.assertion_names} != "
                f"{want.assertion_names}"
            )
        if (
            got.severities.dtype != want.severities.dtype
            or got.severities.shape != want.severities.shape
            or got.severities.tobytes() != want.severities.tobytes()
        ):
            raise GateError(
                f"reports: stream {sid!r} severities differ (server "
                f"{got.severities.shape}, reference {want.severities.shape})"
            )
        if got.records != want.records:
            raise GateError(
                f"reports: stream {sid!r} fire records differ (server "
                f"{len(got.records)}, reference {len(want.records)})"
            )
