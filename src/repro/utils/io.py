"""Small filesystem helpers and the format error shared by the snapshot layers."""

from __future__ import annotations

import json
import os


class SnapshotFormatError(ValueError):
    """A snapshot payload with the wrong schema version or shape.

    Raised at the restore boundary by every snapshot layer — monitor
    (:meth:`~repro.core.runtime.OMG.restore`) and fleet
    (:mod:`repro.fleet.snapshot`) — so an old payload fails loudly
    instead of as a ``KeyError`` deep inside a restore. Carries
    ``found`` (the payload's version, or ``None``) and ``supported``;
    the message names both, and ``wire_fields`` puts both into the
    ``bad-request`` a server or router answers with. It lives here, with
    no numpy behind it, so the fleet router can raise and catch it
    without loading the monitor core; :mod:`repro.core.runtime` and
    :mod:`repro.fleet` re-export it.
    """

    def __init__(self, message: str, *, found=None, supported=None) -> None:
        super().__init__(message)
        self.found = found
        self.supported = supported
        self.wire_fields = {"found": found, "supported": supported}


def atomic_write_json(payload: dict, path: str) -> None:
    """Write ``payload`` to ``path`` as JSON, atomically and durably.

    Temp file + rename, with a per-PID temp name so concurrent
    checkpointers to the same path never interleave writes into one temp
    file — the pattern the experiment artifact cache established.

    The temp file is flushed and fsynced before the rename, and the
    containing directory is fsynced after it (POSIX only): without the
    file fsync, a power loss after ``os.replace`` can leave the *target*
    pointing at data the kernel never wrote back — a truncated or empty
    snapshot with the final name; without the directory fsync, the
    rename itself may not survive. Readers therefore always see either
    the complete old JSON or the complete new JSON.
    """
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def _fsync_directory(dir_path: str) -> None:
    """Flush a directory entry (the rename) to disk; no-op off POSIX."""
    if os.name != "posix":  # pragma: no cover - Windows cannot open dirs
        return
    dir_fd = os.open(dir_path or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_json(path: str) -> dict:
    """Read one JSON document from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
