"""Newline-delimited JSON framing for the network serving layer.

The network front-end (:mod:`repro.serve.net`) speaks NDJSON over TCP:
one frame per line, each line one JSON document. :func:`encode_frame`
hands the document to ``json.dumps`` with
:func:`repro.utils.codec.to_jsonable` as its ``default`` hook, so
codec-registered dataclasses (raw domain units, fire records,
:class:`~repro.core.runtime.MonitoringReport` s), numpy arrays and numpy
scalars can be embedded directly and cross the wire losslessly, floats
bit-exact included. Only those live objects are walked by the codec;
plain content (forwarded raw units, relayed shard envelopes,
already-encoded snapshots) goes straight to the C encoder.

The encode contract: **tuples only inside codec objects.** A bare tuple
in the plain part of a document is written as a JSON list (that is what
``json.dumps`` does), not as the codec's ``__tuple__`` tag; callers that
put user values into a frame encode them with ``to_jsonable`` first
(see :class:`~repro.serve.net.ServiceClient`). Within that contract
``encode_frame(doc)`` is byte-identical to
``json.dumps(to_jsonable(doc))``. Plain dict keys follow ``json.dumps``
too: int/float/bool/None keys become strings instead of raising.

:func:`decode_frame` deliberately does **not** run ``from_jsonable``:
several payloads (service snapshots, suite files) are *stored* in their
codec-encoded form and must round-trip untouched — a wholesale decode
would materialize their inner tags at the wrong layer. Receivers decode
the specific fields that carry live objects (``raw``, ``fires``,
``report``) with :func:`~repro.utils.codec.from_jsonable` themselves.

Frames are bounded (:data:`MAX_FRAME_BYTES` by default) so one
malformed or hostile line cannot buffer unbounded memory; both ends
surface oversize or unparseable lines as :class:`FrameError`, which the
server maps to a typed ``bad-request`` error payload rather than a
dropped connection.
"""

from __future__ import annotations

import json

from repro.utils.codec import to_jsonable

#: Default per-frame byte bound (newline included) on both ends.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameError(ValueError):
    """A line that is not one well-formed, size-bounded JSON document."""


def encode_frame(obj) -> bytes:
    """One NDJSON frame: ``obj`` compact and newline-terminated.

    Plain dict/list/scalar structures are written as they are
    (already-encoded payloads stay as-is); registered dataclasses, numpy
    arrays and numpy scalars found inside are codec-encoded.
    """
    try:
        text = json.dumps(obj, separators=(",", ":"), default=to_jsonable)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"frame payload is not codec-encodable: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def encode_frame_pieces(document: dict, entries):
    """:func:`encode_frame` of a document with one large object, in pieces.

    ``document`` ends in an empty dict: it is the last value of the
    document, or of the last value, and so on down. ``entries`` yields
    that dict's ``(key, value)`` pairs. The generator encodes one entry
    per piece, only as it is asked for the next piece, so the entries
    need never be in memory at once. The pieces joined equal
    ``encode_frame`` of the document with the dict filled, byte for
    byte, and each value's part of its piece is that value's own
    ``encode_frame`` minus the newline.
    """
    head = encode_frame(document)
    # Nothing but closing braces follows the empty dict, so its "{}" is
    # the last one in the frame.
    cut = head.rindex(b"{}") + 1
    yield head[:cut]
    sep = b""
    for key, value in entries:
        yield sep + encode_frame({key: value})[1:-2]
        sep = b","
    yield head[cut:]


def decode_frame(line: "bytes | str", *, max_bytes: int = MAX_FRAME_BYTES):
    """Parse one received line into a plain JSON structure.

    Accepts the line with or without its trailing newline. Raises
    :class:`FrameError` on oversize input, undecodable bytes, or
    malformed JSON. Codec tags inside are left encoded (see the module
    docstring for why).
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > max_bytes:
        raise FrameError(
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte bound"
        )
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"not a JSON frame: {exc}") from exc
