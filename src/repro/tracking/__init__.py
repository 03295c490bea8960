"""Greedy IoU tracking: identifier assignment for consistency assertions.

The video-analytics consistency assertions (``flicker``/``appear``) need a
per-object identifier, but street video has no globally unique id; the
paper "assign[s] a new identifier for each box that appears and assign[s]
the same identifier as it persists through the video" (§4.1). This package
implements that tracker, which is also the "automated method" behind the
human-label validation experiment (Table 6).
"""

from repro.tracking.tracker import IoUTracker, TrackedBox

__all__ = ["IoUTracker", "TrackedBox"]
