"""Incremental streaming evaluation for the OMG runtime.

Re-running every registered assertion over the *entire* trailing history
window on *every* invocation costs O(window × assertions) work per item.
This module provides stateful per-assertion evaluators that consume items
one at a time and maintain rolling state, so each observation costs
O(assertions) amortized:

- :class:`PerItemEvaluator` — assertions whose severity for an item
  depends on that item alone (``FunctionAssertion(window=1)`` and any
  :class:`~repro.core.assertion.ModelAssertion` exposing
  ``evaluate_item``): one function call per item.
- :class:`RollingWindowEvaluator` — ``FunctionAssertion(window=w)``:
  deque-based rolling window of exactly the assertion's own lookback, so
  the function runs once per item instead of once per (item, window
  position) pair.
- :class:`AttributeConsistencyEvaluator` — per-identifier observation
  groups, each a value dictionary plus item-index and value-code
  columns, with an incrementally-maintained majority; emits
  *retroactive* severity revisions when a late observation flips a
  group's majority.
- :class:`TemporalConsistencyEvaluator` — per-identifier presence runs;
  emits retroactive severities for gap/run violations the moment the
  closing transition is observed.
- :class:`WindowedReplayEvaluator` — fallback for arbitrary assertion
  subclasses with no streaming form: re-evaluate over the bounded history
  window, record the newest position.

The engine's invariant — enforced by
``tests/core/test_streaming_equivalence.py`` — is that after any stream
is fed through :meth:`StreamingEngine.ingest` (or ``ingest_batch``), the
accumulated severity matrix equals what the offline
:meth:`OMG.monitor` pass computes over the same items, exactly, for all
four assertion families. Function-assertion evaluators keep bounded
deques. Consistency evaluators keep full-stream aggregates since the
last reset, and that exactness costs memory that grows with the stream:
per-identifier attribute observations, per-item temporal severity
counts, and the engine's sparse severity log. An attribute observation
costs two array slots (item index and value code, ~12 B); each distinct
value is held once, in its group's dictionary. The temporal evaluator's
position → item-index map is run-length coded, one segment per
contiguous run of observed indices, so it stays at one segment unless
its assertion was disabled and re-enabled. Fire records are not kept at
all: each is returned once by ``ingest``/``ingest_batch``. Long-lived
deployments should :meth:`reset` at episode boundaries. The
O(assertions) per-item cost is amortized: an
attribute-majority flip rescans its identifier's group, so a pathological
stream alternating one identifier between two values degrades to
O(group) on the items where the majority changes.

Severity attribution is *revisable*: a flicker is only detectable once
the object reappears, so the evaluator assigns severity to the gap items
retroactively. Evaluators report changes as ``{item_index: severity}``
dictionaries; the engine keeps a sparse severity log, emits
:class:`~repro.core.types.AssertionRecord` fire events for every change
to a positive severity, and can materialize the log as a
:class:`~repro.core.runtime.MonitoringReport` at any time.
"""

from __future__ import annotations

import abc
from array import array
from collections import Counter, deque
from itertools import accumulate, groupby, repeat
from typing import Any

import numpy as np

from repro.core.assertion import FunctionAssertion, ModelAssertion
from repro.core.consistency import (
    AttributeConsistencyAssertion,
    TemporalConsistencyAssertion,
)
from repro.core.types import AssertionRecord, StreamItem
from repro.utils.codec import from_jsonable, to_jsonable


def _deltas(values) -> list:
    """Delta code integers: the first, then each one's step from the last.

    ``list(accumulate(_deltas(values)))`` gives ``values`` back.
    """
    deltas, previous = [], 0
    for value in values:
        deltas.append(value - previous)
        previous = value
    return deltas


def _runs(values) -> list:
    """Run-length code ``values`` as a flat ``[value, count, …]`` list."""
    flat: list = []
    for value, run in groupby(values):
        flat += (value, sum(1 for _ in run))
    return flat


def _unruns(flat: list):
    """Iterate the values a :func:`_runs` list codes."""
    for value, count in zip(flat[0::2], flat[1::2]):
        yield from repeat(value, count)


def _sparse_columns(mapping: dict, cast) -> list:
    """``{index: value}`` as ``[indices, values]``: ascending indices,
    delta coded, and the ``cast`` values at them."""
    indices = sorted(mapping)
    return [_deltas(indices), [cast(mapping[i]) for i in indices]]


def _sparse_from_columns(columns: list, cast) -> dict:
    """Inverse of :func:`_sparse_columns`."""
    indices, values = columns
    return dict(zip(accumulate(indices), map(cast, values)))


class StreamingEvaluator(abc.ABC):
    """Stateful single-assertion evaluator.

    ``update`` consumes one item and returns the severities that changed:
    ``{item_index: new_total_severity}``. The newest item is included
    whenever its severity is positive; earlier indices appear only when
    new information revises them (consistency assertions).
    """

    def __init__(self, assertion: ModelAssertion) -> None:
        self.assertion = assertion

    @abc.abstractmethod
    def update(self, item: StreamItem) -> dict:
        """Consume one stream item; return changed ``{index: severity}``."""

    def update_batch(self, items: list) -> list:
        """Consume a chunk; return one change-dict per item, in order."""
        return [self.update(item) for item in items]

    @abc.abstractmethod
    def reset(self) -> None:
        """Drop all rolling state (the assertion itself is stateless)."""

    def get_state(self) -> dict:
        """JSON-encodable rolling state (see :meth:`OMG.snapshot`).

        The payload uses the :mod:`repro.utils.codec` encoding for
        non-primitive leaves and lists (pairs or index/value columns)
        wherever keys are not strings, so ``json.dumps`` round-trips it
        bit-exactly. Stateless evaluators return ``{}``.
        """
        return {}

    def set_state(self, state: dict) -> None:
        """Restore rolling state captured by :meth:`get_state`."""

    def _check_severity(self, value: Any) -> float:
        severity = float(value)
        if severity < 0:
            raise ValueError(
                f"assertion {self.assertion.name!r} returned negative severity {severity}"
            )
        return severity


class PerItemEvaluator(StreamingEvaluator):
    """Assertions whose severity depends on the current item only."""

    def __init__(self, assertion: ModelAssertion) -> None:
        super().__init__(assertion)
        evaluate_item = getattr(assertion, "evaluate_item", None)
        if not callable(evaluate_item):
            raise TypeError(f"{assertion!r} does not define evaluate_item")
        self._evaluate_item = evaluate_item

    def update(self, item: StreamItem) -> dict:
        severity = self._check_severity(self._evaluate_item(item))
        return {item.index: severity} if severity > 0 else {}

    def reset(self) -> None:
        pass


class RollingWindowEvaluator(StreamingEvaluator):
    """``FunctionAssertion(window=w)`` over a deque of its own lookback.

    The deque length is the *assertion's* window, independent of the
    runtime's history bound, so the online severity matches the offline
    ``evaluate_stream`` exactly even for small runtime windows.
    """

    def __init__(self, assertion: FunctionAssertion) -> None:
        super().__init__(assertion)
        self._inputs: deque = deque(maxlen=assertion.window)
        self._outputs: deque = deque(maxlen=assertion.window)

    def update(self, item: StreamItem) -> dict:
        self._inputs.append(item.input)
        self._outputs.append(list(item.outputs))
        value = self.assertion.func(list(self._inputs), list(self._outputs))
        severity = self._check_severity(value)
        return {item.index: severity} if severity > 0 else {}

    def reset(self) -> None:
        self._inputs.clear()
        self._outputs.clear()

    def get_state(self) -> dict:
        return {
            "inputs": to_jsonable(list(self._inputs)),
            "outputs": to_jsonable(list(self._outputs)),
        }

    def set_state(self, state: dict) -> None:
        self.reset()
        self._inputs.extend(from_jsonable(state["inputs"]))
        self._outputs.extend(from_jsonable(state["outputs"]))


class WindowedReplayEvaluator(StreamingEvaluator):
    """Fallback: re-evaluate the full window, keep the newest score.

    Used for arbitrary :class:`ModelAssertion` subclasses that offer
    neither ``evaluate_item`` nor a dedicated streaming form. Costs
    O(window) per item.
    """

    def __init__(self, assertion: ModelAssertion, window_size: int) -> None:
        super().__init__(assertion)
        self._window: deque = deque(maxlen=window_size)

    def update(self, item: StreamItem) -> dict:
        self._window.append(item)
        window = list(self._window)
        severities = np.asarray(self.assertion.evaluate_stream(window), dtype=np.float64)
        if severities.shape != (len(window),):
            raise ValueError(
                f"assertion {self.assertion.name!r} returned shape "
                f"{severities.shape}, expected ({len(window)},)"
            )
        severity = self._check_severity(severities[-1])
        return {item.index: severity} if severity > 0 else {}

    def reset(self) -> None:
        self._window.clear()

    def get_state(self) -> dict:
        return {"window": to_jsonable(list(self._window))}

    def set_state(self, state: dict) -> None:
        self.reset()
        self._window.extend(from_jsonable(state["window"]))


class _AttrGroup:
    """Rolling state for one identifier of an attribute assertion.

    Observations are two parallel columns in arrival order: ``indices``
    (item index) and ``codes`` (value code). A code indexes the group's
    value dictionary: ``values[code]`` is the first-seen object of that
    value, and ``code_of`` maps a value to its code under dict equality,
    the equality the offline ``Counter`` groups by. Codes are handed out
    in first-seen order, so the offline majority (most common, first
    occurrence wins ties) is the code with the highest count and, among
    those, the lowest code.
    """

    __slots__ = ("indices", "codes", "values", "code_of", "counts", "majority", "contrib")

    def __init__(self) -> None:
        self.indices = array("q")
        self.codes = array("i")
        self.values: list = []
        self.code_of: dict = {}
        #: code → number of observations of that value.
        self.counts: list = []
        #: Majority code; -1 while the group is empty.
        self.majority = -1
        #: item_index → deviation count this group currently contributes.
        self.contrib: dict = {}

    def add(self, index: int, value: Any) -> int:
        """Append one observation; return its code."""
        code = self.code_of.get(value)
        if code is None:
            code = self.code_of[value] = len(self.values)
            self.values.append(value)
            self.counts.append(0)
        self.indices.append(index)
        self.codes.append(code)
        self.counts[code] += 1
        return code

    def active(self) -> bool:
        """Offline deviations exist only with ≥ 2 observations of ≥ 2 values."""
        return len(self.indices) >= 2 and len(self.values) >= 2


class AttributeConsistencyEvaluator(StreamingEvaluator):
    """Incremental form of :class:`AttributeConsistencyAssertion`.

    Maintains, per identifier, the observed values as codes into a value
    dictionary (:class:`_AttrGroup`), their counts, and the current
    majority under the offline tie-break (most common, first occurrence
    wins ties). A new observation normally costs O(1); when it flips the
    group's majority, the group's deviations are recomputed and the
    affected items' severities are revised retroactively.
    """

    def __init__(self, assertion: AttributeConsistencyAssertion) -> None:
        super().__init__(assertion)
        self.spec = assertion.spec
        self.attr_key = assertion.attr_key
        self._groups: dict = {}
        #: item_index → total deviation count; positive entries only.
        self._item_sev: dict = {}

    def reset(self) -> None:
        self._groups = {}
        self._item_sev = {}

    def get_state(self) -> dict:
        # Each group as ``[identifier, values, indices, codes]``: the
        # value dictionary, the item indices delta coded and the codes
        # run-length coded. Counts, the majority, per-item contributions
        # and the item severities are pure functions of these columns,
        # recomputed on restore.
        return {
            "groups": [
                [
                    to_jsonable(identifier),
                    [to_jsonable(value) for value in group.values],
                    _deltas(group.indices),
                    _runs(group.codes),
                ]
                for identifier, group in self._groups.items()
            ]
        }

    def set_state(self, state: dict) -> None:
        self.reset()
        for encoded_id, values, indices, codes in state["groups"]:
            group = self._groups[from_jsonable(encoded_id)] = _AttrGroup()
            group.values = [from_jsonable(value) for value in values]
            # JSON decodes every NaN to one float object, so distinct NaN
            # values come back equal-keyed: each keeps its code, and a
            # later lookup of that object finds the first.
            for code, value in enumerate(group.values):
                group.code_of.setdefault(value, code)
            group.indices = array("q", accumulate(indices))
            group.codes = array("i", _unruns(codes))
            if len(group.indices) != len(group.codes):
                raise ValueError(
                    f"attribute group {encoded_id!r} has {len(group.indices)} "
                    f"indices but {len(group.codes)} codes"
                )
            group.counts = [0] * len(group.values)
            for code in group.codes:
                group.counts[code] += 1
            if group.counts:
                group.majority = group.counts.index(max(group.counts))
            group.contrib = self._group_deviations(group)
            for idx, n in group.contrib.items():
                self._item_sev[idx] = self._item_sev.get(idx, 0) + n

    def _group_deviations(self, group: _AttrGroup) -> dict:
        """item_index → deviation count under the group's current majority."""
        if not group.active():
            return {}
        # Per code, whether its value deviates. Compare the dictionary's
        # objects, not codes: a float NaN majority is ``!=`` to itself,
        # so its own code deviates too, as offline ``value != majority``.
        majority = group.values[group.majority]
        deviant = [value != majority for value in group.values]
        contrib: dict = {}
        for item_index, code in zip(group.indices, group.codes):
            if deviant[code]:
                contrib[item_index] = contrib.get(item_index, 0) + 1
        return contrib

    def _bump(self, item_index: int, delta: int, changed: dict) -> None:
        severity = self._item_sev.get(item_index, 0) + delta
        if severity:
            self._item_sev[item_index] = severity
        else:
            del self._item_sev[item_index]
        changed[item_index] = float(severity)

    def _apply_contrib(self, group: _AttrGroup, new_contrib: dict, changed: dict) -> None:
        for item_index in set(group.contrib) | set(new_contrib):
            delta = new_contrib.get(item_index, 0) - group.contrib.get(item_index, 0)
            if delta:
                self._bump(item_index, delta, changed)
        group.contrib = new_contrib

    def update(self, item: StreamItem) -> dict:
        changed: dict = {}
        touched: dict = {}  # identifier → needs full rescan (flip/activation)
        added: dict = {}  # identifier → codes this item contributed
        for output in item.outputs:
            identifier = self.spec.id_fn(output)
            if identifier is None:
                continue
            attrs = self.spec.attributes_of(output)
            if self.attr_key not in attrs:
                continue
            group = self._groups.get(identifier)
            if group is None:
                group = self._groups[identifier] = _AttrGroup()
            was_active = group.active()
            old_majority = group.majority
            code = group.add(item.index, attrs[self.attr_key])
            counts = group.counts
            if old_majority < 0 or counts[code] > counts[old_majority] or (
                counts[code] == counts[old_majority] and code < old_majority
            ):
                group.majority = code
            needs_rescan = (group.active() and not was_active) or (
                was_active and group.majority != old_majority
            )
            touched[identifier] = touched.get(identifier, False) or needs_rescan
            added.setdefault(identifier, []).append(code)

        for identifier, rescanned in touched.items():
            group = self._groups[identifier]
            if rescanned:
                self._apply_contrib(group, self._group_deviations(group), changed)
                continue
            # Majority stable: only this item's new observations can
            # deviate; older contributions are untouched.
            if not group.active():
                continue
            majority = group.values[group.majority]
            fresh = sum(1 for code in added[identifier] if group.values[code] != majority)
            old = group.contrib.get(item.index, 0)
            if fresh == old:
                continue
            if fresh:
                group.contrib[item.index] = fresh
            else:
                del group.contrib[item.index]
            self._bump(item.index, fresh - old, changed)
        return changed


class _PresenceState:
    """Rolling presence run of one identifier (temporal assertions)."""

    __slots__ = ("run_start", "run_end", "run_start_ts", "run_end_ts")

    def __init__(self, pos: int, ts: float) -> None:
        self.run_start = pos
        self.run_end = pos
        self.run_start_ts = ts
        self.run_end_ts = ts


class TemporalConsistencyEvaluator(StreamingEvaluator):
    """Incremental form of :class:`TemporalConsistencyAssertion`.

    Tracks each identifier's current presence run. A *gap* violation is
    emitted (retroactively, onto the gap items) the moment the identifier
    reappears within ``T`` of vanishing; a *run* violation is emitted
    onto the run items the moment a short interior run is followed by an
    absence. Items at the stream boundary are never flagged, matching
    the offline rule that edge runs may continue past the window.
    """

    def __init__(self, assertion: TemporalConsistencyAssertion) -> None:
        super().__init__(assertion)
        self.spec = assertion.spec
        self.mode = assertion.mode
        self._states: dict = {}
        self._present_prev: set = set()
        self._next_pos = 0
        self._item_sev: Counter = Counter()
        #: Position → item index, run-length coded as ``[first_pos,
        #: first_index]`` segments in position order: position ``p`` of
        #: the segment starting at ``first_pos`` is item ``first_index +
        #: p - first_pos``. Indices skip, and a segment starts, only
        #: where the evaluator missed items (its assertion was disabled
        #: for a while), so severity lands on true stream indices.
        self._segments: list = []

    def reset(self) -> None:
        self._states = {}
        self._present_prev = set()
        self._next_pos = 0
        self._item_sev = Counter()
        self._segments = []

    def get_state(self) -> dict:
        return {
            "states": [
                [
                    to_jsonable(identifier),
                    [s.run_start, s.run_end, s.run_start_ts, s.run_end_ts],
                ]
                for identifier, s in self._states.items()
            ],
            "present_prev": [to_jsonable(i) for i in self._present_prev],
            "next_pos": self._next_pos,
            "item_sev": _sparse_columns(self._item_sev, int),
            "segments": [[int(p), int(i)] for p, i in self._segments],
        }

    def set_state(self, state: dict) -> None:
        self.reset()
        for encoded_id, (start, end, start_ts, end_ts) in state["states"]:
            presence = _PresenceState(int(start), float(start_ts))
            presence.run_end = int(end)
            presence.run_end_ts = float(end_ts)
            self._states[from_jsonable(encoded_id)] = presence
        self._present_prev = {from_jsonable(i) for i in state["present_prev"]}
        self._next_pos = int(state["next_pos"])
        self._item_sev = Counter(_sparse_from_columns(state["item_sev"], int))
        self._segments = [[int(p), int(i)] for p, i in state["segments"]]

    def _index_of(self, pos: int) -> int:
        for first_pos, first_index in reversed(self._segments):
            if pos >= first_pos:
                return first_index + pos - first_pos
        raise KeyError(pos)

    def _flag_span(self, start_pos: int, end_pos: int, changed: dict) -> None:
        for pos in range(start_pos, end_pos + 1):
            index = self._index_of(pos)
            self._item_sev[index] += 1
            changed[index] = float(self._item_sev[index])

    def update(self, item: StreamItem) -> dict:
        pos = self._next_pos
        self._next_pos += 1
        segments = self._segments
        if not segments or segments[-1][1] + pos - segments[-1][0] != item.index:
            segments.append([pos, item.index])
        threshold = float(self.spec.temporal_threshold)
        check_gaps = self.mode in ("gap", "both")
        check_runs = self.mode in ("run", "both")

        present = set()
        for output in item.outputs:
            identifier = self.spec.id_fn(output)
            if identifier is not None:
                present.add(identifier)

        changed: dict = {}
        # Runs that just ended: identifier present at pos-1, absent now.
        if check_runs:
            for identifier in self._present_prev - present:
                state = self._states[identifier]
                interior = state.run_start > 0
                if interior and state.run_end_ts - state.run_start_ts < threshold:
                    self._flag_span(state.run_start, state.run_end, changed)

        for identifier in present:
            state = self._states.get(identifier)
            if state is None:
                self._states[identifier] = _PresenceState(pos, item.timestamp)
            elif state.run_end == pos - 1:
                state.run_end = pos
                state.run_end_ts = item.timestamp
            else:
                # Reappearance after a positional gap.
                if check_gaps and item.timestamp - state.run_end_ts < threshold:
                    self._flag_span(state.run_end + 1, pos - 1, changed)
                state.run_start = pos
                state.run_end = pos
                state.run_start_ts = item.timestamp
                state.run_end_ts = item.timestamp

        self._present_prev = present
        return changed


def make_evaluator(assertion: ModelAssertion, window_size: int) -> StreamingEvaluator:
    """Pick the streaming evaluator for an assertion.

    Dispatch order: dedicated consistency evaluators, rolling/per-item
    function evaluators, any ``evaluate_item`` hook on custom subclasses,
    then the windowed-replay fallback.
    """
    if isinstance(assertion, AttributeConsistencyAssertion):
        return AttributeConsistencyEvaluator(assertion)
    if isinstance(assertion, TemporalConsistencyAssertion):
        return TemporalConsistencyEvaluator(assertion)
    if isinstance(assertion, FunctionAssertion):
        if assertion.window == 1:
            return PerItemEvaluator(assertion)
        return RollingWindowEvaluator(assertion)
    if callable(getattr(assertion, "evaluate_item", None)):
        return PerItemEvaluator(assertion)
    return WindowedReplayEvaluator(assertion, window_size)


class StreamingEngine:
    """Drives one evaluator per registered assertion and keeps the log.

    The engine is owned by :class:`~repro.core.runtime.OMG`; it tracks
    the assertion database lazily, so assertions registered mid-stream
    get an evaluator seeded by replaying the bounded recent-item window.
    """

    def __init__(
        self,
        database,
        window_size: int,
        recent: "deque | None" = None,
    ) -> None:
        self.database = database
        self.window_size = window_size
        self._evaluators: dict = {}
        #: assertion name → {item_index: severity} (sparse, nonzero only).
        self._log: dict = {}
        #: Bounded recent-item window, used to warm up late-registered
        #: assertions and by the replay fallback; may be shared with the
        #: owning runtime (OMG hands in its history deque).
        self._recent: deque = recent if recent is not None else deque(maxlen=window_size)
        self._n_items = 0
        #: Restored evaluator states whose assertions were not enabled at
        #: restore time; claimed (without a log reset or warm-up) when the
        #: assertion is re-enabled, so a disable → snapshot → restore →
        #: enable cycle keeps its fire history.
        self._pending_states: dict = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        for evaluator in self._evaluators.values():
            evaluator.reset()
        self._log = {}
        self._recent.clear()
        self._n_items = 0
        self._pending_states = {}

    def discard(self, name: str) -> None:
        """Forget one assertion's evaluator, log, and pending state.

        Called when a suite change removes or replaces an assertion, so
        stale state never leaks into later snapshots (a replacement then
        rebuilds from the warm-up replay in :meth:`_sync`).
        """
        self._evaluators.pop(name, None)
        self._log.pop(name, None)
        self._pending_states.pop(name, None)

    def sync(self) -> None:
        """Materialize evaluators for the current database eagerly.

        Reports read the severity log without syncing; callers that
        mutate the database outside an ingest (``OMG.apply_suite``) call
        this so warm-up replay happens at the mutation point, not on the
        next observation.
        """
        self._sync()

    def _sync(self) -> list:
        """Evaluators for the enabled assertions, creating any missing.

        A late-registered assertion is warmed up on the recent-item
        window so its rolling state matches what it would hold had it
        been registered ``window_size`` items ago; warm-up severities are
        logged but produce no fire records (they are not fresh events).
        """
        evaluators = []
        for assertion in self.database:
            evaluator = self._evaluators.get(assertion.name)
            if evaluator is None or evaluator.assertion is not assertion:
                evaluator = make_evaluator(assertion, self.window_size)
                self._evaluators[assertion.name] = evaluator
                pending = self._pending_states.pop(assertion.name, None)
                if pending is not None:
                    # Re-enabled after a restore: resume the snapshotted
                    # rolling state and keep the restored fire log.
                    evaluator.set_state(pending)
                    self._log.setdefault(assertion.name, {})
                else:
                    # A replaced assertion must not inherit its
                    # predecessor's fires: the log restarts from the
                    # warm-up replay.
                    log = self._log[assertion.name] = {}
                    for item in self._recent:
                        for index, severity in evaluator.update(item).items():
                            if severity > 0:
                                log[index] = severity
                            else:
                                log.pop(index, None)
            evaluators.append(evaluator)
        return evaluators

    def _merge(self, name: str, changes: dict, records: list) -> None:
        log = self._log.setdefault(name, {})
        for index, severity in sorted(changes.items()):
            previous = log.get(index, 0.0)
            if severity > 0:
                log[index] = severity
            else:
                log.pop(index, None)
            if severity > 0 and severity != previous:
                records.append(
                    AssertionRecord(
                        assertion_name=name, item_index=index, severity=severity
                    )
                )

    # ------------------------------------------------------------------
    def ingest(self, item: StreamItem) -> list:
        """Consume one item; return fresh fire records (incl. revisions)."""
        evaluators = self._sync()
        self._recent.append(item)
        self._n_items = max(self._n_items, item.index + 1)
        records: list = []
        for evaluator in evaluators:
            self._merge(evaluator.assertion.name, evaluator.update(item), records)
        return records

    def ingest_batch(self, items: list) -> list:
        """Consume a chunk of items; return fresh fire records.

        Each evaluator consumes the whole chunk, then the changes are
        merged per (item, assertion) in registration order, so the
        records and the severity log equal those of per-item
        :meth:`ingest` calls.
        """
        if not items:
            return []
        evaluators = self._sync()
        self._recent.extend(items)
        self._n_items = max(self._n_items, items[-1].index + 1)
        per_evaluator = [ev.update_batch(items) for ev in evaluators]
        records: list = []
        for item_pos in range(len(items)):
            for evaluator, changes in zip(evaluators, per_evaluator):
                self._merge(evaluator.assertion.name, changes[item_pos], records)
        return records

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """JSON-encodable engine state: log, recent window, evaluators.

        Evaluators for every enabled assertion are synced first, so a
        snapshot taken right after registering assertions (before any
        item) is restorable too.
        """
        self._sync()
        # Every evaluator the database still knows about is captured —
        # including disabled ones — plus any still-unclaimed restored
        # states, so disable → enable survives a snapshot boundary.
        known = set(self.database.all_names())
        states = {
            name: state
            for name, state in self._pending_states.items()
            if name in known
        }
        states.update(
            {
                name: evaluator.get_state()
                for name, evaluator in self._evaluators.items()
                if name in known
            }
        )
        return {
            "n_items": self._n_items,
            "recent": to_jsonable(list(self._recent)),
            "log": {
                name: _sparse_columns(log, float)
                for name, log in self._log.items()
                if log and name in known
            },
            "evaluators": states,
        }

    def set_state(self, state: dict) -> None:
        """Restore state captured by :meth:`get_state`.

        The current database must hold the same enabled assertions the
        snapshot was taken with (validated by :meth:`OMG.restore`).
        """
        self.reset()
        evaluators = self._sync()
        self._n_items = int(state["n_items"])
        self._recent.extend(from_jsonable(state["recent"]))
        self._log = {
            name: _sparse_from_columns(columns, float)
            for name, columns in state["log"].items()
        }
        saved = state["evaluators"]
        applied = set()
        for evaluator in evaluators:
            name = evaluator.assertion.name
            if name in saved:
                evaluator.set_state(saved[name])
                applied.add(name)
        # States for assertions that exist but are not currently enabled
        # (snapshotted while disabled) wait here until re-enabled.
        self._pending_states = {
            name: payload
            for name, payload in saved.items()
            if name not in applied
        }

    # ------------------------------------------------------------------
    def severity_matrix(self, n_items: "int | None" = None) -> tuple:
        """(assertion names, dense ``(n_items, n_assertions)`` matrix)."""
        names = self.database.names()
        n = self._n_items if n_items is None else n_items
        matrix = np.zeros((n, len(names)), dtype=np.float64)
        for col, name in enumerate(names):
            for index, severity in self._log.get(name, {}).items():
                if 0 <= index < n:
                    matrix[index, col] = severity
        return names, matrix

    def chunk_matrix(self, start: int, stop: int) -> tuple:
        """(assertion names, dense matrix for item indices [start, stop)).

        O(chunk × assertions) — unlike :meth:`severity_matrix` it does
        not touch the full log, so per-chunk reporting stays flat over
        a long-lived stream.
        """
        names = self.database.names()
        matrix = np.zeros((max(0, stop - start), len(names)), dtype=np.float64)
        for col, name in enumerate(names):
            log = self._log.get(name)
            if not log:
                continue
            for row in range(start, stop):
                severity = log.get(row)
                if severity:
                    matrix[row - start, col] = severity
        return names, matrix
