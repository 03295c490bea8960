"""The OMG runtime monitor.

OMG "logs user-defined assertions as callbacks … Given the model's input
and output, OMG will execute the assertions and record any errors" (§2.4).
This module provides both deployment styles the paper describes:

- **online**: call :meth:`OMG.observe` after every model invocation (or
  :meth:`OMG.observe_batch` on chunks); OMG dispatches each item through
  stateful per-assertion streaming evaluators
  (:mod:`repro.core.streaming`), records fires — including retroactive
  ones, e.g. a flicker only detectable once the object reappears — and
  invokes any registered corrective-action callbacks (e.g., "shutting
  down an autopilot", §1). Cost is O(assertions) amortized per item
  instead of an O(window × assertions) replay of the trailing window.
- **offline/batch**: call :meth:`OMG.monitor` on a full stream
  (historical data, validation sets, human labels) to get a
  :class:`MonitoringReport` whose per-item severity matrix is exactly the
  context matrix BAL consumes for active learning (§3).

The two styles agree: after a stream has been fed through ``observe`` /
``observe_batch``, :meth:`OMG.online_report` reproduces the offline
:meth:`OMG.monitor` severity matrix exactly (the differential invariant
enforced by ``tests/core/test_streaming_equivalence.py``). The guarantee
covers the built-in assertion families — function assertions (any
window), attribute/temporal consistency assertions, and anything
exposing ``evaluate_item``; a custom :class:`ModelAssertion` subclass
with none of those streaming forms falls back to windowed replay
(newest-item severity over the bounded history), which may differ from
a full offline pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.assertion import ModelAssertion, as_assertion
from repro.core.consistency import (
    AttributeConsistencyAssertion,
    ConsistencyIndex,
    ConsistencySpec,
    TemporalConsistencyAssertion,
    generate_assertions,
)
from repro.core.database import AssertionDatabase
from repro.core.streaming import StreamingEngine
from repro.core.types import AssertionRecord, StreamItem, make_stream
from repro.utils.codec import from_jsonable, register_result_type, to_jsonable
from repro.utils.io import SnapshotFormatError

#: Version tag of the :meth:`OMG.snapshot` payload layout. Format 2
#: dropped the copy of every fire record (``online_records``) and
#: run-length codes the temporal evaluators' position → index map.
#: Format 3 writes state in columns: each attribute group as a value
#: dictionary with delta-coded item indices and run-length-coded value
#: codes, and the severity log and temporal item severities as index and
#: value lists.
SNAPSHOT_FORMAT = 3


@register_result_type
@dataclass
class MonitoringReport:
    """Result of monitoring a stream with a set of assertions.

    Codec-registered so reports cross the network serving layer's
    NDJSON frames losslessly (severities bit-exact).

    Attributes
    ----------
    assertion_names:
        Column order of :attr:`severities`.
    severities:
        ``(n_items, n_assertions)`` severity matrix; entry > 0 means the
        assertion fired on that item.
    records:
        Flat list of :class:`~repro.core.types.AssertionRecord` for every
        positive severity.
    n_items:
        Number of monitored stream items.
    """

    assertion_names: list
    severities: np.ndarray
    records: list = field(default_factory=list)

    @property
    def n_items(self) -> int:
        return int(self.severities.shape[0])

    def column(self, assertion_name: str) -> np.ndarray:
        """Severity vector of one assertion, shape ``(n_items,)``."""
        try:
            col = self.assertion_names.index(assertion_name)
        except ValueError:
            raise KeyError(f"no assertion named {assertion_name!r} in report") from None
        return self.severities[:, col]

    def fire_counts(self) -> dict:
        """Assertion name → number of items with positive severity."""
        return {
            name: int(np.count_nonzero(self.severities[:, col] > 0))
            for col, name in enumerate(self.assertion_names)
        }

    def flagged_indices(self, assertion_name: "str | None" = None) -> np.ndarray:
        """Item indices where the assertion (or any assertion) fired."""
        if assertion_name is None:
            mask = np.any(self.severities > 0, axis=1)
        else:
            mask = self.column(assertion_name) > 0
        return np.flatnonzero(mask)

    def total_fires(self) -> int:
        """Number of (item, assertion) pairs with positive severity."""
        return int(np.count_nonzero(self.severities > 0))


class OMG:
    """The model-assertion runtime.

    Parameters
    ----------
    database:
        Shared assertion registry; a fresh one is created when omitted.
    window_size:
        Bound on the trailing history kept for warming up late-registered
        assertions and for the window-replay fallback of assertion types
        with no incremental form. Streaming consistency evaluators keep
        per-identifier aggregates since the last :meth:`reset` instead,
        so their online severities match the offline monitor exactly.

    Examples
    --------
    >>> omg = OMG()
    >>> @omg.assertion
    ... def too_many_outputs(inp, outputs):
    ...     return float(len(outputs) > 3)
    >>> report = omg.monitor_outputs([[1], [1, 2, 3, 4]])
    >>> report.fire_counts()
    {'too_many_outputs': 1}
    """

    def __init__(
        self,
        database: "AssertionDatabase | None" = None,
        *,
        window_size: int = 64,
    ) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.database = database if database is not None else AssertionDatabase()
        self.window_size = window_size
        self._history: deque = deque(maxlen=window_size)
        self._next_index = 0
        self._actions: list = []
        # The engine shares OMG's history deque as its recent-item window,
        # so observed items are retained once, not twice.
        self._streaming = StreamingEngine(self.database, window_size, recent=self._history)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_assertion(
        self,
        assertion: "ModelAssertion | Callable",
        name: "str | None" = None,
        **register_kwargs,
    ) -> ModelAssertion:
        """Register an assertion (``AddAssertion(func)`` in the paper).

        Accepts a :class:`ModelAssertion` or any callable of
        ``(input, outputs) -> severity``.
        """
        wrapped = as_assertion(assertion, name)
        return self.database.add(wrapped, **register_kwargs)

    def assertion(self, func: Callable) -> Callable:
        """Decorator form of :meth:`add_assertion`; returns ``func``."""
        self.add_assertion(func)
        return func

    def add_consistency_assertion(
        self,
        id_fn: Callable,
        attrs_fn: "Callable | None" = None,
        temporal_threshold: "float | None" = None,
        *,
        name: str = "consistency",
        attr_keys: "list[str] | None" = None,
        temporal_modes: "list[str] | None" = None,
        weak_label_fn: "Callable | None" = None,
        set_attr_fn: "Callable | None" = None,
        **register_kwargs,
    ) -> list:
        """``AddConsistencyAssertion(Id, Attrs, T)`` from §4.1.

        Generates one Boolean assertion per attribute key plus temporal
        assertions, registers them all, and returns them.
        """
        spec = ConsistencySpec(
            id_fn=id_fn,
            attrs_fn=attrs_fn,
            temporal_threshold=temporal_threshold,
            weak_label_fn=weak_label_fn,
            set_attr_fn=set_attr_fn,
            name=name,
        )
        generated = generate_assertions(
            spec, attr_keys=attr_keys, temporal_modes=temporal_modes
        )
        if not generated:
            raise ValueError(
                "consistency spec generated no assertions: provide attr_keys "
                "(with attrs_fn) and/or temporal_threshold"
            )
        for item in generated:
            self.database.add(item, **register_kwargs)
        return generated

    def remove_assertion(self, name: str) -> None:
        """Unregister an assertion and drop its streaming state.

        Removes the database entry *and* discards the engine's evaluator
        and severity log for ``name``, so later snapshots and reports
        carry no stale column. Fire records already dispatched (e.g. into
        a :class:`~repro.improve.fires.FireStore`) are untouched.
        """
        self.database.remove(name)
        self._streaming.discard(name)

    @property
    def suite(self):
        """The declarative suite this runtime's database was compiled
        from (``None`` for hand-built databases)."""
        return getattr(self.database, "suite", None)

    def apply_suite(self, suite) -> dict:
        """Reconfigure the live assertion set to ``suite``, in place.

        The new suite is compiled and diffed against the current
        database by entry (spec + weight):

        - **kept** entries (unchanged spec and weight) carry their live
          assertion objects over, so their evaluator state and fire log
          continue seamlessly;
        - **added** (and **replaced**) entries get fresh evaluators,
          warmed on the bounded recent-item window exactly like any
          late-registered assertion — they emit no fire records for
          pre-boundary items (see :meth:`StreamingEngine._sync`);
        - **removed** entries drop their evaluator and severity log;
          their past fires live on wherever ``on_fire`` hooks routed
          them (the serving layer's ``FireStore``).

        Returns ``{"added": [...], "removed": [...], "kept": [...],
        "replaced": [...]}`` of assertion names. Call at an item boundary
        (the serving layer's :meth:`~repro.serve.MonitorService.apply_suite`
        enforces a raw-unit boundary fleet-wide).
        """
        from repro.core.spec import compile_suite

        new_db = compile_suite(suite)
        old_db = self.database
        added: list = []
        kept: list = []
        replaced: list = []
        for name in new_db.all_names():
            new_entry = new_db.entry(name)
            if name not in old_db:
                added.append(name)
                continue
            old_entry = old_db.entry(name)
            if (
                old_entry.spec is not None
                and old_entry.spec.spec == new_entry.spec.spec
                and old_entry.spec.weight == new_entry.spec.weight
            ):
                # Same compiled behavior: keep the live object so the
                # engine recognizes the evaluator as current.
                new_entry.assertion = old_entry.assertion
                kept.append(name)
            else:
                replaced.append(name)
        removed = [name for name in old_db.all_names() if name not in new_db]
        for name in removed + replaced:
            self._streaming.discard(name)
        self.database = new_db
        self._streaming.database = new_db
        # Materialize the new evaluators now (warm-up replay included),
        # so reports taken before the next observation already serve the
        # new suite's columns.
        self._streaming.sync()
        return {
            "added": added,
            "removed": removed,
            "kept": kept,
            "replaced": replaced,
        }

    def on_fire(self, action: Callable[[AssertionRecord], None]) -> Callable:
        """Register a corrective-action callback for online monitoring.

        Called once per fresh :class:`AssertionRecord` produced by
        :meth:`observe` — the paper's "log unexpected behavior or
        automatically trigger corrective actions" hook (§1).
        """
        self._actions.append(action)
        return action

    # ------------------------------------------------------------------
    # Online monitoring
    # ------------------------------------------------------------------
    def _make_item(self, model_input: Any, outputs, timestamp: "float | None") -> StreamItem:
        if timestamp is None:
            timestamp = float(self._next_index)
        item = StreamItem(
            index=self._next_index,
            timestamp=timestamp,
            input=model_input,
            outputs=tuple(outputs),
        )
        self._next_index += 1
        return item

    def _dispatch(self, records: list) -> None:
        for record in records:
            for action in self._actions:
                action(record)

    def observe(
        self,
        model_input: Any,
        outputs,
        *,
        timestamp: "float | None" = None,
    ) -> list:
        """Ingest one model invocation; return fresh fire records.

        Each assertion's evaluator consumes the item incrementally; returned records cover the new item plus any
        retroactive severity revisions to earlier items (consistency
        assertions attribute gap/run violations once the closing
        transition is seen). Every returned record is also dispatched to
        :meth:`on_fire` callbacks.
        """
        item = self._make_item(model_input, outputs, timestamp)
        fresh = self._streaming.ingest(item)  # appends to the shared history
        self._dispatch(fresh)
        return fresh

    def observe_batch(
        self,
        model_inputs: "list | None",
        outputs_per_item: list,
        *,
        timestamps=None,
    ) -> MonitoringReport:
        """Ingest a chunk of invocations; return the chunk's report.

        The returned :class:`MonitoringReport` covers the chunk's items
        (rows in chunk order) with severities as of the end of the chunk,
        so within-chunk retroactive revisions are already folded in.
        ``report.records`` holds the fresh fire records, which may also
        reference pre-chunk items.
        """
        n = len(outputs_per_item)
        if model_inputs is not None and len(model_inputs) != n:
            raise ValueError(f"{len(model_inputs)} inputs but {n} output lists")
        if timestamps is not None and len(timestamps) != n:
            raise ValueError(f"{len(timestamps)} timestamps but {n} output lists")
        items = [
            self._make_item(
                model_inputs[i] if model_inputs is not None else None,
                outputs_per_item[i],
                float(timestamps[i]) if timestamps is not None else None,
            )
            for i in range(n)
        ]
        fresh = self._streaming.ingest_batch(items)
        self._dispatch(fresh)
        start = items[0].index if items else self._next_index
        names, chunk = self._streaming.chunk_matrix(start, self._next_index)
        return MonitoringReport(assertion_names=names, severities=chunk, records=fresh)

    @property
    def n_observed(self) -> int:
        """Items ingested online since the last :meth:`reset` (also the
        index the next observed item will get)."""
        return self._next_index

    def online_report(self) -> MonitoringReport:
        """Severity matrix accumulated by the streaming engine.

        Covers every item observed since the last :meth:`reset`, with all
        retroactive revisions applied — equal to what :meth:`monitor`
        computes offline over the same items for every assertion with a
        streaming form (function, consistency, or ``evaluate_item``; the
        streaming-equivalence invariant). Custom assertion subclasses
        with none of those fall back to newest-item windowed replay.
        """
        names, matrix = self._streaming.severity_matrix(self._next_index)
        records = [
            AssertionRecord(
                assertion_name=names[col],
                item_index=int(row),
                severity=float(matrix[row, col]),
            )
            for row, col in zip(*np.nonzero(matrix > 0))
        ]
        return MonitoringReport(
            assertion_names=names, severities=matrix, records=records
        )

    def reset(self) -> None:
        """Clear online history and state (assertions stay registered)."""
        self._history.clear()
        self._next_index = 0
        self._streaming.reset()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint the full online monitoring state as a JSON payload.

        Captures everything :meth:`observe` accumulates — the streaming
        evaluators' rolling state, the sparse severity log, the bounded
        recent-item window and the item counter — as primitives the
        :mod:`repro.utils.codec` round-trips bit-exactly through
        ``json.dumps``/``loads``. A monitor restored from the payload
        (:meth:`restore`) continues the stream as if it had never
        stopped: subsequent reports and fire records are bit-identical to
        an uninterrupted run. Fire records already returned by
        :meth:`observe` are not part of the payload; the severity log
        holds every item's current severity.

        Stream items must hold codec-encodable inputs/outputs (the
        built-in domains' outputs all are); corrective-action callbacks
        are not part of the payload and must be re-registered by the
        owner.
        """
        payload = {
            "format": SNAPSHOT_FORMAT,
            "window_size": self.window_size,
            "assertions": self.database.names(),
            "next_index": self._next_index,
            "streaming": self._streaming.get_state(),
        }
        if self.suite is not None:
            # Suite-compiled runtimes embed the declarative suite, so a
            # restore can rebuild the exact assertion set from the
            # payload alone (see restore / from_snapshot).
            payload["suite"] = to_jsonable(self.suite)
        return payload

    def restore(self, snapshot: dict) -> None:
        """Restore monitoring state captured by :meth:`snapshot`.

        The runtime must be configured like the one that took the
        snapshot: same ``window_size`` and the same enabled assertion
        names in the same order (build it the same way — e.g. via the
        same :class:`~repro.domains.registry.Domain` — then restore).
        A payload of another format raises :class:`SnapshotFormatError`.
        """
        fmt = snapshot.get("format")
        if fmt != SNAPSHOT_FORMAT:
            raise SnapshotFormatError(
                f"unsupported monitor snapshot format {fmt!r}; this build "
                f"reads format {SNAPSHOT_FORMAT} — re-snapshot with a "
                "matching version instead of reusing this payload",
                found=fmt,
                supported=SNAPSHOT_FORMAT,
            )
        if int(snapshot["window_size"]) != self.window_size:
            raise ValueError(
                f"snapshot window_size {snapshot['window_size']} != "
                f"runtime window_size {self.window_size}"
            )
        if snapshot.get("suite") is not None and not self.database.all_names():
            # An empty runtime rebuilds the exact assertion set from the
            # embedded declarative suite (the OMG.from_snapshot path).
            from repro.core.spec import compile_suite

            compile_suite(from_jsonable(snapshot["suite"]), database=self.database)
        names = self.database.names()
        if list(snapshot["assertions"]) != names:
            raise ValueError(
                f"snapshot assertions {list(snapshot['assertions'])!r} do not match "
                f"the registered assertions {names!r}"
            )
        self.reset()
        self._next_index = int(snapshot["next_index"])
        self._streaming.set_state(snapshot["streaming"])

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "OMG":
        """Rebuild a runtime entirely from a snapshot payload.

        Requires the payload to embed a declarative suite (snapshots of
        suite-compiled runtimes do); hand-built runtimes must be
        reconstructed by their owner and restored with :meth:`restore`.
        """
        if snapshot.get("suite") is None:
            raise ValueError(
                "snapshot embeds no assertion suite; rebuild the runtime "
                "the way it was built, then call restore()"
            )
        omg = cls(window_size=int(snapshot["window_size"]))
        omg.restore(snapshot)
        return omg

    # ------------------------------------------------------------------
    # Batch monitoring
    # ------------------------------------------------------------------
    def _consistency_indices(self, items: list) -> dict:
        """One :class:`ConsistencyIndex` per distinct spec in the database.

        All assertions generated from the same :class:`ConsistencySpec`
        share one grouping pass over the stream instead of regrouping
        per assertion.
        """
        indices: dict = {}
        for assertion in self.database:
            spec = getattr(assertion, "spec", None)
            if isinstance(spec, ConsistencySpec) and id(spec) not in indices:
                indices[id(spec)] = ConsistencyIndex(spec, items)
        return indices

    def monitor(self, items: list) -> MonitoringReport:
        """Run every enabled assertion over a full stream."""
        names = self.database.names()
        n = len(items)
        indices = self._consistency_indices(items)
        severities = np.zeros((n, len(names)), dtype=np.float64)
        records: list = []
        for col, assertion in enumerate(self.database):
            if isinstance(
                assertion, (AttributeConsistencyAssertion, TemporalConsistencyAssertion)
            ):
                sev = assertion.evaluate_stream(
                    items, index=indices[id(assertion.spec)]
                )
            else:
                sev = assertion.evaluate_stream(items)
            sev = np.asarray(sev, dtype=np.float64)
            if sev.shape != (n,):
                raise ValueError(
                    f"assertion {assertion.name!r} returned shape {sev.shape}, expected ({n},)"
                )
            if np.any(sev < 0):
                raise ValueError(f"assertion {assertion.name!r} returned negative severity")
            severities[:, col] = sev
            for pos in np.flatnonzero(sev > 0):
                records.append(
                    AssertionRecord(
                        assertion_name=assertion.name,
                        item_index=items[pos].index,
                        severity=float(sev[pos]),
                    )
                )
        return MonitoringReport(assertion_names=names, severities=severities, records=records)

    def monitor_outputs(
        self,
        outputs_per_item: list,
        *,
        inputs: "list | None" = None,
        timestamps=None,
        fps: "float | None" = None,
    ) -> MonitoringReport:
        """Convenience wrapper: build the stream, then :meth:`monitor`."""
        items = make_stream(
            outputs_per_item, inputs=inputs, timestamps=timestamps, fps=fps
        )
        return self.monitor(items)

    def corrections(self, items: list) -> list:
        """Collect weak-label proposals from every enabled assertion."""
        indices = self._consistency_indices(items)
        proposals: list = []
        for assertion in self.database:
            if isinstance(
                assertion, (AttributeConsistencyAssertion, TemporalConsistencyAssertion)
            ):
                proposals.extend(
                    assertion.corrections(items, index=indices[id(assertion.spec)])
                )
            else:
                proposals.extend(assertion.corrections(items))
        return proposals
