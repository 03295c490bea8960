"""``MonitorService``: many keyed assertion-monitored streams, one process.

The ROADMAP's north star is serving "heavy traffic from millions of
users"; the runtime so far monitored exactly one stream per
:class:`~repro.core.runtime.OMG` instance. This module adds the serving
layer on top of the :mod:`repro.domains.registry` contract:

- ``service.session(stream_id)`` — an independent streaming session per
  key (its own runtime, its own per-stream adapter state), created on
  first use;
- ``service.ingest(stream_id, raw)`` / ``service.ingest_batch(pairs)`` —
  raw domain units in, fresh fire records out; the batch form groups
  pairs by stream and runs each stream's units in arrival order;
- LRU capacity bounds and TTL idle expiry with an ``on_evict`` hook;
- per-stream and fleet-aggregate :class:`MonitoringReport` s;
- ``on_fire`` routing that tags every record with its stream id;
- ``snapshot()`` / ``restore()`` — the whole fleet's evaluator state as
  one JSON payload, so sessions checkpoint and resume bit-identically
  (see :meth:`repro.core.runtime.OMG.snapshot`);
- ``apply_suite(suite, tick=…)`` — live reconfiguration: hot-add,
  remove, and re-weight assertions across every session at a raw-unit
  boundary from a declarative
  :class:`~repro.core.spec.AssertionSuite` (which also templates new
  sessions and rides along in snapshots).

Determinism contract: an interleaved multi-stream ingest produces, per
stream, exactly the report a solo run over that stream's items produces
— which by the streaming-equivalence invariant equals an offline
:meth:`OMG.monitor` pass — including across a snapshot/restore cycle
(``tests/serve/test_service.py``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.runtime import OMG, MonitoringReport
from repro.core.spec import AssertionSuite, compile_suite
from repro.core.types import AssertionRecord
from repro.domains.registry import Domain, get_domain
from repro.utils.codec import from_jsonable, to_jsonable

#: Version tag of the :meth:`MonitorService.snapshot` payload layout.
SERVICE_SNAPSHOT_FORMAT = 1


class BrokenSessionError(RuntimeError):
    """Use of a session that fail-stopped on an earlier unit.

    A ``RuntimeError`` subclass so pre-existing ``except RuntimeError``
    handlers keep working; the network front-end (:mod:`repro.serve.net`)
    answers it with its ``wire_type``, ``broken-session``, instead of a
    generic failure.
    """

    wire_type = "broken-session"


class _UnknownStream(KeyError):
    """No live session for a stream id. A ``KeyError``, as the service's
    lookups document; the network front-end answers it with its
    ``wire_type`` and tells it from a key missing in a payload."""

    wire_type = "unknown-stream"

    def __str__(self) -> str:
        return f"no live stream {self.args[0]!r}"


class BatchIngestError(RuntimeError):
    """One or more stream groups of an :meth:`MonitorService.ingest_batch`
    failed.

    Carries *every* failed stream, not just the first: ``failures`` maps
    each failed ``stream_id`` to the exception that broke it, in batch
    group order. Sibling streams' units were still ingested and their
    fires dispatched before this was raised. A ``RuntimeError`` subclass
    (with each underlying error quoted in the message) so callers that
    matched the old single-exception behavior keep working.
    """

    def __init__(self, failures: "OrderedDict[str, Exception]") -> None:
        self.failures = failures
        detail = "; ".join(
            f"{stream_id!r} ({type(exc).__name__}: {exc})"
            for stream_id, exc in failures.items()
        )
        super().__init__(
            f"ingest_batch failed on {len(failures)} stream(s): {detail}"
        )


@dataclass(frozen=True)
class PairOutcome:
    """Per-pair result of :meth:`MonitorService.ingest_batch_outcomes`.

    Exactly one of ``fires`` / ``error`` is set. ``skipped`` marks a pair
    that was never attempted because an *earlier* unit of the same stream
    broke the session within the same batch (its ``error`` is that
    earlier exception) — the network server reports these as
    ``broken-session`` rather than blaming the unit itself.
    """

    stream_id: str
    fires: "list | None" = None
    error: "Exception | None" = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class StreamFire:
    """An assertion fire with stream provenance (``on_fire`` payload)."""

    stream_id: str
    record: AssertionRecord


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (domain knobs live in the domain's config).

    Attributes
    ----------
    max_sessions:
        LRU bound on live sessions; ``None`` = unbounded. When a new
        session would exceed it, the least-recently-used session is
        evicted (``on_evict`` hooks fire first, e.g. to checkpoint it).
    session_ttl:
        Idle expiry in seconds (measured on the service clock); ``None``
        = never. Expired sessions are purged (``on_evict`` hooks firing)
        on the next service access — ``session``/``ingest``/``report``/
        ``fleet_report``/``snapshot``.
    parallel:
        Default for :meth:`MonitorService.ingest_batch`'s thread fan-out
        across streams. Off by default: the evaluators are pure Python,
        so the pool only adds CPU under the GIL and was slower than
        serial ingest in every measurement. Kept only because
        ``servebench`` replays batches with ``parallel=True`` to report
        ``service.pool_speedup``.
    snapshot_on_evict:
        When True, :meth:`MonitorService.evict` captures the session's
        restorable snapshot *before* ``on_evict`` hooks fire and exposes
        it as ``session.evict_snapshot`` (``None`` for broken sessions).
        Hooks and callers can persist it and later re-admit the stream
        with :meth:`MonitorService.restore_session` — so LRU/TTL eviction
        never silently discards a stream's history (the improvement loop
        relies on this).
    """

    max_sessions: "int | None" = None
    session_ttl: "float | None" = None
    parallel: bool = False
    snapshot_on_evict: bool = False

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.session_ttl is not None and self.session_ttl <= 0:
            raise ValueError(f"session_ttl must be > 0, got {self.session_ttl}")


class StreamSession:
    """One keyed stream: a fresh runtime plus per-stream adapter state.

    Ingestion is fail-stop: an exception while normalizing or observing
    a unit can leave adapter state and monitor state half-advanced, so
    the session marks itself **broken** and every later ``ingest`` /
    ``report`` / ``snapshot`` raises, rather than silently reporting
    severities no solo run over the same valid units would produce.
    Evict a broken session and start the stream fresh.
    """

    def __init__(
        self,
        stream_id: str,
        domain: Domain,
        now: float,
        suite: "AssertionSuite | None" = None,
        *,
        _monitor: "OMG | None" = None,
    ) -> None:
        self.stream_id = stream_id
        self.domain = domain
        #: The declarative suite this session monitors with (``None`` =
        #: the domain's built-in assertion set).
        self.suite = suite
        if _monitor is not None:  # the restore path built it already
            self.monitor = _monitor
        elif suite is not None:
            self.monitor = OMG(compile_suite(suite))
        else:
            self.monitor = domain.build_monitor()
        self.state = domain.new_state()
        self.created_at = now
        self.last_used = now
        #: Raw units consumed (≠ items when a unit expands to many).
        self.n_raw = 0
        #: The exception that broke this session, if any.
        self.broken: "Exception | None" = None
        #: Snapshot captured at eviction time (``snapshot_on_evict``).
        self.evict_snapshot: "dict | None" = None

    @property
    def n_items(self) -> int:
        return self.monitor.n_observed

    def _check_usable(self) -> None:
        if self.broken is not None:
            raise BrokenSessionError(
                f"stream {self.stream_id!r} is broken after a failed unit "
                f"({self.broken!r}); evict it and start a fresh session"
            ) from self.broken

    def ingest(self, raw: Any) -> list:
        """Normalize one raw unit and observe its items; fresh records."""
        self._check_usable()
        fresh: list = []
        try:
            for outputs, timestamp in self.domain.item_from_raw(raw, self.state):
                fresh.extend(
                    self.monitor.observe(None, outputs, timestamp=timestamp)
                )
        except Exception as exc:
            self.broken = exc
            raise
        self.n_raw += 1
        return fresh

    def report(self) -> MonitoringReport:
        """This stream's accumulated online report."""
        self._check_usable()
        return self.monitor.online_report()

    def snapshot(self) -> dict:
        """JSON-encodable checkpoint of this session."""
        self._check_usable()
        return {
            "monitor": self.monitor.snapshot(),
            "state": self.domain.state_snapshot(self.state),
            "n_raw": self.n_raw,
        }

    def apply_suite(self, suite: AssertionSuite) -> dict:
        """Hot-reconfigure this session's assertion set (see
        :meth:`repro.core.runtime.OMG.apply_suite`)."""
        self._check_usable()
        diff = self.monitor.apply_suite(suite)
        self.suite = suite
        return diff

    @classmethod
    def restore(
        cls,
        stream_id: str,
        domain: Domain,
        payload: dict,
        now: float,
        suite: "AssertionSuite | None" = None,
    ) -> "StreamSession":
        """Rebuild a session from :meth:`snapshot` output.

        When the monitor payload embeds a declarative suite (every
        suite-compiled runtime's does), the exact snapshotted assertion
        set is rebuilt from it — so a fleet restores correctly even
        across an :meth:`MonitorService.apply_suite` boundary, where the
        service's current template differs from what this stream ran.
        """
        try:
            monitor_payload = payload["monitor"]
            state, n_raw = payload["state"], payload["n_raw"]
        except KeyError as exc:
            # The client's payload, not a missing stream: a bad request.
            raise ValueError(f"session payload lacks key {exc}") from exc
        if monitor_payload.get("suite") is not None:
            monitor = OMG.from_snapshot(monitor_payload)
            session = cls(
                stream_id, domain, now, suite=monitor.suite, _monitor=monitor
            )
        else:
            session = cls(stream_id, domain, now, suite=suite)
            session.monitor.restore(monitor_payload)
        session.state = domain.state_restore(state)
        session.n_raw = int(n_raw)
        return session


@dataclass
class FleetReport:
    """Per-stream reports plus their fleet-wide aggregate.

    ``aggregate`` stacks every stream's severity matrix (rows in session
    creation/LRU-touch order, the order of ``stream_reports``); its
    records carry row indices offset per ``row_offsets`` so they stay
    unambiguous fleet-wide.
    """

    domain: str
    stream_reports: "OrderedDict[str, MonitoringReport]"
    aggregate: MonitoringReport
    row_offsets: dict = field(default_factory=dict)

    def fire_counts(self) -> dict:
        """Fleet-wide assertion name → items with positive severity."""
        return self.aggregate.fire_counts()

    def format_table(self) -> str:
        from repro.utils.tables import format_table

        names = self.aggregate.assertion_names
        rows = []
        for stream_id, report in self.stream_reports.items():
            counts = report.fire_counts()
            rows.append(
                (stream_id, report.n_items, *(counts[n] for n in names),
                 report.total_fires())
            )
        totals = self.aggregate.fire_counts()
        rows.append(
            ("TOTAL", self.aggregate.n_items,
             *(totals[n] for n in names),
             self.aggregate.total_fires())
        )
        return format_table(
            ["Stream", "Items", *names, "Fires"],
            rows,
            title=f"Fleet report — domain {self.domain!r}, "
            f"{len(self.stream_reports)} stream(s)",
        )


def build_fleet_report(
    domain_name: str,
    stream_reports: "OrderedDict[str, MonitoringReport]",
    assertion_names,
) -> FleetReport:
    """Stack per-stream reports into a :class:`FleetReport`.

    The shared aggregation core behind :meth:`MonitorService.fleet_report`
    and the sharded router's cross-shard merge
    (:meth:`repro.fleet.router.FleetRouter`): rows stack in
    ``stream_reports`` order, each stream's records re-indexed by its row
    offset so they stay unambiguous fleet-wide. ``assertion_names`` is
    the column set used when no stream reported anything.
    """
    if stream_reports:
        names = next(iter(stream_reports.values())).assertion_names
    else:
        names = assertion_names
    row_offsets: dict = {}
    offset = 0
    matrices = []
    records: list = []
    for stream_id, report in stream_reports.items():
        row_offsets[stream_id] = offset
        matrices.append(report.severities)
        for record in report.records:
            records.append(
                AssertionRecord(
                    assertion_name=record.assertion_name,
                    item_index=record.item_index + offset,
                    severity=record.severity,
                    context=stream_id,
                )
            )
        offset += report.n_items
    severities = (
        np.vstack(matrices)
        if matrices
        else np.zeros((0, len(names)), dtype=np.float64)
    )
    aggregate = MonitoringReport(
        assertion_names=list(names), severities=severities, records=records
    )
    return FleetReport(
        domain=domain_name,
        stream_reports=stream_reports,
        aggregate=aggregate,
        row_offsets=row_offsets,
    )


class MonitorService:
    """Serve many independent monitored streams of one domain.

    Parameters
    ----------
    domain:
        A registry name (``"av" | "video" | "tvnews" | "ecg"`` or any
        :func:`~repro.domains.registry.register_domain` name) or a
        ready-made :class:`~repro.domains.registry.Domain` instance.
    domain_config:
        The domain's config dataclass; only valid with a name (an
        instance already carries its config).
    config:
        :class:`ServiceConfig`; ``None`` = defaults.
    clock:
        Monotonic time source for LRU/TTL bookkeeping (injectable for
        tests); defaults to :func:`time.monotonic`.

    Examples
    --------
    >>> service = MonitorService("ecg")
    >>> world = service.domain.build_world(seed=0)
    >>> stream = service.domain.iter_stream(world)
    >>> fires = service.ingest("patient-7", next(stream))
    >>> service.report("patient-7").n_items > 0
    True
    """

    def __init__(
        self,
        domain: "Domain | str",
        *,
        domain_config: Any = None,
        config: "ServiceConfig | None" = None,
        clock: "Callable[[], float] | None" = None,
        suite: "AssertionSuite | None" = None,
    ) -> None:
        if isinstance(domain, str):
            domain = get_domain(domain, domain_config)
        elif domain_config is not None:
            raise ValueError(
                "domain_config is only valid with a domain name; a Domain "
                "instance already carries its config"
            )
        if suite is not None and suite.domain and domain.name and suite.domain != domain.name:
            raise ValueError(
                f"suite {suite.name!r} targets domain {suite.domain!r}, "
                f"this service serves {domain.name!r}"
            )
        self.domain = domain
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock if clock is not None else time.monotonic
        #: The declarative suite new sessions monitor with (``None`` =
        #: the domain's built-in set); updated by :meth:`apply_suite`.
        self._suite = suite
        self._sessions: "OrderedDict[str, StreamSession]" = OrderedDict()
        self._fire_actions: list = []
        self._evict_actions: list = []
        self._executor: "ThreadPoolExecutor | None" = None

    @property
    def suite(self) -> "AssertionSuite | None":
        """The suite template new sessions are built with."""
        return self._suite

    # ------------------------------------------------------------------
    # Sessions and eviction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._sessions

    def stream_ids(self) -> list:
        """Live stream ids, least- to most-recently used."""
        return list(self._sessions)

    def session(self, stream_id: str) -> StreamSession:
        """The session for ``stream_id``, created on first use.

        Accessing a session marks it most-recently used; TTL-expired
        sessions are purged first and, if creating this session pushes
        the count past ``max_sessions``, the least-recently-used other
        session is evicted.
        """
        now = self._clock()
        self._purge_expired(now)
        session = self._sessions.get(stream_id)
        if session is None:
            session = StreamSession(stream_id, self.domain, now, suite=self._suite)
            self._sessions[stream_id] = session
            self._enforce_capacity()
        else:
            self._sessions.move_to_end(stream_id)
        session.last_used = now
        return session

    def evict(self, stream_id: str) -> StreamSession:
        """Drop a session (KeyError if absent); returns it after firing
        ``on_evict`` hooks, so callers can checkpoint it.

        With ``snapshot_on_evict`` the session's restorable snapshot is
        captured first and exposed as ``session.evict_snapshot`` (``None``
        when the session is broken — indeterminate state must not be
        persisted); hand it to :meth:`restore_session` to re-admit the
        stream exactly where it left off.
        """
        session = self._live(stream_id)
        del self._sessions[stream_id]
        if self.config.snapshot_on_evict and session.broken is None:
            session.evict_snapshot = session.snapshot()
        for action in self._evict_actions:
            action(session)
        return session

    def session_snapshot(self, stream_id: str) -> dict:
        """One live stream's restorable snapshot, without evicting it.

        The migration read half: hand the payload to another service's
        :meth:`restore_session` and the stream continues there
        bit-identically. Raises ``KeyError`` when the stream is absent
        (TTL expiry included — snapshotting does not count as use) and
        :class:`BrokenSessionError` for broken sessions.
        """
        self._purge_expired(self._clock())
        return self._live(stream_id).snapshot()

    def _live(self, stream_id: str) -> StreamSession:
        session = self._sessions.get(stream_id)
        if session is None:
            raise _UnknownStream(stream_id)
        return session

    def session_units(self) -> dict:
        """stream_id → raw units consumed, for every live session.

        Broken sessions report their count too (their consumed total is
        still exact — the failed unit never increments it). The fleet
        router uses this to validate a migration/reconfiguration tick
        across shards before touching anything.
        """
        self._purge_expired(self._clock())
        return {
            stream_id: session.n_raw
            for stream_id, session in self._sessions.items()
        }

    def restore_session(self, stream_id: str, payload: dict) -> StreamSession:
        """Re-admit one stream from a session snapshot.

        ``payload`` is what :meth:`StreamSession.snapshot` produced —
        either ``session.evict_snapshot`` or one entry of a fleet
        :meth:`snapshot`. The stream id must not be live (evict it first
        to replace it); the restored session counts as most recently
        used, and the LRU bound is enforced afterwards.
        """
        if stream_id in self._sessions:
            raise ValueError(
                f"stream {stream_id!r} is live; evict it before restoring "
                "a snapshot into its slot"
            )
        now = self._clock()
        self._purge_expired(now)
        session = StreamSession.restore(
            stream_id, self.domain, payload, now, suite=self._suite
        )
        self._sessions[stream_id] = session
        self._enforce_capacity()
        return session

    # ------------------------------------------------------------------
    # Live reconfiguration
    # ------------------------------------------------------------------
    def apply_suite(
        self, suite: AssertionSuite, *, tick: "int | None" = None
    ) -> dict:
        """Hot-reconfigure the whole fleet's assertion set to ``suite``.

        Every live session's runtime is diffed against the new suite at
        its current item boundary (see
        :meth:`repro.core.runtime.OMG.apply_suite`): unchanged entries
        keep their evaluator state and fire history, added entries start
        fresh evaluators (warmed on the bounded recent window, no
        retroactive fire records), removed entries drop their live
        state — their past fires survive wherever ``on_fire`` routed
        them (e.g. a :class:`~repro.improve.fires.FireStore`). New
        sessions created afterwards are compiled from ``suite`` too.

        ``tick`` asserts the raw-unit boundary: when given, every live
        session must have consumed exactly ``tick`` raw units, otherwise
        nothing is changed and a ``ValueError`` names the offender. Fires
        after the boundary are identical to a fleet freshly started on
        the new suite and fast-forwarded through the same pre-boundary
        units (``tests/serve/test_apply_suite.py``), and
        snapshot → restore across the boundary stays bit-identical.

        Returns ``{stream_id: diff}`` with each session's
        added/removed/kept/replaced assertion names. Broken sessions are
        skipped (evict them).
        """
        if suite.domain and self.domain.name and suite.domain != self.domain.name:
            raise ValueError(
                f"suite {suite.name!r} targets domain {suite.domain!r}, "
                f"this service serves {self.domain.name!r}"
            )
        self._purge_expired(self._clock())
        live = [s for s in self._sessions.values() if s.broken is None]
        if tick is not None:
            for session in live:
                if session.n_raw != tick:
                    raise ValueError(
                        f"apply_suite(tick={tick}) is not a raw-unit boundary "
                        f"for stream {session.stream_id!r}, which has consumed "
                        f"{session.n_raw} unit(s)"
                    )
        diffs = {session.stream_id: session.apply_suite(suite) for session in live}
        self._suite = suite
        return diffs

    def _purge_expired(self, now: float) -> None:
        ttl = self.config.session_ttl
        if ttl is None:
            return
        expired = [
            stream_id
            for stream_id, session in self._sessions.items()
            if now - session.last_used > ttl
        ]
        for stream_id in expired:
            # Re-check before each eviction: an ``on_evict`` hook may
            # legally re-enter the service (see ``_dispatch``), and any
            # re-entrant access purges expired sessions itself — so a
            # later id in ``expired`` can already be gone (or even have
            # been re-created and touched) by the time we reach it.
            session = self._sessions.get(stream_id)
            if session is not None and now - session.last_used > ttl:
                self.evict(stream_id)

    def _enforce_capacity(self) -> None:
        limit = self.config.max_sessions
        if limit is None:
            return
        while len(self._sessions) > limit:
            oldest = next(iter(self._sessions))
            self.evict(oldest)

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def on_fire(self, action: "Callable[[StreamFire], None]") -> Callable:
        """Register a corrective-action hook; called once per fresh
        record, with stream provenance (:class:`StreamFire`)."""
        self._fire_actions.append(action)
        return action

    def on_evict(self, action: "Callable[[StreamSession], None]") -> Callable:
        """Register an eviction hook (e.g. snapshot the session)."""
        self._evict_actions.append(action)
        return action

    def _dispatch(self, fires: list) -> None:
        # Always runs on the caller's thread (batch workers only collect;
        # fires dispatch after the pool joins), so callbacks may safely
        # re-enter the service — e.g. a corrective action that ingests a
        # derived event into another stream.
        for fire in fires:
            for action in self._fire_actions:
                action(fire)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, stream_id: str, raw: Any) -> list:
        """Feed one raw unit to one stream; returns :class:`StreamFire` s."""
        records = self.session(stream_id).ingest(raw)
        fires = [StreamFire(stream_id, record) for record in records]
        self._dispatch(fires)
        return fires

    def ingest_batch(
        self, pairs: list, *, parallel: "bool | None" = None
    ) -> list:
        """Feed many ``(stream_id, raw)`` pairs; returns fires in pair order.

        Pairs are grouped by stream (preserving each stream's arrival
        order) and run one stream after another; with ``parallel``
        (default: the service config, off) the groups fan out over a
        shared thread pool instead — sessions are independent, so
        results are bit-identical either way.
        ``on_fire`` hooks run after the whole batch, in pair order.

        When stream groups fail, a :class:`BatchIngestError` names every
        failed stream (not just the first) and maps each to its
        exception; the failed sessions are broken (fail-stop), sibling
        streams' fires were already dispatched.
        """
        by_position, errors, _positions, fires = self._run_batch(pairs, parallel)
        if errors:
            raise BatchIngestError(errors)
        return fires

    def ingest_batch_outcomes(
        self, pairs: list, *, parallel: "bool | None" = None
    ) -> list:
        """Like :meth:`ingest_batch`, but never raises for per-stream
        failures: returns one :class:`PairOutcome` per pair, in order.

        The structured form the network front-end serves: successful
        pairs carry their fires, the pair that broke its stream carries
        the exception, and later pairs of that stream in the same batch
        are marked ``skipped`` (never attempted — the session was already
        broken). Fires dispatch exactly as in :meth:`ingest_batch`.
        """
        pairs = list(pairs)
        by_position, errors, failed_positions, _fires = self._run_batch(
            pairs, parallel
        )
        outcomes = []
        for position, (stream_id, _raw) in enumerate(pairs):
            if position in by_position:
                outcomes.append(
                    PairOutcome(
                        stream_id,
                        fires=[
                            StreamFire(stream_id, record)
                            for record in by_position[position]
                        ],
                    )
                )
            else:
                outcomes.append(
                    PairOutcome(
                        stream_id,
                        error=errors[stream_id],
                        skipped=position != failed_positions[stream_id],
                    )
                )
        return outcomes

    def _run_batch(self, pairs: list, parallel: "bool | None") -> tuple:
        """Shared batch core: group, fan out, dispatch fires.

        Returns ``(by_position, errors, failed_positions, fires)`` where
        ``errors`` maps every failed stream id to its exception (group
        order) and ``failed_positions`` maps it to the pair position that
        actually raised (later positions of that stream were skipped).
        """
        pairs = list(pairs)
        if parallel is None:
            parallel = self.config.parallel
        groups: "OrderedDict[str, list]" = OrderedDict()
        for position, (stream_id, raw) in enumerate(pairs):
            groups.setdefault(stream_id, []).append((position, raw))
        limit = self.config.max_sessions
        if limit is not None and len(groups) > limit:
            raise ValueError(
                f"batch touches {len(groups)} distinct streams but "
                f"max_sessions={limit}; the LRU bound would evict sessions "
                "mid-batch"
            )
        # Create/touch serially (the LRU map is not thread-safe), then
        # fan out: each worker owns exactly one session. Existing batch
        # members are touched *before* any new session is created, so a
        # creation-triggered LRU eviction can only hit non-members — a
        # batch within the size guard never evicts its own sessions.
        sessions = {
            stream_id: self.session(stream_id)
            for stream_id in groups
            if stream_id in self._sessions
        }
        for stream_id in groups:
            if stream_id not in sessions:
                sessions[stream_id] = self.session(stream_id)

        def run_group(stream_id: str) -> tuple:
            # Errors are captured, not raised, so one malformed unit on
            # one stream cannot suppress the corrective-action dispatch
            # for sibling streams whose units were already observed.
            done: list = []
            try:
                for position, raw in groups[stream_id]:
                    done.append((position, sessions[stream_id].ingest(raw)))
            except Exception as exc:  # re-raised below, after dispatch
                return done, exc
            return done, None

        if parallel and len(groups) > 1:
            if self._executor is None:
                # Reused across batches; idle workers are joined at
                # interpreter exit, so no explicit shutdown is needed.
                self._executor = ThreadPoolExecutor(
                    thread_name_prefix="monitor-service"
                )
            per_group = list(self._executor.map(run_group, groups))
        else:
            per_group = [run_group(stream_id) for stream_id in groups]

        by_position: dict = {}
        errors: "OrderedDict[str, Exception]" = OrderedDict()
        failed_positions: dict = {}
        for stream_id, (done, error) in zip(groups, per_group):
            for position, records in done:
                by_position[position] = records
            if error is not None:
                errors[stream_id] = error
                # The group entry after the last completed one raised.
                failed_positions[stream_id] = groups[stream_id][len(done)][0]
        fires = [
            StreamFire(stream_id, record)
            for position, (stream_id, _raw) in enumerate(pairs)
            for record in by_position.get(position, ())
        ]
        self._dispatch(fires)
        return by_position, errors, failed_positions, fires

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, stream_id: str) -> MonitoringReport:
        """One stream's accumulated online report.

        Raises KeyError when the stream is absent — including when it
        just TTL-expired (reading a report does not count as use).
        """
        self._purge_expired(self._clock())
        return self._live(stream_id).report()

    def fleet_report(self) -> FleetReport:
        """Every live stream's report plus the stacked fleet aggregate.

        Broken sessions (see :class:`StreamSession`) are excluded — their
        state is indeterminate; evict them to clear the slot.
        """
        stream_reports = OrderedDict(self.stream_reports())
        return build_fleet_report(
            self.domain.name, stream_reports, self.assertion_names()
        )

    def stream_reports(self) -> Iterator:
        """``(stream_id, report)`` of every live, unbroken stream, in
        :meth:`fleet_report` row order, each report built only when the
        iterator reaches it. Expired sessions are purged first.

        The sessions must not change while the iterator is in use.
        """
        self._purge_expired(self._clock())
        return (
            (stream_id, session.report())
            for stream_id, session in self._sessions.items()
            if session.broken is None
        )

    def assertion_names(self) -> list:
        """The column names a new session's report carries."""
        if self._suite is not None:
            return self._suite.assertion_names()
        return self.domain.build_monitor().database.names()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint every live session as one JSON payload.

        TTL-expired sessions are purged first (their ``on_evict`` hooks
        fire), so a checkpoint can never resurrect a session the TTL
        already retired. Broken sessions are excluded — their state is
        indeterminate and must not be persisted.
        """
        self._purge_expired(self._clock())
        payload = {
            "format": SERVICE_SNAPSHOT_FORMAT,
            "domain": self.domain.name,
            "sessions": [
                [stream_id, session.snapshot()]
                for stream_id, session in self._sessions.items()
                if session.broken is None
            ],
        }
        if self._suite is not None:
            # The template for sessions created after the restore; each
            # live session's monitor payload embeds its own suite too.
            payload["suite"] = to_jsonable(self._suite)
        return payload

    def restore(self, payload: dict) -> None:
        """Replace live sessions with the fleet captured by :meth:`snapshot`.

        The service must be built for the same domain (same name, same
        config) the snapshot was taken with. Live sessions the snapshot
        replaces are evicted first (``on_evict`` hooks fire), so an
        on-evict persistence layer sees them before they are dropped.
        """
        # Shape first: a monitor-level payload has a format tag of its
        # own, and the hint below is what its owner needs.
        if "domain" not in payload or "sessions" not in payload:
            raise ValueError(
                "not a MonitorService snapshot: payload lacks domain/sessions "
                "(an OMG-level snapshot restores via OMG.restore, not here)"
            )
        fmt = payload.get("format")
        if fmt != SERVICE_SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported service snapshot format {fmt!r} "
                f"(expected {SERVICE_SNAPSHOT_FORMAT})"
            )
        if payload["domain"] != self.domain.name:
            raise ValueError(
                f"snapshot is for domain {payload['domain']!r}, this service "
                f"serves {self.domain.name!r}"
            )
        now = self._clock()
        suite = self._suite
        if payload.get("suite") is not None:
            suite = from_jsonable(payload["suite"])
        restored: "OrderedDict[str, StreamSession]" = OrderedDict()
        for stream_id, session_payload in payload["sessions"]:
            restored[stream_id] = StreamSession.restore(
                stream_id, self.domain, session_payload, now, suite=suite
            )
        # Set only once every session restored: a refused restore must
        # leave the template for later sessions as it was.
        self._suite = suite
        for stream_id in list(self._sessions):
            if stream_id in self._sessions:  # a hook may have evicted it
                self.evict(stream_id)
        if self._sessions:
            # An ``on_evict`` hook created sessions while the old fleet
            # was being torn down; assigning ``restored`` would silently
            # clobber them. There is no principled merge (the hook's
            # session and the snapshot may claim the same stream id with
            # different histories), so refuse loudly.
            raise RuntimeError(
                "on_evict hooks created session(s) "
                f"{list(self._sessions)} while restore was tearing down "
                "the old fleet; they would be silently discarded — do not "
                "re-create sessions from eviction hooks during restore"
            )
        self._sessions = restored
        # A snapshot may hold more sessions than this service's LRU bound
        # allows; evict from the least-recently-used end (snapshot order)
        # so the configured memory bound holds immediately.
        self._enforce_capacity()

    @classmethod
    def from_snapshot(
        cls,
        payload: dict,
        *,
        domain_config: Any = None,
        config: "ServiceConfig | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> "MonitorService":
        """Build a service for the payload's domain and restore into it."""
        service = cls(
            payload["domain"], domain_config=domain_config, config=config, clock=clock
        )
        service.restore(payload)
        return service
