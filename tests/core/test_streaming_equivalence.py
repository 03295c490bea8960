"""Differential harness: online streaming == offline monitoring, exactly.

The refactor-safety invariant of the incremental streaming engine
(:mod:`repro.core.streaming`): for any stream, feeding the items through
``OMG.observe`` (or ``observe_batch``) and then
reading :meth:`OMG.online_report` must reproduce the offline
:meth:`OMG.monitor` severity matrix *bit-for-bit* — for all four
assertion families the paper's runtime supports:

1. per-item function assertions (``FunctionAssertion(window=1)``),
2. windowed function assertions (``FunctionAssertion(window>1)``),
3. attribute-consistency assertions (majority vote per identifier),
4. temporal-consistency assertions (gap / run / both modes).

Streams are randomized but seeded (property-style): identifiers flicker
in and out, attribute values flip, timestamps jitter — the regimes where
incremental majority tracking and retroactive gap/run attribution are
easiest to get wrong.
"""

import json

import numpy as np
import pytest

from repro.core.assertion import FunctionAssertion
from repro.core.consistency import ConsistencySpec, generate_assertions
from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.core.types import make_stream

#: Seeds for the property-style sweep (acceptance floor is 20 streams).
SEEDS = list(range(24))

COLORS = ("red", "green", "blue")


def build_database() -> AssertionDatabase:
    """All four assertion families over dict outputs ``{id, color}``."""
    database = AssertionDatabase()
    # 1. Per-item function assertions.
    database.add(FunctionAssertion(lambda inp, outs: float(len(outs) > 2), "crowded"))
    database.add(
        FunctionAssertion(
            lambda inp, outs: float(sum(1 for o in outs if o["color"] == "red")),
            "red_count",
        )
    )
    # 2. Windowed function assertions (two distinct lookbacks).
    database.add(
        FunctionAssertion(
            lambda ins, outs: float(sum(len(o) for o in outs) > 6),
            "busy_w3",
            window=3,
        )
    )
    database.add(
        FunctionAssertion(
            lambda ins, outs: float(len(outs) == 5 and len(outs[0]) == len(outs[-1])),
            "echo_w5",
            window=5,
        )
    )
    # 3 + 4. Consistency assertions sharing one spec: one attribute key,
    # all three temporal modes as separately-named assertions.
    spec = ConsistencySpec(
        id_fn=lambda o: o.get("id"),
        attrs_fn=lambda o: {"color": o["color"]},
        temporal_threshold=2.5,
        name="track",
    )
    for assertion in generate_assertions(
        spec, attr_keys=["color"], temporal_modes=["gap", "run", "both"]
    ):
        database.add(assertion)
    return database


def random_stream(seed: int) -> list:
    """A seeded random stream exercising flicker, churn, and attr flips."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 80))
    outputs, timestamps = [], []
    t = 0.0
    for _ in range(n):
        t += float(rng.uniform(0.4, 2.2))
        timestamps.append(t)
        outs = []
        for _ in range(int(rng.integers(0, 4))):
            identifier = int(rng.integers(0, 5)) if rng.random() > 0.15 else None
            outs.append({"id": identifier, "color": str(rng.choice(COLORS))})
        outputs.append(outs)
    return make_stream(outputs, timestamps=timestamps)


def offline_report(items):
    return OMG(build_database(), window_size=4096).monitor(items)


def feed_observe(items, records=None) -> OMG:
    """Feed item by item; ``records`` collects what ``observe`` returns."""
    omg = OMG(build_database(), window_size=4096)
    for item in items:
        fresh = omg.observe(None, list(item.outputs), timestamp=item.timestamp)
        if records is not None:
            records.extend(fresh)
    return omg


def feed_observe_batch(items, seed: int, records=None) -> OMG:
    """Feed in random-size chunks (1–8 items) via ``observe_batch``;
    ``records`` collects each chunk's fresh records."""
    omg = OMG(build_database(), window_size=4096)
    rng = np.random.default_rng(seed + 10_000)
    pos = 0
    while pos < len(items):
        chunk = items[pos : pos + int(rng.integers(1, 9))]
        report = omg.observe_batch(
            None,
            [list(item.outputs) for item in chunk],
            timestamps=[item.timestamp for item in chunk],
        )
        if records is not None:
            records.extend(report.records)
        pos += len(chunk)
    return omg


class TestOnlineOfflineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_observe_matches_monitor(self, seed):
        items = random_stream(seed)
        offline = offline_report(items)
        online = feed_observe(items).online_report()
        assert online.assertion_names == offline.assertion_names
        np.testing.assert_array_equal(online.severities, offline.severities)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_observe_batch_matches_monitor(self, seed):
        items = random_stream(seed)
        offline = offline_report(items)
        online = feed_observe_batch(items, seed).online_report()
        np.testing.assert_array_equal(online.severities, offline.severities)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_single_and_batch_records_identical(self, seed):
        """Fire records (incl. retroactive revisions) agree across paths."""
        items = random_stream(seed)
        key = lambda r: (r.item_index, r.assertion_name, r.severity)
        single, batched = [], []
        feed_observe(items, single)
        feed_observe_batch(items, seed, batched)
        assert list(map(key, single)) == list(map(key, batched))

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_streaming_newest_records_match_legacy_for_function_assertions(self, seed):
        """Per-item/windowed fires agree step-by-step with a history replay.

        The reference for each step is the newest row of the offline
        monitor over the stream prefix so far: what a runtime that
        re-evaluates its whole history on every item reports. Consistency
        assertions are excluded: such a replay can only attribute
        severity to the newest item, so it silently drops gap/run
        violations; the streaming engine reports them retroactively (and
        is checked against the offline monitor above).
        """
        items = random_stream(seed)
        offline = OMG(build_database(), window_size=4096)
        streaming = OMG(build_database(), window_size=4096)
        functional = {"crowded", "red_count", "busy_w3", "echo_w5"}
        key = lambda r: (r.assertion_name, r.item_index, r.severity)
        for step, item in enumerate(items):
            newest = offline.monitor(items[: step + 1]).records
            got_streaming = streaming.observe(
                None, list(item.outputs), timestamp=item.timestamp
            )
            assert sorted(
                key(r)
                for r in newest
                if r.assertion_name in functional and r.item_index == item.index
            ) == sorted(key(r) for r in got_streaming if r.assertion_name in functional)


TEMPORAL = ["track:temporal:gap", "track:temporal:run", "track:temporal"]


def feed_with_temporal_gap(items, a: int, b: int, snapshot: bool) -> OMG:
    """Feed ``items`` with the temporal assertions disabled for
    ``items[a:b]``; with ``snapshot``, the monitor is snapshotted while
    they are disabled and a fresh one restored (through JSON) before
    they are re-enabled."""
    def build() -> OMG:
        omg = OMG(build_database(), window_size=4096)
        for name in TEMPORAL:
            omg.database.disable(name)
        return omg

    omg = OMG(build_database(), window_size=4096)
    for k, item in enumerate(items):
        if k == a:
            for name in TEMPORAL:
                omg.database.disable(name)
        if k == b:
            if snapshot:
                payload = json.loads(json.dumps(omg.snapshot()))
                omg = build()
                omg.restore(payload)
            for name in TEMPORAL:
                omg.database.enable(name)
        omg.observe(None, list(item.outputs), timestamp=item.timestamp)
    return omg


class TestDisableEnableAcrossSnapshot:
    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_temporal_columns_skip_the_disabled_items(self, seed):
        """Re-enabled temporal evaluators resume at a later item index,
        so each maps positions through a second run-length segment. Their
        columns equal the offline monitor over the items they saw, at
        those items' indices; every other column equals the offline
        monitor over the whole stream; and a snapshot taken while they
        were disabled changes nothing."""
        items = random_stream(seed)
        a, b = len(items) // 3, 2 * len(items) // 3
        resumed = feed_with_temporal_gap(items, a, b, snapshot=True)
        uninterrupted = feed_with_temporal_gap(items, a, b, snapshot=False)
        report = resumed.online_report()
        np.testing.assert_array_equal(
            report.severities, uninterrupted.online_report().severities
        )

        seen = items[:a] + items[b:]
        offline_seen = offline_report(seen)
        offline_all = offline_report(items)
        for name in report.assertion_names:
            if name in TEMPORAL:
                expected = np.zeros(len(items))
                expected[[item.index for item in seen]] = offline_seen.column(name)
            else:
                expected = offline_all.column(name)
            np.testing.assert_array_equal(report.column(name), expected, err_msg=name)
        for name in TEMPORAL:
            evaluator = resumed._streaming._evaluators[name]
            assert evaluator.get_state()["segments"] == [[0, 0], [a, b]]


#: The NaN every JSON decode returns: ``json.loads`` hands out one shared
#: float object for every ``NaN`` literal, so it is what a unit decoded
#: from the wire carries, and what a restored value dictionary holds.
WIRE_NAN = json.loads("NaN")

#: Attribute-value palettes for the value-dictionary edge cases, as
#: factories so a palette can hand out a fresh object per draw.
EDGE_PALETTES = {
    # NaN != NaN even for one object, so a NaN majority deviates from
    # itself; the group still counts it as one value.
    "shared_nan": (lambda: WIRE_NAN, lambda: "red", lambda: "blue"),
    # Distinct NaN objects are distinct dictionary values.
    "distinct_nan": (lambda: float("nan"), lambda: "red", lambda: None),
    # 1, 1.0 and True are one value; the first seen represents it.
    "equal_numbers": (lambda: 1, lambda: 1.0, lambda: True, lambda: 2, lambda: None),
    "none_and_tuples": (lambda: None, lambda: (1, "a"), lambda: ("b",), lambda: (), lambda: 0),
}


def edge_stream(palette: str, seed: int) -> list:
    """A seeded stream over three identifiers drawing colours from
    ``EDGE_PALETTES[palette]``, dense enough that majorities flip."""
    draws = EDGE_PALETTES[palette]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 30))
    outputs = [
        [
            {"id": int(rng.integers(0, 3)), "color": draws[int(rng.integers(0, len(draws)))]()}
            for _ in range(int(rng.integers(0, 3)))
        ]
        for _ in range(n)
    ]
    return make_stream(outputs, timestamps=[0.7 * k for k in range(n)])


def observe_all(omg: OMG, items) -> list:
    """Observe ``items``; one list of fresh records per item."""
    return [omg.observe(None, list(i.outputs), timestamp=i.timestamp) for i in items]


class TestValueDictionaryEdgeCases:
    """Values that dict equality and ``!=`` treat unusually keep online
    == offline and restored == uninterrupted."""

    @pytest.mark.parametrize("palette", sorted(EDGE_PALETTES))
    @pytest.mark.parametrize("seed", range(6))
    def test_online_matches_monitor(self, palette, seed):
        items = edge_stream(palette, seed)
        online = feed_observe(items).online_report()
        np.testing.assert_array_equal(online.severities, offline_report(items).severities)

    @pytest.mark.parametrize("palette", sorted(EDGE_PALETTES))
    @pytest.mark.parametrize("seed", range(6))
    def test_restore_at_every_cut_continues_bit_identically(self, palette, seed):
        items = edge_stream(palette, seed)
        uninterrupted = OMG(build_database(), window_size=4096)
        expected = observe_all(uninterrupted, items)
        for cut in range(len(items) + 1):
            first = OMG(build_database(), window_size=4096)
            observe_all(first, items[:cut])
            resumed = OMG(build_database(), window_size=4096)
            resumed.restore(json.loads(json.dumps(first.snapshot())))
            assert observe_all(resumed, items[cut:]) == expected[cut:], cut
            np.testing.assert_array_equal(
                resumed.online_report().severities,
                uninterrupted.online_report().severities,
                err_msg=f"cut {cut}",
            )

    def test_group_state_is_a_value_dictionary_plus_coded_columns(self):
        omg = OMG(build_database(), window_size=4096)
        for pos, color in enumerate(["blue", "red", "red", "red", "blue", "blue"]):
            omg.observe(None, [{"id": 7, "color": color}], timestamp=float(pos))
        omg.observe(None, [{"id": 7, "color": "red"}] * 2, timestamp=6.0)
        state = omg._streaming._evaluators["track:attr:color"].get_state()
        # Indices 0..6 with item 6 twice, delta coded; codes run-length coded.
        assert state == {
            "groups": [[7, ["blue", "red"], [0, 1, 1, 1, 1, 1, 1, 0], [0, 1, 1, 3, 0, 2, 1, 2]]]
        }


class TestRetroactiveAttribution:
    def test_flicker_gap_is_attributed_to_gap_items(self):
        """A gap violation lands on the missing items once the id returns."""
        omg = OMG(build_database(), window_size=4096)
        frames = [[{"id": 1, "color": "red"}], [], [{"id": 1, "color": "red"}]]
        records = []
        for pos, outs in enumerate(frames):
            records.extend(omg.observe(None, outs, timestamp=float(pos)))
        gap = [r for r in records if r.assertion_name == "track:temporal:gap"]
        assert [r.item_index for r in gap] == [1]
        np.testing.assert_array_equal(
            omg.online_report().column("track:temporal:gap"), [0.0, 1.0, 0.0]
        )

    def test_short_run_is_attributed_when_it_ends(self):
        """A short interior run is flagged on the run items at disappearance."""
        omg = OMG(build_database(), window_size=4096)
        frames = [[], [{"id": 2, "color": "red"}], []]
        records = []
        for pos, outs in enumerate(frames):
            records.extend(omg.observe(None, outs, timestamp=float(pos)))
        run = [r for r in records if r.assertion_name == "track:temporal:run"]
        assert [r.item_index for r in run] == [1]

    def test_majority_flip_revises_earlier_item(self):
        """When the majority changes, earlier severities are revised."""
        omg = OMG(build_database(), window_size=4096)
        # blue, blue, red, red, red → after item 4 the majority is red and
        # items 0/1 (blue) become the deviants.
        for pos, color in enumerate(["blue", "blue", "red", "red", "red"]):
            omg.observe(None, [{"id": 3, "color": color}], timestamp=float(pos))
        column = omg.online_report().column("track:attr:color")
        np.testing.assert_array_equal(column, [1.0, 1.0, 0.0, 0.0, 0.0])
        offline = offline_report(
            make_stream(
                [[{"id": 3, "color": c}] for c in ["blue", "blue", "red", "red", "red"]],
                timestamps=[0.0, 1.0, 2.0, 3.0, 4.0],
            )
        )
        np.testing.assert_array_equal(column, offline.column("track:attr:color"))

    def test_item_severity_that_returns_to_zero_is_dropped(self):
        """a, b, b, a, a: item 0 deviates, then not; its entry goes."""
        omg = OMG(build_database(), window_size=4096)
        for pos, color in enumerate(["a", "b", "b", "a", "a"]):
            omg.observe(None, [{"id": 3, "color": color}], timestamp=float(pos))
        evaluator = omg._streaming._evaluators["track:attr:color"]
        assert evaluator._item_sev == {1: 1, 2: 1}
        np.testing.assert_array_equal(
            omg.online_report().column("track:attr:color"), [0.0, 1.0, 1.0, 0.0, 0.0]
        )


class TestEngineBehavior:
    def test_observe_batch_report_covers_chunk(self):
        omg = OMG(build_database(), window_size=4096)
        items = random_stream(3)
        half = len(items) // 2
        omg.observe_batch(
            None,
            [list(i.outputs) for i in items[:half]],
            timestamps=[i.timestamp for i in items[:half]],
        )
        report = omg.observe_batch(
            None,
            [list(i.outputs) for i in items[half:]],
            timestamps=[i.timestamp for i in items[half:]],
        )
        assert report.n_items == len(items) - half
        full = omg.online_report()
        np.testing.assert_array_equal(report.severities, full.severities[half:])

    def test_reset_clears_streaming_state(self):
        omg = OMG(build_database(), window_size=4096)
        for item in random_stream(5):
            omg.observe(None, list(item.outputs), timestamp=item.timestamp)
        omg.reset()
        assert omg.online_report().n_items == 0
        # Replaying the same stream after reset gives the same matrix.
        items = random_stream(6)
        for item in items:
            omg.observe(None, list(item.outputs), timestamp=item.timestamp)
        np.testing.assert_array_equal(
            omg.online_report().severities, offline_report(items).severities
        )

    def test_replaced_assertion_does_not_inherit_old_fires(self):
        """``replace=True`` re-registration restarts that name's log."""
        omg = OMG(window_size=4)
        omg.add_assertion(lambda inp, outs: float(len(outs) > 0), "check")
        for _ in range(10):
            omg.observe(None, [1])  # fires on every item
        omg.add_assertion(lambda inp, outs: 0.0, "check", replace=True)
        omg.observe(None, [1])
        report = omg.online_report()
        # Only the warm-up window could ever be re-attributed, and the
        # replacement assertion never fires: the column must be empty.
        np.testing.assert_array_equal(report.column("check"), np.zeros(11))

    def test_late_registered_assertion_joins_the_stream(self):
        """Assertions added mid-stream are warmed up on recent history."""
        omg = OMG(window_size=64)
        omg.add_assertion(lambda inp, outs: float(len(outs) > 2), "crowded")
        omg.observe(None, [1, 2, 3])
        omg.add_assertion(lambda inp, outs: float(len(outs) == 0), "empty")
        fresh = omg.observe(None, [])
        assert [r.assertion_name for r in fresh] == ["empty"]
        report = omg.online_report()
        assert report.fire_counts() == {"crowded": 1, "empty": 1}
