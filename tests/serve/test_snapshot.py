"""Snapshot/restore: a checkpointed monitor (or a whole service fleet)
resumes bit-identically to an uninterrupted run, through real JSON."""

import json

import numpy as np
import pytest

from repro.core.runtime import SNAPSHOT_FORMAT, SnapshotFormatError
from repro.domains.registry import get_domain
from repro.serve import (
    MonitorService,
    load_service_snapshot,
    save_service_snapshot,
)
from tests.serve.test_service import (
    SyntheticDomain,
    assert_reports_equal,
    raw_units,
)


def json_round_trip(payload):
    return json.loads(json.dumps(payload))


class TestOMGSnapshot:
    def make_monitor(self):
        return SyntheticDomain().build_monitor()

    def feed(self, monitor, raws, start=0, stop=None) -> list:
        """Observe ``raws[start:stop]``; the fire records returned."""
        records = []
        for raw in raws[start:stop]:
            records.extend(monitor.observe(None, raw))
        return records

    def test_snapshot_restore_continue_is_bit_identical(self):
        raws = raw_units(7, 60)
        for cut in (0, 1, 17, 59, 60):
            uninterrupted = self.make_monitor()
            all_records = self.feed(uninterrupted, raws)

            first = self.make_monitor()
            records = self.feed(first, raws, stop=cut)
            payload = json_round_trip(first.snapshot())

            resumed = self.make_monitor()
            resumed.restore(payload)
            records += self.feed(resumed, raws, start=cut)

            a, b = uninterrupted.online_report(), resumed.online_report()
            assert_reports_equal(a, b)
            assert resumed.n_observed == uninterrupted.n_observed
            assert records == all_records

    def test_restore_validates_window_size(self):
        monitor = self.make_monitor()
        payload = monitor.snapshot()
        payload["window_size"] = 99
        with pytest.raises(ValueError, match="window_size"):
            monitor.restore(payload)

    def test_restore_validates_assertions(self):
        monitor = self.make_monitor()
        payload = monitor.snapshot()
        other = self.make_monitor()
        other.add_assertion(lambda inp, outputs: 0.0, name="extra")
        with pytest.raises(ValueError, match="assertions"):
            other.restore(payload)

    def test_restore_validates_format(self):
        monitor = self.make_monitor()
        payload = monitor.snapshot()
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            monitor.restore(payload)

    def test_format_1_payload_is_refused_by_name(self):
        # Format 1 carried a copy of every fire record and a per-item
        # temporal index map; later formats read neither.
        monitor = self.make_monitor()
        self.feed(monitor, raw_units(5, 12))
        payload = json_round_trip(monitor.snapshot())
        assert payload["format"] == SNAPSHOT_FORMAT == 3
        payload["format"] = 1
        payload["online_records"] = []
        with pytest.raises(SnapshotFormatError, match="format 1") as err:
            self.make_monitor().restore(payload)
        assert (err.value.found, err.value.supported) == (1, SNAPSHOT_FORMAT)

        service = MonitorService(SyntheticDomain())
        service.ingest("s0", raw_units(5, 1)[0])
        old = json_round_trip(service.snapshot())
        old["sessions"][0][1]["monitor"]["format"] = 1
        with pytest.raises(SnapshotFormatError, match="format 1"):
            MonitorService(SyntheticDomain()).restore(old)

    def test_format_2_payload_is_refused_by_name(self):
        # Format 2 wrote the severity log and temporal item severities as
        # [index, value] pairs; format 3 reads index and value columns.
        monitor = self.make_monitor()
        self.feed(monitor, raw_units(5, 12))
        payload = json_round_trip(monitor.snapshot())
        streaming = payload["streaming"]
        streaming["log"] = {
            name: [[i, s] for i, s in monitor._streaming._log[name].items()]
            for name in streaming["log"]
        }
        payload["format"] = 2
        with pytest.raises(SnapshotFormatError, match="format 2") as err:
            self.make_monitor().restore(payload)
        assert (err.value.found, err.value.supported) == (2, SNAPSHOT_FORMAT)

        service = MonitorService(SyntheticDomain())
        service.ingest("s0", raw_units(5, 1)[0])
        old = json_round_trip(service.snapshot())
        old["sessions"][0][1]["monitor"]["format"] = 2
        with pytest.raises(SnapshotFormatError, match="format 2"):
            MonitorService(SyntheticDomain()).restore(old)

    def test_pre_stream_snapshot_restores_empty_state(self):
        monitor = self.make_monitor()
        payload = json_round_trip(monitor.snapshot())
        resumed = self.make_monitor()
        resumed.restore(payload)
        raws = raw_units(3, 10)
        self.feed(resumed, raws)
        fresh = self.make_monitor()
        self.feed(fresh, raws)
        assert_reports_equal(resumed.online_report(), fresh.online_report())


class TestServiceSnapshot:
    def test_fleet_snapshot_mid_stream(self):
        units = {f"s{k}": raw_units(40 + k, 24) for k in range(3)}

        uninterrupted = MonitorService(SyntheticDomain())
        checkpointed = MonitorService(SyntheticDomain())
        for i in range(12):
            pairs = [(sid, units[sid][i]) for sid in units]
            uninterrupted.ingest_batch(pairs)
            checkpointed.ingest_batch(pairs)

        payload = json_round_trip(checkpointed.snapshot())
        resumed = MonitorService(SyntheticDomain())
        resumed.restore(payload)
        assert resumed.stream_ids() == checkpointed.stream_ids()

        for i in range(12, 24):
            pairs = [(sid, units[sid][i]) for sid in units]
            uninterrupted.ingest_batch(pairs)
            resumed.ingest_batch(pairs)
        for sid in units:
            assert_reports_equal(uninterrupted.report(sid), resumed.report(sid))
        np.testing.assert_array_equal(
            uninterrupted.fleet_report().aggregate.severities,
            resumed.fleet_report().aggregate.severities,
        )

    def test_restore_enforces_the_lru_bound(self):
        from repro.serve import ServiceConfig

        wide = MonitorService(SyntheticDomain())
        raw = raw_units(0, 1)[0]
        for k in range(5):
            wide.ingest(f"s{k}", raw)
        payload = json_round_trip(wide.snapshot())

        narrow = MonitorService(
            SyntheticDomain(), config=ServiceConfig(max_sessions=2)
        )
        narrow.restore(payload)
        assert len(narrow) == 2
        # the most-recently-used sessions survive
        assert narrow.stream_ids() == ["s3", "s4"]

    def test_restore_evicts_replaced_live_sessions_through_hooks(self):
        source = MonitorService(SyntheticDomain())
        source.ingest("persisted", raw_units(0, 1)[0])
        payload = json_round_trip(source.snapshot())

        warm = MonitorService(SyntheticDomain())
        warm.ingest("live-a", raw_units(1, 1)[0])
        warm.ingest("live-b", raw_units(2, 1)[0])
        evicted = []
        warm.on_evict(lambda session: evicted.append(session.stream_id))
        warm.restore(payload)
        assert sorted(evicted) == ["live-a", "live-b"]
        assert warm.stream_ids() == ["persisted"]

    def test_restore_rejects_wrong_domain(self):
        service = MonitorService(SyntheticDomain())
        payload = service.snapshot()
        other = MonitorService("tvnews")
        with pytest.raises(ValueError, match="domain"):
            other.restore(payload)

    def test_refused_restore_leaves_the_suite_template_alone(self):
        source = MonitorService("tvnews")
        domain = source.domain
        units = domain.iter_stream(domain.build_world(1))
        for _ in range(3):
            source.ingest("s", next(units))
        suite = domain.assertion_suite()
        source.apply_suite(suite.without(suite.entries[0].name))
        payload = json_round_trip(source.snapshot())
        assert payload["suite"] is not None
        payload["sessions"][0][1]["monitor"]["format"] = 2

        target = MonitorService("tvnews")
        names = target.assertion_names()
        with pytest.raises(SnapshotFormatError):
            target.restore(payload)
        assert target.suite is None
        assert target.assertion_names() == names
        fresh = target.session("fresh")
        assert fresh.suite is None
        assert fresh.monitor.database.names() == names

    def test_snapshot_file_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        service = MonitorService("tvnews")
        domain = service.domain
        stream = domain.iter_stream(domain.build_world(seed=4))
        raws = [next(stream) for _ in range(6)]
        for raw in raws[:3]:
            service.ingest("feed", raw)
        save_service_snapshot(service, path, extra={"cli": {"seed": 4}})

        restored = load_service_snapshot(path)
        for raw in raws[3:]:
            service.ingest("feed", raw)
            restored.ingest("feed", raw)
        assert_reports_equal(service.report("feed"), restored.report("feed"))

    def test_load_rejects_non_snapshot_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="snapshot"):
            load_service_snapshot(str(path))

    def test_load_rejects_omg_level_snapshots(self, tmp_path):
        # OMG.snapshot() shares the format tag but is not a fleet
        # snapshot; it must fail cleanly, not KeyError deep in restore.
        path = tmp_path / "omg.json"
        path.write_text(json.dumps(SyntheticDomain().build_monitor().snapshot()))
        with pytest.raises(ValueError, match="snapshot"):
            load_service_snapshot(str(path))
        with pytest.raises(ValueError, match="OMG-level"):
            MonitorService(SyntheticDomain()).restore(json.loads(path.read_text()))

    def test_extra_keys_cannot_shadow_payload(self, tmp_path):
        service = MonitorService(SyntheticDomain())
        with pytest.raises(ValueError, match="collides"):
            save_service_snapshot(
                service, str(tmp_path / "x.json"), extra={"domain": "zzz"}
            )


class TestVideoDomainSnapshot:
    """The video domain carries live tracker state across checkpoints."""

    def flicker_frames(self):
        from repro.geometry.box2d import make_box

        return (
            [[make_box(10 + t, 20, 10, 8, label="car", score=0.9)] for t in range(3)]
            + [[]]
            + [[make_box(14 + t, 20, 10, 8, label="car", score=0.9)] for t in range(3)]
        )

    def domain_config(self):
        from repro.domains.video.domain import VideoDomainConfig
        from repro.domains.video.pipeline import VideoPipelineConfig

        return VideoDomainConfig(
            pipeline=VideoPipelineConfig(fps=1.0, temporal_threshold=3.0)
        )

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_tracker_state_survives_snapshot(self, cut):
        frames = self.flicker_frames()
        cfg = self.domain_config()

        uninterrupted = MonitorService("video", domain_config=cfg)
        for frame in frames:
            uninterrupted.ingest("cam", frame)

        first = MonitorService("video", domain_config=cfg)
        for frame in frames[:cut]:
            first.ingest("cam", frame)
        payload = json_round_trip(first.snapshot())
        resumed = MonitorService.from_snapshot(payload, domain_config=cfg)
        for frame in frames[cut:]:
            resumed.ingest("cam", frame)

        assert_reports_equal(uninterrupted.report("cam"), resumed.report("cam"))
        # the flicker retroactively lands on the gap frame in both
        assert resumed.report("cam").flagged_indices("flicker").tolist() == [3]

    def test_matches_offline_pipeline_monitor(self):
        frames = self.flicker_frames()
        cfg = self.domain_config()
        service = MonitorService("video", domain_config=cfg)
        for frame in frames:
            service.ingest("cam", frame)
        offline = get_domain("video", cfg).build_pipeline().monitor(frames)
        np.testing.assert_array_equal(
            service.report("cam").severities, offline.report.severities
        )


class TestEcgDomainSnapshot:
    def test_offset_state_survives_snapshot(self):
        service = MonitorService("ecg")
        domain = service.domain
        stream = domain.iter_stream(domain.build_world(seed=6))
        raws = [next(stream) for _ in range(4)]

        uninterrupted = MonitorService("ecg")
        for raw in raws:
            uninterrupted.ingest("p", raw)

        for raw in raws[:2]:
            service.ingest("p", raw)
        payload = json_round_trip(service.snapshot())
        resumed = MonitorService.from_snapshot(payload)
        for raw in raws[2:]:
            resumed.ingest("p", raw)
        assert_reports_equal(uninterrupted.report("p"), resumed.report("p"))
