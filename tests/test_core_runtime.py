"""Tests for the OMG runtime monitor."""

import numpy as np
import pytest

from repro.core.runtime import OMG
from repro.core.types import make_stream


def count_assertion(inp, outputs):
    return float(len(outputs) > 2)


class TestBatchMonitoring:
    def test_severity_matrix_shape_and_columns(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        omg.add_assertion(lambda i, o: float(len(o) == 0), "empty")
        report = omg.monitor_outputs([[1], [], [1, 2, 3]])
        assert report.severities.shape == (3, 2)
        assert report.assertion_names == ["many", "empty"]
        assert report.column("many").tolist() == [0.0, 0.0, 1.0]
        assert report.column("empty").tolist() == [0.0, 1.0, 0.0]

    def test_fire_counts_and_records(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        report = omg.monitor_outputs([[1, 2, 3], [1, 2, 3], [1]])
        assert report.fire_counts() == {"many": 2}
        assert len(report.records) == 2
        assert report.total_fires() == 2

    def test_flagged_indices(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        report = omg.monitor_outputs([[1], [1, 2, 3]])
        assert report.flagged_indices("many").tolist() == [1]
        assert report.flagged_indices().tolist() == [1]

    def test_unknown_column_raises(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        report = omg.monitor_outputs([[1]])
        with pytest.raises(KeyError):
            report.column("nope")

    def test_unknown_flagged_indices_raises(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        report = omg.monitor_outputs([[1]])
        with pytest.raises(KeyError, match="nope"):
            report.flagged_indices("nope")

    def test_monitor_rejects_negative_severity(self):
        omg = OMG()
        omg.add_assertion(lambda i, o: -1.0, "negative")
        with pytest.raises(ValueError, match="negative severity"):
            omg.monitor(make_stream([[1], [2]]))

    def test_decorator_registration(self):
        omg = OMG()

        @omg.assertion
        def always(inp, outputs):
            return 1.0

        report = omg.monitor_outputs([[1]])
        assert report.fire_counts() == {"always": 1}


class TestOnlineMonitoring:
    def test_observe_records_only_new_item(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        records = omg.observe(None, [1, 2, 3]) + omg.observe(None, [1])
        assert [r.item_index for r in records] == [0]

    def test_on_fire_callback(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        fired = []
        omg.on_fire(fired.append)
        omg.observe(None, [1, 2, 3])
        assert len(fired) == 1
        assert fired[0].assertion_name == "many"

    def test_window_bounded(self):
        omg = OMG(window_size=2)
        omg.add_assertion(count_assertion, "many")
        for _ in range(5):
            omg.observe(None, [1])
        assert len(omg._history) == 2

    def test_reset_clears_history(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        omg.observe(None, [1, 2, 3])
        omg.reset()
        assert omg.online_report().n_items == 0
        assert omg.observe(None, [1]) == []

    def test_timestamps_default_to_index(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        omg.observe(None, [1])
        omg.observe(None, [2])
        assert [i.timestamp for i in omg._history] == [0.0, 1.0]

    def test_reset_does_not_refire_actions_for_old_records(self):
        """Corrective actions fire once per fresh record, never replayed."""
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        fired = []
        omg.on_fire(fired.append)
        omg.observe(None, [1, 2, 3])
        assert len(fired) == 1
        omg.reset()
        assert len(fired) == 1  # reset itself triggers nothing
        omg.observe(None, [1])  # benign item: no new fires either
        assert len(fired) == 1
        omg.observe(None, [1, 2, 3])
        assert len(fired) == 2
        # the post-reset record is attributed to a restarted index
        assert fired[1].item_index == 1

    def test_observe_indices_restart_after_reset(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        for _ in range(3):
            omg.observe(None, [1, 2, 3])
        omg.reset()
        records = omg.observe(None, [1, 2, 3])
        assert [r.item_index for r in records] == [0]
        assert omg.online_report().records == records
        assert [i.index for i in omg._history] == [0]


class TestConsistencyRegistration:
    def test_add_consistency_assertion_generates(self):
        omg = OMG()
        generated = omg.add_consistency_assertion(
            id_fn=lambda o: o["id"],
            attrs_fn=lambda o: {"cls": o["cls"]},
            temporal_threshold=2.0,
            attr_keys=["cls"],
        )
        assert len(generated) == 2  # one attribute + one temporal
        assert len(omg.database) == 2

    def test_empty_spec_raises(self):
        omg = OMG()
        with pytest.raises(ValueError):
            omg.add_consistency_assertion(id_fn=lambda o: o)

    def test_bad_assertion_output_shape_rejected(self):
        from repro.core.assertion import ModelAssertion

        class Broken(ModelAssertion):
            def evaluate_stream(self, items):
                return np.zeros(max(0, len(items) - 1))

        omg = OMG()
        omg.add_assertion(Broken("broken"))
        with pytest.raises(ValueError, match="shape"):
            omg.monitor(make_stream([[1], [2]]))


class TestMonitoringReportEdgeCases:
    """Satellite coverage: empty reports, unknown names, reset semantics."""

    def _empty_report(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        omg.add_assertion(lambda i, o: float(len(o) == 0), "empty")
        return omg.monitor(make_stream([]))

    def test_empty_report_shape(self):
        report = self._empty_report()
        assert report.n_items == 0
        assert report.severities.shape == (0, 2)
        assert report.records == []

    def test_empty_report_fire_counts_all_zero(self):
        report = self._empty_report()
        assert report.fire_counts() == {"many": 0, "empty": 0}
        assert report.total_fires() == 0

    def test_empty_report_flagged_indices_empty(self):
        report = self._empty_report()
        assert report.flagged_indices().tolist() == []
        assert report.flagged_indices("many").tolist() == []
        assert report.column("empty").shape == (0,)

    def test_empty_report_unknown_name_still_raises(self):
        report = self._empty_report()
        with pytest.raises(KeyError, match="nope"):
            report.column("nope")
        with pytest.raises(KeyError, match="nope"):
            report.flagged_indices("nope")

    def test_fire_counts_after_reset(self):
        omg = OMG()
        omg.add_assertion(count_assertion, "many")
        omg.observe(None, [1, 2, 3])
        assert omg.online_report().fire_counts() == {"many": 1}
        omg.reset()
        # Post-reset the online report is empty: counts drop to zero.
        report = omg.online_report()
        assert report.n_items == 0
        assert report.fire_counts() == {"many": 0}
        # New observations count from scratch, not cumulatively.
        omg.observe(None, [1])
        omg.observe(None, [1, 2, 3])
        assert omg.online_report().fire_counts() == {"many": 1}
        assert omg.online_report().flagged_indices("many").tolist() == [1]
