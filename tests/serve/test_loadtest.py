"""The load harness: sweep mechanics, the accounting ledger, and the
BENCH_serve.json payload shape (kept fast via the deterministic
``items`` mode; the real timed sweep lives in benchmarks/)."""

import json

import pytest

from repro.serve import LoadTestConfig, run_loadtest, write_bench
from repro.serve.loadtest import LoadTestPoint


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="mode"):
            LoadTestConfig(mode="sideways")
        with pytest.raises(ValueError, match="client_counts"):
            LoadTestConfig(client_counts=())
        with pytest.raises(ValueError, match="client_counts"):
            LoadTestConfig(client_counts=(1, 0))
        with pytest.raises(ValueError, match="duration"):
            LoadTestConfig(duration=0.0)
        with pytest.raises(ValueError, match="warmup"):
            LoadTestConfig(warmup=-1.0)
        with pytest.raises(ValueError, match="closed-loop"):
            LoadTestConfig(mode="open", items=5)
        with pytest.raises(ValueError, match="rate"):
            LoadTestConfig(mode="open", rate=0.0)


class TestClosedLoopSweep:
    def test_items_mode_is_deterministic_work_with_full_ledger(self):
        config = LoadTestConfig(
            client_counts=(1, 2), items=10, warmup=0.0, pool_units=4
        )
        echoed = []
        result = run_loadtest(config, echo=echoed.append)
        assert [p.clients for p in result.points] == [1, 2]
        assert len(echoed) == 2 and all(
            line.startswith("BENCH_SERVE ") for line in echoed
        )
        for point in result.points:
            assert point.offered == point.clients * 10  # exactly the work asked
            assert point.ledger_ok
            assert point.accepted == point.offered  # closed loop never overloads
            assert point.completed + point.failed == point.accepted
            assert point.failed == 0
            assert point.n_samples == point.accepted  # warmup=0: all measured
            assert point.items_per_s > 0
            lat = point.latency_ms
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_warmup_excludes_early_latencies(self):
        # A warmup longer than the whole run leaves zero samples — the
        # percentiles degrade to None instead of crashing.
        config = LoadTestConfig(
            client_counts=(1,), items=3, warmup=60.0, pool_units=2
        )
        point = run_loadtest(config).points[0]
        assert point.offered == 3 and point.ledger_ok
        assert point.n_samples == 0
        assert point.latency_ms["p50"] is None


class TestOpenLoop:
    def test_open_loop_tracks_offered_rate_and_ledger(self):
        config = LoadTestConfig(
            client_counts=(2,), mode="open", rate=150.0,
            duration=0.4, warmup=0.0, pool_units=4,
        )
        point = run_loadtest(config).points[0]
        # ~rate * duration sent (scheduling jitter allowed), all accounted
        assert 0.4 * config.rate * config.duration <= point.offered
        assert point.ledger_ok
        assert point.completed + point.failed == point.accepted

    def test_saturation_rejects_explicitly_never_silently(self):
        config = LoadTestConfig(
            client_counts=(2,), mode="open", rate=2000.0, duration=0.4,
            warmup=0.0, pool_units=4, max_pending=3, max_delay=0.02,
        )
        point = run_loadtest(config).points[0]
        assert point.rejected > 0  # the bounded queue pushed back
        assert point.ledger_ok  # offered == accepted + rejected, exactly


class TestBenchPayload:
    def test_write_bench_payload_shape(self, tmp_path):
        config = LoadTestConfig(client_counts=(1,), items=4, warmup=0.0,
                                pool_units=2)
        result = run_loadtest(config)
        path = str(tmp_path / "BENCH_serve.json")
        payload = write_bench(result, path)
        with open(path) as handle:
            assert json.load(handle) == payload
        assert payload["bench"] == "serve_loadtest"
        assert payload["domain"] == "tvnews"
        assert payload["config"]["client_counts"] == [1]
        (point,) = payload["points"]
        assert point["ledger_ok"] is True
        for key in ("clients", "items_per_s", "latency_ms", "offered",
                    "accepted", "rejected", "completed", "failed"):
            assert key in point
        assert set(point["latency_ms"]) == {"p50", "p95", "p99", "mean", "max"}

    def test_summary_line_and_table_render(self):
        point = LoadTestPoint(
            clients=2, mode="closed", shards=2, elapsed=1.0, measured=1.0,
            n_samples=10, items_per_s=10.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5},
            offered=10, accepted=10, rejected=0, completed=10,
            failed=0, batches=4,
        )
        line = point.summary_line()
        assert "clients=2" in line and "p99_ms=3.00" in line
        assert "shards=2" in line
        broken = LoadTestPoint(
            clients=1, mode="open", shards=1, elapsed=1.0, measured=1.0,
            n_samples=0, items_per_s=0.0,
            latency_ms={"p50": None, "p95": None, "p99": None,
                        "mean": None, "max": None},
            offered=5, accepted=3, rejected=1,  # one unit vanished!
            completed=3, failed=0, batches=1,
        )
        assert not broken.ledger_ok
        assert "p50_ms=n/a" in broken.summary_line()
