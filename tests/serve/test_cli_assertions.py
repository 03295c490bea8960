"""Subprocess tests for ``python -m repro assertions`` and ``--suite``.

The CI fast tier runs the lint happy path and the ``stream --suite``
round trip (dump a built-in suite → reload it from disk → identical
fleet report).
"""

import json

import pytest

from tests.experiments.test_cli import run_cli


class TestAssertionsCommand:
    def test_list_covers_all_builtin_suites(self):
        out = run_cli("assertions", "list").stdout
        for fragment in ("av-builtin", "ecg-builtin", "tvnews-builtin",
                         "video-builtin", "multibox", "flicker", "ECG",
                         "news:attr:identity"):
            assert fragment in out

    def test_list_json(self):
        payload = json.loads(run_cli("assertions", "list", "--json").stdout)
        by_target = {row["target"]: row for row in payload}
        assert set(by_target) == {"av", "ecg", "tvnews", "video"}
        assert by_target["video"]["enabled"] == ["multibox", "flicker", "appear"]

    def test_lint_builtin_suites_clean(self):
        out = run_cli("assertions", "lint").stdout
        assert out.count("OK") == 4

    def test_lint_flags_problems_with_nonzero_exit(self, tmp_path):
        # Hand-write a suite referencing a predicate nobody registers.
        suite = {
            "format": 1,
            "suite": {
                "__dataclass__": "AssertionSuite",
                "fields": {
                    "name": "broken",
                    "version": 1,
                    "domain": "",
                    "entries": {"__tuple__": [{
                        "__dataclass__": "SuiteEntry",
                        "fields": {
                            "spec": {
                                "__dataclass__": "PerItemSpec",
                                "fields": {
                                    "name": "ghost",
                                    "predicate": "no.such.predicate",
                                    "params": {},
                                    "description": "",
                                    "taxonomy_class": "domain knowledge",
                                },
                            },
                            "tags": {"__tuple__": []},
                            "enabled": True,
                            "author": "",
                            "weight": 1.0,
                        },
                    }]},
                },
            },
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(suite))
        proc = run_cli("assertions", "lint", str(path), check=False)
        assert proc.returncode == 1
        assert "no.such.predicate" in proc.stdout

    def test_show_json_is_loadable_and_diffs_clean(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(run_cli("assertions", "show", "tvnews", "--json").stdout)
        assert run_cli("assertions", "lint", str(path)).stdout.strip().endswith("OK")
        diff = json.loads(
            run_cli("assertions", "diff", "tvnews", str(path), "--json").stdout
        )
        assert diff["added"] == diff["removed"] == diff["changed"] == []

    def test_unknown_target_lists_domains(self):
        proc = run_cli("assertions", "show", "nope", check=False)
        assert proc.returncode != 0
        assert "tvnews" in proc.stderr

    def test_show_reports_uncompilable_suite_without_traceback(self, tmp_path):
        # A generic (domain-less) suite naming a predicate nobody
        # registers must fail with the CLI's `error:` convention, not a
        # raw KeyError traceback.
        from repro.core.spec import AssertionSuite, PerItemSpec, SuiteEntry, save_suite

        path = str(tmp_path / "ghost.json")
        save_suite(
            AssertionSuite(
                name="ghost-suite",
                entries=(
                    SuiteEntry(
                        spec=PerItemSpec(name="ghost", predicate="no.such.predicate")
                    ),
                ),
            ),
            path,
        )
        proc = run_cli("assertions", "show", path, check=False)
        assert proc.returncode != 0
        assert "error:" in proc.stderr and "does not compile" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestStreamSuiteFlag:
    def test_suite_file_round_trip_is_bit_identical(self, tmp_path):
        """Satellite: dump suite → reload → identical fleet report."""
        path = tmp_path / "suite.json"
        path.write_text(run_cli("assertions", "show", "tvnews", "--json").stdout)
        base = run_cli(
            "stream", "tvnews", "--streams", "2", "--items", "3",
            "--seed", "0", "--json",
        ).stdout
        via_file = run_cli(
            "stream", "tvnews", "--streams", "2", "--items", "3",
            "--seed", "0", "--suite", str(path), "--json",
        ).stdout
        assert json.loads(base) == json.loads(via_file)

    def test_snapshot_resume_pins_the_suite(self, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(run_cli("assertions", "show", "tvnews", "--json").stdout)
        snap = str(tmp_path / "fleet.json")
        run_cli("stream", "tvnews", "--streams", "2", "--items", "1",
                "--suite", str(suite_path), "--snapshot", snap)
        # resuming with the same suite is fine …
        run_cli("stream", "tvnews", "--items", "1",
                "--suite", str(suite_path), "--snapshot", snap)
        # … and without the flag too (the snapshot carries it)
        run_cli("stream", "tvnews", "--items", "1", "--snapshot", snap)

    @pytest.mark.parametrize("command", ["stream", "serve"])
    def test_snapshot_resume_rejects_a_different_suite(self, tmp_path, command):
        snap = str(tmp_path / "fleet.json")
        run_cli("stream", "tvnews", "--streams", "2", "--items", "1",
                "--snapshot", snap)
        other = tmp_path / "av.json"
        other.write_text(run_cli("assertions", "show", "tvnews", "--json").stdout)
        # mutate the exported suite so it genuinely differs
        payload = json.loads(other.read_text())
        payload["suite"]["fields"]["version"] = 9
        other.write_text(json.dumps(payload))
        proc = run_cli(command, "tvnews", "--suite", str(other),
                       "--snapshot", snap, check=False)
        assert proc.returncode != 0
        assert "conflicts with the snapshot" in proc.stderr
