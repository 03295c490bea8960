"""Subprocess smoke tests for ``python -m repro stream`` (the CI fast
tier runs this file's happy path)."""

import importlib
import json

import pytest

from repro.__main__ import main
from tests.experiments.test_cli import run_cli


@pytest.mark.parametrize("command", ["stream", "serve", "fleet", "improve"])
def test_unknown_domain_fails_cleanly(command):
    with pytest.raises(SystemExit, match="unknown domain 'nope'; registered domains"):
        main([command, "nope"])


def test_loadtest_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["loadtest", "tvnews"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'loadtest'" in capsys.readouterr().err


def test_the_load_harness_is_gone_from_the_package():
    with pytest.raises(ImportError):
        from repro.serve import run_loadtest  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.loadtest")


class TestStreamCommand:
    def test_tvnews_smoke(self):
        out = run_cli(
            "stream", "tvnews", "--streams", "2", "--items", "3", "--seed", "0"
        ).stdout
        assert "tvnews-0" in out and "tvnews-1" in out
        assert "TOTAL" in out

    def test_json_output(self):
        payload = json.loads(
            run_cli(
                "stream", "tvnews", "--streams", "2", "--items", "2", "--json"
            ).stdout
        )
        assert payload["domain"] == "tvnews"
        assert set(payload["streams"]) == {"tvnews-0", "tvnews-1"}
        assert payload["fleet"]["n_items"] == sum(
            s["n_items"] for s in payload["streams"].values()
        )

    def test_snapshot_resume_accumulates(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        first = json.loads(
            run_cli(
                "stream", "tvnews", "--streams", "2", "--items", "2",
                "--seed", "5", "--snapshot", path, "--json",
            ).stdout
        )
        assert not first["resumed"]
        second = json.loads(
            run_cli(
                "stream", "tvnews", "--streams", "2", "--items", "2",
                "--seed", "5", "--snapshot", path, "--json",
            ).stdout
        )
        assert second["resumed"]
        for stream_id in first["streams"]:
            assert (
                second["streams"][stream_id]["n_raw"]
                == first["streams"][stream_id]["n_raw"] + 2
            )
            assert (
                second["streams"][stream_id]["n_items"]
                > first["streams"][stream_id]["n_items"]
            )

    def test_resume_rejects_conflicting_pinned_flags(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        run_cli("stream", "tvnews", "--streams", "2", "--items", "1",
                "--seed", "5", "--snapshot", path)
        conflict = run_cli(
            "stream", "tvnews", "--items", "1", "--seed", "9",
            "--snapshot", path, check=False,
        )
        assert conflict.returncode != 0
        assert "--seed 9 conflicts" in conflict.stderr
        # dropping the pinned flags resumes fine
        run_cli("stream", "tvnews", "--items", "1", "--snapshot", path)

    def test_resume_requires_cli_provenance(self, tmp_path):
        import subprocess, sys, os
        from pathlib import Path

        import repro

        # a snapshot written by library code (no "cli" block)
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = str(tmp_path / "lib.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c",
             "import sys;"
             "from repro.serve import MonitorService, save_service_snapshot;"
             f"save_service_snapshot(MonitorService('tvnews'), {path!r})"],
            check=True, env=env,
        )
        proc = run_cli("stream", "tvnews", "--snapshot", path, check=False)
        assert proc.returncode != 0
        assert "provenance" in proc.stderr

    def test_unknown_domain_fails_listing_names(self):
        proc = run_cli("stream", "nope", check=False)
        assert proc.returncode != 0
        assert "tvnews" in proc.stderr

    def test_bad_counts_rejected(self):
        assert run_cli("stream", "tvnews", "--streams", "0", check=False).returncode != 0
        assert run_cli("stream", "tvnews", "--items", "0", check=False).returncode != 0
