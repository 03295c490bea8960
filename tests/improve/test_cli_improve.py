"""``python -m repro improve`` smoke tests (fast tier)."""

import json

import pytest

from repro.__main__ import main
from tests.experiments.test_cli import run_cli as cli


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestImproveCLI:
    def test_smoke_run_and_resume(self, capsys, tmp_path):
        snapshot = str(tmp_path / "loop.json")
        argv = [
            "improve", "ecg", "--rounds", "1", "--budget", "4",
            "--streams", "2", "--items-per-round", "4",
            "--snapshot", snapshot, "--json",
        ]
        code, out = run_cli(argv, capsys)
        assert code == 0
        first = json.loads(out)
        assert first["resumed"] is False
        assert [r["round"] for r in first["rounds"]] == [0]
        assert first["n_labeled"] == 4

        code, out = run_cli(argv, capsys)
        assert code == 0
        second = json.loads(out)
        assert second["resumed"] is True
        assert [r["round"] for r in second["rounds"]] == [0, 1]
        assert second["initial_metric"] == first["initial_metric"]
        assert second["n_labeled"] == 8

    def test_conflicting_flags_on_resume_are_rejected(self, capsys, tmp_path):
        snapshot = str(tmp_path / "loop.json")
        base = [
            "improve", "ecg", "--rounds", "1", "--budget", "4",
            "--streams", "2", "--items-per-round", "4", "--snapshot", snapshot,
        ]
        assert main(base) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--seed"):
            main(base + ["--seed", "5"])
        with pytest.raises(SystemExit, match="--policy"):
            main(base + ["--policy", "random"])

    def test_bad_config_fails_cleanly(self):
        with pytest.raises(SystemExit, match="swap_tick"):
            main(["improve", "ecg", "--items-per-round", "2", "--swap-tick", "2"])

    @pytest.mark.parametrize("domain", ["tvnews", "av"])
    def test_non_retrainable_domain_fails_cleanly(self, domain):
        with pytest.raises(SystemExit, match="retrainable"):
            main(["improve", domain, "--rounds", "1"])
        proc = cli("improve", domain, "--rounds", "1", check=False)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "retrainable" in proc.stderr
