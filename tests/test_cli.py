import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from microreduce.cli import main
from microreduce.scenarios import preset
from microreduce.storage import ObjectStore
from microreduce.workflow import run_job


@pytest.fixture
def runner():
    return CliRunner()


def gen_spec_file(tmp_path, **overrides) -> Path:
    doc = {"files": 1, "rows_per_file": 400, "invalid_fraction": 0.05, "seed": 12}
    doc.update(overrides)
    path = tmp_path / "genspec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_dir_of(out: Path) -> Path:
    children = [p for p in out.iterdir() if p.is_dir()]
    assert len(children) == 1
    return children[0]


class TestGenData:
    def test_writes_files_and_ledger(self, runner, tmp_path):
        spec = gen_spec_file(tmp_path)
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen-data", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "part-0000.csv").exists()
        assert (out / "ledger.json").exists()
        assert "ledger" in result.output

    def test_same_seed_identical_bytes(self, runner, tmp_path):
        spec = gen_spec_file(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        runner.invoke(main, ["gen-data", "--spec", str(spec), "--out", str(a)])
        runner.invoke(main, ["gen-data", "--spec", str(spec), "--out", str(b)])
        assert (a / "part-0000.csv").read_bytes() == (b / "part-0000.csv").read_bytes()

    def test_bad_spec_fails(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows_per_file": 10}', encoding="utf-8")
        result = runner.invoke(main, ["gen-data", "--spec", str(path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code != 0
        assert "bad generator spec" in result.output

    @pytest.mark.parametrize("overrides", [
        {"carriers": [{"code": "A,B", "weight": 1.0, "delay_mean": 0, "delay_sigma": 1}]},
        {"carriers": [{"code": "", "weight": 1.0, "delay_mean": 0, "delay_sigma": 1}]},
        {"row_pad_to_bytes": -1},
    ], ids=["comma-code", "empty-code", "negative-pad"])
    def test_spec_that_cannot_round_trip_fails(self, runner, tmp_path, overrides):
        spec = gen_spec_file(tmp_path, **overrides)
        out = tmp_path / "x"
        result = runner.invoke(main, ["gen-data", "--spec", str(spec), "--out", str(out)])
        assert result.exit_code != 0
        assert "bad generator spec" in result.output
        assert not out.exists()


def generate_cli_data(runner, tmp_path, **overrides) -> Path:
    spec = gen_spec_file(tmp_path, **overrides)
    out = tmp_path / "data"
    result = runner.invoke(main, ["gen-data", "--spec", str(spec), "--out", str(out)])
    assert result.exit_code == 0
    return out


class TestRun:
    def test_completed_run_exit_zero_with_artifacts(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", "1", "--data", str(data),
                                      "--out", str(out), "--files", "1"])
        assert result.exit_code == 0, result.output
        run_dir = run_dir_of(out)
        for name in ("ranking.json", "trace.csv", "ledger.csv", "config.json",
                     "counters.json", "gate.json", "dlq.json", "concurrency.csv"):
            assert (run_dir / name).exists(), name
        for stem in ("kpi", "phases", "cost"):
            assert (run_dir / "reports" / f"{stem}.txt").exists()
            assert (run_dir / "reports" / f"{stem}.csv").exists()

    def test_scenario_file_and_flag_precedence(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(
            {"shuffle_system": "S3", "files": 1, "ingest_threads": 2,
             "ingest_memory_mb": 2048, "seed": 3}
        ), encoding="utf-8")
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                      "--data", str(data), "--out", str(out),
                                      "--shuffle", "kv", "--seed", "9"])
        assert result.exit_code == 0, result.output
        config = json.loads((run_dir_of(out) / "config.json").read_text())
        assert config["scenario"]["shuffle_system"] == "kv"  # flag beat file
        assert config["scenario"]["seed"] == 9

    def test_byte_identical_reruns(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            result = runner.invoke(main, ["run", "--scenario", "2", "--data", str(data),
                                          "--out", str(out), "--files", "1",
                                          "--seed", "5"])
            assert result.exit_code == 0
            outs.append(run_dir_of(out))
        for name in ("ranking.json", "trace.csv", "ledger.csv", "counters.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_cli_matches_library_exactly(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", "2", "--data", str(data),
                                      "--out", str(out), "--files", "1", "--seed", "5"])
        assert result.exit_code == 0
        cli_ranking = json.loads((run_dir_of(out) / "ranking.json").read_text())

        raw = ObjectStore()
        for path in sorted(Path(data).glob("*.csv")):
            raw.put(path.name, path.read_bytes())
        lib_result = run_job(preset(2, seed=5).replace(files=1), raw)
        assert lib_result.ranking_doc == cli_ranking

    def test_missing_files_fail(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        result = runner.invoke(main, ["run", "--scenario", "5", "--data", str(data),
                                      "--out", str(tmp_path / "runs")])
        assert result.exit_code != 0

    def test_stalled_exit_code_two_and_override_resumes(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        scenario_path = tmp_path / "stall.json"
        scenario_path.write_text(json.dumps(
            {"files": 1, "map_failure_rate": 1.0, "gate_max_attempts": 8,
             "visibility_timeout_ms": 1000.0, "seed": 3}
        ), encoding="utf-8")
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                      "--data", str(data), "--out", str(out)])
        assert result.exit_code == 2
        assert "ingested=" in result.output and "mapped=" in result.output
        assert "--override-gate" in result.output

        result2 = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                       "--data", str(data), "--out", str(out),
                                       "--override-gate"])
        assert result2.exit_code == 0
        assert "override" in result2.output
        assert "lost" in result2.output


class TestReport:
    def test_rebuild_reports_from_recorded_run(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        out = tmp_path / "runs"
        runner.invoke(main, ["run", "--scenario", "1", "--data", str(data),
                             "--out", str(out), "--files", "1"])
        run_dir = run_dir_of(out)
        for stem in ("kpi", "phases", "cost"):
            (run_dir / "reports" / f"{stem}.txt").unlink()
        result = runner.invoke(main, ["report", "--exec", run_dir.name,
                                      "--out", str(out), "--format", "text"])
        assert result.exit_code == 0, result.output
        assert (run_dir / "reports" / "kpi.txt").exists()

    def test_unknown_execution_id(self, runner, tmp_path):
        out = tmp_path / "runs"
        out.mkdir()
        result = runner.invoke(main, ["report", "--exec", "nope", "--out", str(out)])
        assert result.exit_code != 0
        assert "unknown execution id" in result.output
