import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from microreduce import cli
from microreduce.cli import main
from microreduce.ports import ShuffleEntry, object_key_for
from microreduce.scenarios import preset
from microreduce.sim import ClockStalled
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
        {"files": 1.5},
        {"rows_per_file": 10.5},
        {"seed": "abc"},
        {"carriers": [{"code": 5, "weight": 1.0, "delay_mean": 0, "delay_sigma": 1}]},
        {"carriers": [{"code": "AA", "weight": 1.0, "delay_mean": "abc", "delay_sigma": 1}]},
        {"carriers": [{"code": "AA", "weight": True, "delay_mean": 0, "delay_sigma": 1}]},
        {"carriers": [{"code": "AA", "weight": 1.0, "delay_mean": 0, "delay_sigma": None}]},
        {"carriers": [{"code": "AA", "weight": 1.0, "delay_mean": float("nan"),
                       "delay_sigma": 1}]},
    ], ids=["comma-code", "empty-code", "negative-pad", "float-files", "float-rows",
            "string-seed", "int-code", "string-mean", "bool-weight", "null-sigma",
            "nan-mean"])
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

    def test_scenario_file_with_a_fractional_count_fails(self, runner, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({"files": 1, "ranking_limit": 0.5}),
                                 encoding="utf-8")
        (tmp_path / "data").mkdir()
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                      "--data", str(tmp_path / "data"), "--out", str(out)])
        assert result.exit_code != 0
        assert "bad scenario file: ranking_limit must be an int, got 0.5" in result.output
        assert not out.exists()

    def test_scenario_file_with_a_string_flag_fails(self, runner, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({"files": 1, "override_gate": "false"}),
                                 encoding="utf-8")
        (tmp_path / "data").mkdir()
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", str(scenario_path),
                                      "--data", str(tmp_path / "data"), "--out", str(out)])
        assert result.exit_code != 0
        assert "bad scenario file: override_gate must be a bool, got 'false'" in result.output
        assert not out.exists()

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

    def test_dump_shuffle_writes_canonical_json_per_entry(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", "1", "--data", str(data),
                                      "--out", str(out), "--files", "1",
                                      "--shuffle", "object", "--dump-shuffle"])
        assert result.exit_code == 0, result.output
        run_dir = run_dir_of(out)
        entries_dir = run_dir / "shuffle" / run_dir.name
        mapped = 0
        paths = sorted(entries_dir.rglob("*.json"))
        assert paths
        for path in paths:
            doc = json.loads(path.read_bytes())
            entry = ShuffleEntry(**doc)
            assert path.read_bytes() == json.dumps(entry.to_doc(), sort_keys=True).encode()
            assert path.relative_to(run_dir / "shuffle").as_posix() == object_key_for(
                entry.execution_id, entry.partition_key, entry.instance_id)
            mapped += entry.count
        counters = json.loads((run_dir / "counters.json").read_text())
        assert mapped == counters["mapped"]

    def test_missing_files_fail(self, runner, tmp_path):
        data = generate_cli_data(runner, tmp_path)
        result = runner.invoke(main, ["run", "--scenario", "5", "--data", str(data),
                                      "--out", str(tmp_path / "runs")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("text, message", [
        ("queue_send_ms=-1", "queue_send_ms must be finite and non-negative"),
        ("object_get_base_ms=nan", "object_get_base_ms must be finite and non-negative"),
        ("base_rate_units_per_ms=0", "base_rate_units_per_ms must be positive"),
        ("amdahl_parallel_fraction=2", "amdahl_parallel_fraction must be at most 1"),
        ("bogus=1", "line 1: unknown calibration key 'bogus'"),
        ("consumer_poll_interval_ms=0\nqueue_receive_ms=0",
         "consumer_poll_interval_ms must be positive"),
    ], ids=["negative-latency", "nan-latency", "zero-rate", "fraction-above-one",
            "unknown-key", "zero-poll"])
    def test_bad_calibration_fails_before_the_run(self, runner, tmp_path, text, message):
        data = generate_cli_data(runner, tmp_path, rows_per_file=300)
        cal_path = tmp_path / "cal.txt"
        cal_path.write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        result = runner.invoke(main, ["run", "--scenario", "1", "--data", str(data),
                                      "--out", str(out), "--files", "1",
                                      "--calibration", str(cal_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"bad calibration file: {message}" in result.output
        assert not out.exists()

    def test_a_stalled_clock_fails_the_run_without_a_traceback(self, runner, tmp_path,
                                                               monkeypatch):
        # The stall itself is tested in test_workflow; a stub keeps a
        # regression there from hanging this test.
        def stalled(*args, **kwargs):
            raise ClockStalled("a consumer poll of 1e-20 ms and receive of 0.0 ms "
                               "does not advance the clock to 12.5 ms")

        monkeypatch.setattr(cli, "run_job", stalled)
        data = generate_cli_data(runner, tmp_path, rows_per_file=300)
        result = runner.invoke(main, ["run", "--scenario", "1", "--data", str(data),
                                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "run stalled: a consumer poll of 1e-20 ms" in result.output

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
