"""scripts/stage_times.py: the in-process stage timer runs and prints its JSON."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_times.py"


def load_script():
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*argv) -> dict:
    stage_times = load_script()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert stage_times.main([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def test_demo_times_every_stage_once_per_run(bundle_dir):
    report = run("--config", bundle_dir / "config.txt", "--repeat", 2)
    stages = load_script().STAGES
    assert list(report["stages"]) == [*stages, "run"]
    for name, times in report["stages"].items():
        assert times["calls"] == 2, name
        assert 0 < times["best_s"] <= times["median_s"], name
    run_s = report["stages"]["run"]["best_s"]
    assert sum(report["stages"][name]["best_s"] for name in stages) <= 2 * run_s


def test_a_workload_is_written_by_the_benchmark_generator():
    report = run("--workload", "impute_income", "--seed", 3, "--repeat", 1)
    assert (report["workload"], report["seed"], report["output_rows"]) == ("impute_income", 3, 4800)
    assert report["stages"]["emit_reports"]["calls"] == 1


def test_each_stage_reports_the_memory_peak_after_it(bundle_dir):
    report = run("--config", bundle_dir / "config.txt", "--repeat", 1)
    peaks = [report["stages"][name]["vmhwm_mb"] for name in (*load_script().STAGES, "run")]
    assert all(peak > 0 for peak in peaks)
    assert peaks[-1] == max(peaks)  # the process's peak never falls


def test_label_writes_one_report_per_size(tmp_path, monkeypatch):
    stage_times = load_script()
    monkeypatch.setattr(stage_times, "SIZES", (1, 2))  # 240 and 480 households
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert stage_times.main(["--workload", "survey_carbon", "--seed", "2", "--repeat", "1",
                                 "--label", "small"]) == 0
    report = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert (report["label"], report["workload"], report["seed"]) == ("small", "survey_carbon", 2)
    assert [size["households"] for size in report["sizes"]] == [240, 480]
    for size in report["sizes"]:
        assert list(size["stages"]) == [*stage_times.STAGES, "run"]
        for name, stage in size["stages"].items():
            assert stage["calls"] == 1, name
            assert 0 < stage["best_s"] == stage["median_s"], name
            assert stage["vmhwm_mb"] > 0, name


def test_label_needs_a_workload(bundle_dir, capsys):
    stage_times = load_script()
    with pytest.raises(SystemExit):
        stage_times.main(["--config", str(bundle_dir / "config.txt"), "--label", "x"])
    assert "--label needs --workload" in capsys.readouterr().err
