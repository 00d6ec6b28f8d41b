"""scripts/stage_times.py: the in-process stage timer runs and prints its JSON."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

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
