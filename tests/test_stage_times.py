"""scripts/stage_times.py: the in-process stage timer runs and prints its JSON."""

import contextlib
import importlib.util
import io
import itertools
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
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


def test_first_s_times_each_stage_in_the_warm_up_run(bundle_dir):
    report = run("--config", bundle_dir / "config.txt", "--repeat", 1)
    stages = report["stages"]
    for name, times in stages.items():
        assert times["first_s"] > 0, name
    # the warm-up run holds its stages, as each timed run does
    assert sum(stages[name]["first_s"] for name in load_script().STAGES) <= stages["run"]["first_s"]


def test_each_stage_counts_its_minor_faults_in_the_warm_up_run(bundle_dir):
    report = run("--config", bundle_dir / "config.txt", "--repeat", 1)
    assert list(report["stages"]) == [*load_script().STAGES, "run"]
    for name, times in report["stages"].items():
        faults = times["minor_faults"]
        assert type(faults) is int and faults >= 0, name
    stages = report["stages"]
    assert sum(stages[name]["minor_faults"] for name in load_script().STAGES) <= \
        stages["run"]["minor_faults"]


def test_the_runs_are_made_under_the_commands_allocator_policy(bundle_dir, tmp_path,
                                                                monkeypatch):
    stage_times = load_script()
    events = []
    run_scenario = stage_times.scenario.run_scenario

    def tracked(cfg):
        events.append("run")
        return run_scenario(cfg)

    monkeypatch.setattr(stage_times.priceshock.cli, "keep_heap", lambda: events.append("policy"))
    monkeypatch.setattr(stage_times.scenario, "run_scenario", tracked)
    stage_times.time_stages(bundle_dir / "config.txt", tmp_path / "out", 1)
    assert events == ["policy", "run", "run"]


def test_an_import_sample_times_the_package_with_numpy_already_loaded():
    """Each ``--label`` import sample imports numpy before it starts the
    clock, and priceshock only after."""
    stage_times = load_script()
    code = ("import sys, time; real = time.perf_counter; loaded = []; "
            "time.perf_counter = lambda: (loaded.append(('numpy' in sys.modules, "
            "'priceshock.cli' in sys.modules)), real())[1]; "
            f"exec({stage_times.IMPORT_CHILD!r}); print(loaded)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert float(out[0]) > 0
    assert out[1] == "[(True, False), (True, True)]"


def test_import_s_is_null_where_the_package_was_already_imported(bundle_dir):
    import priceshock.cli  # noqa: F401

    report = run("--config", bundle_dir / "config.txt", "--repeat", 1)
    assert report["import_s"] is None


def test_a_workload_is_written_by_the_benchmark_generator():
    report = run("--workload", "impute_income", "--seed", 3, "--repeat", 1)
    assert (report["workload"], report["seed"], report["output_rows"]) == ("impute_income", 3, 4800)
    assert report["stages"]["emit_reports"]["calls"] == 1


def test_a_workloads_peaks_leave_out_its_input_writer(monkeypatch):
    """The inputs are written here and timed in a fresh interpreter: a
    writer that peaks at 128 MB leaves every reported peak below that."""
    stage_times = load_script()
    generate = stage_times.generate

    def heavy(*args):
        np.ones(128 * 2**17).sum()  # 128 MB, every page touched
        return generate(*args)

    monkeypatch.setattr(stage_times, "generate", heavy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert stage_times.main(["--workload", "survey_carbon", "--tiles", "1",
                                 "--repeat", "1"]) == 0
    peaks = [stage["vmhwm_mb"] for stage in json.loads(out.getvalue())["stages"].values()]
    assert stage_times.vmhwm_mb() >= 128  # the writer's peak, in this process
    assert all(0 < peak < 128 for peak in peaks)


def test_each_stage_reports_the_memory_peak_after_it(bundle_dir):
    report = run("--config", bundle_dir / "config.txt", "--repeat", 1)
    peaks = [report["stages"][name]["vmhwm_mb"] for name in (*load_script().STAGES, "run")]
    assert all(peak > 0 for peak in peaks)
    assert peaks[-1] == max(peaks)  # the process's peak never falls


def test_vmhwm_mb_is_each_stages_read_in_the_warm_up_run(bundle_dir, tmp_path, monkeypatch):
    """Every later run's peak includes the warm-up's: only the warm-up's
    reads, one after each stage in run order, are reported."""
    stage_times = load_script()
    reads = itertools.count(1)
    monkeypatch.setattr(stage_times, "vmhwm_mb", lambda: float(next(reads)))
    stages = stage_times.time_stages(bundle_dir / "config.txt", tmp_path / "out", 2)
    names = [*stage_times.STAGES, "run"]
    assert [stages[name]["vmhwm_mb"] for name in names] == list(range(1, len(names) + 1))


def test_each_run_starts_after_the_last_result_is_released(bundle_dir, tmp_path, monkeypatch):
    stage_times = load_script()
    run_scenario, results, alive = stage_times.scenario.run_scenario, [], []

    def tracked(cfg):
        alive.append(sum(ref() is not None for ref in results))
        result = run_scenario(cfg)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(stage_times.scenario, "run_scenario", tracked)
    stage_times.time_stages(bundle_dir / "config.txt", tmp_path / "out", 2)
    assert alive == [0, 0, 0]


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
        assert size["import_s"] > 0  # each size's fresh interpreter times its import
        assert list(size["stages"]) == [*stage_times.STAGES, "run"]
        for name, stage in size["stages"].items():
            assert stage["calls"] == 1, name
            assert 0 < stage["best_s"] == stage["median_s"], name
            assert stage["vmhwm_mb"] > 0, name


def test_label_times_an_untiled_workload_once(tmp_path, monkeypatch):
    stage_times = load_script()
    monkeypatch.setattr(stage_times, "SIZES", (1, 2))
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert stage_times.main(["--workload", "impute_income", "--seed", "2", "--repeat", "1",
                                 "--label", "imp"]) == 0
    report = json.loads((tmp_path / "BENCH_imp.json").read_text())
    assert [(size["households"], size["output_rows"]) for size in report["sizes"]] == [(240, 4800)]
    assert report["sizes"][0]["stages"]["run"]["first_s"] > 0


def test_label_needs_a_workload(bundle_dir, capsys):
    stage_times = load_script()
    with pytest.raises(SystemExit):
        stage_times.main(["--config", str(bundle_dir / "config.txt"), "--label", "x"])
    assert "--label needs --workload" in capsys.readouterr().err


def test_label_writes_every_size_before_the_first_child(tmp_path, monkeypatch):
    stage_times = load_script()
    events = []

    def generate(workload, seed, tiles, out):
        events.append(("generate", tiles))
        return out / "config.txt", {"households": 240 * tiles}

    def child(argv, **kwargs):
        if "--config" not in argv:  # an interpreter that times the import alone
            return subprocess.CompletedProcess(argv, 0, "0.1\n")
        events.append(("child", argv[argv.index("--config") + 1]))
        return subprocess.CompletedProcess(argv, 0, json.dumps({"import_s": 0.1, "stages": {}}))

    monkeypatch.setattr(stage_times, "generate", generate)
    monkeypatch.setattr(stage_times.subprocess, "run", child)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert stage_times.main(["--workload", "survey_carbon", "--repeat", "1",
                                 "--label", "order"]) == 0
    kinds = [kind for kind, _ in events]
    assert kinds == ["generate"] * len(stage_times.SIZES) + ["child"] * len(stage_times.SIZES)
    assert [Path(config).parent.name for _, config in events[len(stage_times.SIZES):]] == [
        f"inputs-{tiles}" for tiles in stage_times.SIZES]


def test_label_import_s_is_the_median_of_five_fresh_imports(tmp_path, monkeypatch):
    stage_times = load_script()
    samples = iter([0.5, 0.1, 0.3, 0.2, 0.4, 0.9, 0.6, 0.8, 0.7, 0.6])
    children = []

    def child(argv, **kwargs):
        children.append(argv)
        if "--config" in argv:
            return subprocess.CompletedProcess(argv, 0, json.dumps({"import_s": 9.9, "stages": {}}))
        return subprocess.CompletedProcess(argv, 0, f"{next(samples)}\n")

    monkeypatch.setattr(stage_times, "SIZES", (1, 2))
    monkeypatch.setattr(stage_times, "generate",
                        lambda workload, seed, tiles, out: (out / "config.txt", {"tiles": tiles}))
    monkeypatch.setattr(stage_times.subprocess, "run", child)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert stage_times.main(["--workload", "survey_carbon", "--repeat", "1",
                                 "--label", "imports"]) == 0
    sizes = json.loads((tmp_path / "BENCH_imports.json").read_text())["sizes"]
    assert [(size["import_s"], size["import_samples_s"]) for size in sizes] == [
        (0.3, [0.5, 0.1, 0.3, 0.2, 0.4]), (0.7, [0.9, 0.6, 0.8, 0.7, 0.6])]
    # each size: five interpreters that run only the timed import, then its run
    imports = [argv for argv in children if "--config" not in argv]
    assert len(imports) == 2 * stage_times.IMPORT_SAMPLES == 10
    assert all(argv[1:] == ["-c", stage_times.IMPORT_CHILD] for argv in imports)
    assert ["--config" in argv for argv in children] == ([False] * 5 + [True]) * 2

