"""Self-tests of the benchmark: python3 -m pytest perfbench (from the repository root)."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import gen
import hostspeed
import run
import tracer

sys.path.insert(0, str(run.SRC))

from priceshock import data as ps_data  # noqa: E402
from priceshock import scenario as ps_scenario  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every workload's inputs, at the reference seed."""
    root = tmp_path_factory.mktemp("inputs")
    return {w: (root / w, gen.generate(w, run.REF_SEED, root / w)) for w in gen.WORKLOADS}


def run_child(inputs: Path, tmp_path: Path) -> None:
    """One untimed run of the program, outputs left in tmp_path / "out"."""
    subprocess.run([sys.executable, str(run.HERE / "child.py"), str(inputs / "config.txt"),
                    str(tmp_path / "out"), str(tmp_path / "result.json"), "0"],
                   env=run.child_env(), check=True)


def test_generation_is_deterministic(tmp_path):
    a = gen.generate("survey_carbon", 7, tmp_path / "a")
    b = gen.generate("survey_carbon", 7, tmp_path / "b")
    c = gen.generate("survey_carbon", 8, tmp_path / "c")
    assert a == b
    assert a["inputs_sha256"]["households.csv"] != c["inputs_sha256"]["households.csv"]


def test_base_survey_is_the_canonical_fixture():
    # the sha256 pinned for the canonical survey in tests/test_fixtures.py
    assert gen.sha256_files(gen.DATA)["households.csv"] == (
        "652774768c00e34b69693e1aa4f4d9bb1c35431f3b550c15bbb3bb33b5c92238")


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_inputs_load(inputs, workload):
    path, info = inputs[workload]
    cfg = ps_scenario.parse_config(path / "config.txt")
    categories = ps_data.CategorySet.default()
    survey = ps_data.load_household_survey(cfg.files["households"], categories)
    assert survey.report.n_loaded == info["households"]
    assert survey.report.n_dropped_zero_total == 0
    mrio = ps_data.load_mrio(*(cfg.files[k] for k in ("mrio_z", "mrio_d", "mrio_x", "mrio_f")))
    assert mrio.n == info["sectors"]
    assert ps_data.load_bridge(cfg.files["bridge"], categories).products == mrio.sectors
    ps_data.load_price_relatives(cfg.files["prices"], categories)
    ps_data.load_fuels(cfg.files["fuels"])
    if info["income_records"]:
        assert cfg.impute
        assert ps_data.load_income_survey(cfg.files["income"]).report.n_loaded == info["income_records"]


def test_tiled_survey_keeps_zeros_and_jitters_positive_cells(inputs):
    _, base = gen.read_base_survey()
    header, rows = check.read_csv(inputs["survey_carbon"][0] / "households.csv")
    exp = [j for j, c in enumerate(header) if c.startswith("exp_")]
    first, second = rows[0], rows[len(base)]  # the same base household in tiles 0 and 1
    assert first[0] == base[0][0] + "-000" and second[0] == base[0][0] + "-001"
    for j in exp:
        assert (float(base[0][j]) == 0) == (float(first[j]) == 0) == (float(second[j]) == 0)
    assert any(first[j] != second[j] for j in exp if float(base[0][j]) > 0)


def test_mrio_identity_and_bridge_rows_hold(inputs):
    path, info = inputs["sectors_wide"]
    mrio = ps_data.load_mrio(path / "mrio_z.csv", path / "mrio_d.csv",
                             path / "mrio_x.csv", path / "mrio_f.csv")
    resid = mrio.output - (mrio.flows.sum(axis=1) + mrio.final_demand)
    assert np.max(np.abs(resid) / mrio.output) < 1e-10
    assert mrio.origin.count("imported") == info["sectors"] // gen.IMPORTED_EVERY
    assert mrio.origin[gen.IMPORTED_EVERY - 1] == "imported"
    header, rows = check.read_csv(path / "bridge.csv")
    assert len(header) == info["sectors"] + 1 and len(rows) == 19
    for row in rows:
        assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-12


def test_checker_accepts_the_reference_and_rejects_one_altered_t7_cell(inputs, tmp_path):
    path, info = inputs["sectors_wide"]
    rec = run.run_once(path, tmp_path / "out", info["households"], reference="sectors_wide")
    assert rec["problems"] == []

    run_child(path, tmp_path)
    t7 = tmp_path / "out" / "t7_welfare.csv"
    lines = t7.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = f"{float(cells[2]) * 1.001:.6g}"
    lines[3] = ",".join(cells)
    t7.write_text("\n".join(lines) + "\n")
    assert check.check_outputs(tmp_path / "out", info["households"]) == []
    problems = check.compare_reference(tmp_path / "out", "sectors_wide")
    assert len(problems) == 1 and "t7_welfare row 3 column 'relative_cv'" in problems[0]


def test_checker_rejects_non_finite_cells_and_wrong_row_counts(inputs, tmp_path):
    path, info = inputs["impute_income"]
    rec = run.run_once(path, tmp_path / "ok", info["income_records"])
    assert rec["problems"] == [] and len(rec["hash"]) == 64
    assert rec["speed"]["run_ticks"] > 0 and rec["speed"]["run"] > 0
    run_child(path, tmp_path)
    t8 = tmp_path / "out" / "t8_atkinson.csv"
    lines = t8.read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + ",nan," + ",".join(lines[1].split(",")[2:])
    t8.write_text("\n".join(lines) + "\n")
    problems = check.check_outputs(tmp_path / "out", info["income_records"] + 1)
    assert any("non-finite" in p for p in problems)
    assert any("expected 4801" in p for p in problems)


def test_host_speed_factor_drops_the_slowest_quarter_of_ticks():
    ref = hostspeed.REF_TICK_S
    assert hostspeed.factor([]) is None
    assert hostspeed.factor([2 * ref] * 3 + [50 * ref]) == pytest.approx(2.0)


def test_timings_are_taken_to_the_reference_speed():
    ref = hostspeed.REF_TICK_S
    rec = {"import_s": 0.25, "run_wall_s": 4.0, "cpu_s": 3.9,
           "layers": {"x": {"s": 1.0, "self_s": 0.5}}, "import_ticks": [2 * ref] * 4, "run_ticks": [1.5 * ref] * 8}
    run.adjust_to_reference_speed(rec, 0.35)
    assert rec["speed"] == {"import": pytest.approx(2.0), "run": pytest.approx(1.5),
                            "import_ticks": 4, "run_ticks": 8}
    assert rec["setup_s"] == pytest.approx((0.35 - 8 * ref) / 2.0)
    assert rec["import_s"] == pytest.approx((0.25 - 8 * ref) / 2.0)
    assert rec["run_wall_s"] == pytest.approx((4.0 - 12 * ref) / 1.5)
    assert rec["cpu_s"] == pytest.approx((3.9 - 12 * ref) / 1.5)
    assert rec["layers"]["x"] == {"s": pytest.approx(1.0 / 1.5), "self_s": pytest.approx(0.5 / 1.5)}
    assert rec["raw"] == {"setup_s": 0.35, "import_s": 0.25, "run_wall_s": 4.0, "cpu_s": 3.9}


def test_nondeterministic_runs_are_failed():
    runs = [{"hash": "a", "problems": []}, {"hash": "b", "problems": []},
            {"hash": "a", "problems": []}, {"problems": ["exit code 1: boom"]}]
    run.mark_nondeterministic(runs)
    assert [bool(r["problems"]) for r in runs] == [False, True, False, True]


def test_tracer_counts_calls_and_tolerates_a_missing_name(inputs, tmp_path, monkeypatch):
    for module, attr, _ in tracer.SPANS + tracer.COUNTERS:
        mod = importlib.import_module(f"priceshock.{module}")
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after the test
    imputation = importlib.import_module("priceshock.imputation")
    monkeypatch.delattr(imputation, "binary_fit")
    path, info = inputs["impute_income"]
    shutil.copytree(path, tmp_path / "in")
    config = tmp_path / "in" / "config.txt"
    config.write_text(config.read_text().replace("scenario.impute = true", "scenario.impute = false"))

    t = tracer.Tracer()
    assert t.install() == ["imputation.binary_fit"]
    cli = importlib.import_module("priceshock.cli")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    layers = t.summary()
    n = info["households"]
    assert layers["demand.les_demand"]["calls"] == n
    assert layers["demand.equivalent_income"]["calls"] == 2 * n
    assert layers["inputoutput.leontief_inverse"]["calls"] == 2
    assert layers["imputation.binary_fit"] == {"calls": 0, "s": 0.0, "self_s": 0.0}
    assert layers["randutil.rng_for"]["calls"] == 0
    top = layers["scenario.run_scenario"]
    assert 0 < top["self_s"] < top["s"]
    by_id = {sp["id"]: sp["name"] for sp in t.spans}
    parents = {by_id[sp["parent"]] for sp in t.spans
               if sp["name"] == "inputoutput.leontief_inverse"}
    assert parents == {"scenario.carbon_tax_scenario", "scenario.run_scenario"}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {name for *_, name in tracer.SPANS + tracer.COUNTERS}
    record = {"run_wall_s": 2.0, "setup_s": 0.3, "cpu_s": 2.0, "peak_rss_mb": 100.0,
              "import_s": 0.2, "layers": {n: {"calls": 1, "s": 0.1, "self_s": 0.1} for n in names},
              "facts": {"households": 10, "groups": 2, "elasticity_rows": 38,
                        "diagnostics": {}, "emit_bytes": 1000}}
    info = {"households": 10, "income_records": 0, "sectors": 2, "output_rows": 10}
    e2e = run.end_to_end([record], 10, attempted=2, failed=0)
    layer = run.per_layer([record], [record], info)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for u, _ in e2e.values()]
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in layer.values()]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "survey_carbon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
