"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import csv
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import priceshock
from priceshock.cli import main
from priceshock.data import CategorySet
from priceshock.scenario import CONFIG_KEYS


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestFixturesAndValidate:
    def test_fixtures_then_validate(self, tmp_path, capsys):
        assert run_cli("fixtures", "--out", tmp_path / "b") == 0
        assert run_cli("validate", "--config", tmp_path / "b" / "config.txt") == 0
        out = capsys.readouterr().out
        assert "240 loaded" in out
        assert "configuration valid" in out

    def test_missing_config_is_data_error(self, tmp_path):
        assert run_cli("validate", "--config", tmp_path / "nope.txt") == 1

    def test_validate_prices_the_scenario(self, tmp_path, capsys):
        # the configuration is well formed, but the run it describes fails
        run_cli("fixtures", "--out", tmp_path / "b")
        cfg = tmp_path / "b" / "config.txt"
        cfg.write_text(cfg.read_text().replace("scenario.carbon_tax = 0.0",
                                               "scenario.carbon_tax = 1.25"))
        capsys.readouterr()
        assert run_cli("validate", "--config", cfg) == 2
        captured = capsys.readouterr()
        assert "8 of 240 households" in captured.err
        assert "'hh0008'" in captured.err
        assert "configuration valid" not in captured.out

    def test_validate_writes_nothing(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        before = sorted(p.name for p in work.iterdir())
        assert run_cli("validate", "--config", work / "config.txt") == 0
        assert sorted(p.name for p in work.iterdir()) == before
        residual = re.search(r"2 sectors, Leontief solve residual (\S+)\n", capsys.readouterr().out)
        assert residual and float(residual[1]) < 1e-12

    def test_broken_data_is_data_error(self, tmp_path):
        run_cli("fixtures", "--out", tmp_path / "b")
        hh = tmp_path / "b" / "households.csv"
        text = hh.read_text().splitlines()
        text[1] = text[1].replace(text[1].split(",")[4], "not_a_number", 1)
        hh.write_text("\n".join(text) + "\n")
        assert run_cli("validate", "--config", tmp_path / "b" / "config.txt") == 1


class TestRun:
    def test_run_emits_all_tables(self, bundle_dir, tmp_path):
        out = tmp_path / "results"
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet") == 0
        expected = [
            "t2_inflation_drivers.csv", "t3_budget_shares.csv", "t5_incidence.csv",
            "t6_progressivity.csv", "t7_welfare.csv", "t8_atkinson.csv",
            "t9_decomposition.csv", "households.csv", "consumer_prices.csv",
            "elasticities.csv", "run_manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_repeated_runs_byte_identical(self, bundle_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out1, "--quiet") == 0
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out2, "--quiet") == 0
        for p1 in sorted(Path(out1).iterdir()):
            p2 = Path(out2) / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_seed_override_changes_manifest(self, bundle_dir, tmp_path):
        import json

        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out1, "--quiet")
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out2,
                "--seed", "777", "--quiet")
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["seed"] != m2["seed"]
        assert m1["config_sha256"] != m2["config_sha256"]

    def test_numerical_failure_exit_code(self, tmp_path):
        # an enormous carbon tax on the demo table makes committed bundles
        # unaffordable: a numerical failure, not a data error
        run_cli("fixtures", "--out", tmp_path / "b")
        cfg = tmp_path / "b" / "config.txt"
        cfg.write_text(cfg.read_text().replace("scenario.carbon_tax = 0.0",
                                               "scenario.carbon_tax = 5.0"))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 2

    def test_infeasible_households_counted_and_named(self, tmp_path, capsys):
        # at this rate 8 demo households, the first of them hh0008, cannot
        # pay for their committed bundle; the rest could
        run_cli("fixtures", "--out", tmp_path / "b")
        cfg = tmp_path / "b" / "config.txt"
        cfg.write_text(cfg.read_text().replace("scenario.carbon_tax = 0.0",
                                               "scenario.carbon_tax = 1.25"))
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 2
        err = capsys.readouterr().err
        assert "8 of 240 households" in err
        assert "(first: 'hh0008'," in err

    def test_more_groups_than_households_is_data_error(self, tmp_path, capsys):
        run_cli("fixtures", "--out", tmp_path / "b")
        cfg = tmp_path / "b" / "config.txt"
        cfg.write_text(cfg.read_text().replace("distribution.groups = 5",
                                               "distribution.groups = 300"))
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        err = capsys.readouterr().err
        assert "distribution.groups" in err
        assert "240 households" in err

    def test_directory_as_input_file_is_data_error(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        cfg.write_text(cfg.read_text().replace("files.prices = prices.csv", "files.prices = ."))
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        assert "configured file files.prices is not a file" in capsys.readouterr().err

    def test_run_does_not_import_numpy_ma(self, bundle_dir, tmp_path):
        # numpy.ma costs milliseconds to import, and a run needs none of it
        code = ("import sys; from priceshock.cli import main; "
                f"code = main(['run', '--config', {str(bundle_dir / 'config.txt')!r}, "
                f"'--out', {str(tmp_path / 'r')!r}, '--quiet']); "
                "print(code, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(priceshock.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["0", "False"]

    def test_manifest_without_imputation_has_no_imputation_block(self, bundle_dir, tmp_path):
        import json

        run_cli("run", "--config", bundle_dir / "config.txt", "--out", tmp_path / "r", "--quiet")
        manifest = json.loads((tmp_path / "r" / "run_manifest.json").read_text())
        assert sorted(manifest) == ["config_sha256", "diagnostics", "package_version", "revenue",
                                    "seed"]

    def test_manifest_reports_imputation(self, bundle_dir, tmp_path):
        import json

        work = shutil.copytree(bundle_dir, tmp_path / "b")
        shutil.copyfile(work / "households.csv", work / "income.csv")
        cfg = work / "config.txt"
        cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--config", cfg, "--out", out1, "--quiet") == 0
        assert run_cli("run", "--config", cfg, "--out", out2, "--quiet") == 0
        text = (out1 / "run_manifest.json").read_text()
        assert text == (out2 / "run_manifest.json").read_text()
        block = json.loads(text)["imputation"]
        assert sorted(block) == ["calibration_outliers", "notes", "participation"]
        assert sorted(block["participation"]) == sorted(CategorySet.default().ids)
        for cells in block["participation"].values():
            assert re.fullmatch(r"[01]\.\d{6}", cells["target"])
            assert cells["achieved"] == cells["target"]  # closure: the survey imputed into itself
        assert block["participation"]["alcohol"]["target"] == "0.000000"
        assert isinstance(block["calibration_outliers"], int)
        assert all(isinstance(n, str) for n in block["notes"])


class TestFileRows:
    @pytest.mark.parametrize("text,problem", [
        ("abc", "non-numeric value 'abc'"),
        ("-1", "negative value -1.0"),
    ])
    def test_messages_name_the_file_row_past_a_blank_line(self, bundle_dir, tmp_path, capsys,
                                                          text, problem):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        hh = work / "households.csv"
        lines = hh.read_text().splitlines()
        hh.write_text("\n".join([lines[0], ""] + lines[1:]) + "\n")
        replace_cell(hh, 3, "weight", text)
        capsys.readouterr()
        assert run_cli("validate", "--config", work / "config.txt") == 1
        assert f"households.csv: row 3, column 'weight': {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("column,text,code,problem", [
        ("weight", "1e308", 1, "households.csv: row 2, column 'weight': value 1e+308 exceeds 1e+100"),
        ("size", "1e308", 1, "households.csv: row 2, column 'size': value 1e+308 exceeds 1e+100"),
        ("exp_food", "1e308", 1,
         "households.csv: row 2, column 'exp_food': value 1e+308 exceeds 1e+100"),
        ("weight", "1e99", 1, "distribution.groups = 5 leaves some groups empty: "
                              "the sample's 240 households and weights cannot fill them"),
        ("size", "1e40", 2, "distribution.atkinson_epsilon = 2: the Atkinson index of "
                            "equivalised expenditure rounds to 1"),
    ], ids=["weight 1e308", "size 1e308", "exp_food 1e308", "weight 1e99", "size 1e40"])
    def test_extreme_household_values_end_in_a_message(self, bundle_dir, tmp_path, capsys,
                                                        column, text, code, problem):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        replace_cell(work / "households.csv", 2, column, text)
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == code
        assert problem in capsys.readouterr().err

    def test_household_id_with_comma_round_trips_through_report(self, bundle_dir, tmp_path):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        hh = work / "households.csv"
        hh.write_text(hh.read_text().replace("\nhh0000,", '\n"hh,0001",', 1))
        out, rebuilt = tmp_path / "results", tmp_path / "rebuilt"
        assert run_cli("run", "--config", work / "config.txt", "--out", out, "--quiet") == 0
        with open(out / "households.csv", newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        assert ids[:2] == ["hh,0001", "hh0001"]
        assert run_cli("report", "--config", work / "config.txt",
                       "--results", out / "households.csv", "--out", rebuilt, "--quiet") == 0
        assert len(list(rebuilt.iterdir())) == 7
        # the tables that survive the rounding of households.csv, as in TestReport
        for name in ("t7_welfare.csv", "t8_atkinson.csv", "t9_decomposition.csv"):
            assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name


def replace_cell(path, row, column, text):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row - 1].split(",")
    cells[header.index(column)] = text
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestNonFiniteCells:
    # (file, row, column) of one cell per loader of the demo run
    CELLS = [
        ("households.csv", 2, "weight"),
        ("households.csv", 7, "exp_food"),
        ("households.csv", 3, "inc"),
        ("mrio_z.csv", 3, "energy"),
        ("mrio_d.csv", 2, "d"),
        ("mrio_x.csv", 2, "x"),
        ("mrio_f.csv", 3, "f"),
        ("bridge.csv", 4, "energy"),
        ("prices.csv", 2, "pi"),
        ("fuels.csv", 2, "price"),
        ("income.csv", 5, "inc"),
    ]

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("name,row,column", CELLS)
    def test_non_finite_cell_is_named(self, bundle_dir, tmp_path, capsys, name, row, column, text):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        if name == "income.csv":
            shutil.copyfile(work / "households.csv", work / name)
            cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        replace_cell(work / name, row, column, text)
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        err = capsys.readouterr().err
        assert f"{name}: row {row}, column {column!r}: non-finite value {text!r}" in err


class TestReport:
    def test_report_reproduces_run_tables(self, bundle_dir, tmp_path):
        # households.csv keeps the budget shares at 12 digits, so t3 too is
        # rebuilt as the run wrote it
        out = tmp_path / "results"
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet") == 0
        rep = tmp_path / "rebuilt"
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", rep, "--quiet") == 0
        rebuilt = sorted(p.name for p in rep.iterdir())
        assert rebuilt == ["t2_inflation_drivers.csv", "t3_budget_shares.csv", "t5_incidence.csv",
                           "t6_progressivity.csv", "t7_welfare.csv", "t8_atkinson.csv",
                           "t9_decomposition.csv"]
        for name in rebuilt:
            assert (rep / name).read_bytes() == (out / name).read_bytes(), name

    def test_bad_cell_in_results_is_named(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet")
        replace_cell(out / "households.csv", 4, "cv", "abc")
        capsys.readouterr()
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", tmp_path / "t") == 1
        err = capsys.readouterr().err
        assert "households.csv: row 4, column 'cv': non-numeric value 'abc'" in err


class TestImpute:
    def test_impute_roundtrip(self, bundle_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        text = []
        for line in (bundle_dir / "config.txt").read_text().splitlines():
            if line.startswith("files."):
                key, _, value = line.partition("=")
                text.append(f"{key.strip()} = {bundle_dir / value.strip()}")
            else:
                text.append(line)
        text.append(f"files.income = {bundle_dir / 'households.csv'}")
        cfg.write_text("\n".join(text) + "\n")
        out = tmp_path / "imputed.csv"
        assert run_cli("impute", "--config", cfg, "--out", out) == 0
        assert "imputed 240 households" in capsys.readouterr().out
        header = out.read_text().splitlines()[0].split(",")
        assert "imputed" in header
        assert "imputation_seed" in header
        assert "model_version" in header

    def test_impute_into_pure_income_dataset(self, bundle_dir, tmp_path):
        # target with no expenditure columns at all
        income = tmp_path / "income.csv"
        lines = ["id,weight,size,inc,demo_urban,demo_head_age"]
        rng_rows = (bundle_dir / "households.csv").read_text().splitlines()
        header = rng_rows[0].split(",")
        for row in rng_rows[1:61]:
            cells = dict(zip(header, row.split(",")))
            lines.append(",".join([
                "t_" + cells["id"], cells["weight"], cells["size"], cells["inc"],
                cells["demo_urban"], cells["demo_head_age"],
            ]))
        income.write_text("\n".join(lines) + "\n")

        cfg = tmp_path / "cfg.txt"
        text = []
        for line in (bundle_dir / "config.txt").read_text().splitlines():
            if line.startswith("files."):
                key, _, value = line.partition("=")
                text.append(f"{key.strip()} = {bundle_dir / value.strip()}")
            else:
                text.append(line)
        text.append(f"files.income = {income}")
        cfg.write_text("\n".join(text) + "\n")
        out = tmp_path / "imputed.csv"
        assert run_cli("impute", "--config", cfg, "--out", out, "--quiet") == 0
        body = out.read_text().splitlines()
        assert len(body) == 61
        assert body[1].startswith("t_")

    def test_impute_without_income_dataset(self, bundle_dir):
        assert run_cli("impute", "--config", bundle_dir / "config.txt",
                       "--out", "/tmp/never.csv") == 1


class TestOutputPaths:
    """An output path that cannot be made or written ends in exit 1 naming
    it, not in a traceback."""

    @pytest.fixture
    def work(self, bundle_dir, tmp_path):
        cfg = shutil.copytree(bundle_dir, tmp_path / "b") / "config.txt"
        cfg.write_text(cfg.read_text() + "files.income = households.csv\n")
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        return tmp_path

    @pytest.mark.parametrize("command,out,problem,named", [
        ("impute", "adir", "Is a directory", "adir"),
        ("impute", "afile/x.csv", "File exists", "afile"),
        ("run", "afile", "File exists", "afile"),
        ("fixtures", "afile", "File exists", "afile"),
        ("run", "afile/sub", "Not a directory", "afile/sub"),
    ], ids=["impute into a directory", "impute under a file", "run onto a file",
            "fixtures onto a file", "run under a file"])
    def test_unusable_output_path_exits_1_naming_it(self, work, capsys, command, out, problem,
                                                    named):
        config = [] if command == "fixtures" else ["--config", work / "b" / "config.txt"]
        capsys.readouterr()
        assert run_cli(command, *config, "--out", work / out) == 1
        assert capsys.readouterr().err == f"error: {problem}: {work / named}\n"

    def test_impute_creates_the_directory_of_its_output(self, work):
        out = work / "new" / "deeper" / "imputed.csv"
        assert run_cli("impute", "--config", work / "b" / "config.txt", "--out", out,
                       "--quiet") == 0
        assert out.read_text().startswith("id,")


class TestConfigNumbers:
    """A number key that is not finite, out of range, or a period of no
    months, is named at exit 1 before anything is written."""

    @pytest.mark.parametrize("line, key", [
        ("scenario.carbon_tax = nan", "scenario.carbon_tax"),
        ("distribution.atkinson_epsilon = nan", "distribution.atkinson_epsilon"),
        ("tax.food.vat = nan", "tax.food.vat"),
        ("tax.food.excise = inf", "tax.food.excise"),
        ("scenario.pass_through = 1e400", "scenario.pass_through"),
        ("elasticity.months_per_period = 0", "elasticity.months_per_period"),
        ("distribution.groups = 1e19", "distribution.groups"),
        ("distribution.groups = 1e308", "distribution.groups"),
        ("elasticity.frisch_level = 800", "elasticity.frisch_level"),
        ("elasticity.frisch_level = 1e308", "elasticity.frisch_level"),
        ("elasticity.frisch_slope = -800", "elasticity.frisch_slope"),
        ("scenario.carbon_tax = 1e308", "scenario.carbon_tax"),
    ], ids=["nan carbon tax", "nan inequality aversion", "nan vat", "infinite excise",
            "overflowing pass-through", "zero months per period", "groups beyond a C long",
            "groups at the float limit", "money-flexibility level beyond exp",
            "money-flexibility level at the float limit", "money-flexibility slope beyond exp",
            "carbon tax beyond the price range"])
    def test_bad_number_exits_1_naming_the_key(self, bundle_dir, tmp_path, capsys, line, key):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        kept = [old for old in cfg.read_text().splitlines()
                if old.partition("=")[0].strip() != key]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()


class TestConfigIntegers:
    """Integer keys take integers: no silent truncation, and the key is named."""

    @pytest.mark.parametrize("lines, key", [
        (["distribution.groups = 2.7"], "distribution.groups"),
        (["scenario.recycling = targeted_bottom_q", "scenario.recycling_quantile = 9"],
         "scenario.recycling_quantile"),
        (["scenario.recycling = targeted_bottom_q", "scenario.recycling_quantile = 1.9"],
         "scenario.recycling_quantile"),
        (["elasticity.size_bands = 2,x"], "elasticity.size_bands"),
    ], ids=["fractional groups", "quantile above groups", "fractional quantile",
            "non-numeric size band"])
    def test_bad_integer_exits_1_naming_the_key(self, bundle_dir, tmp_path, capsys, lines, key):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        keys = {line.partition("=")[0].strip() for line in lines}
        kept = [line for line in cfg.read_text().splitlines()
                if line.partition("=")[0].strip() not in keys]
        cfg.write_text("\n".join(kept + lines) + "\n")
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_integral_spellings_still_accepted(self, bundle_dir, tmp_path):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        text = cfg.read_text().replace("distribution.groups = 5", "distribution.groups = 5.0")
        text = text.replace("elasticity.size_bands = 2,5", "elasticity.size_bands = 2, 5")
        cfg.write_text(text + "scenario.recycling_quantile = 5\n")
        assert run_cli("validate", "--config", cfg, "--quiet") == 0


FLOW_FILES = ("files.mrio_z", "files.mrio_d", "files.mrio_x", "files.mrio_f", "files.bridge")


def run_edited(bundle_dir, tmp_path, capsys, lines=(), drop=()):
    """Run the demo with ``lines`` set and the keys in ``drop`` removed:
    (exit code, stderr, the warnings raised)."""
    work = shutil.copytree(bundle_dir, tmp_path / "b")
    cfg = work / "config.txt"
    keys = {line.partition("=")[0].strip() for line in lines} | set(drop)
    kept = [line for line in cfg.read_text().splitlines()
            if line.partition("=")[0].strip() not in keys]
    cfg.write_text("\n".join(kept + list(lines)) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet")
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


class TestConfigKeys:
    """Each key is checked where it is parsed: a misspelt category, a rate
    out of range, a fuel map without its fuel table, a partial set of
    flow-matrix files, an unknown fuel and a missing exchange rate exit 1
    naming the key, with no traceback and no warning."""

    @pytest.mark.parametrize("lines, drop, message", [
        (["tax.fod.vat = 0.5"], (), "config key 'tax.fod.vat': unknown category 'fod'"),
        (["fuel_map.motr_fuels = petrol"], (),
         "config key 'fuel_map.motr_fuels': unknown category 'motr_fuels'"),
        (["tax.food.vat = -0.5"], (),
         "config key 'tax.food.vat': must be nonnegative, got '-0.5'"),
        (["tax.food.vat = -0.5"], FLOW_FILES,
         "config key 'tax.food.vat': must be nonnegative, got '-0.5'"),
        (["tax.food.base_price = 0"], (),
         "config key 'tax.food.base_price': must be positive, got '0'"),
        (["fuel_map.motor_fuels = petrol"],
         ("files.fuels", "fuel_map.domestic_energy", "fuel_map.electricity"),
         "fuel_map.motor_fuels needs files.fuels"),
        ([], ("elasticity.exchange_rate",), "config must name elasticity.exchange_rate"),
        (["scenario.pass_through = 1.5"], (),
         "config key 'scenario.pass_through': must be in [0, 1], got '1.5'"),
        (["distribution.scale = cube_root"], (),
         "config key 'distribution.scale': unknown equivalence scale 'cube_root'; "
         "expected one of none, per_capita, sqrt"),
        ([], ("files.bridge",),
         "config must name files.bridge: files.mrio_* and files.bridge go together; "
         "a carbon tax or fuel map needs them"),
        ([], FLOW_FILES[:4],
         "config must name files.mrio_z: files.mrio_* and files.bridge go together; "
         "a carbon tax or fuel map needs them"),
        ([], FLOW_FILES,
         "config must name files.mrio_z: files.mrio_* and files.bridge go together; "
         "a carbon tax or fuel map needs them"),
        (["fuel_map.motor_fuels = petrl"], (),
         "config key 'fuel_map.motor_fuels': unknown fuel 'petrl', not listed in files.fuels"),
    ], ids=["misspelt tax category", "misspelt fuel-map category", "negative vat",
            "negative vat without the flow matrix", "zero base price",
            "fuel map without a fuel table", "no exchange rate", "pass-through above 1",
            "unknown equivalence scale", "flow matrix without its bridge",
            "bridge without its flow matrix", "fuel map without the flow matrix",
            "unknown fuel"])
    def test_bad_key_exits_1_naming_it(self, bundle_dir, tmp_path, capsys, lines, drop, message):
        code, err, caught = run_edited(bundle_dir, tmp_path, capsys, lines, drop)
        assert code == 1
        assert err == f"error: {message}\n"
        assert caught == []
        assert not (tmp_path / "r").exists()

    def test_emission_content_beyond_the_float_range_is_named(self, bundle_dir, tmp_path,
                                                               capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "f")
        flows = work / "mrio_f.csv"
        flows.write_text(flows.read_text().replace("energy,10\n", "energy,1e308\n"))
        code, err, caught = run_edited(bundle_dir, tmp_path, capsys,
                                       [f"files.mrio_f = {flows}"])
        assert code == 1
        assert "the emission content of domestic_energy is" in err
        assert "files.mrio_f and files.fuels" in err
        assert "Traceback" not in err
        assert caught == []
        assert not (tmp_path / "r").exists()


# keys a perturbed config may set or delete: every number and text key the
# parser takes, keys with a misspelt category or field, and input files
FUZZ_KEYS = (*CONFIG_KEYS, "tax.food.vat", "tax.food.advalorem", "tax.food.excise",
             "tax.food.base_price", "fuel_map.motor_fuels", "tax.fod.vat", "tax.Food.excise",
             "tax..vat", "tax.food.vta", "tax.food", "fuel_map.motr_fuels", "fuel_map.",
             "files.prices", "files.fuels", "files.bridge", "files.households")
# values a perturbed key may take: huge, tiny, negative, not finite, not
# integral, empty, and the words other keys take
FUZZ_VALUES = ("", " ", "abc", "nan", "-nan", "inf", "-inf", "0", "-0", "1", "2", "-1", "0.5",
               "2.5", "-2.5", "1e19", "-1e19", "1e308", "-1e308", "1e400", "1e-300", "5e-324",
               "9" * 30, "800", "-800", "true", "no", "none", "per_capita", "sqrt", "probit",
               "targeted_bottom_q", "2,5", "5,2", "1,2,3")


def fuzz_values():
    """A value for a key, or None to delete the key."""
    text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)
    return st.one_of(st.none(), st.sampled_from(FUZZ_VALUES), st.floats().map(repr),
                     st.integers(-10**25, 10**25).map(str), text)


class TestConfigFuzz:
    """Any value of any config key ends in exit 0, 1 or 2, with a message
    on stderr for 1 and 2, and never in a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(taxed=st.booleans(),
           edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), fuzz_values()),
                          min_size=1, max_size=3, unique_by=lambda edit: edit[0]))
    @example(taxed=False, edits=[("distribution.groups", "1e19")])
    @example(taxed=False, edits=[("elasticity.frisch_level", "800")])
    @example(taxed=False, edits=[("files.prices", "")])
    @example(taxed=True, edits=[("scenario.carbon_tax", "1e308")])
    @example(taxed=False, edits=[("distribution.atkinson_epsilon", "1e30")])
    @example(taxed=False, edits=[("tax.fod.vat", "0.5")])
    @example(taxed=True, edits=[("files.fuels", None)])
    @example(taxed=False, edits=[("elasticity.exchange_rate", None)])
    def test_perturbed_config_ends_in_a_message(self, bundle_dir, tmp_path_factory,
                                                taxed, edits):
        work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        values = {}
        for line in (bundle_dir / "config.txt").read_text().splitlines():
            key, sep, value = (part.strip() for part in line.partition("="))
            if sep and not key.startswith("#"):
                values[key] = str(bundle_dir / value) if key.startswith("files.") else value
        if taxed:
            values.update({"scenario.carbon_tax": "0.5", "scenario.recycling": "per_capita"})
        values.update(edits)
        config = work / "config.txt"
        config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()
                                  if value is not None))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = run_cli("run", "--config", config, "--out", work / "r", "--quiet")
        finally:
            shutil.rmtree(work)
        assert code in (0, 1, 2)
        if code:
            assert re.match(r"(error|numerical failure): \S", err.getvalue()), err.getvalue()
        assert "Traceback" not in err.getvalue()


# cells a perturbed wide input may hold: numbers the loaders take or reject
FUZZ_CELLS = ("", "abc", "nan", "inf", "-1", "1e400", "1e308", "0", "-0", "1e-320", " 5 ", "2_0",
              '"7"', "\x1c1", "1e30", "0.5", "100", "zz")


def perturb_lines(data, text):
    """``text`` with 1-3 cell or line perturbations drawn from ``data``."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="faults")):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(["cell", "cell", "cell", "drop line", "repeat line",
                                          "blank line", "spaces line", "drop cell", "add cell",
                                          "swap lines", "quote cell"]), label="kind")
        cells = lines[i].split(",")
        j = data.draw(st.integers(0, len(cells) - 1), label="cell")
        if kind == "cell":
            cells[j] = data.draw(st.one_of(st.sampled_from(FUZZ_CELLS),
                                           st.floats(-1e3, 1e3).map(repr)), label="text")
        elif kind == "drop cell":
            del cells[j]
        elif kind == "add cell":
            cells.insert(j, "1")
        elif kind == "quote cell":
            cells[j] = f'"{cells[j]}"'
        if kind in ("cell", "drop cell", "add cell", "quote cell"):
            lines[i] = ",".join(cells)
        elif kind == "drop line":
            del lines[i]
        elif kind == "repeat line":
            lines.insert(i, lines[i])
        elif kind in ("blank line", "spaces line"):
            lines.insert(i, "" if kind == "blank line" else "  ")
        else:
            k = data.draw(st.integers(0, len(lines) - 1), label="other line")
            lines[i], lines[k] = lines[k], lines[i]
    ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    bom = "\ufeff" if data.draw(st.integers(0, 9), label="bom") == 0 else ""
    return bom + ending.join(lines) + ending


class TestWideInputs:
    def test_flow_matrix_without_sector_column_is_data_error(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        z = work / "mrio_z.csv"
        z.write_text(z.read_text().replace("sector,", "foo,", 1))
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == 1
        assert "mrio_z.csv: first column must be 'sector', got 'foo'" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_perturbed_flow_matrix_and_bridge_end_in_a_message(self, bundle_dir,
                                                                 tmp_path_factory, data):
        """Each input file of the demo run, and the two wide tables together."""
        work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        shutil.copytree(bundle_dir, work / "b")
        files = [["mrio_z.csv"], ["bridge.csv"], ["mrio_z.csv", "bridge.csv"],
                 ["households.csv"], ["prices.csv"], ["fuels.csv"], ["mrio_d.csv"],
                 ["mrio_x.csv"], ["mrio_f.csv"]]
        for name in data.draw(st.sampled_from(files), label="files"):
            path = work / "b" / name
            path.write_bytes(perturb_lines(data, path.read_text()).encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("run", "--config", work / "b" / "config.txt", "--out", work / "r",
                           "--quiet")
        assert code in (0, 1, 2)
        if code:
            assert re.match(r"(error|numerical failure): \S", err.getvalue()), err.getvalue()
        assert "Traceback" not in err.getvalue()
