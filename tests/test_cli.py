"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import csv
import io
import os
import platform
import random
import re
import resource
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
from priceshock.data import DEFAULT_REPORT_GROUPS, CategorySet
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

    @pytest.mark.parametrize("seed_line", ["seed = 42\n", ""])
    def test_seed_flag_runs_as_a_seed_line_of_the_file(self, bundle_dir, tmp_path, seed_line):
        """``--seed 777`` over a file whose seed is 42, or that has none,
        writes what a file saying ``seed = 777`` writes, manifest included;
        the imputation makes the seed reach the tables."""
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        shutil.copyfile(work / "households.csv", work / "income.csv")
        text = work.joinpath("config.txt").read_text()
        assert "seed = 42\n" in text
        text = text.replace("seed = 42\n", "") + "files.income = income.csv\nscenario.impute = true\n"
        (work / "flag.txt").write_text(text + seed_line)
        (work / "line.txt").write_text(text + "seed = 777\n")
        flag, line = tmp_path / "flag", tmp_path / "line"
        assert run_cli("run", "--config", work / "flag.txt", "--out", flag,
                       "--seed", "777", "--quiet") == 0
        assert run_cli("run", "--config", work / "line.txt", "--out", line, "--quiet") == 0
        assert '"seed": 777' in (flag / "run_manifest.json").read_text()
        assert sorted(p.name for p in flag.iterdir()) == sorted(p.name for p in line.iterdir())
        for p in sorted(flag.iterdir()):
            assert p.read_bytes() == (line / p.name).read_bytes(), p.name

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

    def test_degenerate_atkinson_index_prints_no_warning(self, bundle_dir, tmp_path):
        """A household of equivalised expenditure near 1e-322 puts the
        others' ratios to it beyond the float range in the Atkinson power mean."""
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        hh = work / "households.csv"
        lines = hh.read_text().splitlines()
        header = lines[0].split(",")
        row = next(i for i, line in enumerate(lines) if line.startswith("hh0005,"))
        cells = lines[row].split(",")
        for j, column in enumerate(header):
            if column.startswith("exp_"):
                cells[j] = "1e-322" if column == "exp_food" else "0"
        lines[row] = ",".join(cells)
        hh.write_text("\n".join(lines) + "\n")
        proc = run_cli_process("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                               "--quiet", env={"OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2
        assert ("numerical failure: distribution.atkinson_epsilon = 2: the Atkinson index of "
                "equivalised expenditure rounds to 1; household 'hh0005' has the smallest "
                "equivalised expenditure") in proc.stderr
        assert "Warning" not in proc.stderr

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
        ("inc", "1e308", 1, "households.csv: row 2, column 'inc': value 1e+308 exceeds 1e+100"),
        ("demo_head_age", "-1e308", 1,
         "households.csv: row 2, column 'demo_head_age': value -1e+308 exceeds 1e+100"),
    ], ids=["weight 1e308", "size 1e308", "exp_food 1e308", "weight 1e99", "size 1e40",
            "inc 1e308", "demo_head_age -1e308"])
    def test_extreme_household_values_end_in_a_message(self, bundle_dir, tmp_path, capsys,
                                                        column, text, code, problem):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        replace_cell(work / "households.csv", 2, column, text)
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == code
        assert problem in capsys.readouterr().err

    def test_extreme_income_of_an_imputing_run_ends_in_a_message(self, bundle_dir, tmp_path,
                                                                  capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        shutil.copyfile(work / "households.csv", work / "income.csv")
        cfg = work / "config.txt"
        cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        replace_cell(work / "households.csv", 2, "inc", "1e308")
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == 1
        assert ("households.csv: row 2, column 'inc': value 1e+308 exceeds 1e+100"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("column,text,code,problem", [
        ("weight", "-1", 1, "income.csv: row 2, column 'weight': negative value -1.0"),
        ("size", "0.5", 1, "income.csv: row 2, column 'size': value 0.5 < 1"),
        ("weight", "1e30", 1, "distribution.groups = 5 leaves some groups empty: the sample's "
                              "240 households and weights cannot fill them; household 'hh0000' "
                              "of files.income holds weight 1e+30 of 1e+30, more than 1/5"),
        ("inc", "1e-30", 2, "distribution.atkinson_epsilon = 2: the Atkinson index of "
                            "equivalised expenditure rounds to 1; household 'hh0000' has the "
                            "smallest equivalised expenditure, 1.09366e-27"),
    ], ids=["weight -1", "size 0.5", "weight 1e30", "inc 1e-30"])
    def test_extreme_income_record_is_named(self, bundle_dir, tmp_path, capsys, column, text,
                                            code, problem):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        shutil.copyfile(work / "households.csv", work / "income.csv")
        cfg = work / "config.txt"
        cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        replace_cell(work / "income.csv", 2, column, text)
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "r", "--quiet") == code
        assert problem in capsys.readouterr().err

    def test_heavy_household_is_named_with_its_file(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        replace_cell(work / "households.csv", 3, "weight", "1e99")
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == 1
        assert ("household 'hh0001' of files.households holds weight 1e+99 of 1e+99, more "
                "than 1/5" in capsys.readouterr().err)

    def test_id_ending_in_a_nul_next_to_the_id_without_it_is_named(self, bundle_dir, tmp_path,
                                                                     capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        replace_cell(work / "households.csv", 3, "id", '"hh0000\x00"')
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == 1
        assert ("households.csv: row 3, column 'id': id 'hh0000\\x00' ends in a NUL character"
                in capsys.readouterr().err)

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


# the ASCII C locale, with Python's UTF-8 mode and locale coercion off
C_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}


def run_cli_process(*argv, env=None):
    """``priceshock`` in a new interpreter under ``env`` (added to this one's)."""
    env = {**os.environ, "PYTHONPATH": str(Path(priceshock.__file__).parents[1]), **(env or {})}
    return subprocess.run([sys.executable, "-m", "priceshock.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, encoding="utf-8",
                          errors="backslashreplace")


class TestTextEncoding:
    """Every text file is read and written as UTF-8, whatever the locale;
    a file that is not UTF-8 exits 1 naming the file and the row."""

    @staticmethod
    def replace_bytes(path, old: bytes, new: bytes):
        path.write_bytes(path.read_bytes().replace(old, new, 1))

    def test_non_ascii_ids_run_alike_under_the_c_locale(self, bundle_dir, tmp_path):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        self.replace_bytes(work / "households.csv", b"\nhh0000,", "\nh\u00e90000,".encode())
        cfg = work / "config.txt"
        c_run = run_cli_process("run", "--config", cfg, "--out", tmp_path / "c", "--quiet",
                                env=C_LOCALE)
        assert (c_run.returncode, c_run.stderr) == (0, "")
        utf8_run = run_cli_process("run", "--config", cfg, "--out", tmp_path / "u", "--quiet",
                                   env={"PYTHONUTF8": "1"})
        assert utf8_run.returncode == 0
        for path in sorted((tmp_path / "u").iterdir()):
            assert (tmp_path / "c" / path.name).read_bytes() == path.read_bytes(), path.name
        assert "\nh\u00e90000,".encode() in (tmp_path / "c" / "households.csv").read_bytes()
        report = run_cli_process("report", "--config", cfg, "--results",
                                 tmp_path / "c" / "households.csv", "--out", tmp_path / "t",
                                 "--quiet", env=C_LOCALE)
        assert (report.returncode, report.stderr) == (0, "")

    @pytest.mark.parametrize("env", [C_LOCALE, {"PYTHONUTF8": "1"}], ids=["C", "UTF-8"])
    def test_a_latin1_byte_names_the_file_and_row(self, bundle_dir, tmp_path, env):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        self.replace_bytes(work / "households.csv", b"\nhh0004,", b"\nhh\xe9004,")
        proc = run_cli_process("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                               "--quiet", env=env)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {work / 'households.csv'}: row 6: byte 0xe9 is not "
                               f"UTF-8 text (invalid continuation byte)\n")

    @pytest.mark.parametrize("name", ["households.csv", "income.csv"])
    @pytest.mark.parametrize("bom", [False, True], ids=["id renamed", "byte-order mark"])
    def test_a_header_without_id_names_the_file(self, bundle_dir, tmp_path, name, bom):
        """A header whose first cell reads hid, or \ufeffid in a file saved
        with a UTF-8 byte-order mark, exits 1 naming the file and the column."""
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        if name == "income.csv":
            shutil.copyfile(work / "households.csv", work / name)
            cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        path = work / name
        text = path.read_bytes()
        assert text.startswith(b"id,")
        path.write_bytes(b"\xef\xbb\xbf" + text if bom else b"h" + text)
        proc = run_cli_process("run", "--config", cfg, "--out", tmp_path / "r", "--quiet")
        fault = ("row 1 starts with a UTF-8 byte-order mark (U+FEFF): save the file without it"
                 if bom else "missing required columns ['id']")
        assert (proc.returncode, proc.stderr) == (1, f"error: {path}: {fault}\n")

    def test_a_latin1_byte_in_the_config_names_its_line(self, bundle_dir, tmp_path):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
        lines = cfg.read_bytes().count(b"\n")
        proc = run_cli_process("validate", "--config", cfg, env=C_LOCALE)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {cfg}: line {lines}: byte 0xe9 is not UTF-8 text "
                               f"(invalid continuation byte)\n")


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

    def test_report_needs_no_pi_column(self, bundle_dir, tmp_path):
        """households.csv's pi column is written by run but read by no table."""
        out = tmp_path / "results"
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet") == 0
        with open(out / "households.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index("pi")
        with open(tmp_path / "households.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(row[:j] + row[j + 1:] for row in rows)
        rep = tmp_path / "rebuilt"
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", tmp_path / "households.csv", "--out", rep, "--quiet") == 0
        rebuilt = sorted(p.name for p in rep.iterdir())
        assert len(rebuilt) == 7
        for name in rebuilt:
            assert (rep / name).read_bytes() == (out / name).read_bytes(), name

    def test_labels_with_a_comma_are_quoted_in_the_tables(self, bundle_dir, tmp_path):
        out = tmp_path / "results"
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet") == 0
        head, rest = (out / "households.csv").read_text().split("\n", 1)
        head = head.replace("share_other", '"share_o,ther"').replace("burden_other",
                                                                     '"burden_o,ther"')
        (out / "households.csv").write_text(head + "\n" + rest)
        rep = tmp_path / "rebuilt"
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", rep, "--quiet") == 0
        for path in sorted(rep.iterdir()):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len({len(row) for row in rows}) == 1, path.name
        with open(rep / "t2_inflation_drivers.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == [*list(DEFAULT_REPORT_GROUPS)[:-1],
                                                               "o,ther", "total"]
        with open(rep / "t3_budget_shares.csv", newline="") as fh:
            assert next(csv.reader(fh))[-2] == "o,ther"

    def test_bad_cell_in_results_is_named(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet")
        replace_cell(out / "households.csv", 4, "cv", "abc")
        capsys.readouterr()
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", tmp_path / "t") == 1
        err = capsys.readouterr().err
        assert "households.csv: row 4, column 'cv': non-numeric value 'abc'" in err

    def test_poorest_household_of_a_degenerate_atkinson_index_is_named_by_number(
            self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet")
        replace_cell(out / "households.csv", 4, "equivalised", "1e-300")
        capsys.readouterr()
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", tmp_path / "t") == 2
        assert ("the Atkinson index of equivalised expenditure rounds to 1; household number 3 "
                "has the smallest equivalised expenditure, 1e-300" in capsys.readouterr().err)

    @pytest.mark.parametrize("dropped,missing", [
        (["burden_food"], "['burden_food']"),
        (["share_motor_fuels", "burden_other"], "['share_motor_fuels', 'burden_other']"),
        ([c for g in DEFAULT_REPORT_GROUPS for c in (f"share_{g}", f"burden_{g}")],
         "['share_<group>', 'burden_<group>']"),
    ], ids=["no burden_food", "one column of two groups", "no group"])
    def test_incomplete_group_columns_are_named(self, bundle_dir, tmp_path, capsys, dropped,
                                                missing):
        out = tmp_path / "results"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet")
        lines = [line.split(",") for line in (out / "households.csv").read_text().splitlines()]
        keep = [j for j, c in enumerate(lines[0]) if c not in dropped]
        (out / "households.csv").write_text("".join(",".join(cells[j] for j in keep) + "\n"
                                                    for cells in lines))
        capsys.readouterr()
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", tmp_path / "t") == 1
        err = capsys.readouterr().err
        assert f"households.csv: missing columns {missing}" in err


class TestReportRows:
    """``report`` checks each row of households.csv, and that every quintile
    holds weight, before it builds a table."""

    @pytest.fixture(scope="class")
    def run_dir(self, bundle_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("report_rows")
        assert run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet") == 0
        return out

    @pytest.fixture
    def results(self, run_dir, tmp_path):
        return Path(shutil.copyfile(run_dir / "households.csv", tmp_path / "households.csv"))

    def report(self, bundle_dir, results, capsys):
        capsys.readouterr()
        code = run_cli("report", "--config", bundle_dir / "config.txt", "--results", results,
                       "--out", results.parent / "t", "--quiet")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "Warning" not in err
        return code, err

    @pytest.mark.parametrize("row,column,text,problem", [
        (5, "quintile", "-1", "-1 is not a quintile of distribution.groups = 5, a whole number "
                              "from 0 to 4"),
        (5, "quintile", "2.5", "2.5 is not a quintile of distribution.groups = 5"),
        (6, "x", "0", "value 0.0 is not positive"),
        (6, "x", "1e-320", "value 1e-320 is too small: a burden_<group> or equivalised divided "
                           "by it leaves the float range"),
        (6, "equivalised", "-3", "value -3.0 is not positive"),
        (7, "weight", "-5", "negative value -5.0"),
        (8, "size", "0.5", "value 0.5 < 1"),
        (9, "ye_net", "0", "value 0.0 is not positive, as distribution.atkinson_epsilon = 2 asks"),
    ], ids=["quintile -1", "quintile 2.5", "x 0", "x 1e-320", "equivalised -3", "weight -5",
            "size 0.5", "ye_net 0"])
    def test_a_faulty_row_is_named(self, bundle_dir, results, capsys, row, column, text, problem):
        replace_cell(results, row, column, text)
        code, err = self.report(bundle_dir, results, capsys)
        assert code == 1
        assert f"households.csv: row {row}, column {column!r}: {problem}" in err

    @pytest.mark.parametrize("fault", ["a quintile with no household", "every weight 0"])
    def test_an_unfilled_quintile_names_distribution_groups(self, bundle_dir, results, capsys,
                                                            fault):
        rows = list(csv.DictReader(results.read_text().splitlines()))
        for row, cells in enumerate(rows, start=2):
            if fault == "every weight 0":
                replace_cell(results, row, "weight", "0")
            elif cells["quintile"] == "4":
                replace_cell(results, row, "quintile", "3")
        code, err = self.report(bundle_dir, results, capsys)
        assert code == 1
        problem = ("quintile 4 holds no household of positive weight"
                   if fault == "a quintile with no household" else "every household has weight 0")
        assert (f"households.csv: {problem}; distribution.groups = 5 needs each quintile from "
                f"0 to 4 to hold one") in err

    def test_a_quintile_far_out_of_range_allocates_nothing_by_it(self, bundle_dir, results):
        """A quintile of 1e9 once sized an array by it (about 8 GB); the
        report runs here under a 1 GiB address-space cap."""
        replace_cell(results, 5, "quintile", "1e9")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(priceshock.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "priceshock.cli", "report", "--config",
             str(bundle_dir / "config.txt"), "--results", str(results), "--out",
             str(results.parent / "t"), "--quiet"],
            env=env, capture_output=True, text=True, preexec_fn=cap)
        assert proc.returncode == 1, proc.stderr
        assert "households.csv: row 5, column 'quintile': 1e9 is not a quintile" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_shuffled_columns_give_the_same_tables(self, bundle_dir, run_dir, results, capsys):
        lines = [line.split(",") for line in results.read_text().splitlines()]
        order = random.Random(11).sample(range(len(lines[0])), len(lines[0]))
        # the share_* and burden_* columns, unevenly spaced, keep their order,
        # which orders the tables' groups
        grouped = [j for j in order if lines[0][j].startswith(("share_", "burden_"))]
        slots = iter(sorted(grouped))
        order = [next(slots) if j in grouped else j for j in order]
        results.write_text("".join(",".join(cells[j] for j in order) + "\n" for cells in lines))
        assert self.report(bundle_dir, results, capsys)[0] == 0
        for path in sorted((results.parent / "t").iterdir()):
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), path.name


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

    def test_accounting_identity_names_the_output_file(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "x")
        output = work / "mrio_x.csv"
        output.write_text(output.read_text().replace("energy,100,", "energy,1e-320,"))
        code, err, caught = run_edited(bundle_dir, tmp_path, capsys,
                                       [f"files.mrio_x = {output}"])
        assert code == 1
        assert err.startswith("error: accounting identity violated: files.mrio_x gives "
                              "sector 'energy' output 9.99989e-321, checked against the row "
                              "sum of files.mrio_z plus files.mrio_d (residual -100, ")
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
        values = {}
        for line in (bundle_dir / "config.txt").read_text().splitlines():
            key, sep, value = (part.strip() for part in line.partition("="))
            if sep and not key.startswith("#"):
                values[key] = str(bundle_dir / value) if key.startswith("files.") else value
        if taxed:
            values.update({"scenario.carbon_tax": "0.5", "scenario.recycling": "per_capita"})
        values.update(edits)
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            config = Path(tmp) / "config.txt"
            config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()
                                      if value is not None))
            assert_run_ends_in_a_message(config, Path(tmp) / "r")


def assert_run_ends_in_a_message(config, out):
    """``run`` exits 0, 1 or 2, with a message for 1 and 2 and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli("run", "--config", config, "--out", out, "--quiet")
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

    def test_bridge_columns_are_matched_by_label(self, bundle_dir, tmp_path):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        bridge = work / "bridge.csv"
        rows = [line.split(",") for line in bridge.read_text().splitlines()]
        assert rows[0][1:] == ["energy", "industry"]
        bridge.write_text("".join(f"{row[0]},{row[2]},{row[1]}\n" for row in rows))
        for config, out in ((bundle_dir / "config.txt", "demo"), (work / "config.txt", "swapped")):
            assert run_cli("run", "--config", config, "--out", tmp_path / out, "--quiet") == 0
        for path in sorted((tmp_path / "demo").iterdir()):
            assert (tmp_path / "swapped" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_bridge_column_that_is_no_sector_is_named(self, bundle_dir, tmp_path, capsys):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        bridge = work / "bridge.csv"
        bridge.write_text(bridge.read_text().replace("category,energy,", "category,energyx,", 1))
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == 1
        assert capsys.readouterr().err == (
            "error: files.bridge: product column labels do not match the sectors of "
            "files.mrio_z; missing 1: 'energy'; unexpected 1: 'energyx'\n")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_perturbed_flow_matrix_and_bridge_end_in_a_message(self, bundle_dir,
                                                                 tmp_path_factory, data):
        """Each input file of the demo run, and the two wide tables together."""
        files = [["mrio_z.csv"], ["bridge.csv"], ["mrio_z.csv", "bridge.csv"],
                 ["households.csv"], ["prices.csv"], ["fuels.csv"], ["mrio_d.csv"],
                 ["mrio_x.csv"], ["mrio_f.csv"]]
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            work = shutil.copytree(bundle_dir, Path(tmp) / "b")
            for name in data.draw(st.sampled_from(files), label="files"):
                path = work / name
                path.write_bytes(perturb_lines(data, path.read_text()).encode())
            assert_run_ends_in_a_message(work / "config.txt", Path(tmp) / "r")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_perturbed_income_file_ends_in_a_message(self, bundle_dir, tmp_path_factory, data):
        """An imputing run on a perturbed income file (the demo survey's own columns)."""
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            work = shutil.copytree(bundle_dir, Path(tmp) / "b")
            text = (work / "households.csv").read_text()
            (work / "income.csv").write_bytes(perturb_lines(data, text).encode())
            with open(work / "config.txt", "a") as cfg:
                cfg.write("files.income = income.csv\nscenario.impute = true\n")
            assert_run_ends_in_a_message(work / "config.txt", Path(tmp) / "r")


class TestInputFaultsNameTheirFile:
    """A fault that the domain types would refuse without naming a file is
    refused by its loader, which names the file and row."""

    @pytest.mark.parametrize("name, old, new, row, problem", [
        ("fuels.csv", "diesel,73.4,2.68", "diesel,0,2.68", 2,
         "column 'price': fuel 'diesel' has price 0.0; fuel prices must be strictly positive"),
        ("fuels.csv", "diesel,73.4,2.68", "diesel,73.4,0", 2,
         "column 'kgco2_per_unit': fuel 'diesel' has carbon content 0.0; fuel carbon contents "
         "must be strictly positive"),
        ("fuels.csv", "diesel,73.4,2.68\n", "diesel,73.4,2.68\ndiesel,73.4,2.68\n", 3,
         "duplicate fuel 'diesel'"),
        ("bridge.csv", "food,0,1", "food,-0.5,1.5", 2,
         "column 'energy': category 'food' has negative share -0.5; bridging shares must be "
         "nonnegative"),
        ("bridge.csv", "food,0,1", "food,0.5,0.6", 2, "bridging row 'food' sums to 1.1, expected 1"),
        ("mrio_z.csv", "energy,20,30", "energy,20,-30", 2,
         "column 'industry': sector 'energy' has negative flow -30.0; flows, final demand and "
         "emissions must be nonnegative"),
        ("mrio_d.csv", "industry,50", "industry,-50", 3,
         "column 'd': sector 'industry' has negative final demand -50.0"),
        ("mrio_f.csv", "energy,10", "energy,-10", 2,
         "column 'f': sector 'energy' has negative emissions -10.0"),
        ("mrio_x.csv", "energy,100,", "energy,0,", 2,
         "column 'x': sector 'energy': output must be strictly positive, got 0.0"),
        ("prices.csv", "food,0.4289", "food,-1.5", 2,
         "column 'pi': category 'food' has price relative -1.5; price relatives must exceed -1"),
    ], ids=["fuel price 0", "fuel carbon 0", "duplicate fuel", "negative share", "row sum 1.1",
            "negative flow", "negative final demand", "negative emissions", "output 0",
            "price relative -1.5"])
    def test_fault_names_the_file_and_row(self, bundle_dir, tmp_path, capsys, name, old, new,
                                          row, problem):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        path = work / name
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new, 1))
        capsys.readouterr()
        assert run_cli("run", "--config", work / "config.txt", "--out", tmp_path / "r",
                       "--quiet") == 1
        err = capsys.readouterr().err
        separator = ", " if problem.startswith("column") else ": "
        assert err.startswith(f"error: {path}: row {row}{separator}{problem}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("zeroed, imputing, command", [
        ("households.csv", False, "run"),
        ("income.csv", True, "run"),
        ("income.csv", True, "impute"),
        ("households.csv", True, "impute"),
    ])
    def test_a_survey_without_weight_names_its_file(self, bundle_dir, tmp_path, capsys, zeroed,
                                                    imputing, command):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        shutil.copyfile(work / "households.csv", work / "income.csv")
        cfg = work / "config.txt"
        if imputing:
            cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        rows = list(csv.reader((work / zeroed).read_text().splitlines()))
        for cells in rows[1:]:
            cells[rows[0].index("weight")] = "0"
        (work / zeroed).write_text("".join(",".join(cells) + "\n" for cells in rows))
        out = tmp_path / ("r" if command == "run" else "r/imputed.csv")
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", out, "--quiet") == 1
        err = capsys.readouterr().err
        assert err == f"error: {work / zeroed}: every household has weight 0\n"
        assert "Traceback" not in err


BOM = "row 1 starts with a UTF-8 byte-order mark (U+FEFF): save the file without it"


class TestLabelSetsAndByteOrderMarks:
    """A label set that is not the one expected exits 1 naming the file (or
    config key) and each offending label; so does a file saved with a
    UTF-8 byte-order mark, naming the mark. In ``fault``, {z} and {hh}
    stand for mrio_z.csv and households.csv."""

    @pytest.mark.parametrize("name, old, new, fault", [
        pytest.param("mrio_z.csv", "industry,40", "energy,40", "duplicate sector row 'energy'",
                     id="mrio_z duplicate"),
        pytest.param("mrio_z.csv", "industry,40", "services,40", "sector row labels do not match "
                     "the sector columns; missing 1: 'industry'; unexpected 1: 'services'",
                     id="mrio_z renamed"),
        *(pytest.param(name, old, new, fault, id=f"{name[:-4]} {kind}")
          for name, row in (("mrio_d.csv", ",50"), ("mrio_x.csv", ",100"), ("mrio_f.csv", ",30"))
          for kind, old, new, fault in (
              ("duplicate", "industry" + row, "energy" + row, "duplicate sector 'energy'"),
              ("renamed", "industry" + row, "services" + row, "sector labels do not match the "
               "rows of {z}; missing 1: 'industry'; unexpected 1: 'services'"))),
        *(pytest.param(name, old, new, fault, id=f"{name[:-4]} {kind}")
          for name, row in (("bridge.csv", ",0,1"), ("prices.csv", ",0.3661"))
          for kind, old, new, fault in (
              ("duplicate", "alcohol" + row, "food" + row, "duplicate category 'food'"),
              ("renamed", "alcohol" + row, "alcohl" + row, "category labels do not match the "
               "category registry; missing 1: 'alcohol'; unexpected 1: 'alcohl'"))),
        pytest.param("bridge.csv", "category,energy,industry", "category,energy,energy",
                     "duplicate columns ['energy']", id="bridge duplicate product"),
        pytest.param("bridge.csv", "category,energy,industry", "category,energy,services",
                     "files.bridge: product column labels do not match the sectors of "
                     "files.mrio_z; missing 1: 'industry'; unexpected 1: 'services'",
                     id="bridge renamed product"),
        pytest.param("households.csv", ",exp_alcohol,", ",demo_alcohol,", "expenditure column "
                     "labels do not match the category registry; missing 1: 'exp_alcohol'",
                     id="missing exp_ column"),
        pytest.param("households.csv", ",demo_urban,", ",exp_urban,", "expenditure column "
                     "labels do not match the category registry; unexpected 1: 'exp_urban'",
                     id="unknown exp_ column"),
        pytest.param("income.csv", ",demo_urban,", ",demo_rural,", "covariate labels do not "
                     "match those of {hh}; missing 1: 'urban'; unexpected 1: 'rural'",
                     id="income covariate renamed"),
        *(pytest.param(name, None, None, BOM, id=f"{name} byte-order mark") for name in (
            "households.csv", "income.csv", "mrio_z.csv", "mrio_d.csv", "mrio_x.csv",
            "mrio_f.csv", "bridge.csv", "prices.csv", "fuels.csv", "results")),
        pytest.param("config.txt", None, None, BOM.replace("row", "line"),
                     id="config.txt byte-order mark"),
    ])
    def test_fault_names_the_file_and_its_labels(self, bundle_dir, tmp_path, capsys, name, old,
                                                 new, fault):
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        cfg = work / "config.txt"
        if name == "income.csv":
            shutil.copyfile(work / "households.csv", work / name)
            cfg.write_text(cfg.read_text() + "files.income = income.csv\nscenario.impute = true\n")
        argv = ["run", "--config", cfg, "--out", tmp_path / "r", "--quiet"]
        path = work / name
        if name == "results":  # the households.csv that report reads back
            assert run_cli(*argv) == 0
            path = tmp_path / "r" / "households.csv"
            argv = ["report", "--config", cfg, "--results", path, "--out", tmp_path / "t",
                    "--quiet"]
        text = path.read_bytes()
        if old is None:
            path.write_bytes(b"\xef\xbb\xbf" + text)
        else:
            assert old.encode() in text
            path.write_bytes(text.replace(old.encode(), new.encode(), 1))
        capsys.readouterr()
        assert run_cli(*argv) == 1
        fault = fault.format(z=work / "mrio_z.csv", hh=work / "households.csv")
        where = "" if fault.startswith("files.") else f"{path}: "
        assert capsys.readouterr().err == f"error: {where}{fault}\n"



class TestStartup:
    """A command builds only its own parser, with the text the five-command
    parser gives, and ``import priceshock.cli`` leaves ``fixtures`` unloaded."""

    TOP_USAGE = "usage: priceshock [-h] [--version] {validate,impute,run,report,fixtures} ...\n"
    HELP = TOP_USAGE + """
Price-shock microsimulation: incidence, demand response, welfare.

positional arguments:
  {validate,impute,run,report,fixtures}
    validate            check the configuration and data, and price the
                        scenario
    impute              impute expenditure patterns into the income dataset
    run                 run the configured scenario end to end
    report              re-emit aggregate tables from stored results
    fixtures            write the bundled demonstration inputs

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
    RUN_USAGE = "usage: priceshock run [-h] --config CONFIG [--seed SEED] [--quiet] --out OUT\n"

    @pytest.mark.parametrize("argv, out, err", [
        (["--help"], HELP, ""),
        (["run"], "", RUN_USAGE + "priceshock run: error: the following arguments are "
                                  "required: --config, --out\n"),
        (["run", "--config", "c", "--out", "o", "extra"], "",
         TOP_USAGE + "priceshock: error: unrecognized arguments: extra\n"),
    ], ids=["help", "run without options", "run with an extra argument"])
    def test_help_and_errors_read_as_before(self, monkeypatch, capsys, argv, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == (0 if argv == ["--help"] else 2)
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("command", ["validate", "impute", "run", "report", "fixtures"])
    def test_one_command_parser_reads_as_the_full_one(self, monkeypatch, capsys, command):
        from priceshock.cli import _build_parser

        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parser in (_build_parser(command), _build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            texts.append((parser.format_usage(), capsys.readouterr().out))
        assert texts[0] == texts[1]

    @staticmethod
    def fresh_python(code: str) -> list[str]:
        env = {**os.environ, "PYTHONPATH": str(Path(priceshock.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split()

    def test_fixtures_is_loaded_on_first_use(self):
        code = ("import sys, priceshock.cli; import priceshock; "
                "print('priceshock.fixtures' in sys.modules); priceshock.canonical_fixtures; "
                "print('priceshock.fixtures' in sys.modules)")
        assert self.fresh_python(code) == ["False", "True"]

    @pytest.mark.parametrize("first_use", [
        "priceshock.wls_fit",
        "exec('from priceshock import *', {})",
        "priceshock.scenario.impute_expenditure_patterns",
    ])
    def test_a_run_without_imputation_never_loads_it(self, bundle_dir, tmp_path, first_use):
        loaded = "print([m in sys.modules for m in ('priceshock.imputation', 'priceshock.randutil')])"
        code = ("import sys, priceshock.cli; import priceshock; "
                f"code = priceshock.cli.main(['run', '--config', {str(bundle_dir / 'config.txt')!r}, "
                f"'--out', {str(tmp_path / 'r')!r}, '--quiet']); print(code); {loaded}; "
                f"{first_use}; {loaded}; print(len(priceshock.__all__))")
        assert self.fresh_python(code) == ["0", "[False,", "False]", "[True,", "True]", "84"]

    def test_every_exported_name_resolves(self):
        code = ("import types, priceshock; names = priceshock.__all__; "
                "values = [getattr(priceshock, name) for name in names]; "
                "print({'canonical_fixtures', 'write_fixture_bundle'} <= set(names), "
                "[n for n, v in zip(names, values) if isinstance(v, types.ModuleType)], "
                "hasattr(priceshock, 'no_such_name'))")
        assert self.fresh_python(code) == ["True", "[]", "False"]

    def test_a_star_import_binds_every_exported_name(self):
        code = ("import priceshock; namespace = {}; exec('from priceshock import *', namespace); "
                "print(len(priceshock.__all__), sorted(set(priceshock.__all__) - set(namespace)), "
                "namespace['write_fixture_bundle'].__module__)")
        count, missing, module = self.fresh_python(code)
        assert int(count) > 80 and missing == "[]" and module == "priceshock.fixtures"


class TestHeapPolicy:
    """``main`` sets glibc's malloc thresholds once, before it parses its
    arguments: both of them, or neither."""

    class FakeLibc:
        def __init__(self, answer):
            self.answer, self.calls = answer, []

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return self.answer

    def test_both_thresholds_are_set_where_mallopt_takes_the_first(self):
        from priceshock import cli

        libc = self.FakeLibc(1)
        assert cli.keep_heap(libc) is True
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 * 2**20),
                              (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]
        assert cli.TRIM_THRESHOLD >= 256 * 2**20

    def test_a_refused_mmap_threshold_sets_no_trim_threshold(self):
        from priceshock import cli

        libc = self.FakeLibc(0)
        assert cli.keep_heap(libc) is False
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD)]

    def test_a_library_without_mallopt_sets_nothing(self):
        from priceshock import cli

        assert cli.keep_heap(object()) is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_glibc_takes_both_thresholds(self):
        from priceshock import cli

        assert cli.keep_heap() is True

    def test_main_applies_the_policy_before_any_command_runs(self, monkeypatch, tmp_path):
        from priceshock import cli

        events = []
        build_parser = cli._build_parser

        def parser(*args):
            events.append("parse")
            return build_parser(*args)

        def fixtures(args):
            events.append("command")
            return 0

        monkeypatch.setattr(cli, "keep_heap", lambda: events.append("policy"))
        monkeypatch.setattr(cli, "_build_parser", parser)
        monkeypatch.setitem(cli._SUBCOMMANDS, "fixtures",
                            (fixtures, *cli._SUBCOMMANDS["fixtures"][1:]))
        assert run_cli("fixtures", "--out", tmp_path / "b") == 0
        assert events == ["policy", "parse", "command"]

    def test_outputs_are_byte_identical_with_the_policy_on_and_off(self, tmp_path):
        """``priceshock run`` on the 480-household seed-1 survey_carbon inputs
        of ``test_golden``, in two fresh interpreters, the policy a no-op in one."""
        from test_golden import perfbench_module, sha256_tree

        gen = perfbench_module("gen")
        gen.SURVEY_TILES = 2  # 480 households
        gen.generate("survey_carbon", 1, tmp_path / "in")
        trees, applied = [], []
        for noop in (False, True):
            out = tmp_path / f"out-{noop}"
            code = ("import sys; from priceshock import cli; keep_heap = cli.keep_heap; "
                    f"cli.keep_heap = lambda: print(False if {noop} else keep_heap()); "
                    f"sys.exit(cli.main(['run', '--config', {str(tmp_path / 'in' / 'config.txt')!r}, "
                    f"'--out', {str(out)!r}, '--quiet']))")
            applied.append(TestStartup.fresh_python(code))
            trees.append(sha256_tree(out))
        if platform.libc_ver()[0] == "glibc":
            assert applied == [["True"], ["False"]]
        assert len(trees[0]) == 11 and trees[0] == trees[1]
