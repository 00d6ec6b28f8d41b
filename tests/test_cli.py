"""Command-line interface: subcommands, exit codes, determinism."""

from pathlib import Path

from priceshock.cli import main


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


class TestReport:
    def test_report_reproduces_run_tables(self, bundle_dir, tmp_path):
        out = tmp_path / "results"
        run_cli("run", "--config", bundle_dir / "config.txt", "--out", out, "--quiet")
        rep = tmp_path / "rebuilt"
        assert run_cli("report", "--config", bundle_dir / "config.txt",
                       "--results", out / "households.csv", "--out", rep, "--quiet") == 0
        for name in ("t7_welfare.csv", "t8_atkinson.csv", "t9_decomposition.csv"):
            assert (rep / name).read_bytes() == (out / name).read_bytes()


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
