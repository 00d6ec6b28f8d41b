"""Command-line entry points.

Subcommands: ``validate`` (config and data check), ``impute`` (expenditure
imputation into an income dataset), ``run`` (full scenario), ``report``
(re-emit aggregate tables from stored per-household results), ``fixtures``
(write the bundled demonstration inputs). Exit codes: 0 success, 1 data or
validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .data import (
    CategorySet,
    load_household_survey,
    load_income_survey,
    load_mrio,
    write_household_survey,
)
from .errors import DataValidationError, NumericalModelError
from .fixtures import write_fixture_bundle
from .imputation import impute_expenditure_patterns
from .inputoutput import leontief_inverse, leontief_residual, technology_matrix
from .scenario import (
    emit_reports,
    parse_config,
    rebuild_tables_from_csv,
    run_scenario,
    write_tables,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NUMERIC = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priceshock",
        description="Price-shock microsimulation: incidence, demand response, welfare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("validate", help="check the configuration and all referenced data")
    common(p)

    p = sub.add_parser("impute", help="impute expenditure patterns into the income dataset")
    common(p)
    p.add_argument("--out", required=True, help="output CSV for the imputed dataset")

    p = sub.add_parser("run", help="run the configured scenario end to end")
    common(p)
    p.add_argument("--out", required=True, help="output directory for tables and results")

    p = sub.add_parser("report", help="re-emit aggregate tables from stored results")
    common(p)
    p.add_argument("--results", required=True, help="households.csv written by a previous run")
    p.add_argument("--out", required=True, help="output directory for the tables")

    p = sub.add_parser("fixtures", help="write the bundled demonstration inputs")
    p.add_argument("--out", required=True, help="target directory")
    return parser


def _load_config(args):
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["seed"] = str(args.seed)
    return cfg


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    categories = CategorySet.default()
    survey = load_household_survey(cfg.files["households"], categories)
    _say(args, f"households: {survey.report.n_loaded} loaded, "
               f"{survey.report.n_dropped_zero_total} dropped (zero expenditure)")
    if all(k in cfg.files for k in ("mrio_z", "mrio_d", "mrio_x", "mrio_f")):
        table = load_mrio(cfg.files["mrio_z"], cfg.files["mrio_d"],
                          cfg.files["mrio_x"], cfg.files["mrio_f"])
        tech = technology_matrix(table)
        inv = leontief_inverse(tech)
        _say(args, f"inter-industry table: {table.n} sectors, "
                   f"inverse residual {leontief_residual(tech, inv):.3g}")
    for name in ("bridge", "prices", "fuels", "income"):
        if name in cfg.files:
            _say(args, f"{name}: ok ({cfg.files[name].name})")
    _say(args, "configuration valid")
    return EXIT_OK


def _cmd_impute(args) -> int:
    cfg = _load_config(args)
    if "income" not in cfg.files:
        raise DataValidationError("impute requires files.income in the configuration")
    categories = CategorySet.default()
    source = load_household_survey(cfg.files["households"], categories)
    income = load_income_survey(cfg.files["income"])
    result = impute_expenditure_patterns(
        source.records, income.records, categories, seed=cfg.seed, link=cfg.imputation_link
    )
    write_household_survey(args.out, result.records, categories,
                           extra_columns=result.provenance)
    _say(args, f"imputed {len(result.records)} households -> {args.out}")
    for note in result.report.notes:
        _say(args, f"note: {note}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_scenario(cfg)
    paths = emit_reports(result, args.out)
    _say(args, f"scenario complete; revenue {result.revenue:.6f}; "
               f"{len(paths)} files in {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _load_config(args)
    tables, _ = rebuild_tables_from_csv(args.results, cfg)
    write_tables(tables, args.out)
    _say(args, f"re-emitted {len(tables)} tables to {args.out}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    paths = write_fixture_bundle(args.out)
    print(f"wrote {len(paths)} fixture files to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "impute": _cmd_impute,
        "run": _cmd_run,
        "report": _cmd_report,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except NumericalModelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
