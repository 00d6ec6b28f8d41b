"""Command-line entry points.

Subcommands: ``validate`` (config and data check; prices the scenario but
writes nothing), ``impute`` (expenditure imputation into an income
dataset), ``run`` (full scenario), ``report`` (re-emit aggregate tables
from stored per-household results), ``fixtures`` (write the bundled
demonstration inputs). Exit codes: 0 success, 1 data or validation error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .data import CategorySet, load_household_survey, load_income_survey, write_household_survey
from .errors import DataValidationError, NumericalModelError
from .fixtures import write_fixture_bundle
from .imputation import impute_expenditure_patterns
from .inputoutput import leontief_solve_residual
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

    p = sub.add_parser("validate", help="check the configuration and data, and price the scenario")
    common(p)

    p = sub.add_parser("impute", help="impute expenditure patterns into the income dataset")
    common(p)
    p.add_argument("--out", required=True, help="output CSV for the imputed dataset")

    p = sub.add_parser("run", help="run the configured scenario end to end")
    common(p)
    p.add_argument("--out", required=True, help="output directory for tables and results")

    p = sub.add_parser("report", help="re-emit aggregate tables from stored results",
                       description="Re-emit the aggregate tables from a run's households.csv. Its "
                       "values are rounded, so a table value on a 6-digit rounding tie can print "
                       "one unit in its last digit apart from run's.")
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
    result = run_scenario(cfg)  # prices the scenario; writes nothing
    report = result.load_report
    _say(args, f"households: {report.n_loaded} loaded, "
               f"{report.n_dropped_zero_total} dropped (zero expenditure)")
    if result.carbon is not None:
        carbon = result.carbon
        residual = leontief_solve_residual(carbon.technology, carbon.leontief_rows,
                                           carbon.leontief_solution)
        _say(args, f"inter-industry table: {len(carbon.technology.sectors)} sectors, "
                   f"Leontief solve residual {residual:.3g}")
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
        source, income, categories, seed=cfg.seed, link=cfg.imputation_link
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_household_survey(args.out, result.survey, categories,
                           extra_columns=result.provenance)
    _say(args, f"imputed {len(result.survey.ids)} households -> {args.out}")
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
    except OSError as exc:  # such as an output path under a file
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
