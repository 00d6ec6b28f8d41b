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
from .data import CategorySet, write_household_survey
from .errors import DataValidationError, NumericalModelError
from .inputoutput import leontief_solve_residual, technology_matrix
from .scenario import (
    build_config,
    emit_reports,
    load_survey,
    parse_config,
    rebuild_tables_from_csv,
    run_scenario,
    write_tables,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NUMERIC = 2


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser only, or with every
    subcommand's when ``command`` is None. Its usage line lists all five
    commands either way."""
    parser = argparse.ArgumentParser(
        prog="priceshock",
        description="Price-shock microsimulation: incidence, demand response, welfare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # with one subparser built, the metavar spells the choice list all five would
    choices = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, (_, summary, description, configured, options) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary, description=description)
        if configured:
            p.add_argument("--config", required=True, help="path to the run configuration file")
            p.add_argument("--seed", type=int, default=None, help="override the configured seed")
            p.add_argument("--quiet", action="store_true", help="suppress progress output")
        for flag, text in options:
            p.add_argument(flag, required=True, help=text)
    return parser


def _load_config(args):
    """The configuration, with ``--seed`` read as a ``seed`` line of its file."""
    cfg = parse_config(args.config)
    if args.seed is None:
        return cfg
    return build_config({**cfg.raw, "seed": str(args.seed)}, Path(args.config).parent)


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
        residual = leontief_solve_residual(technology_matrix(carbon.mrio), carbon.leontief_rows,
                                           carbon.leontief_solution)
        _say(args, f"inter-industry table: {len(carbon.mrio.sectors)} sectors, "
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
    _, result = load_survey(cfg, impute=True)  # with scenario.impute on or off
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_household_survey(args.out, result.survey, CategorySet.default(),
                           extra_columns=result.provenance)
    _say(args, f"imputed {len(result.survey.ids)} households -> {args.out}")
    for note in result.report.notes:
        _say(args, f"note: {note}")
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run_scenario(_load_config(args))
    paths = emit_reports(result, args.out)
    _say(args, f"scenario complete; revenue {result.revenue:.6f}; "
               f"{len(paths)} files in {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    tables, _ = rebuild_tables_from_csv(args.results, _load_config(args))
    write_tables(tables, args.out)
    _say(args, f"re-emitted {len(tables)} tables to {args.out}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from .fixtures import write_fixture_bundle  # only this command needs it

    paths = write_fixture_bundle(args.out)
    print(f"wrote {len(paths)} fixture files to {args.out}")
    return EXIT_OK


# Each subcommand: its handler, its help line, its own help's description
# (None: none), whether it takes --config, --seed and --quiet, and its
# further required options with their help.
_SUBCOMMANDS = {
    "validate": (_cmd_validate, "check the configuration and data, and price the scenario",
                 None, True, ()),
    "impute": (_cmd_impute, "impute expenditure patterns into the income dataset", None, True,
               (("--out", "output CSV for the imputed dataset"),)),
    "run": (_cmd_run, "run the configured scenario end to end", None, True,
            (("--out", "output directory for tables and results"),)),
    "report": (_cmd_report, "re-emit aggregate tables from stored results",
               "Re-emit the aggregate tables from a run's households.csv. Its "
               "values are rounded, so a table value on a 6-digit rounding tie can print "
               "one unit in its last digit apart from run's. A row whose quintile is not a "
               "whole number from 0 to distribution.groups - 1, whose weight is negative, "
               "whose size is below 1, whose x or equivalised is not positive, or (when "
               "distribution.atkinson_epsilon is 1 or more) whose ye_net is not positive "
               "exits 1 naming the file, row and column. A file in which a quintile "
               "holds no household of positive weight exits 1 naming the file and "
               "distribution.groups.", True,
               (("--results", "households.csv written by a previous run"),
                ("--out", "output directory for the tables"))),
    "fixtures": (_cmd_fixtures, "write the bundled demonstration inputs", None, False,
                 (("--out", "target directory"),)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first argument that names a command is always that command
    args = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](args)
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
