"""Whole-pipeline metamorphic relations: a run against itself under a change
of input whose effect is known in advance (Chen et al. 2018, "Metamorphic
testing: a review of challenges and opportunities").

The inputs are the 480-household seed-1 survey_carbon inputs of
``test_golden``. Every scaled cell is written with ``repr``, so that it
reads back as exactly the scaled double.

- Weight scaling: every weight times 4^j leaves every table cell, every
  column of the elasticity table and every household column but ``weight``
  exactly as they were, and scales the revenue by exactly 4^j. An even
  power of 2 keeps the Engel fits' row factors sqrt(w) exact; an odd one
  moves the last bits of ``cv`` and ``ye``.
- Redenomination: every money input times 2^k (spending and income, the
  flow table's values, the fuel prices, the carbon tax, the exchange rate,
  and the per-unit excise and base price of the taxed categories) leaves
  every consumer price relative exactly as it was and every ratio cell of
  the tables within 1e-9 relative, and scales t8's money cells, the
  household money columns and the revenue by 2^k within 1e-9 relative.
  Log expenditure moves by k ln 2, which is not exact: the Engel fits, and
  with them the budget elasticities, round differently, so the elasticity
  table is left out.
- No price change: every ``pi`` of ``prices.csv`` and the carbon tax set
  to 0 raise no revenue and no transfer, so ``cv_net`` is ``cv``; every
  ``|cv|`` is at most 1e-9 of the household's spending, the footprint
  after the (absent) demand response is the one before, and t8's post
  row is its pre row, each within 1e-9 relative.
- Zero-weight households: copies of drawn households, with new ids and
  weight 0, appended after the last row leave every table cell and every
  column of the elasticity table within 1e-9 relative (1e-12 absolute
  near zero), the diagnostics equal, and every original household's row
  within 1e-9 relative. A household of no weight counts in no fit, cell
  or table. The relation is stated for appended rows only: copies put
  before the first row change the order in which sums are taken, which
  has moved a cell by 2e-10.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priceshock.data import DEFAULT_REPORT_GROUPS
from priceshock.scenario import MONEY_COLUMNS, parse_config, run_scenario
from test_golden import perfbench_module

RTOL = 1e-9
ATOL = 1e-12  # near zero, where a relative bound is void
# the household columns that are money: they scale with the money inputs
SCALED_COLUMNS = MONEY_COLUMNS | {f"burden_{g}" for g in DEFAULT_REPORT_GROUPS}
# t8's columns that are money, in its pre and post rows
T8_MONEY = ("mean_ye", "yede")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """(input directory, the run on it) of the seed-1 survey_carbon inputs."""
    gen = perfbench_module("gen")
    gen.SURVEY_TILES = 2  # 480 households
    root = tmp_path_factory.mktemp("metamorphic")
    gen.generate("survey_carbon", 1, root)
    return root, run_scenario(parse_config(root / "config.txt"))


# a per-unit excise and a base price, both money, on three categories
# that the carbon tax reaches
TAX_KEYS = {"tax.food.excise": 0.25, "tax.food.base_price": 1.5,
            "tax.motor_fuels.excise": 0.4, "tax.motor_fuels.base_price": 2.0,
            "tax.electricity.excise": 0.1, "tax.electricity.base_price": 0.75}


@pytest.fixture(scope="module")
def taxed(base, tmp_path_factory):
    """(input directory, the run on it) of ``base``'s inputs with TAX_KEYS set."""
    root = tmp_path_factory.mktemp("taxed")
    for path in base[0].iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    with open(root / "config.txt", "a") as fh:
        fh.writelines(f"{key} = {value!r}\n" for key, value in TAX_KEYS.items())
    return root, run_scenario(parse_config(root / "config.txt"))


def scale_columns(src: Path, dst: Path, factor: float, scaled) -> None:
    """``src`` written to ``dst`` with each cell of the columns that
    ``scaled(name)`` picks multiplied by ``factor``."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    picked = [j for j, name in enumerate(header) if scaled(name)]
    for row in rows:
        for j in picked:
            row[j] = repr(float(row[j]) * factor)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def scaled_run(root: Path, work: Path, factor: float, scaled_files: dict, config_keys=()):
    """The run on ``root``'s inputs, ``scaled_files`` ({file: picks a
    column}) and the ``config_keys`` values multiplied by ``factor``."""
    for path in root.iterdir():
        if path.name in scaled_files:
            scale_columns(path, work / path.name, factor, scaled_files[path.name])
        elif path.name != "config.txt":
            (work / path.name).write_bytes(path.read_bytes())
    lines = []
    for line in (root / "config.txt").read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        lines.append(f"{key} = {float(value) * factor!r}" if key in config_keys else line)
    (work / "config.txt").write_text("\n".join(lines) + "\n")
    return run_scenario(parse_config(work / "config.txt"))


def close(got, want, scale) -> bool:
    """Each of ``got`` within RTOL of ``want`` times ``scale``."""
    want = np.asarray(want, dtype=float) * scale
    return bool(np.all(np.abs(np.asarray(got, dtype=float) - want) <= RTOL * np.abs(want)))


@settings(max_examples=4, deadline=None)
@given(j=st.integers(1, 15))
@example(j=1)
@example(j=10)
def test_scaling_every_weight_by_a_power_of_4_changes_no_value(base, j):
    root, want = base
    with tempfile.TemporaryDirectory() as work:
        got = scaled_run(root, Path(work), 4.0**j, {"households.csv": lambda c: c == "weight"})
    assert got.tables == want.tables
    for name, column in want.elasticities.items():
        np.testing.assert_array_equal(got.elasticities[name], column, err_msg=name)
    assert list(got.household) == list(want.household)
    for name, column in want.household.items():
        if name != "weight":
            np.testing.assert_array_equal(got.household[name], column, err_msg=name)
    np.testing.assert_array_equal(got.household["weight"], want.household["weight"] * 4.0**j)
    assert got.diagnostics == want.diagnostics
    assert got.revenue == want.revenue * 4.0**j


@settings(max_examples=4, deadline=None)
@given(k=st.integers(1, 20))
@example(k=10)
def test_redenominating_every_money_input_scales_only_the_money(taxed, k):
    root, want = taxed
    money = {
        "households.csv": lambda c: c.startswith("exp_") or c == "inc",
        "mrio_z.csv": lambda c: c != "sector",
        "mrio_d.csv": lambda c: c == "d",
        "mrio_x.csv": lambda c: c == "x",
        "fuels.csv": lambda c: c == "price",
    }
    with tempfile.TemporaryDirectory() as work:
        got = scaled_run(root, Path(work), 2.0**k, money,
                         ("scenario.carbon_tax", "elasticity.exchange_rate", *TAX_KEYS))
    # consumer_prices.csv's relative column
    np.testing.assert_array_equal(got.relatives_total, want.relatives_total)
    for name, (header, rows) in want.tables.items():
        got_header, got_rows = got.tables[name]
        assert got_header == header, name
        for row, got_row in zip(rows, got_rows, strict=True):
            assert got_row[0] == row[0], name  # the row's label
            for column, value, got_value in zip(header[1:], row[1:], got_row[1:]):
                scaled = (name == "t8_atkinson" and row[0] != "relative_change"
                          and column in T8_MONEY)
                assert close(got_value, value, 2.0**k if scaled else 1.0), (name, row[0], column)
    assert list(got.household) == list(want.household)
    for name, column in want.household.items():
        if name == "id":
            assert got.household[name].tolist() == column.tolist()
        else:
            factor = 2.0**k if name in SCALED_COLUMNS else 1.0
            assert close(got.household[name], column, factor), name
    assert got.diagnostics == want.diagnostics
    assert close(got.revenue, want.revenue, 2.0**k)


def test_no_price_change_leaves_every_household_as_it_was(base):
    root, _ = base
    with tempfile.TemporaryDirectory() as work:
        got = scaled_run(root, Path(work), 0.0, {"prices.csv": lambda c: c == "pi"},
                         ("scenario.carbon_tax",))
    hh = got.household
    assert got.revenue == 0
    assert not hh["transfer"].any()
    np.testing.assert_array_equal(hh["cv_net"], hh["cv"])
    assert np.all(np.abs(hh["cv"]) <= RTOL * hh["x"])
    assert close(hh["fp_after"], hh["fp_before"], 1.0)
    header, rows = got.tables["t8_atkinson"]
    pre, post = (next(row for row in rows if row[0] == state) for state in ("pre", "post"))
    assert close(post[1:], pre[1:], 1.0), header


def near(got, want) -> bool:
    """Each of ``got`` within RTOL of ``want``, or within ATOL of it near zero."""
    return bool(np.allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                            rtol=RTOL, atol=ATOL))


@settings(max_examples=3, deadline=None)
@given(picks=st.lists(st.integers(0, 479), min_size=2, max_size=34))
# households 138 and 51 are in the two cells of fewer than MIN_GROUP_OBS households
# (6 and 5 of them): counted as rows, these copies would lift both cells to 10
@example(picks=[138] * 4 + [51] * 5)
def test_appended_zero_weight_households_change_no_value(base, picks):
    root, want = base
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for path in root.iterdir():
            if path.name != "households.csv":
                (work / path.name).write_bytes(path.read_bytes())
        with open(root / "households.csv", newline="") as fh:
            header, *records = list(csv.reader(fh))
        copies = []
        for k, i in enumerate(picks):
            copy = dict(zip(header, records[i], strict=True), id=f"zero{k:03d}", weight="0")
            copies.append([copy[name] for name in header])
        with open(work / "households.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *records, *copies])
        got = run_scenario(parse_config(work / "config.txt"))
    for name, (header, rows) in want.tables.items():
        got_header, got_rows = got.tables[name]
        assert got_header == header, name
        for row, got_row in zip(rows, got_rows, strict=True):
            assert got_row[0] == row[0], name  # the row's label
            assert near(got_row[1:], row[1:]), (name, row[0])
    assert list(got.elasticities) == list(want.elasticities)
    for name, column in want.elasticities.items():
        if name in ("group", "category"):
            assert list(got.elasticities[name]) == list(column), name
        else:
            assert near(got.elasticities[name], column), name
    assert got.diagnostics == want.diagnostics
    assert near(got.revenue, want.revenue)
    position = {hh: i for i, hh in enumerate(got.household["id"].tolist())}
    original = np.array([position[hh] for hh in want.household["id"].tolist()])
    assert len(position) == len(original) + len(picks)
    assert list(got.household) == list(want.household)
    for name, column in want.household.items():
        if name != "id":
            assert near(got.household[name][original], column), name
