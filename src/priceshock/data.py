"""Domain types and CSV ingestion.

All inputs arrive as CSV files with a header row, one file per matrix or
vector. Loaders are strict: labels must match the registry exactly
(case-sensitive), cells must parse, and nothing is repaired silently --
every mutation a loader performs (dropping a zero-expenditure household)
is counted in its load report.

Normative schemas
-----------------
households.csv   id, weight, size, inc?, demo_*..., exp_<category>...
mrio_z.csv       sector, <sector labels...>   (row i = flows from sector i)
mrio_d.csv       sector, d
mrio_x.csv       sector, x, origin?           (origin: domestic | imported)
mrio_f.csv       sector, f
bridge.csv       category, <product labels...>
prices.csv       category, pi
fuels.csv        fuel, price, kgco2_per_unit

Rows of keyed files may appear in any order; the full label set must match
the registry with no duplicates. Every numeric cell must be text that
``float()`` reads as a finite number. Values are written back with at most
12 significant digits, which round-trips bit-for-bit through the loaders.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataValidationError

# Canonical 19-way expenditure classification. Alcohol and childcare may
# carry no recorded spending in a survey; they stay in the registry with
# all-zero columns so that vector layouts are fixed for a run.
DEFAULT_CATEGORY_IDS = (
    "food",
    "alcohol",
    "tobacco",
    "clothing",
    "domestic_energy",
    "electricity",
    "rents",
    "household_services",
    "health",
    "private_transport",
    "public_transport",
    "communication",
    "recreation",
    "education",
    "restaurants",
    "other",
    "childcare",
    "motor_fuels",
    "durables",
)

CATEGORY_LABELS = {
    "food": "Food and non-alcoholic beverages",
    "alcohol": "Alcoholic beverages",
    "tobacco": "Tobacco",
    "clothing": "Clothing and footwear",
    "domestic_energy": "Domestic energy",
    "electricity": "Electricity",
    "rents": "Rents",
    "household_services": "Household services",
    "health": "Health",
    "private_transport": "Private transport",
    "public_transport": "Public transport",
    "communication": "Communication",
    "recreation": "Recreation and culture",
    "education": "Education",
    "restaurants": "Restaurants and hotels",
    "other": "Other goods and services",
    "childcare": "Childcare costs",
    "motor_fuels": "Motor fuels",
    "durables": "Durables",
}

# Default four-way reporting aggregation used by the incidence tables.
DEFAULT_REPORT_GROUPS: dict[str, tuple[str, ...]] = {
    "food": ("food",),
    "motor_fuels": ("motor_fuels",),
    "domestic_energy_electricity": ("domestic_energy", "electricity"),
    "other": (
        "alcohol",
        "tobacco",
        "clothing",
        "rents",
        "household_services",
        "health",
        "private_transport",
        "public_transport",
        "communication",
        "recreation",
        "education",
        "restaurants",
        "other",
        "childcare",
        "durables",
    ),
}

EXPENDITURE_PREFIX = "exp_"
DEMOGRAPHIC_PREFIX = "demo_"

BRIDGE_ROW_TOL = 1e-9
MRIO_IDENTITY_RTOL = 1e-6


def format_value(v: float) -> str:
    """Canonical decimal text: up to 12 significant digits.

    Distinct 12-digit decimals map to distinct doubles, so text written
    here reloads to the exact same float.
    """
    return f"{float(v):.12g}"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CategorySet:
    """Ordered registry of expenditure-category identifiers.

    The order is fixed for a run; every per-category vector in the package
    is indexed in this order.
    """

    ids: tuple[str, ...]

    def __post_init__(self):
        if not self.ids:
            raise DataValidationError("category set is empty")
        if any(not c for c in self.ids):
            raise DataValidationError("category identifiers must be non-empty")
        if len(set(self.ids)) != len(self.ids):
            raise DataValidationError("category identifiers must be unique")

    @classmethod
    def default(cls) -> "CategorySet":
        return cls(DEFAULT_CATEGORY_IDS)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def index(self, category: str) -> int:
        try:
            return self.ids.index(category)
        except ValueError:
            raise DataValidationError(f"unknown category {category!r}") from None


@dataclass(frozen=True)
class HouseholdRecord:
    """One survey household.

    ``expenditure`` is currency per survey period, indexed by the run's
    CategorySet. Total expenditure is the category sum and must be
    strictly positive; zero-total rows are dropped at load time, never
    constructed.
    """

    id: str
    weight: float
    size: float
    expenditure: np.ndarray
    demographics: Mapping[str, float] = field(default_factory=dict)
    disposable_income: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "expenditure", _freeze(self.expenditure))
        if self.weight < 0:
            raise DataValidationError(f"household {self.id}: negative weight {self.weight}")
        if self.size < 1:
            raise DataValidationError(f"household {self.id}: size {self.size} < 1")
        if np.any(self.expenditure < 0):
            raise DataValidationError(f"household {self.id}: negative expenditure")
        if self.total <= 0:
            raise DataValidationError(f"household {self.id}: zero total expenditure")

    @property
    def total(self) -> float:
        return float(self.expenditure.sum())

    def budget_shares(self) -> np.ndarray:
        return self.expenditure / self.total


@dataclass(frozen=True)
class MrioTable:
    """Inter-industry accounts: flows Z, final demand d, output x, emissions f.

    Row identity: x_i = sum_j Z_ij + d_i within ``identity_rtol`` relative
    to x_i. ``origin`` flags each sector domestic or imported, which
    controls whether it is exposed to domestic carbon pricing.
    """

    sectors: tuple[str, ...]
    flows: np.ndarray
    final_demand: np.ndarray
    output: np.ndarray
    emissions: np.ndarray
    origin: tuple[str, ...]
    identity_rtol: float = MRIO_IDENTITY_RTOL

    def __post_init__(self):
        n = len(self.sectors)
        object.__setattr__(self, "flows", _freeze(self.flows))
        object.__setattr__(self, "final_demand", _freeze(self.final_demand))
        object.__setattr__(self, "output", _freeze(self.output))
        object.__setattr__(self, "emissions", _freeze(self.emissions))
        if self.flows.shape != (n, n):
            raise DataValidationError(
                f"flow matrix is {self.flows.shape}, expected ({n}, {n})"
            )
        for name, vec in (
            ("final demand", self.final_demand),
            ("output", self.output),
            ("emissions", self.emissions),
        ):
            if vec.shape != (n,):
                raise DataValidationError(f"{name} vector has length {vec.shape}, expected {n}")
        if len(self.origin) != n:
            raise DataValidationError("origin flags do not cover all sectors")
        bad = set(self.origin) - {"domestic", "imported"}
        if bad:
            raise DataValidationError(f"unknown origin flags {sorted(bad)}")
        if not all(np.isfinite(v).all() for v in (self.flows, self.final_demand, self.output,
                                                   self.emissions)):
            raise DataValidationError("flows, final demand, output and emissions must be finite")
        if np.any(self.flows < 0) or np.any(self.final_demand < 0) or np.any(self.emissions < 0):
            raise DataValidationError("flows, final demand and emissions must be nonnegative")
        if np.any(self.output <= 0):
            i = int(np.argmin(self.output))
            raise DataValidationError(f"sector {self.sectors[i]!r}: output must be strictly positive")
        resid = self.output - (self.flows.sum(axis=1) + self.final_demand)
        rel = np.abs(resid) / self.output
        worst = int(np.argmax(rel))
        if rel[worst] > self.identity_rtol:
            raise DataValidationError(
                "accounting identity violated: sector "
                f"{self.sectors[worst]!r} residual {resid[worst]:.6g} "
                f"({rel[worst]:.3g} relative, tolerance {self.identity_rtol:g})"
            )

    @property
    def n(self) -> int:
        return len(self.sectors)

    def domestic_mask(self) -> np.ndarray:
        return np.array([o == "domestic" for o in self.origin])


@dataclass(frozen=True)
class BridgingMatrix:
    """Row-stochastic map from consumption categories to industry products."""

    categories: tuple[str, ...]
    products: tuple[str, ...]
    shares: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shares", _freeze(self.shares))
        if self.shares.shape != (len(self.categories), len(self.products)):
            raise DataValidationError("bridging matrix shape does not match its labels")
        if not np.isfinite(self.shares).all():
            raise DataValidationError("bridging shares must be finite")
        if np.any(self.shares < 0):
            raise DataValidationError("bridging shares must be nonnegative")
        rows = self.shares.sum(axis=1)
        bad = np.abs(rows - 1.0) > BRIDGE_ROW_TOL
        if np.any(bad):
            i = int(np.argmax(np.abs(rows - 1.0)))
            raise DataValidationError(
                f"bridging row {self.categories[i]!r} sums to {rows[i]:.12g}, expected 1"
            )


@dataclass(frozen=True)
class FuelTable:
    """Prices per physical unit and carbon content (kg CO2 per unit) by fuel."""

    fuels: tuple[str, ...]
    price: np.ndarray
    carbon_kg_per_unit: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "price", _freeze(self.price))
        object.__setattr__(self, "carbon_kg_per_unit", _freeze(self.carbon_kg_per_unit))
        if len(set(self.fuels)) != len(self.fuels):
            raise DataValidationError("duplicate fuel names")
        if self.price.shape != (len(self.fuels),) or self.carbon_kg_per_unit.shape != (len(self.fuels),):
            raise DataValidationError("fuel table vectors do not match the fuel list")
        if not (np.isfinite(self.price).all() and np.isfinite(self.carbon_kg_per_unit).all()):
            raise DataValidationError("fuel prices and carbon contents must be finite")
        if np.any(self.price <= 0):
            raise DataValidationError("fuel prices must be strictly positive")
        if np.any(self.carbon_kg_per_unit <= 0):
            raise DataValidationError("fuel carbon contents must be strictly positive")

    def index(self, fuel: str) -> int:
        try:
            return self.fuels.index(fuel)
        except ValueError:
            raise DataValidationError(f"unknown fuel {fuel!r}") from None


@dataclass(frozen=True)
class PriceScenario:
    """A priced shock: category price relatives plus policy instruments.

    ``category_relatives`` are proportional consumer-price changes
    (0.4289 means +42.89%). Indirect-tax rates are per category; excises
    are per physical unit and interact with ``base_prices``.
    """

    category_relatives: np.ndarray
    carbon_tax: float = 0.0
    vat: np.ndarray | None = None
    advalorem: np.ndarray | None = None
    excise_per_unit: np.ndarray | None = None
    base_prices: np.ndarray | None = None
    recycling: str = "none"
    border_adjustment: bool = False

    def __post_init__(self):
        object.__setattr__(self, "category_relatives", _freeze(self.category_relatives))
        n = self.category_relatives.shape[0]
        if np.any(self.category_relatives <= -1.0):
            raise DataValidationError("price relatives must exceed -1 (prices stay positive)")
        if self.carbon_tax < 0:
            raise DataValidationError("carbon tax must be nonnegative")
        for name in ("vat", "advalorem", "excise_per_unit", "base_prices"):
            v = getattr(self, name)
            if v is None:
                continue
            v = _freeze(v)
            object.__setattr__(self, name, v)
            if v.shape != (n,):
                raise DataValidationError(f"{name} must have one entry per category")
            if name == "base_prices":
                if np.any(v <= 0):
                    raise DataValidationError("base prices must be strictly positive")
            elif np.any(v < 0):
                raise DataValidationError(f"{name} rates must be nonnegative")


@dataclass(frozen=True)
class IncomeRecord:
    """One row of the imputation target: income and covariates, no basket."""

    id: str
    weight: float
    size: float
    disposable_income: float
    demographics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.weight < 0:
            raise DataValidationError(f"record {self.id}: negative weight {self.weight}")
        if self.size < 1:
            raise DataValidationError(f"record {self.id}: size {self.size} < 1")


@dataclass
class LoadReport:
    """What a loader did: rows seen, records kept, mutations performed."""

    source: str
    n_rows: int = 0
    n_loaded: int = 0
    n_dropped_zero_total: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass
class HouseholdSurvey:
    """The kept households as columns: ``expenditure`` in CategorySet order,
    ``demographics`` one column per ``demographic_names`` entry (``demo_``
    prefix removed), ``income`` None when the file has no ``inc`` column."""

    ids: np.ndarray
    weight: np.ndarray
    size: np.ndarray
    income: np.ndarray | None
    demographic_names: tuple[str, ...]
    demographics: np.ndarray
    expenditure: np.ndarray
    report: LoadReport

    @cached_property
    def records(self) -> list[HouseholdRecord]:
        """The same households as one HouseholdRecord each."""
        income = [None] * len(self.ids) if self.income is None else self.income.tolist()
        return [
            HouseholdRecord(id=hid, weight=w, size=s, expenditure=e, disposable_income=inc,
                            demographics=dict(zip(self.demographic_names, demo)))
            for hid, w, s, e, demo, inc in zip(self.ids.tolist(), self.weight.tolist(),
                                               self.size.tolist(), self.expenditure,
                                               self.demographics.tolist(), income)
        ]


@dataclass
class IncomeSurvey:
    """The imputation target as columns: a HouseholdSurvey without
    expenditure, whose ``income`` is always present."""

    ids: np.ndarray
    weight: np.ndarray
    size: np.ndarray
    income: np.ndarray
    demographic_names: tuple[str, ...]
    demographics: np.ndarray
    report: LoadReport

    @cached_property
    def records(self) -> list[IncomeRecord]:
        """The same rows as one IncomeRecord each."""
        return [
            IncomeRecord(id=rid, weight=w, size=s, disposable_income=inc,
                         demographics=dict(zip(self.demographic_names, demo)))
            for rid, w, s, inc, demo in zip(self.ids.tolist(), self.weight.tolist(),
                                            self.size.tolist(), self.income.tolist(),
                                            self.demographics.tolist())
        ]


def as_survey(data) -> HouseholdSurvey | IncomeSurvey:
    """A survey frame as it is; a list of records as the matching frame.

    The frame's demographic names are the first record's keys, sorted; a
    record missing one of them, or holding another, is rejected. Its
    ``income`` is None when no record has one; a record without income
    among records with one is rejected.
    """
    if isinstance(data, (HouseholdSurvey, IncomeSurvey)):
        return data
    records = list(data)
    if not records:
        raise DataValidationError("no records")
    names = tuple(sorted(records[0].demographics))
    for r in records:
        missing = [k for k in names if k not in r.demographics]
        if missing:
            raise DataValidationError(f"record {r.id!r}: missing covariate(s) {missing}")
        if len(r.demographics) > len(names):
            extra = sorted(set(r.demographics) - set(names))
            raise DataValidationError(f"record {r.id!r}: covariate(s) {extra} not in the first record")
    n = len(records)
    income = [r.disposable_income for r in records]
    if None in income and any(v is not None for v in income):
        hid = records[income.index(None)].id
        raise DataValidationError(f"record {hid!r}: no disposable income, unlike other records")
    columns = dict(
        ids=np.array([r.id for r in records], dtype=str),
        weight=np.array([r.weight for r in records], dtype=float),
        size=np.array([r.size for r in records], dtype=float),
        income=None if None in income else np.array(income, dtype=float),
        demographic_names=names,
        demographics=np.array([[r.demographics[k] for k in names] for r in records],
                              dtype=float).reshape(n, len(names)),
        report=LoadReport(source="records", n_rows=n, n_loaded=n),
    )
    if isinstance(records[0], IncomeRecord):
        return IncomeSurvey(**columns)
    return HouseholdSurvey(**columns, expenditure=np.vstack([r.expenditure for r in records]))


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def read_table(path) -> tuple[list[str], list[list[str]], Sequence[int]]:
    """Read a CSV file into (header, rows, lines), rejecting ragged or headerless files.

    Blank rows are skipped; ``lines[i]`` is the row number in the file of
    ``rows[i]`` (the header is row 1), which every message about a row names.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise DataValidationError(f"{path}: row {reader.line_num}: {exc}") from None
    lines: Sequence[int] = range(2, len(rows) + 2)
    if not all(rows):
        lines = [lineno for lineno, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    if set(map(len, rows)) - {len(header)}:
        i = next(i for i, row in enumerate(rows) if len(row) != len(header))
        raise DataValidationError(
            f"{path}: row {lines[i]} has {len(rows[i])} cells, header has {len(header)}"
        )
    if len(set(header)) != len(header):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise DataValidationError(f"{path}: duplicate columns {dupes}")
    return header, rows, lines


@dataclass
class LabelledTable:
    """A CSV table whose first column holds labels and whose other columns
    hold numbers, as ``read_labelled_table`` leaves it.

    ``values`` has one row per non-blank file row and one column per header
    column after the first; a cell that is not a finite number reads as nan
    or inf there, and its row's value cells are kept as text in ``faulty``
    (by row index) for ``check_cells`` to name.
    """

    path: Path
    header: list[str]
    labels: list[str]
    values: np.ndarray
    lines: list[int]
    faulty: dict[int, list[str]]

    def check_cells(self, columns: Sequence[int], names: Sequence[str]) -> None:
        """Raise for the first cell that is not a finite number, row by row
        and, within a row, in the order of ``columns`` (indices into the
        columns of ``values``; ``names[j]`` names ``columns[j]``)."""
        for i, cells in self.faulty.items():  # filled in row order
            for col, name in zip(columns, names):
                if not np.isfinite(_float_or_nan(cells[col])):
                    raise _cell_error(self.path, self.lines[i], name, cells[col])


def read_labelled_table(path) -> LabelledTable:
    """Read a labelled numeric CSV table in one pass over its rows.

    Each row's value cells become a float vector as the row is read, so
    the table's text is never held at once. A file line opened with
    ``newline=""`` ends at its one line break, so a line without a quote
    is the record ``csv.reader`` would read: its cells split at commas.
    File, header, ragged-row and duplicate-column faults raise as
    ``read_table`` raises them; the caller checks the labels, then calls
    ``check_cells``.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    labels: list[str] = []
    vectors: list[np.ndarray] = []
    lines: list[int] = []
    faulty: dict[int, list[str]] = {}
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataValidationError(f"{path}: row 1: {exc}") from None
        width = len(header)
        for lineno, line in enumerate(fh, start=2):
            if '"' in line:  # csv.reader reads the record, and any lines a quoted cell spans
                try:
                    row = next(csv.reader(chain([line], fh)))
                except csv.Error as exc:
                    raise DataValidationError(f"{path}: row {lineno}: {exc}") from None
            else:  # split as csv.reader splits a line without quotes, three times faster
                row = line.rstrip("\r\n").split(",")
                if row == [""]:
                    continue
            if len(row) != width:
                raise DataValidationError(
                    f"{path}: row {lineno} has {len(row)} cells, header has {width}"
                )
            cells = row[1:]
            try:
                v = np.array(cells, dtype=float)  # accepts what float() accepts
            except ValueError:
                v = np.fromiter(map(_float_or_nan, cells), dtype=float, count=width - 1)
            if not np.isfinite(v).all():
                faulty[len(vectors)] = cells
            labels.append(row[0])
            vectors.append(v)
            lines.append(lineno)
    if len(set(header)) != width:
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise DataValidationError(f"{path}: duplicate columns {dupes}")
    values = np.array(vectors).reshape(len(vectors), max(width - 1, 0))
    return LabelledTable(path=path, header=header, labels=labels, values=values, lines=lines,
                         faulty=faulty)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _parse_cells(rows, positions) -> np.ndarray:
    """The chosen columns of ``rows`` as an (n, m) float block, read in one
    pass with ``float()``; a cell that ``float()`` rejects reads as nan."""
    shape = (len(rows), len(positions))
    pick = itemgetter(*positions)

    def cells():  # itemgetter picks one cell bare, several as a tuple
        picked = map(pick, rows)
        return picked if len(positions) == 1 else chain.from_iterable(picked)

    try:
        flat = np.fromiter(map(float, cells()), dtype=float, count=shape[0] * shape[1])
    except ValueError:
        flat = np.fromiter(map(_float_or_nan, cells()), dtype=float, count=shape[0] * shape[1])
    return flat.reshape(shape)


def _cell_error(path, lineno: int, column: str, text: str) -> DataValidationError:
    try:
        float(text)
        problem = "non-finite"
    except ValueError:
        problem = "non-numeric"
    return DataValidationError(f"{path}: row {lineno}, column {column!r}: {problem} value {text!r}")


def _parse_block(rows, positions, names, path, lines) -> np.ndarray:
    """The chosen columns of ``read_table`` rows as an (n, m) float block.

    Accepts exactly the cells ``float()`` reads as a finite number; the
    first other cell, row by row, raises with its file row (``lines``) and
    column (``names[j]`` names the column at ``positions[j]``).
    """
    block = _parse_cells(rows, positions)
    if not np.isfinite(block).all():
        i, j = np.argwhere(~np.isfinite(block))[0]
        raise _cell_error(path, lines[i], names[j], rows[i][positions[j]])
    return block


def _duplicates(ids: np.ndarray) -> np.ndarray:
    """Mask of the ids that repeat an earlier one."""
    dup = np.ones(len(ids), dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False
    return dup


def _raise_first_fault(path, rows, lines, header: list[str], checks) -> None:
    """Raise the fault a row-by-row loader would meet first.

    ``checks`` lists (row mask, column, message template) in the order the
    checks run on one row; a template of None marks a cell that is not a
    finite number. Templates may use {path}, {row} (the file row, from
    ``lines``), {col}, {hid} (the row's id) and {value} (the cell as a float).
    """
    faults = np.column_stack([mask for mask, _, _ in checks])
    faulty = faults.any(axis=1)
    if not faulty.any():
        return
    i = int(np.argmax(faulty))
    _, col, template = checks[int(np.argmax(faults[i]))]
    text = rows[i][header.index(col)]
    if template is None:
        raise _cell_error(path, lines[i], col, text)
    raise DataValidationError(template.format(path=path, row=lines[i], col=col,
                                              hid=rows[i][header.index("id")],
                                              value=_float_or_nan(text)))


# printable ASCII but the quote, and line breaks: a file of these bytes alone
# splits and parses under np.loadtxt as under csv.reader and float()
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"


def _loadtxt_survey(path: Path, value_columns) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """(header, ids, values) of a survey file parsed by ``np.loadtxt``, or
    None for a file that ``read_table`` and ``float()`` might read otherwise.

    ``value_columns(header)`` names the columns of ``values`` and raises for
    a missing one, as the row path does. A file qualifies when it holds only
    ``_PLAIN_BYTES``, with ``\\n`` or ``\\r\\n`` line ends; every line holds
    the header's count of commas (so none is blank or ragged, which
    ``loadtxt`` would skip or accept) and fits the csv field limit; the
    header repeats no column; at least one row follows it; and every value
    is finite. Such a file splits at its commas under ``csv.reader``, and
    ``loadtxt`` reads each value as ``float()`` reads it. The ids are cut
    from the bytes at the comma positions that the check finds.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if not data or data.translate(None, _PLAIN_BYTES) or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # each line's end: its \n, or the end of the file
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    header = data[:ends[0]].decode("ascii").rstrip("\r").split(",")
    width = len(header)
    commas = np.flatnonzero(buf == ord(","))
    if width < 2 or len(ends) < 2 or len(commas) != len(ends) * (width - 1):
        return None
    commas = commas.reshape(len(ends), width - 1)  # row i: line i's commas, if it has its share
    starts = np.concatenate([[0], ends[:-1] + 1])
    if ((commas[:, 0] < starts).any() or (commas[:, -1] > ends).any()
            or int((ends - starts).max()) > csv.field_size_limit()
            or len(set(header)) != width):
        return None
    columns = value_columns(header)
    at = header.index("id")
    begin = starts if at == 0 else commas[:, at - 1] + 1
    end = commas[:, at] if at < width - 1 else ends - (buf[ends - 1] == ord("\r"))
    cells = zip(begin[1:].tolist(), end[1:].tolist())
    ids = np.array([data[b:e].decode("ascii") for b, e in cells], dtype=str)
    del buf, data, commas
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                            usecols=[header.index(c) for c in columns], ndmin=2)
    except ValueError:  # a cell float() may still read, such as 1_0
        return None
    if not np.isfinite(values).all():
        return None
    return header, ids, values


def _read_survey(path: Path, value_columns, checks, fast: bool):
    """(header, ids, values) of a survey file without a fault.

    ``value_columns(header)`` names the columns of ``values``;
    ``checks(header, ids, values, bad)`` lists a loader's row checks for
    ``_raise_first_fault``, ``bad`` marking the cells that are not finite
    numbers (0 in ``values``). A file that ``_loadtxt_survey`` takes and
    that passes every check is returned as parsed. Any other file is read
    again by ``read_table`` and ``_parse_cells``, and its first fault is
    raised. ``fast=False`` goes to the row path at once.
    """
    table = _loadtxt_survey(path, value_columns) if fast else None
    if table is not None:
        header, ids, values = table
        faults = checks(header, ids, values, np.zeros(values.shape, dtype=bool))
        if not np.column_stack([mask for mask, _, _ in faults]).any():
            return table
    header, rows, lines = read_table(path)
    columns = value_columns(header)
    at = header.index("id")
    ids = np.array([row[at] for row in rows], dtype=str)
    values = _parse_cells(rows, [header.index(c) for c in columns])
    bad = ~np.isfinite(values)
    values[bad] = 0.0  # reported as a bad cell, not also as a bad value
    _raise_first_fault(path, rows, lines, header, checks(header, ids, values, bad))
    return header, ids, values


def _keyed_order(path, header: list[str], labels: Sequence[str], key_column: str,
                 expected: Sequence[str]) -> list[int]:
    """Index into ``labels`` (each row's first cell) of each expected label,
    validated against the label set."""
    if header[0] != key_column:
        raise DataValidationError(f"{path}: first column must be {key_column!r}, got {header[0]!r}")
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in seen:
            raise DataValidationError(f"{path}: duplicate {key_column} {label!r}")
        seen[label] = i
    missing = [k for k in expected if k not in seen]
    known = set(expected)
    extra = [k for k in seen if k not in known]
    if missing or extra:
        raise DataValidationError(
            f"{path}: {key_column} labels do not match the registry"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )
    return [seen[k] for k in expected]


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def _household_columns(path, header: list[str], categories: CategorySet):
    """(expenditure, demo_*, extra) columns of a households.csv header, in
    load order; extra is the demo_* columns then ``inc`` when present."""
    required = ["id", "weight", "size"]
    missing = [c for c in required if c not in header]
    if missing:
        raise DataValidationError(f"{path}: missing required columns {missing}")
    exp_cols = {c[len(EXPENDITURE_PREFIX):]: c for c in header if c.startswith(EXPENDITURE_PREFIX)}
    missing_cats = [c for c in categories if c not in exp_cols]
    if missing_cats:
        raise DataValidationError(f"{path}: missing expenditure columns for {missing_cats}")
    unknown = [exp_cols[c] for c in exp_cols if c not in set(categories.ids)]
    if unknown:
        raise DataValidationError(f"{path}: unknown expenditure columns {sorted(unknown)}")
    demo_cols = [c for c in header if c.startswith(DEMOGRAPHIC_PREFIX)]
    extra_cols = demo_cols + (["inc"] if "inc" in header else [])
    return [exp_cols[c] for c in categories], demo_cols, extra_cols


def load_household_survey(path, categories: CategorySet) -> HouseholdSurvey:
    """Load households.csv, dropping (and counting) zero-expenditure rows.

    A missing ``inc`` column is legal; operations that require income must
    fail loudly when it is absent rather than default it here. A dropped
    row's ``demo_*`` and ``inc`` cells are not checked. Ids are copied into
    an array: a kept cell would keep the memory of every row from being
    returned. A plain file is parsed by ``np.loadtxt``; any other file, and
    any file with a fault, is read again row by row, which names the fault.
    """
    return _load_household_survey(Path(path), categories, fast=True)


def _load_household_survey(path: Path, categories: CategorySet, fast: bool) -> HouseholdSurvey:
    def value_columns(header):
        exp_names, _, extra_cols = _household_columns(path, header, categories)
        return ["weight", "size", *exp_names, *extra_cols]

    def checks(header, ids, values, bad):
        exp_names, _, extra_cols = _household_columns(path, header, categories)
        k = len(exp_names)
        exp = values[:, 2:2 + k]
        bad[exp.sum(axis=1) <= 0, 2 + k:] = False  # a dropped row's demo_* and inc are not checked
        negative = "{path}: row {row}, column {col!r}: negative expenditure {value}"
        return [
            (_duplicates(ids), "id", "{path}: row {row}: duplicate household id {hid!r}"),
            (bad[:, 0], "weight", None),
            (bad[:, 1], "size", None),
            (values[:, 0] < 0, "weight",
             "{path}: row {row}, column 'weight': negative value {value}"),
            (values[:, 1] < 1, "size", "{path}: row {row}, column 'size': value {value} < 1"),
            *((mask, col, template) for j, col in enumerate(exp_names)
              for mask, template in ((bad[:, 2 + j], None), (exp[:, j] < 0, negative))),
            *((bad[:, 2 + k + j], col, None) for j, col in enumerate(extra_cols)),
        ]

    header, ids, values = _read_survey(path, value_columns, checks, fast)
    exp_names, demo_cols, extra_cols = _household_columns(path, header, categories)
    k = len(exp_names)
    weight, size, exp, extra = values[:, 0], values[:, 1], values[:, 2:2 + k], values[:, 2 + k:]
    keep = exp.sum(axis=1) > 0

    kept = np.flatnonzero(keep)
    report = LoadReport(source=str(path), n_rows=len(ids), n_loaded=len(kept),
                        n_dropped_zero_total=len(ids) - len(kept))
    if report.n_dropped_zero_total:
        report.notes.append(
            f"dropped {report.n_dropped_zero_total} household(s) with zero total expenditure"
        )
    if not len(kept):
        raise DataValidationError(f"{path}: no usable household rows")
    return HouseholdSurvey(
        ids=ids[kept], weight=weight[kept], size=size[kept],
        income=extra[kept, -1] if "inc" in header else None,
        demographic_names=tuple(c[len(DEMOGRAPHIC_PREFIX):] for c in demo_cols),
        demographics=extra[kept, :len(demo_cols)], expenditure=exp[kept], report=report,
    )


def _income_columns(path, header: list[str]) -> list[str]:
    """The value columns of an income-survey header: weight, size, inc, demo_*."""
    required = ["id", "weight", "size", "inc"]
    missing = [c for c in required if c not in header]
    if missing:
        raise DataValidationError(f"{path}: missing required columns {missing}")
    return ["weight", "size", "inc", *(c for c in header if c.startswith(DEMOGRAPHIC_PREFIX))]


def load_income_survey(path) -> IncomeSurvey:
    """Load the imputation target: id, weight, size, inc, demo_* columns.

    Expenditure columns, if present, are ignored (and noted in the report);
    the dataset's own incomes define the calibration targets. The rows come
    back as columns; ``records`` is a view built on request. Files are read
    as ``load_household_survey`` reads them.
    """
    return _load_income_survey(Path(path), fast=True)


def _load_income_survey(path: Path, fast: bool) -> IncomeSurvey:
    def checks(header, ids, values, bad):
        return [
            (_duplicates(ids), "id", "{path}: row {row}: duplicate id {hid!r}"),
            *((bad[:, j], col, None) for j, col in enumerate(_income_columns(path, header))),
            (values[:, 0] < 0, "weight", "record {hid}: negative weight {value}"),
            (values[:, 1] < 1, "size", "record {hid}: size {value} < 1"),
        ]

    header, ids, values = _read_survey(path, lambda h: _income_columns(path, h), checks, fast)
    cols = _income_columns(path, header)
    ignored = [c for c in header if c.startswith(EXPENDITURE_PREFIX)]
    report = LoadReport(source=str(path), n_rows=len(ids))
    if ignored:
        report.notes.append(f"ignored {len(ignored)} expenditure column(s) in the income dataset")
    report.n_loaded = len(ids)
    if not len(ids):
        raise DataValidationError(f"{path}: no income rows")
    return IncomeSurvey(
        ids=ids, weight=values[:, 0], size=values[:, 1], income=values[:, 2],
        demographic_names=tuple(c[len(DEMOGRAPHIC_PREFIX):] for c in cols[3:]),
        demographics=values[:, 3:], report=report,
    )


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a row: quoted,
    with quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(texts: list[str]) -> list[str]:
    """``_csv_field`` of each text, with one scan when none needs quoting."""
    if any(c in "".join(texts) for c in ',"\r\n'):
        return list(map(_csv_field, texts))
    return texts


def write_household_survey(path, survey: HouseholdSurvey | Sequence[HouseholdRecord],
                           categories: CategorySet,
                           extra_columns: Mapping[str, Sequence] | None = None) -> None:
    """Write a survey frame in the households.csv schema (12-significant-digit text).

    A list of records is converted once with ``as_survey``. Demographic
    columns come in name order, extra columns as ``str()`` of each value;
    rows end in CRLF, as the csv module ends them. Each row is one
    %-format over the frame's columns.
    """
    frame = as_survey(survey)
    names = sorted(frame.demographic_names)
    blocks = [frame.weight[:, np.newaxis], frame.size[:, np.newaxis]]
    header = ["id", "weight", "size"]
    if frame.income is not None:
        blocks.append(frame.income[:, np.newaxis])
        header.append("inc")
    blocks.append(frame.demographics[:, [frame.demographic_names.index(k) for k in names]])
    header += [DEMOGRAPHIC_PREFIX + k for k in names]
    blocks.append(frame.expenditure)
    header += [EXPENDITURE_PREFIX + c for c in categories]
    extras = dict(extra_columns or {})
    header += list(extras)
    values = np.hstack(blocks)
    row_format = ",".join(["%s"] + ["%.12g"] * values.shape[1] + ["%s"] * len(extras)) + "\r\n"
    ids = _csv_column(frame.ids.tolist())
    extra_cells = [_csv_column(list(map(str, column))) for column in extras.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\r\n")
        fh.writelines(map(row_format.__mod__, zip(ids, *values.T.tolist(), *extra_cells)))


def load_mrio(z_path, d_path, x_path, f_path, *, identity_rtol: float = MRIO_IDENTITY_RTOL) -> MrioTable:
    """Load the four MRIO files and verify the accounting identity."""
    z_path = Path(z_path)
    table = read_labelled_table(z_path)
    header = table.header
    if len(header) < 2:
        raise DataValidationError(f"{z_path}: flow matrix needs at least one sector column")
    col_sectors = header[1:]
    row_sectors = table.labels
    if len(set(row_sectors)) != len(row_sectors):
        raise DataValidationError(f"{z_path}: duplicate sector rows")
    if set(col_sectors) != set(row_sectors) or len(col_sectors) != len(row_sectors):
        raise DataValidationError(f"{z_path}: row and column sector labels differ")
    sectors = tuple(row_sectors)
    col_pos = {s: j for j, s in enumerate(col_sectors)}
    columns = [col_pos[s] for s in sectors]  # Z's columns in row-label order
    table.check_cells(columns, sectors)
    Z = table.values
    del table  # so that a reordered copy below replaces the block as read
    if columns != list(range(len(columns))):
        Z = Z[:, columns]

    def vector(path, value_col):
        header_v, rows_v, lines_v = read_table(path)
        order = _keyed_order(path, header_v, [r[0] for r in rows_v], "sector", sectors)
        if value_col not in header_v:
            raise DataValidationError(f"{path}: missing column {value_col!r}")
        values = _parse_block(rows_v, [header_v.index(value_col)], [value_col], path,
                              lines_v)[order, 0]
        return values, header_v, rows_v, lines_v, order

    d = vector(d_path, "d")[0]
    x, x_header, x_rows, x_lines, x_order = vector(x_path, "x")
    f = vector(f_path, "f")[0]
    origin = tuple("domestic" for _ in sectors)
    if "origin" in x_header:
        oi = x_header.index("origin")
        flags = []
        for i in x_order:
            flag = x_rows[i][oi] or "domestic"
            if flag not in ("domestic", "imported"):
                raise DataValidationError(
                    f"{x_path}: row {x_lines[i]}, column 'origin': expected domestic/imported, "
                    f"got {flag!r}"
                )
            flags.append(flag)
        origin = tuple(flags)
    return MrioTable(
        sectors=sectors, flows=Z, final_demand=d, output=x, emissions=f,
        origin=origin, identity_rtol=identity_rtol,
    )


def load_bridge(path, categories: CategorySet) -> BridgingMatrix:
    table = read_labelled_table(path)
    products = tuple(table.header[1:])
    if not products:
        raise DataValidationError(f"{table.path}: bridging matrix needs product columns")
    order = _keyed_order(table.path, table.header, table.labels, "category", categories.ids)
    table.check_cells(range(len(products)), products)
    return BridgingMatrix(categories=categories.ids, products=products,
                          shares=table.values[order])


def load_price_relatives(path, categories: CategorySet) -> np.ndarray:
    """prices.csv -> per-category price relatives in registry order."""
    path = Path(path)
    header, rows, lines = read_table(path)
    if "pi" not in header:
        raise DataValidationError(f"{path}: missing column 'pi'")
    order = _keyed_order(path, header, [r[0] for r in rows], "category", categories.ids)
    out = _parse_block(rows, [header.index("pi")], ["pi"], path, lines)[order, 0]
    if np.any(out <= -1.0):
        raise DataValidationError(f"{path}: price relatives must exceed -1")
    return out


def load_fuels(path) -> FuelTable:
    path = Path(path)
    header, rows, lines = read_table(path)
    for col in ("fuel", "price", "kgco2_per_unit"):
        if col not in header:
            raise DataValidationError(f"{path}: missing column {col!r}")
    values = _parse_block(rows, [header.index("price"), header.index("kgco2_per_unit")],
                          ["price", "kgco2_per_unit"], path, lines)
    fi = header.index("fuel")
    return FuelTable(fuels=tuple(row[fi] for row in rows), price=values[:, 0],
                     carbon_kg_per_unit=values[:, 1])
