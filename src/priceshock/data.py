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
# The largest weight, size or expenditure a household may carry: a product of
# two such values, summed over any survey, stays inside the float range.
SURVEY_VALUE_LIMIT = 1e100


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
        with np.errstate(over="ignore"):  # a subnormal output: inf, which fails below
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
    if not header:
        raise DataValidationError(f"{path}: row 1 is blank, not a header")
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

# Bytes _loadtxt_table reads and checks at a time: enough that the cost per
# block vanishes, few enough that a block's text stays small beside its values.
CHUNK_BYTES = 1 << 17


def _plain_lines(block: bytes, width: int, limit: int) -> list[str] | None:
    """The lines of ``block`` as texts, or None unless it holds only
    ``_PLAIN_BYTES``, each \\r starts a \\r\\n, no line (so no field) is
    longer than ``limit``, and there are ``width`` - 1 commas per line."""
    if block.translate(None, _PLAIN_BYTES) or (
            b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
        return None
    lines = block.decode("ascii").splitlines()
    commas = np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord(","))
    if commas != len(lines) * (width - 1) or max(map(len, lines), default=0) > limit:
        return None
    return lines


def _loadtxt_table(path, columns) -> tuple[list[str], list[str], np.ndarray] | None:
    """(header, labels, values) of a CSV file parsed by one ``np.loadtxt``,
    or None for a file that ``read_table`` and ``float()`` might read
    otherwise.

    ``columns(header)`` gives the label column's position and the positions
    of the columns ``values`` holds, in order; a DataValidationError from it
    gives None, so that the row path names the file's first fault. The rows
    are read ``CHUNK_BYTES`` at a time, each block completed to the end of
    the line it cuts, so the file's text is never held whole. A file
    qualifies when the header line and every block are plain
    (``_plain_lines``); the header names two or more columns, none twice; a
    row follows it; and every value is finite. Such a line splits at its
    commas under ``csv.reader``; ``loadtxt`` reads each value as ``float()``
    does, or raises, and raises for a row short of a cell, as it reads the
    last column unless the label is there, which such a row then lacks. With
    the comma count, no row is long. A blank row, which ``loadtxt`` skips,
    leaves fewer rows than labels.
    """
    limit = csv.field_size_limit()
    labels: list[str] = []
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            width = first.count(b",") + 1
            lines = _plain_lines(first, width, limit)
            header = lines[0].split(",") if lines else []
            if width < 2 or len(set(header)) != width:
                return None
            try:
                at, usecols = columns(header)
            except DataValidationError:
                return None
            wanted = len(usecols)
            if at != width - 1 and width - 1 not in usecols:
                usecols = [*usecols, width - 1]
            # all of two or more columns after a first-column label: loadtxt reads each line's
            # rest faster (with one, every rest might be blank, which it would warn of)
            cut = width > 2 and at == 0 and list(usecols) == list(range(1, width))

            def row_blocks():
                while block := fh.read(CHUNK_BYTES):
                    if not block.endswith(b"\n"):  # no line, and no \r\n pair, is split
                        block += fh.readline()
                    lines = _plain_lines(block, width, limit)
                    if lines is None:
                        raise ValueError("a block loadtxt might read otherwise")
                    if cut:  # a line without a comma leaves zip one tuple, too few
                        block_labels, lines = zip(*[line.split(",", 1) for line in lines])
                    else:
                        block_labels = [line.split(",", at + 1)[at] for line in lines]
                    labels.extend(block_labels)
                    yield lines

            rows = chain.from_iterable(row_blocks())
            row = next(rows, None)
            if row is None:
                return None  # loadtxt warns on a file without rows
            values = np.loadtxt(chain([row], rows), delimiter=",", comments=None,
                                usecols=None if cut else usecols, ndmin=2)[:, :wanted]
    except (OSError, ValueError, IndexError):  # such as a cell like 1_0, or a short row
        return None
    if len(values) != len(labels) or not np.isfinite(values).all():
        return None
    return header, labels, values


def _read_survey(path: Path, value_columns, checks):
    """(header, ids, values) of a survey file without a fault.

    ``value_columns(header)`` names the columns of ``values``;
    ``checks(header, ids, values, bad)`` lists a loader's row checks for
    ``_raise_first_fault``, ``bad`` marking the cells that are not finite
    numbers (0 in ``values``). A file that ``_loadtxt_table`` takes and
    that passes every check is returned as parsed. Any other file is read
    again by ``read_table`` and ``_parse_cells``, and its first fault is
    raised.
    """
    def columns(header):
        names = value_columns(header)
        return header.index("id"), [header.index(c) for c in names]

    table = _loadtxt_table(path, columns)
    if table is not None:
        header, ids, values = table
        ids = np.array(ids, dtype=str)
        faults = checks(header, ids, values, np.zeros(values.shape, dtype=bool))
        if not np.column_stack([mask for mask, _, _ in faults]).any():
            return header, ids, values
    header, rows, lines = read_table(path)
    at, positions = columns(header)
    ids = np.array([row[at] for row in rows], dtype=str)
    values = _parse_cells(rows, positions)
    bad = ~np.isfinite(values)
    values[bad] = 0.0  # reported as a bad cell, not also as a bad value
    _raise_first_fault(path, rows, lines, header, checks(header, ids, values, bad))
    return header, ids, values


def read_labelled_table(path, value_columns) -> tuple[list[str], list[str], np.ndarray]:
    """(header, labels, values) of a CSV table whose first column labels
    its rows.

    ``value_columns(header, labels)`` raises for a faulty header or label
    set and returns the positions of the header columns that ``values``
    holds, in that order, with one row per non-blank file row. A plain file
    (``_loadtxt_table``) is parsed by one ``np.loadtxt``. Any other
    file, and any file with a cell that is not a finite number, is read
    again by ``read_table`` and ``_parse_block``, which name the first
    fault: a file fault, then a label fault, then a cell fault row by row
    in the order of ``value_columns``.
    """
    table = _loadtxt_table(path, lambda header: (0, range(1, len(header))))
    if table is not None:
        header, labels, values = table
        picked = np.asarray(value_columns(header, labels), dtype=int) - 1
        if (picked >= 0).all():  # the first column holds labels, not values
            if not np.array_equal(picked, np.arange(values.shape[1])):
                values = values[:, picked]
            return header, labels, values
    header, rows, lines = read_table(path)
    labels = [row[0] for row in rows]
    columns = list(value_columns(header, labels))
    return header, labels, _parse_block(rows, columns, [header[j] for j in columns], path, lines)


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
    path = Path(path)

    def value_columns(header):
        exp_names, _, extra_cols = _household_columns(path, header, categories)
        return ["weight", "size", *exp_names, *extra_cols]

    def checks(header, ids, values, bad):
        exp_names, _, extra_cols = _household_columns(path, header, categories)
        k = len(exp_names)
        exp = values[:, 2:2 + k]
        bad[exp.sum(axis=1) <= 0, 2 + k:] = False  # a dropped row's demo_* and inc are not checked
        negative = "{path}: row {row}, column {col!r}: negative expenditure {value}"
        large = values > SURVEY_VALUE_LIMIT
        too_large = "{path}: row {row}, column {col!r}: value {value} exceeds %g" % SURVEY_VALUE_LIMIT
        return [
            (_duplicates(ids), "id", "{path}: row {row}: duplicate household id {hid!r}"),
            (bad[:, 0], "weight", None),
            (bad[:, 1], "size", None),
            (values[:, 0] < 0, "weight",
             "{path}: row {row}, column 'weight': negative value {value}"),
            (large[:, 0], "weight", too_large),
            (values[:, 1] < 1, "size", "{path}: row {row}, column 'size': value {value} < 1"),
            (large[:, 1], "size", too_large),
            *((mask, col, template) for j, col in enumerate(exp_names)
              for mask, template in ((bad[:, 2 + j], None), (exp[:, j] < 0, negative),
                                     (large[:, 2 + j], too_large))),
            *((bad[:, 2 + k + j], col, None) for j, col in enumerate(extra_cols)),
        ]

    header, ids, values = _read_survey(path, value_columns, checks)
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
    path = Path(path)

    def checks(header, ids, values, bad):
        return [
            (_duplicates(ids), "id", "{path}: row {row}: duplicate id {hid!r}"),
            *((bad[:, j], col, None) for j, col in enumerate(_income_columns(path, header))),
            (values[:, 0] < 0, "weight", "record {hid}: negative weight {value}"),
            (values[:, 1] < 1, "size", "record {hid}: size {value} < 1"),
        ]

    header, ids, values = _read_survey(path, lambda h: _income_columns(path, h), checks)
    cols = _income_columns(path, header)
    ignored = [c for c in header if c.startswith(EXPENDITURE_PREFIX)]
    report = LoadReport(source=str(path), n_rows=len(ids), n_loaded=len(ids))
    if ignored:
        report.notes.append(f"ignored {len(ignored)} expenditure column(s) in the income dataset")
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


# Rows that _write_rows formats per numpy pass: enough that the cost per
# numpy call vanishes, few enough that a block's temporaries (about 3 kB a
# households.csv row) stay near the few MB that %-formatting a small frame
# takes.
CSV_BLOCK_ROWS = 1024

# the number specs _write_rows places itself: kind and precision
_NUMBER_SPECS = {"%.6f": ("f", 6), "%.6g": ("g", 6), "%.12g": ("g", 12), "%d": ("d", 0)}
_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_EXACT = 2.0**52  # below it every half-integer is a double
# Text is assembled in little-endian 8-byte words, so that a word's first
# byte in memory is its lowest: viewed as bytes, words read left to right.
_WORD = np.dtype("<u8")
_ZEROS = 0x3030303030303030  # eight ASCII '0'


def _product_error(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a·b − s exactly, where s = fl(a·b): Dekker's two-product, each
    factor split at 2**27 + 1 (Veltkamp) into halves whose products are
    exact."""
    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    ah, al = split(a)
    bh, bl = split(b)
    return ((ah * bh - s) + ah * bl + al * bh) + al * bl


def _round_scaled(a: np.ndarray, decimals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, r): s = fl(a·10**decimals) and r = round-half-even of the exact
    product, for a ≥ 0; r is exact wherever s < 2**52.

    Rounding s itself gives r unless s sits on a half-integer: every
    half-integer below 2**52 is a double, so the exact product cannot lie
    across one from s. On a tie, the sign of the product's rounding error
    says which way the exact product breaks it."""
    p = _POW10[decimals]
    s = a * p
    r = np.rint(s)
    tie = np.flatnonzero(np.abs(s - r) == 0.5)
    if tie.size:
        st = s.flat[tie]
        err = _product_error(a.flat[tie], p.flat[tie], st)
        r.flat[tie] = np.where(err > 0, st + 0.5, np.where(err < 0, st - 0.5, r.flat[tie]))
    return s, r


def _scaled_integers(x: np.ndarray, kind: str, precision: int):
    """(r, decimals, bad) for magnitudes ``x`` under one number spec:
    ``spec % v`` writes r with ``decimals`` digits after a point (%g then
    strips the fraction's trailing zeros). ``bad`` marks the cells this
    cannot prove: non-finite, r at or over 2**52, or a %g value that ``%``
    writes in exponent form."""
    if kind == "d":  # %d truncates
        r = np.trunc(x)
        return r, np.zeros(x.shape, np.int64), ~(r < _EXACT)
    if kind == "f":
        decimals = np.full(x.shape, precision)
        s, r = _round_scaled(x, decimals)
        return r, decimals, ~(s < _EXACT)
    # %g: precision significant digits, the decimal exponent estimated by
    # log10 and moved one decade where the rounded digits say it was off
    exponent = np.floor(np.log10(np.where(np.isfinite(x) & (x > 0), x, 1.0)))
    decimals = np.clip(precision - 1 - exponent, 0, 22).astype(np.int64)
    _, r = _round_scaled(x, decimals)
    low, high = _POW10[precision - 1], _POW10[precision]
    move = np.flatnonzero(((r < low) & (x > 0)) | (r >= high))
    if move.size:
        moved = decimals.flat[move] + np.where(r.flat[move] < low, 1, -1)
        r.flat[move] = _round_scaled(x.flat[move], np.clip(moved, 0, 22))[1]
        decimals.flat[move] = moved
    # fixed notation: the exponent, precision - 1 - decimals, is in [-4, precision)
    bad = ((r < low) & (x > 0)) | ~(r < high) | (decimals < 0) | (decimals > precision + 3)
    return r, decimals, bad


def _digit_words(x: np.ndarray, words: int) -> np.ndarray:
    """The decimal digits of integers 0 <= x < 10**(8·words), zero-padded,
    one byte each (0-9, not ASCII) in ``words`` words per integer.

    Each 8-digit chunk is split in SIMD-within-a-register fashion: into two
    4-digit lanes, each lane into two 2-digit lanes (x·10486 >> 20 is
    x // 100 below 10**4), each of those into two digits (x·103 >> 10 is
    x // 10 below 100)."""
    x = x.astype(np.uint64)
    out = np.empty(x.shape + (words,), _WORD)
    for k in range(words - 1, -1, -1):
        chunk = x % 10**8 if k else x
        x = x // 10**8
        high = chunk // 10**4
        v = high | ((chunk - high * 10**4) << 32)
        q = ((v * 10486) >> 20) & 0x0000007F0000007F
        v = q | ((v - q * 100) << 16)
        q = ((v * 103) >> 10) & 0x000F000F000F000F
        out[..., k] = q | ((v - q * 10) << 8)
    return out


def _last_nonzero_byte(digits: np.ndarray) -> np.ndarray:
    """The position of the last nonzero byte in each row of digit words
    (bytes 0-9), or 0 where all are zero."""
    last = np.zeros(digits.shape[:-1], np.int64)
    for k in range(digits.shape[-1]):
        # bit 7 of each byte set where the digit is nonzero; the highest
        # such bit, by log2 (exact: the bits are 8 apart), is the last
        flags = ((digits[..., k] + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080).astype(float)
        top = np.log2(np.maximum(flags, 1.0)).astype(np.int64)
        last = np.where(flags > 0, 8 * k + top // 8, last)
    return last


def _integer_fields(words: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, keep) for integer fields of ``words`` words, row
    4·length + 2·comma + negative: what to take from the bytes of a
    zero-padded ASCII integer of ``length`` digits to turn the zeros before
    it into its sign and, before that, a comma; and which bytes the cell
    keeps."""
    size = 8 * words
    length, comma, negative = (
        grid.reshape(-1, 1)
        for grid in np.meshgrid(np.arange(size + 1), [0, 1], [0, 1], indexing="ij"))
    position = np.arange(size)
    sign = size - length - 1
    delta = (np.where((negative == 1) & (position == sign), 0x30 - ord("-"), 0)
             + np.where((comma == 1) & (position == sign - negative), 0x30 - ord(","), 0))
    keep = position > sign - negative - comma
    return delta.astype(np.uint8).view(_WORD), keep.astype(np.uint8).view(_WORD)


def _leading_bytes(words: int) -> np.ndarray:
    """Row c: words whose first c bytes are 1 and the others 0."""
    return (np.arange(8 * words) < np.arange(8 * words + 1)[:, np.newaxis]).astype(
        np.uint8).view(_WORD)


# an integer part is at most 16 digits, a fraction 15: three and two words
_INTEGER_FIELDS = {words: _integer_fields(words) for words in (1, 2, 3)}
_LEADING_BYTES = {words: _leading_bytes(words) for words in (1, 2)}


def _number_words(values: np.ndarray, spec: str, comma: np.ndarray):
    """(words, keep, bad): ``spec % v`` for a (rows × columns) block of
    numbers, each cell preceded by a comma where ``comma`` (one flag per
    column). A cell is the bytes of ``words[i, j]`` whose ``keep[i, j]``
    byte is 1; ``bad`` marks the cells whose text is not proven (see
    ``_scaled_integers``).

    A cell's words hold a right-aligned integer part, with its sign and
    comma before it, then, if any cell has a fraction, the point and a
    left-aligned fraction."""
    kind, precision = _NUMBER_SPECS[spec]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r, decimals, bad = _scaled_integers(np.abs(values), kind, precision)
    negative = np.signbit(values) & ~bad
    if kind == "d":  # the sign of the truncated integer: '%d' % -0.5 is '0'
        negative &= r > 0
    r[bad] = 0.0
    r = r.astype(np.int64)
    decimals[bad] = 0
    scale = _POW10_INT[precision] if kind == "f" else _POW10_INT[decimals]
    whole = r // scale
    length = np.searchsorted(_POW10_INT[1:], whole, side="right") + 1
    # bytes of the integer part with the sign and comma before it
    int_words = -(-int((length + negative + comma).max(initial=1)) // 8)
    places = int(decimals.max(initial=0))
    frac_words = -(-(places + 1) // 8) if places else 0
    words = np.empty(r.shape + (int_words + frac_words,), _WORD)
    keep = np.empty(words.shape, _WORD)
    delta, int_keep = _INTEGER_FIELDS[int_words]
    field = 4 * length + 2 * comma + negative
    words[..., :int_words] = _digit_words(whole, int_words)
    words[..., :int_words] |= _ZEROS
    words[..., :int_words] -= delta[field]
    keep[..., :int_words] = int_keep[field]
    if frac_words:
        # the fraction left-aligned after the point, which takes the place
        # of a leading zero
        fraction = (r - whole * scale) * _POW10_INT[8 * frac_words - 1 - decimals]
        words[..., int_words:] = _digit_words(fraction, frac_words)
        kept = decimals if kind == "f" else _last_nonzero_byte(words[..., int_words:])
        words[..., int_words:] |= _ZEROS
        words[..., int_words] -= 0x30 - ord(".")
        keep[..., int_words:] = _LEADING_BYTES[frac_words][np.where(kept > 0, kept + 1, 0)]
    return words, keep, bad


def _text_words(texts: list[str], comma: bool) -> tuple[np.ndarray, np.ndarray]:
    """(words, keep) for a column of texts as ``_number_words`` gives them:
    the UTF-8 bytes of each text, after a comma if ``comma``, left-aligned.
    ``surrogatepass`` lets every str through, and decoding the bytes the
    same way gives back the very texts."""
    joined = "".join(texts)
    if joined.isascii():
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    else:
        lengths = np.array([len(t.encode("utf-8", "surrogatepass")) for t in texts])
    lengths += comma
    keep = np.arange(-(-int(lengths.max(initial=0)) // 8) * 8) < lengths[:, np.newaxis]
    text = keep.copy()
    text[:, :comma] = False
    cells = np.zeros(keep.shape, np.uint8)
    cells[:, :comma] = ord(",")
    cells[text] = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    return cells.view(_WORD), keep.view(np.uint8).view(_WORD)


def _block_text(specs: Sequence[str], columns: Sequence, start: int, stop: int,
                texts: dict[int, list[str]], line_end: str):
    """(data, ends, fallback) for rows ``start:stop`` as ``_write_rows``
    writes them: the UTF-8 bytes of the rows, where row i ends at
    ``ends[i]`` bytes, with the rows listed in ``fallback`` left out."""
    n = stop - start
    cells = {j: _text_words(column, j > 0) for j, column in texts.items()}
    bad = np.zeros(n, bool)
    for spec in dict.fromkeys(specs):
        if spec != "%s":
            cols = [j for j, s in enumerate(specs) if s == spec]
            values = np.empty((n, len(cols)))
            for k, j in enumerate(cols):
                values[:, k] = columns[j][start:stop]
            words, keep, spec_bad = _number_words(values, spec, np.array(cols) > 0)
            bad |= spec_bad.any(axis=1)
            cells.update((j, (words[:, k], keep[:, k])) for k, j in enumerate(cols))
    widths = [cells[j][0].shape[1] for j in range(len(specs))]
    block = np.empty((n, sum(widths) + 1), _WORD)
    keep = np.empty(block.shape, _WORD)
    offset = 0
    for j, width in enumerate(widths):
        block[:, offset:offset + width], keep[:, offset:offset + width] = cells.pop(j)
        offset += width
    block[:, -1] = np.frombuffer(line_end.encode().ljust(8, b"\0"), _WORD)
    keep[:, -1] = _LEADING_BYTES[1][len(line_end)]
    fallback = np.flatnonzero(bad)
    keep[fallback] = 0
    keep = keep.view(np.uint8).view(bool)
    ends = np.cumsum(keep.sum(axis=1)) if fallback.size else None
    return np.compress(keep.ravel(), block.view(np.uint8).ravel()), ends, fallback.tolist()


def _write_rows(fh, specs: Sequence[str], columns: Sequence, line_end: str) -> None:
    """Write ``row_format % row`` for each row of ``columns`` to the text
    file ``fh``, where ``row_format`` is ``specs`` joined by commas, then
    ``line_end``.

    A ``%s`` column's values are written as ``str()`` of each, CSV-quoted
    (``_csv_column``); every other column is a numeric array under one of
    ``_NUMBER_SPECS``. Blocks of ``CSV_BLOCK_ROWS`` rows are formatted in
    numpy, rounded exactly as ``%`` rounds (``_number_words``), and each
    block is written as one text. A row holding a cell that path cannot
    prove is written by ``row_format % row`` in its place.
    """
    row_format = ",".join(specs) + line_end
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, len(columns[0]))
        texts = {}
        for j, spec in enumerate(specs):
            if spec == "%s":
                column = columns[j][start:stop]
                if isinstance(column, np.ndarray):
                    column = column.tolist()
                texts[j] = _csv_column(list(map(str, column)))
        data, ends, fallback = _block_text(specs, columns, start, stop, texts, line_end)
        done = 0
        for i in fallback:
            row = tuple(texts[j][i] if j in texts else columns[j][start + i].item()
                        for j in range(len(specs)))
            fh.write(str(data[done:ends[i]], "utf-8", "surrogatepass"))
            fh.write(row_format % row)
            done = ends[i]
        fh.write(str(data[done:], "utf-8", "surrogatepass"))


def write_household_survey(path, survey: HouseholdSurvey | Sequence[HouseholdRecord],
                           categories: CategorySet,
                           extra_columns: Mapping[str, Sequence] | None = None) -> None:
    """Write a survey frame in the households.csv schema (12-significant-digit text).

    A list of records is converted once with ``as_survey``. Demographic
    columns come in name order, extra columns as ``str()`` of each value;
    rows end in CRLF, as the csv module ends them. Rows are written by
    ``_write_rows``, as one %-format over the frame's columns writes them.
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\r\n")
        _write_rows(fh, ["%s"] + ["%.12g"] * values.shape[1] + ["%s"] * len(extras),
                    [frame.ids, *values.T, *extras.values()], "\r\n")


def load_mrio(z_path, d_path, x_path, f_path, *, identity_rtol: float = MRIO_IDENTITY_RTOL) -> MrioTable:
    """Load the four MRIO files and verify the accounting identity."""
    z_path = Path(z_path)

    def sector_columns(header, labels):
        if len(header) < 2:
            raise DataValidationError(f"{z_path}: flow matrix needs at least one sector column")
        if header[0] != "sector":
            raise DataValidationError(f"{z_path}: first column must be 'sector', got {header[0]!r}")
        if len(set(labels)) != len(labels):
            raise DataValidationError(f"{z_path}: duplicate sector rows")
        if set(header[1:]) != set(labels) or len(header) - 1 != len(labels):
            raise DataValidationError(f"{z_path}: row and column sector labels differ")
        col_pos = {s: j for j, s in enumerate(header[1:], start=1)}
        return [col_pos[s] for s in labels]  # Z's columns in row-label order

    _, labels, Z = read_labelled_table(z_path, sector_columns)
    sectors = tuple(labels)

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
    path = Path(path)

    def product_columns(header, labels):
        if len(header) < 2:
            raise DataValidationError(f"{path}: bridging matrix needs product columns")
        _keyed_order(path, header, labels, "category", categories.ids)
        return range(1, len(header))

    header, labels, shares = read_labelled_table(path, product_columns)
    order = _keyed_order(path, header, labels, "category", categories.ids)
    return BridgingMatrix(categories=categories.ids, products=tuple(header[1:]),
                          shares=shares[order])


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
