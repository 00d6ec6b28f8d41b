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

Every file is read by ``read_input``. Rows of keyed files may appear in
any order; every label set is matched by one rule (``match_labels``), and
a file that starts with a byte-order mark is refused (``BYTE_ORDER_MARK``).
Every numeric cell must be text that ``float()`` reads as a finite number.
A faulty file raises its first fault: of the file, then of its header, then
of its label set, then of a row (named by file, row and column), rows in
file order. Values are written back with at most 12 significant digits,
which round-trips bit-for-bit through the loaders.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

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
# The largest magnitude of a survey value (weight, size, expenditure, income,
# demo_*): a product of two such values, summed over any survey, stays in float range.
SURVEY_VALUE_LIMIT = 1e100
TOO_LARGE = "{path}: row {row}, column {col!r}: value {value} exceeds %g" % SURVEY_VALUE_LIMIT


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float array, for a record to hold: a float64
    array is not copied but made read-only itself."""
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


# A record that holds an array compares and hashes by identity (eq=False):
# a generated __eq__ would raise on two distinct records, and a frozen
# record's generated __hash__ would raise TypeError.
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class MrioTable:
    """Inter-industry accounts: flows Z, final demand d, output x, emissions f.

    Row identity: x_i = sum_j Z_ij + d_i within ``MRIO_IDENTITY_RTOL``
    relative to x_i. ``origin`` flags each sector domestic or imported, which
    controls whether it is exposed to domestic carbon pricing.
    """

    sectors: tuple[str, ...]
    flows: np.ndarray
    final_demand: np.ndarray
    output: np.ndarray
    emissions: np.ndarray
    origin: tuple[str, ...]

    def __post_init__(self):
        n = len(self.sectors)
        for name in ("flows", "final_demand", "output", "emissions"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.flows.shape != (n, n):
            raise DataValidationError(f"flow matrix is {self.flows.shape}, expected ({n}, {n})")
        for name, vec in (("final demand", self.final_demand), ("output", self.output),
                          ("emissions", self.emissions)):
            if vec.shape != (n,):
                raise DataValidationError(f"{name} vector has length {vec.shape}, expected {n}")
        if len(self.origin) != n:
            raise DataValidationError("origin flags do not cover all sectors")
        bad = set(self.origin) - {"domestic", "imported"}
        if bad:
            raise DataValidationError(f"unknown origin flags {sorted(bad)}")
        # each array's least and greatest value: a nan in it makes both nan,
        # an inf makes one infinite, and a negative shows in the least
        arrays = (self.flows, self.final_demand, self.output, self.emissions)
        low = [v.min(initial=np.inf) for v in arrays]
        if not np.isfinite([*low, *(v.max(initial=-np.inf) for v in arrays)]).all():
            raise DataValidationError("flows, final demand, output and emissions must be finite")
        if min(low[0], low[1], low[3]) < 0:
            raise DataValidationError("flows, final demand and emissions must be nonnegative")
        if low[2] <= 0:
            i = int(np.argmin(self.output))
            raise DataValidationError(f"sector {self.sectors[i]!r}: output must be strictly positive")
        resid = self.output - (self.flows.sum(axis=1) + self.final_demand)
        with np.errstate(over="ignore"):  # a subnormal output: inf, which fails below
            rel = np.abs(resid) / self.output
        worst = int(np.argmax(rel))
        if rel[worst] > MRIO_IDENTITY_RTOL:
            raise DataValidationError(
                f"accounting identity violated: files.mrio_x gives sector "
                f"{self.sectors[worst]!r} output {self.output[worst]:.6g}, checked against the "
                f"row sum of files.mrio_z plus files.mrio_d (residual {resid[worst]:.6g}, "
                f"{rel[worst]:.3g} relative, tolerance {MRIO_IDENTITY_RTOL:g})"
            )

    @property
    def n(self) -> int:
        return len(self.sectors)

    def domestic_mask(self) -> np.ndarray:
        return np.array([o == "domestic" for o in self.origin])


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


LINKS = ("logit", "probit")  # the imputation's binary-response links (imputation.link)


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


@dataclass(eq=False)
class HouseholdSurvey:
    """A survey's kept rows as columns: ``expenditure`` in CategorySet
    order, None for an income survey; ``demographics`` one column per
    ``demographic_names`` entry (``demo_`` prefix removed); ``income`` None
    when the file has no ``inc`` column."""

    ids: np.ndarray
    weight: np.ndarray
    size: np.ndarray
    income: np.ndarray | None
    demographic_names: tuple[str, ...]
    demographics: np.ndarray
    expenditure: np.ndarray | None
    report: LoadReport


def as_survey(data) -> HouseholdSurvey:
    """A survey frame as it is; a list of records as a frame, whose
    ``expenditure`` is None for IncomeRecords.

    The frame's demographic names are the first record's keys, sorted; a
    record missing one of them, or holding another, is rejected. Its
    ``income`` is None when no record has one; a record without income
    among records with one is rejected.
    """
    if isinstance(data, HouseholdSurvey):
        return data
    records = list(data)
    if not records:
        raise DataValidationError("no records")
    names = tuple(sorted(records[0].demographics))
    for r in records:
        match_labels(list(r.demographics), names, f"record {r.id!r}", "covariate",
                     "the first record's")
    n = len(records)
    income = [r.disposable_income for r in records]
    if None in income and any(v is not None for v in income):
        hid = records[income.index(None)].id
        raise DataValidationError(f"record {hid!r}: no disposable income, unlike other records")
    return HouseholdSurvey(
        ids=np.array([r.id for r in records], dtype=str),
        weight=np.array([r.weight for r in records], dtype=float),
        size=np.array([r.size for r in records], dtype=float),
        income=None if None in income else np.array(income, dtype=float),
        demographic_names=names,
        demographics=np.array([[r.demographics[k] for k in names] for r in records],
                              dtype=float).reshape(n, len(names)),
        expenditure=(None if isinstance(records[0], IncomeRecord)
                     else np.vstack([r.expenditure for r in records])),
        report=LoadReport(source="records", n_rows=n, n_loaded=n),
    )


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def not_utf8(path, noun: str = "row") -> DataValidationError:
    """The error for a file that is not UTF-8 text, naming the file and the
    row (``noun``) of its first byte that does not decode."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        return DataValidationError(f"{path}: {noun} {row}: byte 0x{raw[exc.start]:02x} is not "
                                   f"UTF-8 text ({exc.reason})")
    return DataValidationError(f"{path}: not UTF-8 text")


# the message for a file whose first row (or line: ``noun``) starts with a byte-order mark
BYTE_ORDER_MARK = ("{path}: {noun} 1 starts with a UTF-8 byte-order mark (U+FEFF): "
                   "save the file without it")


def read_table(path) -> tuple[list[str], list[list[str]], Sequence[int]]:
    """Read a UTF-8 CSV file into (header, rows, lines), rejecting ragged or
    headerless files, a byte-order mark (``BYTE_ORDER_MARK``) and text that
    does not decode (``not_utf8``).

    Blank rows are skipped; ``lines[i]`` is the row number in the file of
    ``rows[i]`` (the header is row 1), which every message about a row names.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise DataValidationError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if header and header[0].startswith("\ufeff"):
        raise DataValidationError(BYTE_ORDER_MARK.format(path=path, noun="row"))
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


def _duplicates(ids: np.ndarray) -> np.ndarray:
    """Mask of the ids that repeat an earlier one.

    A 64-bit hash of each id (its code points, each times its own odd
    constant) is sorted first: distinct hashes prove distinct ids, and only
    a repeated hash pays for the sort of the ids themselves."""
    if len(ids) > 1:
        codes = ids.view(np.uint32).reshape(len(ids), -1)
        hashes = np.zeros(len(ids), np.uint64)
        for j in range(codes.shape[1]):
            hashes ^= codes[:, j] * np.uint64(0x9E3779B97F4A7C15 ^ (j << 1))
            hashes *= np.uint64(0xBF58476D1CE4E5B9)
        hashes.sort()
        if not (hashes[1:] == hashes[:-1]).any():
            return np.zeros(len(ids), dtype=bool)
    dup = np.ones(len(ids), dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False
    return dup


def _raise_first_fault(path, rows, lines, header: list[str], labels: Sequence, checks) -> None:
    """Raise the fault a row-by-row loader would meet first.

    ``checks`` lists (row mask, column, message template) in the order the
    checks run on one row, a mask of False for a check no row fails; a
    template of None marks a cell that is not a finite number. Templates may use {path}, {row} (the file row, from
    ``lines``), {col}, {label} (the row's label), {text} (the cell) and
    {value} (the cell as a float).
    """
    checks = [check for check in checks if check[0].any()]
    if not checks:
        return
    faults = np.column_stack([mask for mask, _, _ in checks])
    i = int(np.argmax(faults.any(axis=1)))
    _, col, template = checks[int(np.argmax(faults[i]))]
    text = rows[i][header.index(col)]
    if template is None:
        try:
            float(text)
            problem = "non-finite"
        except ValueError:
            problem = "non-numeric"
        template = "{path}: row {row}, column {col!r}: " + problem + " value {text!r}"
    raise DataValidationError(template.format(path=path, row=lines[i], col=col, label=labels[i],
                                              text=text, value=_float_or_nan(text)))


# Bytes _loadtxt_table reads and checks at a time: enough that the cost per
# block vanishes, few enough that a block's text stays small beside its values.
CHUNK_BYTES = 1 << 17


def _plain_lines(block: bytes, limit: int) -> list[str] | None:
    """The lines of ``block`` as texts, or None unless it is plain: printable
    ASCII but the quote, and \\n or \\r\\n line breaks, so that it splits and
    parses under ``np.loadtxt`` as under ``csv.reader`` and ``float()``; and
    no line (so no field) is longer than ``limit``."""
    if not block.isascii() or b'"' in block or b"\x7f" in block:
        return None
    text = block.decode("ascii")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    codes = np.frombuffer(block, dtype=np.uint8)
    # every control byte is a line break: a \n, or the \r of a \r\n that the replace took
    if np.count_nonzero(codes < 0x20) != len(lines) - 1 + len(block) - len(text):
        return None
    if not lines[-1]:
        lines.pop()  # the empty text after the last break
    if max(map(len, lines), default=0) > limit:
        return None
    return lines


def _record_dtype(width: int, usecols: list[int], labels: Mapping[int, int]) -> np.dtype:
    """The record ``np.loadtxt`` reads each row of a ``width``-column file
    into: the columns ``usecols`` as float64, in that order, from the
    record's start (a run of them in header order as one subarray, which
    loadtxt reads as fast as a plain float row); each column of ``labels``
    as that many bytes after them, in that order; each other column as one
    byte, which takes any text."""
    slot = {c: k for k, c in enumerate(usecols)}
    start = {}
    spare = 8 * len(usecols)
    for c, size in labels.items():
        start[c] = spare
        spare += size
    names, formats, offsets = [], [], []
    j = 0
    while j < width:
        run = 1
        if j in slot:
            while j + run < width and slot.get(j + run) == slot[j] + run:
                run += 1
            formats.append(("f8", (run,)) if run > 1 else "f8")
            offsets.append(8 * slot[j])
        elif j in start:
            formats.append(f"S{labels[j]}")
            offsets.append(start[j])
        else:
            formats.append("S1")
            offsets.append(spare)
            spare += 1
        names.append(f"c{j}")
        j += run
    return np.dtype({"names": names, "formats": formats, "offsets": offsets,
                     "itemsize": -(-spare // 8) * 8})


def _label_widths(lines: list[str], at: tuple[int, ...]) -> list[int]:
    """The longest text of each column ``at`` among ``lines``."""
    if at == (0,):  # a line without a comma gives -1; loadtxt raises for it
        return [max(map(str.find, lines, repeat(",")))]
    fields = [line.split(",", max(at) + 1) for line in lines]
    return [max(len(f[c]) if len(f) > c else 0 for f in fields) for c in at]


class ValueColumns(NamedTuple):
    """What ``read_input`` tells a loader's ``checks`` of each value column:
    its least and greatest value and whether it holds a bad cell, one that
    is not a finite number (read as 0); and the (n, m) mask of those cells,
    None when there are none. A check that a column's bounds show no row
    can fail builds no row mask."""

    low: np.ndarray
    high: np.ndarray
    has_bad: np.ndarray
    bad: np.ndarray | None

    @classmethod
    def of(cls, values: np.ndarray, bad: np.ndarray | None = None) -> ValueColumns:
        return cls(values.min(axis=0, initial=np.inf), values.max(axis=0, initial=-np.inf),
                   np.zeros(values.shape[1], bool) if bad is None else bad.any(axis=0), bad)

    def bad_rows(self, j: int):
        """The mask of column ``j``'s bad cells; False for a column without one."""
        return self.bad[:, j] if self.has_bad[j] else np.False_


def _loadtxt_table(path, columns, row_count=None):
    """(header, labels, values, ``ValueColumns``) of a CSV file parsed by
    one ``np.loadtxt``, or None for a file that ``read_table`` and
    ``float()`` might read otherwise. The labels are a str array, or for a
    label of several columns a tuple of str arrays, one per column.

    ``columns(header)`` gives the label column's position (a tuple of them
    for a label of several columns) and the positions of the columns
    ``values`` holds, in order; a DataValidationError from it gives None,
    so that the row path names the file's first fault. ``row_count(header)``,
    when given, is the number of rows the file should hold: loadtxt reads
    into one record array of that size instead of growing one, and a file
    with more rows gives None. The rows are read ``CHUNK_BYTES`` at a time,
    each block completed to the end of the line it cuts, so the file's text
    is never held whole. A file qualifies when the header line and every
    block are plain (``_plain_lines``); the header names two or more
    columns, none twice; a row follows it; every line has as many commas as
    the header; and every value is finite. Such a line splits at its commas
    under ``csv.reader``, and ``loadtxt`` reads each value as ``float()``
    does, or raises.

    ``loadtxt`` reads every column of a row into one record
    (``_record_dtype``), so it raises for a row whose field count differs
    from the header's: that proves the comma rule. Each label column comes
    from a bytes field of the record, as wide as twice its longest text in
    the first block; if a label fills its field, the file is read again
    with every label field as wide as its longest line. A blank row, which
    ``loadtxt`` skips, is left to the row path. Each value column's least
    and greatest value prove it finite (a nan makes both nan).
    """
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            width = first.count(b",") + 1
            lines = _plain_lines(first, limit)
            header = lines[0].split(",") if lines else []
            if width < 2 or len(set(header)) != width:
                return None
            try:
                at, usecols = columns(header)
            except DataValidationError:
                return None
            label_at = (at,) if isinstance(at, int) else tuple(at)
            usecols = list(usecols)
            if len({*label_at, *usecols}) != len(label_at) + len(usecols):
                return None  # a column read twice: the row path
            data_start = fh.tell()
            max_rows = None
            if row_count is not None:
                expected = row_count(header)
                # a line holds at least ``width`` bytes: a short file under a
                # header of many columns reserves no more rows than it can hold
                room = (os.fstat(fh.fileno()).st_size - data_start) // width
                max_rows = min(expected, room) + 1

            def row_blocks():
                while block := fh.read(CHUNK_BYTES):
                    if not block.endswith(b"\n"):  # no line, and no \r\n pair, is split
                        block += fh.readline()
                    lines = _plain_lines(block, limit)
                    # loadtxt skips a blank line, which csv.reader gives as a row
                    if lines is None or "" in lines:
                        raise ValueError("a block loadtxt might read otherwise")
                    yield lines

            def records(label_bytes):
                blocks = row_blocks()
                lines = next(blocks, None)
                if lines is None:  # loadtxt warns on a file without rows
                    return None
                if label_bytes is None:
                    label_bytes = [2 * size for size in _label_widths(lines, label_at)]
                dtype = _record_dtype(width, usecols, {c: -(-(size + 1) // 8) * 8
                                                       for c, size in zip(label_at, label_bytes)})
                return np.loadtxt(chain(lines, chain.from_iterable(blocks)), dtype=dtype,
                                  delimiter=",", comments=None, ndmin=1, max_rows=max_rows)

            table = records(None)
            if table is None or (max_rows is not None and len(table) > expected):
                return None
            labels = [_label_bytes(table, f"c{c}") for c in label_at]
            if any(block.shape[1] == table.dtype[f"c{c}"].itemsize  # a label may be cut
                   for c, block in zip(label_at, labels)):
                fh.seek(data_start)
                longest = max(max(map(len, lines)) for lines in row_blocks())
                fh.seek(data_start)
                table = records([longest] * len(label_at))
                labels = [_label_bytes(table, f"c{c}") for c in label_at]
    except (OSError, ValueError, IndexError):  # such as a cell like 1_0, or a short row
        return None
    values = table.view(np.uint8).reshape(len(table), -1)[:, :8 * len(usecols)].view(np.float64)
    bounds = ValueColumns.of(values)
    if not (np.isfinite(bounds.low).all() and np.isfinite(bounds.high).all()):
        return None
    # the labels' ASCII bytes widened to code points are their str array
    texts = tuple(codes.view(f"U{codes.shape[1]}").ravel()
                  for codes in (block.astype(np.uint32) for block in labels))
    return header, texts[0] if isinstance(at, int) else texts, values, bounds


def _label_bytes(table: np.ndarray, name: str) -> np.ndarray:
    """The (rows, width) uint8 block of ``_loadtxt_table``'s label field
    ``name``, cut to the longest label (at least one byte). The labels are
    printable ASCII, NUL-padded to the field's width, so the longest ends
    at the last byte position that is not NUL in some row: the field's
    8-byte words (``_record_dtype`` aligns it) are OR-ed over the rows, one
    strided pass per word."""
    start, size = table.dtype.fields[name][1], table.dtype[name].itemsize
    words = table.view(np.uint64).reshape(len(table), -1)[:, start // 8:(start + size) // 8]
    seen = np.array([np.bitwise_or.reduce(words[:, j]) for j in range(words.shape[1])],
                    dtype=np.uint64)
    used = np.flatnonzero(seen.view(np.uint8))
    return table.view(np.uint8).reshape(len(table), -1)[
        :, start:start + (used[-1] + 1 if len(used) else 1)]


def read_input(path, columns, checks=None, order=None, *, row_count=None,
               label_array=False) -> tuple[list[str], list | np.ndarray, np.ndarray]:
    """(header, labels, values) of an input CSV file, ``values`` an (n, m) float block.

    ``columns(header)`` raises for a faulty header and gives the label
    column's position (a tuple of them gives tuple labels) and the value
    columns'. ``row_count(header)``, when given, is the number of rows the
    file should hold, which the fast path reads into one allocation.
    ``order(header, labels)`` (a tuple label gives its first cell) raises
    for a faulty label set and gives the rows kept and the value columns,
    in order, each None for the file's. ``checks(header, labels, values,
    bounds)`` lists row checks for ``_raise_first_fault``, ``bounds`` the
    ``ValueColumns`` of ``values``; by default one bad-cell check per value
    column. A plain file (``_loadtxt_table``) that passes them is parsed by
    one ``np.loadtxt``; any other is read again by ``read_table``, which
    raises its first fault: of the file, then the header, then the label
    set, then the first row in file order.

    The labels come as a list, or with ``label_array`` as a str array: on
    the fast path the one ``_loadtxt_table`` gives, which the checks get too
    (its labels are printable ASCII); on the row path one made after the
    checks, which get the list.
    """
    table = _loadtxt_table(path, columns, row_count)
    if table is not None:
        header, labels, values, bounds = table
        if isinstance(labels, tuple):  # a label of several columns
            keys = labels[0].tolist()
            labels = list(zip(*(texts.tolist() for texts in labels)))
        else:
            keys = labels = labels if label_array else labels.tolist()
        rows, cols = (None, None) if order is None else order(header, keys)
        if cols is not None and list(cols) != list(range(len(cols))):
            values = values[:, cols]
            bounds = ValueColumns(bounds.low[cols], bounds.high[cols], bounds.has_bad[cols], None)
        # loadtxt's values are all finite: only a loader's own checks can fail
        if checks is not None and any(mask.any() for mask, _, _ in
                                      checks(header, labels, values, bounds)):
            table = None
    if table is None:
        header, file_rows, lines = read_table(path)
        at, positions = columns(header)
        labels = list(map(itemgetter(*at) if isinstance(at, tuple) else itemgetter(at), file_rows))
        keys = labels if isinstance(at, int) else [label[0] for label in labels]
        rows, cols = (None, None) if order is None else order(header, keys)
        if cols is not None:
            positions = [positions[j] for j in cols]
        values = _parse_cells(file_rows, positions)
        bad = ~np.isfinite(values)
        values[bad] = 0.0  # reported as a bad cell, not also as a bad value
        found = (checks(header, labels, values, ValueColumns.of(values, bad)) if checks is not None
                 else [(bad[:, j], header[p], None) for j, p in enumerate(positions)])
        _raise_first_fault(path, file_rows, lines, header, labels, found)
        if label_array:
            labels = np.array(labels, dtype=str)
    if rows is not None:
        labels = [labels[i] for i in rows] if isinstance(labels, list) else labels[rows]
        values = values[rows]
    return header, labels, values


def match_labels(found: Sequence, expected: Sequence, where, noun: str, against: str) -> list[int]:
    """The position in ``found`` of each label of ``expected`` (which holds
    each label once). Unless ``found`` is a permutation of ``expected``,
    raise, naming ``where`` (a file or config key) and the first label that
    ``found`` repeats, or else how many labels it misses and how many it
    holds beyond ``expected``, and the first five of each."""
    at = {label: i for i, label in enumerate(found)}
    if len(at) < len(found):
        first = {label: i for i, label in reversed(list(enumerate(found)))}
        repeated = next(label for i, label in enumerate(found) if first[label] != i)
        raise DataValidationError(f"{where}: duplicate {noun} {repeated!r}")
    known = set(expected)
    if at.keys() == known:
        return [at[label] for label in expected]
    faults = (("missing", [label for label in expected if label not in at]),
              ("unexpected", [label for label in found if label not in known]))
    raise DataValidationError(f"{where}: {noun} labels do not match {against}" + "".join(
        f"; {kind} {len(labels)}: " + ", ".join(map(repr, labels[:5]))
        + (", ..." if len(labels) > 5 else "") for kind, labels in faults if labels))


def _keyed_order(path, key_column: str, expected: Sequence[str],
                 against: str = "the category registry"):
    """``read_input``'s ``order`` for a file keyed by its first column, named
    ``key_column``: the rows in the order of ``expected`` (``match_labels``)."""
    def order(header, labels):
        if header[0] != key_column:
            raise DataValidationError(f"{path}: first column must be {key_column!r}, "
                                      f"got {header[0]!r}")
        return match_labels(labels, expected, path, key_column, against), None
    return order


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def _survey_columns(path, header: list[str], categories: CategorySet | None = None) -> list[str]:
    """The value columns of a survey header, in load order: weight, size,
    then for households.csv (``categories``) exp_<category>..., demo_*...
    and inc when present, for the income survey inc and demo_*..."""
    required = ["id", "weight", "size"] + (["inc"] if categories is None else [])
    missing = [c for c in required if c not in header]
    if missing:
        raise DataValidationError(f"{path}: missing required columns {missing}")
    demo_cols = [c for c in header if c.startswith(DEMOGRAPHIC_PREFIX)]
    if categories is None:
        return ["weight", "size", "inc", *demo_cols]
    exp_cols = [EXPENDITURE_PREFIX + c for c in categories]
    match_labels([c for c in header if c.startswith(EXPENDITURE_PREFIX)], exp_cols, path,
                 "expenditure column", "the category registry")
    return ["weight", "size", *exp_cols, *demo_cols, *(["inc"] if "inc" in header else [])]


def _survey_checks(labels, values, bounds: ValueColumns, names: list[str], spent: int = 0):
    """The row checks of a survey file whose ids are ``labels`` and whose
    value columns ``names`` are weight, size, ``spent`` expenditure columns
    and the rest, in the order they run on a row: an id ending in a NUL,
    which a str array drops; a repeated id; a bad weight or size cell; a
    negative weight, a weight beyond ``SURVEY_VALUE_LIMIT``, a size below
    1, a size beyond it; then each further column's bad cell, negative
    value (for expenditure) and value beyond the limit. A row whose
    expenditure sums to 0 or less is dropped at load, so the rest of its
    cells go unchecked. A check that a column's least and greatest values
    show no row can fail is False, not a row mask."""
    nul = np.False_
    # a list comes from the row path; an array from loadtxt's, which reads printable ASCII
    if isinstance(labels, list) and "\x00" in "".join(labels):  # one C-speed scan
        nul = np.array([label.endswith("\x00") for label in labels], dtype=bool)
    low, high, bad_cells = bounds.low, bounds.high, bounds.has_bad
    far = np.maximum(-low, high) > SURVEY_VALUE_LIMIT  # sums over a survey stay finite
    kept = True
    if spent and (bad_cells[2 + spent:].any() or far[2 + spent:].any()):
        kept = values[:, 2:2 + spent].sum(axis=1) > 0

    def rows(j, flagged, failing):
        if not flagged:
            return np.False_
        return failing(j) & kept if j >= 2 + spent else failing(j)

    bad_cell = bounds.bad_rows

    def below(limit):
        return lambda j: values[:, j] < limit

    def too_large(j):
        return np.abs(values[:, j]) > SURVEY_VALUE_LIMIT

    negative = "{path}: row {row}, column {col!r}: negative expenditure {value}"
    return [
        (nul, "id", "{path}: row {row}, column 'id': id {label!r} ends in a NUL character"),
        (_duplicates(np.asarray(labels, dtype=str)), "id",
         "{path}: row {row}: duplicate household id {label!r}"),
        (rows(0, bad_cells[0], bad_cell), "weight", None),
        (rows(1, bad_cells[1], bad_cell), "size", None),
        (rows(0, low[0] < 0, below(0)), "weight",
         "{path}: row {row}, column 'weight': negative value {value}"),
        (rows(0, far[0], too_large), "weight", TOO_LARGE),
        (rows(1, low[1] < 1, below(1)), "size", "{path}: row {row}, column 'size': value {value} < 1"),
        (rows(1, far[1], too_large), "size", TOO_LARGE),
        *((rows(j, flagged, failing), col, template)
          for j, col in enumerate(names[2:2 + spent], start=2)
          for flagged, failing, template in ((bad_cells[j], bad_cell, None),
                                             (low[j] < 0, below(0), negative),
                                             (far[j], too_large, TOO_LARGE))),
        *((rows(j, flagged, failing), col, template)
          for j, col in enumerate(names[2 + spent:], start=2 + spent)
          for flagged, failing, template in ((bad_cells[j], bad_cell, None),
                                             (far[j], too_large, TOO_LARGE))),
    ]


def _read_survey(path, names, spent: int = 0) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(header, ids, values) of a survey file as ``read_input`` reads it with
    ``_survey_checks``, ``names(header)`` giving the value columns, the ids
    a str array."""
    def columns(header):
        value_columns = names(header)  # raises for a missing column, id included
        return header.index("id"), [header.index(c) for c in value_columns]

    def checks(header, labels, values, bounds):
        return _survey_checks(labels, values, bounds, names(header), spent)

    return read_input(path, columns, checks, label_array=True)


def load_household_survey(path, categories: CategorySet) -> HouseholdSurvey:
    """Load households.csv, dropping (and counting) zero-expenditure rows.

    A missing ``inc`` column is legal; operations that require income must
    fail loudly when it is absent rather than default it here. A dropped
    row's ``demo_*`` and ``inc`` cells are not checked. The file is read by
    ``read_input`` with ``_survey_checks``. The frame's expenditure and
    demographics are views of the block read, its other columns copies; the
    rows are copied only when some are dropped.
    """
    path = Path(path)

    def names(header):
        return _survey_columns(path, header, categories)

    header, ids, values = _read_survey(path, names, len(categories))
    demo_cols = [c for c in names(header) if c.startswith(DEMOGRAPHIC_PREFIX)]
    k = len(categories)
    keep = values[:, 2:2 + k].sum(axis=1) > 0
    n_kept = int(np.count_nonzero(keep))
    dropped = len(ids) - n_kept
    notes = [f"dropped {dropped} household(s) with zero total expenditure"] if dropped else []
    report = LoadReport(source=str(path), n_rows=len(ids), n_loaded=n_kept,
                        n_dropped_zero_total=dropped, notes=notes)
    if dropped:
        ids, values = ids[keep], values[keep]
    if not n_kept:
        raise DataValidationError(f"{path}: no usable household rows")
    if not (values[:, 0] > 0).any():
        raise DataValidationError(f"{path}: every household has weight 0" + (
            f", once the {dropped} of zero total expenditure are dropped" if dropped else ""))
    return HouseholdSurvey(
        ids=ids, weight=values[:, 0].copy(), size=values[:, 1].copy(),
        income=values[:, -1].copy() if "inc" in header else None,
        demographic_names=tuple(c[len(DEMOGRAPHIC_PREFIX):] for c in demo_cols),
        demographics=values[:, 2 + k:2 + k + len(demo_cols)], expenditure=values[:, 2:2 + k],
        report=report,
    )


def load_income_survey(path) -> HouseholdSurvey:
    """Load the imputation target: id, weight, size, inc, demo_* columns.

    Expenditure columns, if present, are ignored (and noted in the report);
    the dataset's own incomes define the calibration targets. The rows come
    back as a frame whose ``expenditure`` is None. The file is read with the
    household loader's row checks (``_survey_checks``).
    """
    path = Path(path)
    header, ids, values = _read_survey(path, lambda header: _survey_columns(path, header))
    cols = _survey_columns(path, header)
    ignored = [c for c in header if c.startswith(EXPENDITURE_PREFIX)]
    report = LoadReport(source=str(path), n_rows=len(ids), n_loaded=len(ids), notes=[
        f"ignored {len(ignored)} expenditure column(s) in the income dataset"] if ignored else [])
    if not len(ids):
        raise DataValidationError(f"{path}: no income rows")
    if not (values[:, 0] > 0).any():
        raise DataValidationError(f"{path}: every household has weight 0")
    return HouseholdSurvey(
        ids=ids, weight=values[:, 0], size=values[:, 1], income=values[:, 2],
        demographic_names=tuple(c[len(DEMOGRAPHIC_PREFIX):] for c in cols[3:]),
        demographics=values[:, 3:], expenditure=None, report=report,
    )


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a row: quoted,
    with quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Rows that _write_rows formats per numpy pass: enough that the fixed cost
# of a block's numpy calls (some 300) stays small beside its rows, few
# enough that a block's temporaries (about 2 kB a households.csv row) stay
# within a few MB.
CSV_BLOCK_ROWS = 2048
# Below this many rows _write_rows writes each row by ``%``: a numpy pass
# costs 0.15-0.5 ms however few its rows, and ``%`` is faster up to about
# 64 rows of households.csv's 27 columns (about 100 of a 4- to 9-column
# table).
FEW_ROWS = 64

# the number specs _write_rows places itself: kind and precision
_NUMBER_SPECS = {"%.6f": ("f", 6), "%.6g": ("g", 6), "%.12g": ("g", 12)}
_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
_EXACT = 2.0**52  # below it every half-integer is a double
# Text is assembled in little-endian 8-byte words, so that a word's first
# byte in memory is its lowest: viewed as bytes, words read left to right.
# A NUL byte in a word is no text: the writer drops every one.
_WORD = np.dtype("<u8")
_ZEROS = 0x3030303030303030  # eight ASCII '0'
_HIGH_BITS = 0x8080808080808080
_LOW_BITS = 0x0101010101010101


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


def _round_scaled(a: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """(s, r): s = fl(a·p) and r = round-half-even of the exact product,
    for a ≥ 0 and p a power of ten (an array, or one for all); r is exact
    wherever s < 2**52.

    Rounding s itself gives r unless s sits on a half-integer: every
    half-integer below 2**52 is a double, so the exact product cannot lie
    across one from s. On a tie, the sign of the product's rounding error
    says which way the exact product breaks it."""
    s = a * p
    r = np.rint(s)
    tie = np.flatnonzero(np.abs(s - r) == 0.5)
    if tie.size:
        st = s.flat[tie]
        err = _product_error(a.flat[tie], p if np.ndim(p) == 0 else p.flat[tie], st)
        r.flat[tie] = np.where(err > 0, st + 0.5, np.where(err < 0, st - 0.5, r.flat[tie]))
    return s, r


def _scaled_integers(x: np.ndarray, kind: str, precision: int):
    """(r, decimals, bad) for magnitudes ``x`` under one number spec:
    ``spec % v`` writes r with ``decimals`` digits after a point (one count
    for all cells but under %g; %g then strips the fraction's trailing
    zeros). ``bad`` marks the cells this cannot prove: non-finite, r at or
    over 2**52, or a %g value that ``%`` writes in exponent form."""
    if kind == "f":
        s, r = _round_scaled(x, _POW10[precision])
        return r, precision, ~(s < _EXACT)
    # %g: precision significant digits, the decimal exponent estimated by
    # log10 and moved one decade where the rounded digits say it was off
    exponent = np.floor(np.log10(np.where(np.isfinite(x) & (x > 0), x, 1.0)))
    decimals = np.clip(precision - 1 - exponent, 0, 22).astype(np.int64)
    _, r = _round_scaled(x, _POW10[decimals])
    low, high = _POW10[precision - 1], _POW10[precision]
    move = np.flatnonzero(((r < low) & (x > 0)) | (r >= high))
    if move.size:
        moved = decimals.flat[move] + np.where(r.flat[move] < low, 1, -1)
        r.flat[move] = _round_scaled(x.flat[move], _POW10[np.clip(moved, 0, 22)])[1]
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
        chunk = x
        if k:
            x = x // 10**8
            chunk = chunk - x * 10**8
        high = chunk // 10**4
        v = high | ((chunk - high * 10**4) << 32)
        q = ((v * 10486) >> 20) & 0x0000007F0000007F
        v = q | ((v - q * 100) << 16)
        q = ((v * 103) >> 10) & 0x000F000F000F000F
        out[..., k] = q | ((v - q * 10) << 8)
    return out


def _integer_fields(words: int) -> np.ndarray:
    """Row 4·length + 2·comma + negative: what to take from the words of a
    zero-padded ASCII integer of ``length`` digits to turn the zeros before
    it into its sign and, before that, a comma, and the others into NUL."""
    size = 8 * words
    length, comma, negative = (
        grid.reshape(-1, 1)
        for grid in np.meshgrid(np.arange(size + 1), [0, 1], [0, 1], indexing="ij"))
    position = np.arange(size)
    sign = size - length - 1
    delta = np.where(position >= size - length, 0,
                     np.where((negative == 1) & (position == sign), 0x30 - ord("-"),
                              np.where((comma == 1) & (position == sign - negative),
                                       0x30 - ord(","), 0x30)))
    return delta.astype(np.uint8).view(_WORD)


# an integer part is at most 16 digits: three words with its sign and comma
_INTEGER_FIELDS = {words: _integer_fields(words) for words in (1, 2, 3)}


def _fixed_fraction(digits: np.ndarray, places: int) -> None:
    """The fraction words ``digits`` (the digits from position 1) as ASCII
    text of ``places`` digits after a point, in place."""
    position = np.arange(8 * digits.shape[-1])
    fill = np.where(position == 0, ord("."), np.where(position <= places, 0x30, 0))
    digits |= fill.astype(np.uint8).view(_WORD)


def _trimmed_fraction(digits: np.ndarray) -> None:
    """The fraction words ``digits`` (the digits from position 1) as %g
    writes them, in place: ASCII up to the last nonzero digit, after a
    point, and nothing (all NUL) when every digit is zero.

    Bit 7 of each nonzero digit byte is set and copied to every byte
    before it, the bytes of later words included where any of them is
    nonzero; a byte so marked becomes ASCII."""
    later = 0
    for k in range(digits.shape[-1] - 1, -1, -1):
        x = digits[..., k]
        marked = ((x + 0x7F7F7F7F7F7F7F7F) & _HIGH_BITS) | later
        marked |= marked >> 8
        marked |= marked >> 16
        marked |= marked >> 32
        later = (marked & 0x80) * _LOW_BITS  # every byte, where any is marked
        x |= (marked >> 7) * 0x30
    first = digits[..., 0]
    first -= (first & 0x10) >> 3  # an ASCII '0' in the first place becomes the point


def _number_words(values: np.ndarray, spec: str, comma: np.ndarray):
    """(words, bad): ``spec % v`` for a (rows × columns) block of numbers,
    each cell preceded by a comma where ``comma`` (one flag per column). A
    cell is the bytes of ``words[i, j]`` other than NUL; ``bad`` marks the
    cells whose text is not proven (see ``_scaled_integers``).

    A cell's words hold a right-aligned integer part, with its sign and
    comma before it, then, if any cell has a fraction, the point and a
    left-aligned fraction."""
    kind, precision = _NUMBER_SPECS[spec]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r, decimals, bad = _scaled_integers(np.abs(values), kind, precision)
    negative = np.signbit(values) & ~bad
    r[bad] = 0.0
    if kind == "g":
        decimals[bad] = 0
    scale = _POW10[decimals]
    whole = np.floor(r / scale)  # exact: r < 2**52 is an integer, scale a power of ten
    # digits in the integer part: log10's count, put right where it is off
    # by one (at 10**k - 1, or where log10 is not exact)
    least = np.maximum(whole, 1.0)  # 0 has one digit, as 1 has
    length = np.log10(least).astype(np.int64)
    length += least >= _POW10[length + 1]
    length -= least < _POW10[length]
    length += 1
    # bytes of the integer part with the sign and comma before it
    int_words = -(-int((length + negative + comma).max(initial=1)) // 8)
    words = _digit_words(whole, int_words)
    words |= _ZEROS
    words -= _INTEGER_FIELDS[int_words][4 * length + 2 * comma + negative]
    places = int(np.max(decimals, initial=0))
    if not places:
        return words, bad
    # the fraction left-aligned after the point, which takes the place of a
    # leading zero
    frac_words = -(-(places + 1) // 8)
    fraction = _digit_words((r - whole * scale) * _POW10[8 * frac_words - 1 - decimals],
                            frac_words)
    if kind == "f":
        _fixed_fraction(fraction, places)
    else:
        _trimmed_fraction(fraction)
    return np.concatenate([words, fraction], axis=-1), bad


# the characters that _csv_field quotes a text for, by code point (any
# code beyond ASCII looks up 127, which is not one)
_QUOTED = np.zeros(128, bool)
_QUOTED[[*map(ord, ',"\r\n')]] = True


def _text_words(texts, comma: bool) -> tuple[np.ndarray, np.ndarray]:
    """(words, bad) for a column of texts as ``_number_words`` gives cells:
    the UTF-8 bytes of each (``surrogatepass``), after a comma if
    ``comma``, left-aligned. ``bad`` marks the texts that the words cannot
    show as ``_csv_field`` writes them: one that it quotes, and one holding
    a NUL, which the writer drops. A numpy str array is cast to bytes in
    numpy while it is ASCII; any other column is taken as ``str()`` of each
    value."""
    nul = None
    if not (isinstance(texts, np.ndarray) and texts.dtype.kind == "U"):
        texts = list(map(str, texts))
        if "\x00" in "".join(texts):  # a str array drops a trailing NUL
            nul = np.array(["\x00" in t for t in texts])
        texts = np.array(texts, dtype=str)
    codes = np.ascontiguousarray(texts).view(np.uint32).reshape(len(texts), -1)
    bad = _QUOTED[np.minimum(codes, 127)].any(axis=1)
    bad |= ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any(axis=1)  # a NUL before a character
    if nul is not None:
        bad |= nul
    if codes.max(initial=0) > 127:  # beyond ASCII: each text's UTF-8 bytes
        codes = np.array([t.encode("utf-8", "surrogatepass") for t in texts.tolist()])
        codes = codes.view(np.uint8).reshape(len(texts), -1)
    cells = np.zeros((len(texts), -(-(codes.shape[1] + comma) // 8) * 8), np.uint8)
    cells[:, :comma] = ord(",")
    cells[:, comma:comma + codes.shape[1]] = codes  # an ASCII code point is its byte
    return cells.view(_WORD), bad


def _block_text(specs: Sequence[str], columns: Sequence, start: int, stop: int,
                line_end: str):
    """(data, ends, fallback) for rows ``start:stop`` as ``_write_rows``
    writes them: the UTF-8 bytes of the rows, where row i ends at
    ``ends[i]`` bytes, with the rows listed in ``fallback`` left out.

    Each spec's cells come as one (rows × words) array; one ``take`` puts
    the words of every cell in column order, and the NUL bytes between the
    cells' texts are dropped from the block's bytes in one pass."""
    n = stop - start
    parts, slots, bad = [], {}, np.zeros(n, bool)
    width = 0

    def place(words, cols):
        nonlocal width
        size = words.shape[-1]
        parts.append(words.reshape(n, -1))
        slots.update((j, range(width + k * size, width + (k + 1) * size))
                     for k, j in enumerate(cols))
        width += len(cols) * size

    for spec in dict.fromkeys(specs):
        cols = [j for j, s in enumerate(specs) if s == spec]
        if spec == "%s":
            for j in cols:
                words, text_bad = _text_words(columns[j][start:stop], j > 0)
                bad |= text_bad
                place(words, [j])
            continue
        values = np.empty((n, len(cols)))
        for k, j in enumerate(cols):
            values[:, k] = columns[j][start:stop]
        words, spec_bad = _number_words(values, spec, np.array(cols) > 0)
        bad |= spec_bad.any(axis=1)
        place(words, cols)
    place(np.full((n, 1), int.from_bytes(line_end.encode().ljust(8, b"\0"), "little"), _WORD),
          [len(specs)])
    order = np.fromiter(chain.from_iterable(slots[j] for j in range(len(specs) + 1)), np.intp)
    block = np.take(np.concatenate(parts, axis=1), order, axis=1)
    fallback = np.flatnonzero(bad)
    ends = None
    if fallback.size:
        block[fallback] = 0
        ends = np.cumsum(np.count_nonzero(block.view(np.uint8), axis=1))
    return block.tobytes().translate(None, b"\0"), ends, fallback.tolist()


def _write_rows(fh, specs: Sequence[str], columns: Sequence, line_end: str) -> None:
    """Write ``row_format % row`` for each row of ``columns`` to the binary
    file ``fh`` as UTF-8 (``surrogatepass``), where ``row_format`` is
    ``specs`` joined by commas, then ``line_end``.

    A ``%s`` column's values are written as ``str()`` of each, CSV-quoted
    (``_csv_field``); every other column holds numbers under one of
    ``_NUMBER_SPECS``. Fewer than ``FEW_ROWS`` rows are written by ``%``
    alone. Otherwise blocks of ``CSV_BLOCK_ROWS`` rows are formatted in
    numpy, numbers rounded exactly as ``%`` rounds (``_number_words``), and
    each block's bytes are written at once. A row holding a cell that path
    cannot prove, or a text that needs quoting or holds a NUL
    (``_text_words``), is written by ``row_format % row`` in its place.
    """
    row_format = ",".join(specs) + line_end

    def percent(i):
        row = tuple(_csv_field(str(column[i])) if spec == "%s" else column[i]
                    for spec, column in zip(specs, columns))
        return (row_format % row).encode("utf-8", "surrogatepass")

    n = len(columns[0])
    if n < FEW_ROWS:
        fh.write(b"".join(map(percent, range(n))))
        return
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n)
        data, ends, fallback = _block_text(specs, columns, start, stop, line_end)
        data, done = memoryview(data), 0
        for i in fallback:
            fh.write(data[done:ends[i]])
            fh.write(percent(start + i))
            done = ends[i]
        fh.write(data[done:])


def write_csv(path, header: Sequence[str], specs: Sequence[str], columns: Sequence,
              line_end: str = "\n") -> None:
    """Write a CSV file: ``header``, each name CSV-quoted where it needs it
    (``_csv_field``), then the rows of ``columns`` as ``_write_rows``
    writes them, every line ending in ``line_end``."""
    with open(path, "wb") as fh:
        fh.write((",".join(map(_csv_field, header)) + line_end).encode("utf-8", "surrogatepass"))
        _write_rows(fh, specs, columns, line_end)


def write_household_survey(path, survey: HouseholdSurvey | Sequence[HouseholdRecord],
                           categories: CategorySet,
                           extra_columns: Mapping[str, Sequence] | None = None) -> None:
    """Write a survey frame in the households.csv schema (12-significant-digit text).

    A list of records is converted once with ``as_survey``. Demographic
    columns come in name order, extra columns as ``str()`` of each value;
    rows end in CRLF, as the csv module ends them. The file is UTF-8 (ids
    and extras ``surrogatepass``), written by ``write_csv`` from the
    frame's columns.
    """
    frame = as_survey(survey)
    names = sorted(frame.demographic_names)
    columns = [frame.ids, frame.weight, frame.size]
    header = ["id", "weight", "size"]
    if frame.income is not None:
        columns.append(frame.income)
        header.append("inc")
    columns += [frame.demographics[:, frame.demographic_names.index(k)] for k in names]
    header += [DEMOGRAPHIC_PREFIX + k for k in names]
    columns += list(frame.expenditure.T)
    header += [EXPENDITURE_PREFIX + c for c in categories]
    extras = dict(extra_columns or {})
    write_csv(path, header + list(extras),
              ["%s"] + ["%.12g"] * (len(columns) - 1) + ["%s"] * len(extras),
              columns + list(extras.values()), "\r\n")


def _value_columns(path, *names: str, label: str | None = None):
    """``read_input``'s ``columns``: values from the columns ``names``, labels from
    column ``label`` (by default the first); the first of them the header lacks raises."""
    def columns(header):
        for col in ((label,) if label else ()) + names:
            if col not in header:
                raise DataValidationError(f"{path}: missing column {col!r}")
        return header.index(label) if label else 0, [header.index(c) for c in names]
    return columns


def _nonnegative_checks(negative_value: str, names):
    """``read_input``'s ``checks`` for the value columns that
    ``names(header, labels)`` names: each one's bad cell, then its negative
    value (the template ``negative_value``); a column whose bounds show
    neither is left out, so that a wide file builds no per-column mask."""
    def checks(header, labels, values, bounds):
        columns = names(header, labels)
        return [(mask, columns[j], template)
                for j in np.flatnonzero(bounds.has_bad | (bounds.low < 0)).tolist()
                for mask, template in ((bounds.bad_rows(j), None),
                                       (values[:, j] < 0, negative_value))]
    return checks


def load_mrio(z_path, d_path, x_path, f_path) -> MrioTable:
    """Load the four MRIO files and verify the accounting identity.

    A negative flow, final demand or emission, and an output that is not
    positive, are named by file, row, column and sector."""
    z_path = Path(z_path)

    def nonnegative(noun, names):
        return _nonnegative_checks(
            "{path}: row {row}, column {col!r}: sector {label!r} has negative " + noun
            + " {value}; flows, final demand and emissions must be nonnegative", names)

    def sector_columns(header):
        if len(header) < 2:
            raise DataValidationError(f"{z_path}: flow matrix needs at least one sector column")
        if header[0] != "sector":
            raise DataValidationError(f"{z_path}: first column must be 'sector', got {header[0]!r}")
        return 0, range(1, len(header))

    def flow_order(header, labels):
        row = match_labels(labels, header[1:], z_path, "sector row", "the sector columns")
        return None, np.argsort(row).tolist()  # Z's columns in row-label order

    _, labels, Z = read_input(z_path, sector_columns,
                              nonnegative("flow", lambda header, labels: labels),
                              flow_order, row_count=lambda header: len(header) - 1)
    sectors = tuple(labels)

    def keyed(path, columns, checks):  # a file keyed by sector, in mrio_z.csv's row order
        return read_input(path, columns, checks,
                          _keyed_order(path, "sector", sectors, f"the rows of {z_path}"),
                          row_count=lambda header: len(sectors))

    # mrio_x.csv's label is (sector, origin) when it flags origins; a blank flag: domestic
    def x_columns(header):
        at, positions = _value_columns(x_path, "x")(header)
        return ((at, header.index("origin")) if "origin" in header else at), positions

    def x_checks(header, labels, values, bounds):
        sector = "{label[0]!r}" if "origin" in header else "{label!r}"
        checks = [(bounds.bad_rows(0), "x", None),
                  (values[:, 0] <= 0, "x", "{path}: row {row}, column 'x': sector " + sector
                   + ": output must be strictly positive, got {value}")]
        if "origin" in header:
            flags = np.array([o not in ("", "domestic", "imported") for _, o in labels], dtype=bool)
            checks.append((flags, "origin", "{path}: row {row}, column 'origin': expected "
                                            "domestic/imported, got {text!r}"))
        return checks

    d = keyed(d_path, _value_columns(d_path, "d"),
              nonnegative("final demand", lambda header, labels: ["d"]))[2]
    x_header, x_labels, x = keyed(x_path, x_columns, x_checks)
    f = keyed(f_path, _value_columns(f_path, "f"),
              nonnegative("emissions", lambda header, labels: ["f"]))[2]
    origin = (tuple(o or "domestic" for _, o in x_labels) if "origin" in x_header
              else ("domestic",) * len(sectors))
    return MrioTable(sectors=sectors, flows=Z, final_demand=d[:, 0], output=x[:, 0],
                     emissions=f[:, 0], origin=origin)


def load_bridge(path, categories: CategorySet) -> BridgingMatrix:
    """bridge.csv -> the bridging matrix, its rows in registry order. A
    negative share, and a row that does not sum to 1, are named by file,
    row, column and category."""
    path = Path(path)

    def product_columns(header):
        if len(header) < 2:
            raise DataValidationError(f"{path}: bridging matrix needs product columns")
        return 0, range(1, len(header))

    nonnegative = _nonnegative_checks(
        "{path}: row {row}, column {col!r}: category {label!r} has negative share {value}; "
        "bridging shares must be nonnegative", lambda header, labels: header[1:])

    def checks(header, labels, values, bounds):
        sums = values.sum(axis=1)
        off = np.abs(sums - 1.0) > BRIDGE_ROW_TOL
        # the sum of the first row off: when this check is the file's first
        # fault, that row is the one named
        return [*nonnegative(header, labels, values, bounds),
                (off, header[0], "{path}: row {row}: bridging row {label!r} sums to %.12g, "
                                 "expected 1" % sums[np.argmax(off)])]

    header, _, shares = read_input(path, product_columns, checks,
                                   _keyed_order(path, "category", categories.ids),
                                   row_count=lambda header: len(categories))
    return BridgingMatrix(categories=categories.ids, products=tuple(header[1:]), shares=shares)


def load_price_relatives(path, categories: CategorySet) -> np.ndarray:
    """prices.csv -> per-category price relatives in registry order. A
    relative of -1 or less is named by file, row, column and category."""
    path = Path(path)

    def checks(header, labels, values, bounds):
        return [(bounds.bad_rows(0), "pi", None),
                (values[:, 0] <= -1.0, "pi", "{path}: row {row}, column 'pi': category {label!r} "
                 "has price relative {value}; price relatives must exceed -1")]

    return read_input(path, _value_columns(path, "pi"), checks,
                      _keyed_order(path, "category", categories.ids))[2][:, 0]


def load_fuels(path) -> FuelTable:
    """fuels.csv -> the fuel table. A repeated fuel, and a price or carbon
    content that is not positive, are named by file, row, column and fuel."""
    path = Path(path)

    def checks(header, labels, values, bounds):
        first = {label: i for i, label in reversed(list(enumerate(labels)))}
        positive = ("{path}: row {row}, column {col!r}: fuel {label!r} has %s {value}; fuel %s "
                    "must be strictly positive")
        return [
            (np.array([first[label] != i for i, label in enumerate(labels)], dtype=bool), "fuel",
             "{path}: row {row}: duplicate fuel {label!r}"),
            (bounds.bad_rows(0), "price", None),
            (bounds.bad_rows(1), "kgco2_per_unit", None),
            (values[:, 0] <= 0, "price", positive % ("price", "prices")),
            (values[:, 1] <= 0, "kgco2_per_unit",
             positive % ("carbon content", "carbon contents")),
        ]

    _, fuels, values = read_input(path, _value_columns(path, "price", "kgco2_per_unit",
                                                       label="fuel"), checks)
    return FuelTable(fuels=tuple(fuels), price=values[:, 0], carbon_kg_per_unit=values[:, 1])
