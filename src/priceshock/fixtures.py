"""Canonical deterministic fixtures shared by every test suite.

Three bundles, all frozen: a two-sector inter-industry table whose algebra
is checkable by hand, a three-good demand-system calibration point, and a
synthetic household survey with a documented Engel-curve generating
process. Any change to the values these produce is a test failure.

Synthetic survey generating process (seed-fixed, uniforms only)
---------------------------------------------------------------
For each household: size is uniform on 1..8, an urban flag has
probability 0.4, head age is uniform on 20..80, log income is
N(10, 0.5^2), and log total expenditure is 0.55 + 0.93 * ln(income) plus
N(0, 0.15^2) noise. Raw category weights follow quadratic Engel curves in
t = ln(x) - 9.85 (per-category level, slope, curvature, noise below),
gated by logistic participation for optional categories; alcohol and
childcare are structurally zero. Weights are floored at zero, normalised
to shares, and the matrix is then iteratively scaled so the aggregate
four-group budget shares hit (0.417, 0.047, 0.007, 0.529) exactly while
household totals stay fixed. Expenditures are rounded to 6 decimals,
which keeps every value reproducible through CSV round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    CategorySet,
    DEFAULT_REPORT_GROUPS,
    HouseholdRecord,
    MrioTable,
    write_csv,
    write_household_survey,
)
from .randutil import normals, rng_for

HH_SEED = 731002
HH_COUNT = 240
HH_WEIGHT = 12.5

TARGET_GROUP_SHARES = {
    "food": 0.417,
    "motor_fuels": 0.047,
    "domestic_energy_electricity": 0.007,
    "other": 0.529,
}

GROUP_PRICE_RELATIVES = {
    "food": 0.4289,
    "motor_fuels": 0.7927,
    "domestic_energy_electricity": 0.6365,
    "other": 0.3661,
}

# level, slope, curvature, noise sd, participation (intercept, slope) or None
ENGEL_PROCESS = {
    "food": (0.43, -0.055, -0.004, 0.020, None),
    "alcohol": None,
    "tobacco": (0.018, -0.004, 0.0, 0.004, (0.0, -0.8)),
    "clothing": (0.050, -0.005, 0.0, 0.008, None),
    "domestic_energy": (0.0040, -0.0012, 0.0, 0.0008, None),
    "electricity": (0.0035, -0.0006, 0.0, 0.0007, None),
    "rents": (0.075, 0.008, 0.0, 0.012, None),
    "household_services": (0.012, 0.006, 0.001, 0.004, (-0.7, 1.2)),
    "health": (0.035, -0.003, 0.0, 0.008, None),
    "private_transport": (0.020, 0.009, 0.001, 0.006, (-0.4, 1.0)),
    "public_transport": (0.016, -0.002, 0.0, 0.004, (0.6, -0.5)),
    "communication": (0.030, -0.002, 0.0, 0.005, None),
    "recreation": (0.018, -0.003, 0.0, 0.004, None),
    "education": (0.040, 0.012, 0.002, 0.010, (0.3, 0.9)),
    "restaurants": (0.028, 0.004, 0.0, 0.006, (0.1, 0.6)),
    "other": (0.140, 0.030, 0.003, 0.015, None),
    "childcare": None,
    "motor_fuels": (0.045, 0.011, 0.0, 0.008, (0.5, 0.9)),
    "durables": (0.035, 0.014, 0.002, 0.009, (0.8, 0.7)),
}

FUEL_ROWS = (
    # fuel, price per unit, kg CO2 per unit
    ("diesel", 73.4, 2.68),
    ("petrol", 87.3, 2.31),
    ("electricity", 10.4, 0.45),
    ("kerosene", 83.6, 2.52),
    ("lpg", 50.2, 1.50),
    ("coal", 11.3, 2.42),
)

FUEL_CATEGORY_MAP = {
    "motor_fuels": "petrol",
    "domestic_energy": "lpg",
    "electricity": "electricity",
}


def io2_table() -> MrioTable:
    """Two-sector table: flows [[20,30],[40,10]], demand (50,50), output (100,100)."""
    return MrioTable(
        sectors=("energy", "industry"),
        flows=np.array([[20.0, 30.0], [40.0, 10.0]]),
        final_demand=np.array([50.0, 50.0]),
        output=np.array([100.0, 100.0]),
        emissions=np.array([10.0, 30.0]),
        origin=("domestic", "domestic"),
    )


@dataclass(frozen=True)
class LesFixture:
    """Three-good calibration point: unit prices, basket (50, 30, 20)."""

    prices: tuple[float, ...] = (1.0, 1.0, 1.0)
    quantities: tuple[float, ...] = (50.0, 30.0, 20.0)
    total: float = 100.0
    budget_elasticities: tuple[float, ...] = (0.8, 1.0, 1.5)
    xi: float = -1.5

    @property
    def shares(self) -> tuple[float, ...]:
        return tuple(q / self.total for q in self.quantities)


def les_fixture() -> LesFixture:
    return LesFixture()


def _logistic(z: float) -> float:
    return 1.0 / (1.0 + np.exp(-z))


def synthetic_households(n: int = HH_COUNT, seed: int = HH_SEED,
                         categories: CategorySet | None = None) -> list[HouseholdRecord]:
    """The synthetic survey described in the module docstring."""
    categories = categories or CategorySet.default()
    if tuple(categories.ids) != tuple(ENGEL_PROCESS.keys()):
        raise ValueError("synthetic survey is defined on the default category set")
    sizes = np.empty(n)
    urban = np.empty(n)
    ages = np.empty(n)
    incomes = np.empty(n)
    totals = np.empty(n)
    raw = np.zeros((n, len(categories)))
    for h in range(n):
        rng = rng_for(seed, "household", h)
        u = rng.random(4)
        sizes[h] = 1 + int(u[0] * 8)
        urban[h] = 1.0 if u[1] < 0.4 else 0.0
        ages[h] = 20 + int(u[2] * 61)
        ln_inc = 10.0 + 0.5 * normals(rng, 1)[0]
        ln_x = 0.55 + 0.93 * ln_inc + 0.15 * normals(rng, 1)[0]
        incomes[h] = np.exp(ln_inc)
        totals[h] = np.exp(ln_x)
        t = ln_x - 9.85
        for j, cat in enumerate(categories):
            process = ENGEL_PROCESS[cat]
            if process is None:
                continue
            level, slope, curvature, noise_sd, participation = process
            if participation is not None:
                p0, p1 = participation
                if rng.random() >= _logistic(p0 + p1 * t):
                    continue
            w = level + slope * t + curvature * t * t + noise_sd * normals(rng, 1)[0]
            raw[h, j] = max(0.0, w)
    shares = raw / raw.sum(axis=1, keepdims=True)
    expenditure = shares * totals[:, np.newaxis]
    expenditure = _scale_to_group_targets(expenditure, np.full(n, HH_WEIGHT), categories)
    expenditure = np.round(expenditure, 6)

    records = []
    for h in range(n):
        records.append(
            HouseholdRecord(
                id=f"hh{h:04d}",
                weight=HH_WEIGHT,
                size=float(sizes[h]),
                expenditure=expenditure[h],
                demographics={"urban": float(urban[h]), "head_age": float(ages[h])},
                disposable_income=round(float(incomes[h]), 6),
            )
        )
    return records


def _scale_to_group_targets(expenditure: np.ndarray, weights: np.ndarray,
                            categories: CategorySet, *, max_iter: int = 500,
                            tol: float = 1e-13) -> np.ndarray:
    """Iterative proportional fitting to the aggregate four-group shares."""
    e = expenditure.copy()
    totals = e.sum(axis=1)
    group_cols = {
        g: [categories.index(c) for c in members]
        for g, members in DEFAULT_REPORT_GROUPS.items()
    }
    agg_total = float(np.dot(weights, totals))
    for _ in range(max_iter):
        worst = 0.0
        for g, cols in group_cols.items():
            current = float(np.dot(weights, e[:, cols].sum(axis=1))) / agg_total
            target = TARGET_GROUP_SHARES[g]
            worst = max(worst, abs(current - target))
            if current > 0:
                e[:, cols] *= target / current
        e *= (totals / e.sum(axis=1))[:, np.newaxis]
        if worst < tol:
            break
    return e


@dataclass(frozen=True)
class FixtureBundle:
    """The three canonical fixtures and the category registry they use."""

    io2: MrioTable
    les: LesFixture
    households: list[HouseholdRecord]
    categories: CategorySet


def canonical_fixtures() -> FixtureBundle:
    categories = CategorySet.default()
    return FixtureBundle(
        io2=io2_table(),
        les=les_fixture(),
        households=synthetic_households(categories=categories),
        categories=categories,
    )


def category_price_relatives(categories: CategorySet) -> np.ndarray:
    """Per-category relatives from the four-group rates."""
    out = np.empty(len(categories))
    for g, members in DEFAULT_REPORT_GROUPS.items():
        for c in members:
            out[categories.index(c)] = GROUP_PRICE_RELATIVES[g]
    return out


def write_fixture_bundle(outdir) -> dict[str, Path]:
    """Materialise the fixtures plus a ready-to-run configuration file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    categories = CategorySet.default()
    paths: dict[str, Path] = {}

    records = synthetic_households(categories=categories)
    paths["households"] = outdir / "households.csv"
    write_household_survey(paths["households"], records, categories)

    # each number at 12 significant digits, which reloads to the same float
    table = io2_table()
    sectors = table.sectors
    energy_rows = {"domestic_energy": 1.0, "electricity": 1.0, "motor_fuels": 0.9}
    energy = np.array([energy_rows.get(c, 0.0) for c in categories])
    for name, header, columns in (
            ("mrio_z", ["sector", *sectors], [sectors, *table.flows.T]),
            ("mrio_d", ["sector", "d"], [sectors, table.final_demand]),
            ("mrio_f", ["sector", "f"], [sectors, table.emissions]),
            ("mrio_x", ["sector", "x", "origin"], [sectors, table.output, table.origin]),
            ("bridge", ["category", *sectors], [categories.ids, energy, 1.0 - energy]),
            ("prices", ["category", "pi"], [categories.ids, category_price_relatives(categories)]),
            ("fuels", ["fuel", "price", "kgco2_per_unit"], list(zip(*FUEL_ROWS)))):
        paths[name] = outdir / f"{name}.csv"
        write_csv(paths[name], header,
                  ["%s" if isinstance(column[0], str) else "%.12g" for column in columns], columns)

    paths["config"] = outdir / "config.txt"
    fuel_map_lines = "\n".join(
        f"fuel_map.{cat} = {fuel}" for cat, fuel in FUEL_CATEGORY_MAP.items()
    )
    config_text = f"""# Demonstration scenario over the bundled synthetic survey.
files.households = households.csv
files.mrio_z = mrio_z.csv
files.mrio_d = mrio_d.csv
files.mrio_x = mrio_x.csv
files.mrio_f = mrio_f.csv
files.bridge = bridge.csv
files.prices = prices.csv
files.fuels = fuels.csv
scenario.carbon_tax = 0.0
scenario.pass_through = 1.0
scenario.border_adjustment = false
scenario.recycling = none
elasticity.exchange_rate = 180.0
elasticity.months_per_period = 1.0
elasticity.size_bands = 2,5
distribution.atkinson_epsilon = 2.0
distribution.scale = sqrt
distribution.groups = 5
seed = 42
{fuel_map_lines}
"""
    paths["config"].write_text(config_text, encoding="utf-8")
    return paths
