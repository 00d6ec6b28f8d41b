"""Input-output algebra.

Technology coefficients, the total-requirements (Leontief) inverse by
direct solve or power series, a few rows of that inverse by one linear
solve (what a scenario run uses), forward cost pass-through, carbon
intensities of output, emissions embodied in final demand, and the
category-to-product bridging used to attach all of this to household
spending. Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BridgingMatrix, FuelTable, HouseholdRecord, MrioTable, _freeze
from .errors import (
    ConvergenceError,
    DataValidationError,
    NonProductiveEconomyError,
    NumericalModelError,
)


@dataclass(frozen=True, eq=False)
class TechnologyMatrix:
    """Input coefficients a_ij = Z_ij / x_j; column sums must stay below 1."""

    sectors: tuple[str, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        a = _freeze(self.coefficients)
        object.__setattr__(self, "coefficients", a)
        if np.fmin.reduce(a, axis=None, initial=np.inf) < 0:  # fmin passes over a nan
            raise DataValidationError("technology coefficients must be nonnegative")
        _check_productive(self.sectors, a.sum(axis=0))


def _check_productive(sectors, colsums: np.ndarray) -> None:
    """Refuse a column sum of A at or above 1, naming its sector."""
    if np.any(colsums >= 1.0):
        j = int(np.argmax(colsums))
        raise NonProductiveEconomyError(
            f"sector {sectors[j]!r}: input-coefficient column sum "
            f"{colsums[j]:.6g} >= 1, economy cannot produce"
        )


@dataclass(frozen=True, eq=False)
class LeontiefInverse:
    """Total requirements matrix L = (I - A)^-1 with its construction tag."""

    matrix: np.ndarray
    method: str
    terms: int | None = None
    tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))


@dataclass(frozen=True, eq=False)
class CarbonIntensity:
    """Tonnes CO2 per currency unit of gross output, split by sector origin."""

    sectors: tuple[str, ...]
    total: np.ndarray
    domestic: np.ndarray
    imported: np.ndarray

    def __post_init__(self):
        for name in ("total", "domestic", "imported"):
            v = _freeze(getattr(self, name))
            object.__setattr__(self, name, v)
            if np.any(v < 0):
                raise DataValidationError("carbon intensities must be nonnegative")


def technology_matrix(table: MrioTable) -> TechnologyMatrix:
    """Direct input requirements per unit of each sector's output."""
    A = table.flows / table.output[np.newaxis, :]
    return TechnologyMatrix(sectors=table.sectors, coefficients=A)


def leontief_inverse(
    tech: TechnologyMatrix,
    method: str = "direct",
    *,
    max_terms: int = 10_000,
    tol: float = 1e-12,
) -> LeontiefInverse:
    """Invert I - A directly or by summing the power series I + A + A^2 + ...

    The series converges because column sums of A are below 1. The two
    methods agree to well under 1e-6 for any admissible A.
    """
    A = tech.coefficients
    n = A.shape[0]
    eye = np.eye(n)
    if method == "direct":
        try:
            L = np.linalg.solve(eye - A, eye)
        except np.linalg.LinAlgError:
            raise NumericalModelError("I - A is singular; input table is corrupt") from None
        return LeontiefInverse(matrix=L, method="direct")
    if method == "neumann":
        L = eye.copy()
        term = eye.copy()
        for k in range(1, max_terms + 1):
            term = A @ term
            L += term
            norm = float(np.max(np.abs(term)))
            if norm < tol:
                return LeontiefInverse(matrix=L, method="neumann", terms=k, tol=tol)
        raise ConvergenceError(
            f"power series not converged after {max_terms} terms; last term max-norm {norm:.3g}"
        )
    raise DataValidationError(f"unknown Leontief method {method!r}")


def leontief_residual(tech: TechnologyMatrix, inv: LeontiefInverse) -> float:
    """Max relative residual of L = I + A L."""
    L = inv.matrix
    resid = L - (np.eye(L.shape[0]) + tech.coefficients @ L)
    return float(np.max(np.abs(resid)) / max(1.0, np.max(np.abs(L))))


def leontief_solve(tech: TechnologyMatrix, rows: np.ndarray) -> np.ndarray:
    """``rows (I - A)^-1`` for an (m, n) block of row vectors.

    One LU solve of (I - A)^T with the m rows as right-hand sides; the
    n x n inverse, which takes four times the arithmetic, is never formed.
    ``leontief_inverse`` followed by a product is its reference.
    """
    return _solve_from_minus_a(-tech.coefficients, rows)


def _solve_from_minus_a(minus_a: np.ndarray, rows) -> np.ndarray:
    """``leontief_solve`` from a writable -A, which becomes I - A."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != minus_a.shape[0]:
        raise DataValidationError("row vectors do not match the sector count")
    minus_a[np.diag_indices_from(minus_a)] += 1.0
    try:
        return np.linalg.solve(minus_a.T, rows.T).T
    except np.linalg.LinAlgError:
        raise NumericalModelError("I - A is singular; input table is corrupt") from None


def leontief_solve_residual(tech: TechnologyMatrix, rows: np.ndarray,
                            solution: np.ndarray) -> float:
    """Max relative residual of y = v + y A for a ``leontief_solve`` result."""
    resid = solution - (rows + solution @ tech.coefficients)
    return float(np.max(np.abs(resid)) / max(1.0, np.max(np.abs(solution))))


def cost_passthrough(inv: LeontiefInverse, shock: np.ndarray, rate: float = 1.0) -> np.ndarray:
    """Producer price relatives from per-sector cost shocks.

    A shock of t_j currency per currency of sector-j output travels
    forward along the supply chain; sector i's price relative is
    rate * sum_j t_j L_ji. With no intermediate inputs this returns the
    shock itself, and rate scales the (otherwise full) pass-through.
    """
    if not 0.0 <= rate <= 1.0:
        raise DataValidationError(f"pass-through rate {rate} outside [0, 1]")
    shock = np.asarray(shock, dtype=float)
    if shock.shape != (inv.matrix.shape[0],):
        raise DataValidationError("cost shock length does not match the sector count")
    return rate * (shock @ inv.matrix)


def sector_intensity(table: MrioTable) -> CarbonIntensity:
    """Direct emissions per currency of gross output, by sector."""
    s = table.emissions / table.output
    dom = table.domestic_mask()
    return CarbonIntensity(
        sectors=table.sectors,
        total=s,
        domestic=np.where(dom, s, 0.0),
        imported=np.where(dom, 0.0, s),
    )


def energy_industry_intensity(fuels: FuelTable, mix: np.ndarray) -> float:
    """Carbon intensity of an energy sector's output, tonnes CO2 per currency.

    Averages each fuel's combustion content per currency of sales
    (kg per unit divided by price per unit) with the sector's fuel-mix
    weights, then converts kilograms to tonnes.
    """
    mix = np.asarray(mix, dtype=float)
    if mix.shape != (len(fuels.fuels),):
        raise DataValidationError("fuel mix must have one weight per fuel")
    if np.any(mix < 0):
        raise DataValidationError("fuel-mix weights must be nonnegative")
    if abs(float(mix.sum()) - 1.0) > 1e-9:
        raise DataValidationError(f"fuel-mix weights sum to {mix.sum():.12g}, expected 1")
    per_currency_kg = fuels.carbon_kg_per_unit / fuels.price
    return float(np.dot(mix, per_currency_kg)) / 1000.0


def embodied_intensity(
    inv: LeontiefInverse, intensity: CarbonIntensity
) -> dict[str, np.ndarray]:
    """Emissions embodied per currency of final demand, by sector.

    m = s L for each origin split. Conservation: with the table's own
    final demand, m_total . d equals total emissions.
    """
    L = inv.matrix
    if intensity.total.shape != (L.shape[0],):
        raise DataValidationError("intensity length does not match the sector count")
    return {
        "total": intensity.total @ L,
        "domestic": intensity.domestic @ L,
        "imported": intensity.imported @ L,
    }


def bridge_to_industry(bridge: BridgingMatrix, category_vector: np.ndarray) -> np.ndarray:
    """Spread a per-category currency vector over industry products."""
    v = np.asarray(category_vector, dtype=float)
    if v.shape != (bridge.shares.shape[0],):
        raise DataValidationError("category vector length does not match the bridge")
    return v @ bridge.shares


def bridge_to_categories(bridge: BridgingMatrix, product_vector: np.ndarray) -> np.ndarray:
    """Per-category weighted average of a per-product quantity (e.g. price relatives)."""
    v = np.asarray(product_vector, dtype=float)
    if v.shape != (bridge.shares.shape[1],):
        raise DataValidationError("product vector length does not match the bridge")
    return bridge.shares @ v


@dataclass(frozen=True)
class Footprint:
    """One household's CO2, tonnes: fuel combustion and embodied emissions."""

    direct: float
    indirect: float

    @property
    def total(self) -> float:
        return self.direct + self.indirect


def household_footprint(
    record: HouseholdRecord,
    category_intensity: np.ndarray,
    fuels: FuelTable | None = None,
    direct_map: dict[int, str] | None = None,
) -> Footprint:
    """Household CO2 footprint, tonnes: fuel combustion plus embodied emissions.

    ``category_intensity`` carries tonnes per currency for each category
    (already bridged from industry products). ``direct_map`` maps category
    indices of purchased fuels to fuel-table rows; combustion emissions
    are expenditure / price * carbon content.
    """
    exp = record.expenditure
    if category_intensity.shape != exp.shape:
        raise DataValidationError("category intensity length does not match expenditure")
    indirect = float(np.dot(exp, category_intensity))
    direct = 0.0
    for cat_index, fuel in (direct_map or {}).items():
        if fuels is None:
            raise DataValidationError("direct fuel map supplied without a fuel table")
        k = fuels.index(fuel)
        volume = exp[cat_index] / fuels.price[k]
        direct += volume * fuels.carbon_kg_per_unit[k] / 1000.0
    return Footprint(direct=direct, indirect=indirect)


def direct_fuel_intensity(fuels: FuelTable, fuel: str) -> float:
    """Combustion emissions per currency spent on a fuel, tonnes CO2."""
    k = fuels.index(fuel)
    return float(fuels.carbon_kg_per_unit[k] / fuels.price[k]) / 1000.0
