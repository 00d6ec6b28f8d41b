"""Demand responses and welfare measurement.

Budget and price elasticities are derived from fitted Engel-curve slopes
and a money-flexibility parameter, a linear expenditure system is
calibrated to reproduce each household's observed basket, and the
calibrated system prices out compensating variation and equivalent
income in closed form.

The linear expenditure system functions take one household or a block:
baskets, shares and parameters are arrays whose last axis is the
category and whose optional leading axis is the household. A 1-D call
returns a float, a block one value per row.

Committed quantities are expressed in physical units at base prices
normalised to 1, so base-period expenditure and quantity coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, InfeasibleBudgetError

ENGEL_AGGREGATION_TOL = 1e-6
FRISCH_CAP = -1.3
# Trial-and-error constants of the money-flexibility curve
# ln(-xi) = level - slope * ln(C/ER + shift), consumption per capita per month.
FRISCH_LEVEL = 9.2
FRISCH_SLOPE = 0.973
FRISCH_SHIFT = 7000.0


@dataclass(frozen=True)
class ElasticitySet:
    """Budget and price elasticities for one household group."""

    budget: np.ndarray
    matrix: np.ndarray
    shares: np.ndarray
    xi: float

    def __post_init__(self):
        for name in ("budget", "matrix", "shares"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if self.xi > FRISCH_CAP + 1e-12:
            raise DataValidationError(f"Frisch parameter {self.xi} above the {FRISCH_CAP} cap")
        engel = float(np.dot(self.shares, self.budget))
        if abs(engel - 1.0) > ENGEL_AGGREGATION_TOL:
            raise DataValidationError(
                f"Engel aggregation violated: sum of share-weighted budget elasticities is {engel:.8f}"
            )

    @property
    def own_price(self) -> np.ndarray:
        return np.diag(self.matrix)


@dataclass(frozen=True)
class LesParameters:
    """Committed quantities and marginal budget shares: (k,) or (n, k) arrays."""

    gamma: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "phi"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if np.any(self.phi < 0) or np.any(self.phi > 1):
            raise DataValidationError("marginal budget shares must lie in [0, 1]")
        sums = np.ravel(self.phi.sum(axis=-1))
        off = sums[np.abs(sums - 1.0) > 1e-9]
        if len(off):
            raise DataValidationError(f"marginal budget shares sum to {off[0]:.12g}, expected 1")

    def committed_cost(self, prices: np.ndarray):
        return _value((np.asarray(prices, dtype=float) * self.gamma).sum(axis=-1))


def _value(v):
    """A 0-d result as a float; one value per row of a block otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def budget_elasticity(share, slope, curvature, ln_total):
    """Total-expenditure elasticity from quadratic Engel-curve coefficients.

    eta = 1 + (slope + 2 * curvature * ln_total) / share. A flat Engel
    curve gives unit elasticity.
    """
    share = np.asarray(share, dtype=float)
    if np.any(share <= 0):
        raise DataValidationError("budget elasticity undefined for zero budget share")
    return 1.0 + (np.asarray(slope) + 2.0 * np.asarray(curvature) * ln_total) / share


def frisch_parameter(
    consumption_pc_month: float,
    exchange_rate: float,
    *,
    level: float = FRISCH_LEVEL,
    slope: float = FRISCH_SLOPE,
    shift: float = FRISCH_SHIFT,
    cap: float = FRISCH_CAP,
) -> float:
    """Money-flexibility parameter from per-capita monthly consumption.

    xi = -exp(level - slope * ln(C/ER + shift)), capped so it never comes
    closer to zero than ``cap`` (richer groups are less price sensitive,
    but not beyond the cap).
    """
    if exchange_rate <= 0:
        raise DataValidationError("exchange rate must be positive")
    if consumption_pc_month < 0:
        raise DataValidationError("consumption must be nonnegative")
    base = consumption_pc_month / exchange_rate + shift
    if base <= 0:
        raise DataValidationError("consumption level leaves a nonpositive log argument")
    raw = -math.exp(level - slope * math.log(base))
    return min(raw, cap)


def frisch_parameter_lahiri(gdp_per_capita: float, *, intercept: float = 0.485829,
                            slope: float = 0.104019) -> float:
    """Alternative cross-country money-flexibility curve: -1/xi linear in ln GDP pc."""
    if gdp_per_capita <= 0:
        raise DataValidationError("GDP per capita must be positive")
    return -1.0 / (intercept + slope * math.log(gdp_per_capita))


def price_elasticities(budget: np.ndarray, shares: np.ndarray, xi: float) -> np.ndarray:
    """Full own- and cross-price elasticity matrix under additive preferences.

    eta_ij = -eta_i w_j (1 + eta_j / xi) + eta_i delta_ij / xi.
    """
    if xi == 0:
        raise DataValidationError("Frisch parameter must be nonzero")
    budget = np.asarray(budget, dtype=float)
    shares = np.asarray(shares, dtype=float)
    outer = -np.outer(budget, shares * (1.0 + budget / xi))
    return outer + np.diag(budget / xi)


def les_calibrate(
    own_price: np.ndarray,
    budget: np.ndarray,
    shares: np.ndarray,
    quantities: np.ndarray,
    total: float,
    *,
    renormalize: bool = False,
) -> LesParameters:
    """Calibrate committed quantities and marginal budget shares.

    phi_i = eta_i w_i and gamma_i = (eta_ii + 1) x_i / (1 - phi_i), so the
    system reproduces the base basket exactly. Goods with zero base
    expenditure get phi = gamma = 0 and drop out of the utility product.
    With ``renormalize`` the phi vector is rescaled to sum to one even
    when the inputs do not aggregate (household-level shares against
    group-level elasticities); otherwise aggregation is enforced.
    """
    own_price = np.asarray(own_price, dtype=float)
    budget = np.asarray(budget, dtype=float)
    shares = np.asarray(shares, dtype=float)
    quantities = np.asarray(quantities, dtype=float)
    if np.any(own_price > 0):
        raise DataValidationError("own-price elasticities must be nonpositive")
    phi = budget * shares
    active = quantities > 0
    phi = np.where(active, phi, 0.0)
    if np.any(phi < 0) or np.any(phi >= 1):
        raise DataValidationError("marginal budget shares eta_i * w_i must lie in [0, 1)")
    total_phi = float(phi.sum())
    if total_phi <= 0:
        raise DataValidationError("no good has a positive marginal budget share")
    if not renormalize and abs(total_phi - 1.0) > ENGEL_AGGREGATION_TOL:
        raise DataValidationError(
            f"marginal budget shares sum to {total_phi:.8f}; inputs violate Engel aggregation"
        )
    phi = phi / total_phi
    denom = 1.0 - phi
    if np.any(active & (denom <= 1e-12)):
        raise DataValidationError("a single good absorbs the whole marginal budget")
    gamma = np.where(active, (own_price + 1.0) * quantities / denom, 0.0)
    committed = float(gamma.sum())  # base prices are 1
    if total - committed <= 0:
        raise InfeasibleBudgetError(
            f"supernumerary income {total - committed:.6g} is not positive at base prices"
        )
    return LesParameters(gamma=gamma, phi=phi)


def les_calibrate_frisch(
    budget: np.ndarray,
    xi: float,
    shares: np.ndarray,
    quantities: np.ndarray,
    total,
) -> LesParameters:
    """Calibrate a household system from group elasticities and its own basket.

    The money-flexibility parameter pins the supernumerary budget,
    S = -total / xi, and committed quantities follow as gamma_i =
    x_i - phi_i * S, so base-price demand reproduces the observed basket
    exactly even when the elasticities were estimated on a different
    (group-level) share vector. When the shares coincide this is
    algebraically identical to the own-price-elasticity calibration.
    ``shares`` and ``quantities`` may be (n, k) blocks with one ``total``
    per row; ``budget`` broadcasts against them and ``xi`` applies to all.
    """
    if xi >= -1.0:
        raise DataValidationError("money flexibility must be below -1 for a feasible budget")
    budget = np.asarray(budget, dtype=float)
    shares = np.asarray(shares, dtype=float)
    quantities = np.asarray(quantities, dtype=float)
    active = quantities > 0
    phi = np.where(active, budget * shares, 0.0)
    total_phi = phi.sum(axis=-1, keepdims=True)
    if np.any(total_phi <= 0):
        raise DataValidationError("no good has a positive marginal budget share")
    phi = phi / total_phi
    supernumerary = -_column(total) / xi
    gamma = np.where(active, quantities - phi * supernumerary, 0.0)
    return LesParameters(gamma=gamma, phi=phi)


def _column(v) -> np.ndarray:
    """Per-row values as a column that broadcasts against (..., k)."""
    return np.asarray(v, dtype=float)[..., np.newaxis]


def _supernumerary(prices: np.ndarray, total, params: LesParameters):
    """Budget left after buying the committed bundle; it must be positive."""
    supernumerary = total - params.committed_cost(prices)
    short = np.asarray(supernumerary <= 0)
    if np.any(short):
        raise InfeasibleBudgetError(
            f"{short.sum()} of {short.size} budgets do not cover the committed bundle"
        )
    return supernumerary


def _log_price_index(prices: np.ndarray, params: LesParameters):
    """ln of prod((p_i / phi_i) ** phi_i) over the goods with phi_i > 0."""
    phi = params.phi
    log_phi = np.log(phi, out=np.zeros_like(phi), where=phi > 0)
    return (phi * (np.log(prices) - log_phi)).sum(axis=-1)


def les_demand(prices: np.ndarray, total, params: LesParameters) -> np.ndarray:
    """Quantities demanded at the given prices and budget.

    Spending on good i is p_i gamma_i + phi_i * (supernumerary budget);
    the basket exhausts the budget exactly and is homogeneous of degree
    zero in (prices, budget).
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0):
        raise DataValidationError("prices must be strictly positive")
    supernumerary = _supernumerary(prices, total, params)
    spending = prices * params.gamma + params.phi * _column(supernumerary)
    return spending / prices


def indirect_utility(prices: np.ndarray, total, params: LesParameters):
    """Utility attained at (prices, budget); zero-share goods are excluded."""
    supernumerary = _supernumerary(prices, total, params)
    return _value(supernumerary * np.exp(-_log_price_index(prices, params)))


def expenditure_needed(prices: np.ndarray, utility, params: LesParameters):
    """Minimum spending that reaches ``utility`` at the given prices."""
    return _value(params.committed_cost(prices)
                  + utility * np.exp(_log_price_index(prices, params)))


def compensating_variation(p0: np.ndarray, p1: np.ndarray, total,
                           params: LesParameters):
    """Money needed after the price change to restore pre-change utility."""
    u0 = indirect_utility(p0, total, params)
    return expenditure_needed(p1, u0, params) - total


def equivalent_income(p_ref: np.ndarray, p: np.ndarray, total,
                      params: LesParameters):
    """Income at reference prices delivering the utility attained at (p, total)."""
    u = indirect_utility(p, total, params)
    return expenditure_needed(p_ref, u, params)


def equivalent_variation(p0: np.ndarray, p1: np.ndarray, total: float,
                         params: LesParameters) -> float:
    """Income loss at old prices equivalent to facing the new prices."""
    return total - equivalent_income(p0, p1, total, params)


def laspeyres_cost(p0: np.ndarray, p1: np.ndarray, quantities: np.ndarray) -> float:
    """Fixed-basket cost increase of moving from p0 to p1."""
    return float(np.dot(np.asarray(p1) - np.asarray(p0), quantities))


def behavioural_emissions(
    p0: np.ndarray,
    p1: np.ndarray,
    total: float,
    params: LesParameters,
    unit_emissions: np.ndarray,
) -> tuple[float, float]:
    """Emissions before and after the demand response to a price change.

    ``unit_emissions`` is tonnes CO2 per unit of each good (per currency at
    base prices); quantities come from the demand system at each price
    vector, so with no price change the two values coincide.
    """
    unit_emissions = np.asarray(unit_emissions, dtype=float)
    q0 = les_demand(p0, total, params)
    q1 = les_demand(p1, total, params)
    return float(np.dot(unit_emissions, q0)), float(np.dot(unit_emissions, q1))
