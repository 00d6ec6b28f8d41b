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
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataValidationError, InfeasibleBudgetError

ENGEL_AGGREGATION_TOL = 1e-6
FRISCH_CAP = -1.3
# Trial-and-error constants of the money-flexibility curve
# ln(-xi) = level - slope * ln(C/ER + shift), consumption per capita per month.
FRISCH_LEVEL = 9.2
FRISCH_SLOPE = 0.973
FRISCH_SHIFT = 7000.0
LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    exponent = level - slope * math.log(base)
    if not exponent < LOG_FLOAT_MAX:
        raise DataValidationError(
            f"money-flexibility curve needs exp({exponent:.6g}), beyond the float range: "
            f"check elasticity.frisch_level, elasticity.frisch_slope and elasticity.frisch_shift"
        )
    return min(-math.exp(exponent), cap)


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
    xi: float | np.ndarray,
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
    Goods with no base quantity get phi = gamma = 0.
    ``shares`` and ``quantities`` may be (n, k) blocks with one ``total``
    per row; ``budget`` broadcasts against them and ``xi`` applies to all,
    or gives one value per row.
    """
    quantities = np.asarray(quantities, dtype=float)
    active = quantities > 0
    phi = np.where(active, np.multiply(budget, shares, dtype=float), 0.0)
    gamma, phi = _frisch_terms(phi, xi, quantities, total)
    return LesParameters(gamma=np.where(active, gamma, 0.0), phi=phi)


def _frisch_terms(phi: np.ndarray, xi, quantities: np.ndarray, total):
    """(gamma, phi) of the money-flexibility calibration from the products
    budget elasticity × budget share, which ``phi`` holds and which are
    normalised in place to sum to one per row; unchecked as ``LesParameters``."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi >= -1.0):
        raise DataValidationError("money flexibility must be below -1 for a feasible budget")
    total_phi = phi.sum(axis=-1, keepdims=True)
    if np.any(total_phi <= 0):
        raise DataValidationError("no good has a positive marginal budget share")
    phi /= total_phi
    supernumerary = -_column(total) / (xi if xi.ndim == 0 else _column(xi))
    return quantities - phi * supernumerary, phi


def _column(v) -> np.ndarray:
    """Per-row values as a column that broadcasts against (..., k)."""
    return np.asarray(v, dtype=float)[..., np.newaxis]


def _supernumerary(total, committed):
    """Budget left after buying the committed bundle; it must be positive."""
    supernumerary = total - committed
    short = np.asarray(supernumerary <= 0)
    if np.any(short):
        raise InfeasibleBudgetError(
            f"{short.sum()} of {short.size} budgets do not cover the committed bundle"
        )
    return supernumerary


def _index_change(p0: np.ndarray, p1: np.ndarray, params: LesParameters):
    """The change from p0 to p1 of the log price index ln prod((p_i /
    phi_i) ** phi_i): sum_i phi_i (ln p1_i - ln p0_i), in which ln phi_i
    cancels. Utility at (p, x) is (x - committed cost at p) / the index, so
    the closed forms below need only this change and the committed costs."""
    return (params.phi * (np.log(p1) - np.log(p0))).sum(axis=-1)


def _demand(prices: np.ndarray, committed: np.ndarray, supernumerary,
            params: LesParameters) -> np.ndarray:
    """Quantities from the spending on the committed bundle (prices * gamma)
    and the supernumerary budget."""
    if np.any(prices <= 0):
        raise DataValidationError("prices must be strictly positive")
    return (committed + params.phi * _column(supernumerary)) / prices


def les_demand(prices: np.ndarray, total, params: LesParameters) -> np.ndarray:
    """Quantities demanded at the given prices and budget.

    Spending on good i is p_i gamma_i + phi_i * (supernumerary budget);
    the basket exhausts the budget exactly and is homogeneous of degree
    zero in (prices, budget).
    """
    prices = np.asarray(prices, dtype=float)
    committed = prices * params.gamma
    return _demand(prices, committed, _supernumerary(total, committed.sum(axis=-1)), params)


def compensating_variation(p0: np.ndarray, p1: np.ndarray, total,
                           params: LesParameters):
    """Money needed after the price change to restore pre-change utility:
    c1 + (x - c0) exp(dL) - x, with c the committed costs and dL the index
    change from p0 to p1."""
    c0, c1 = params.committed_cost(p0), params.committed_cost(p1)
    return _value(c1 + _supernumerary(total, c0) * np.exp(_index_change(p0, p1, params))
                  - total)


def equivalent_income(p_ref: np.ndarray, p: np.ndarray, total,
                      params: LesParameters):
    """Income at reference prices delivering the utility attained at (p, total):
    c_ref + (x - c) exp(-dL), with dL the index change from p_ref to p."""
    c_ref, c = params.committed_cost(p_ref), params.committed_cost(p)
    return _value(c_ref + _supernumerary(total, c) * np.exp(-_index_change(p_ref, p, params)))


class LesValuation(NamedTuple):
    """One price change valued for a block of households."""

    cv: np.ndarray
    ye: np.ndarray
    ye_net: np.ndarray
    footprint_after: np.ndarray | None


def les_valuation(p0: np.ndarray, p1: np.ndarray, total, net, params: LesParameters,
                  unit_emissions: np.ndarray | None = None) -> LesValuation:
    """Compensating variation and equivalent incomes of a block from one
    pass over its baskets.

    The committed costs at p0 and p1 and the index change between them
    are taken once. Each result equals the one-measure call bit for bit:
    ``compensating_variation(p0, p1, total, params)``,
    ``equivalent_income(p0, p1, total, params)`` and the same at ``net``,
    and with ``unit_emissions`` the footprint
    ``(les_demand(p1, net, params) * unit_emissions).sum(axis=-1)``, a
    row-wise sum whose bits do not depend on the block (else None). A
    budget that does not cover its committed bundle raises as those calls
    do.
    """
    prices = np.asarray(p1, dtype=float)
    committed = prices * params.gamma
    c0, c1 = params.committed_cost(p0), committed.sum(axis=-1)
    d_index = _index_change(p0, prices, params)
    left = _supernumerary(total, c0)
    left_after, left_net = _supernumerary(total, c1), _supernumerary(net, c1)
    cv = c1 + left * np.exp(d_index) - total
    shrink = np.exp(-d_index)
    footprint = None
    if unit_emissions is not None:
        footprint = (_demand(prices, committed, left_net, params) * unit_emissions).sum(axis=-1)
    return LesValuation(cv=cv, ye=c0 + left_after * shrink, ye_net=c0 + left_net * shrink,
                        footprint_after=footprint)


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
