"""Reference computations that only the tests use.

``format_value`` is the per-cell text that the CSV writers reproduce.
``laspeyres_cost`` and ``fuel_table`` are one-measure helpers of the
acceptance and unit tests. ``engel_groups_by_loop`` is the Engel-fit oracle:
it rebuilds ``scenario.estimate_demand_groups`` one quintile × size-band
cell and one category at a time, each category from its own ``wls_fit``
call on the rows the cell uses (its own, its quintile's or the whole
sample's), and each elasticity from its textbook formula.
"""

import numpy as np

from priceshock.data import FuelTable
from priceshock.demand import frisch_parameter
from priceshock.fixtures import FUEL_ROWS
from priceshock.imputation import wls_fit
from priceshock.scenario import BUDGET_ELASTICITY_BOUNDS, MIN_GROUP_OBS, OWN_PRICE_BOUNDS


def format_value(v: float) -> str:
    """Canonical decimal text: up to 12 significant digits.

    Distinct 12-digit decimals map to distinct doubles, so text written
    here reloads to the exact same float.
    """
    return f"{float(v):.12g}"


def laspeyres_cost(p0, p1, quantities) -> float:
    """Fixed-basket cost increase of moving from p0 to p1."""
    return float(np.dot(np.asarray(p1) - np.asarray(p0), quantities))


def fuel_table() -> FuelTable:
    """The demo bundle's fuels.csv as a FuelTable."""
    names, prices, carbon = zip(*FUEL_ROWS)
    return FuelTable(fuels=names, price=np.array(prices), carbon_kg_per_unit=np.array(carbon))


def _cell_fit(rows, shares, ln_x, per_capita, weights, cfg):
    """(budget, eta_scale, mean_shares, own_price, xi, clamped) of one Engel
    fit on ``rows``; ``eta_scale`` is 1 + (|slope| + |2 curvature ln_c|) /
    share, the sum of the magnitudes of a budget elasticity's terms (0 for a
    category nobody buys). Slope and curvature nearly cancel in an elasticity
    close to 1, so its rounding error is a fraction of this scale, not of
    its value."""
    w = weights[rows]
    w_total = w.sum()
    design = np.column_stack([np.ones(len(rows)), ln_x[rows], ln_x[rows] ** 2])
    ln_c = np.dot(w, ln_x[rows]) / w_total
    k = shares.shape[1]
    means = np.array([np.dot(w, shares[rows, j]) / w_total for j in range(k)])
    budget = np.zeros(k)
    eta_scale = np.zeros(k)
    clamped = 0
    lo, hi = BUDGET_ELASTICITY_BOUNDS
    for j in range(k):
        if means[j] <= 0:  # nobody on these rows buys it
            continue
        fit = wls_fit(design, shares[rows, j], w, ["const", "ln_x", "ln_x_sq"])
        _, slope, curvature = fit.coefficients
        eta = 1.0 + (slope + 2.0 * curvature * ln_c) / means[j]
        eta_scale[j] = 1.0 + (abs(slope) + abs(2.0 * curvature * ln_c)) / means[j]
        clamped += not lo <= eta <= hi
        budget[j] = min(max(eta, lo), hi)
    xi = frisch_parameter(np.dot(w, per_capita[rows]) / w_total / cfg.months_per_period,
                          cfg.exchange_rate, level=cfg.frisch_level, slope=cfg.frisch_slope,
                          shift=cfg.frisch_shift, cap=cfg.frisch_cap)
    own, own_clamped = own_price(budget, means, xi)
    return budget, eta_scale, means, own, xi, clamped + own_clamped


def own_price(budget, mean_shares, xi):
    """(own-price elasticities clipped to ``OWN_PRICE_BOUNDS``, the count
    clipped) under additive preferences: the diagonal of
    eta_ij = -eta_i w_j (1 + eta_j / xi) + eta_i delta_ij / xi."""
    own = -budget * mean_shares * (1.0 + budget / xi) + budget / xi
    lo, hi = OWN_PRICE_BOUNDS
    return np.clip(own, lo, hi), int(np.count_nonzero((own < lo) | (own > hi)))


def engel_groups_by_loop(shares, totals, weights, sizes, quintiles, cfg) -> list[dict]:
    """One dict per non-empty cell, in cell order: its ``label``, ``rows``
    (its households) and the ``budget``, ``eta_scale``, ``mean_shares``,
    ``own_price``, ``xi`` and ``clamped`` of its fit (``_cell_fit``).

    A cell with fewer than ``MIN_GROUP_OBS`` households of positive weight
    is fitted on its quintile's rows, or on every row when the quintile too
    holds that few.
    """
    per_capita = totals / sizes
    if cfg.engel_scale == "per_capita_month":
        ln_x = np.log(per_capita / cfg.months_per_period)
    else:
        ln_x = np.log(totals)
    lo, hi = cfg.size_bands
    bands = (sizes <= lo, (sizes > lo) & (sizes <= hi), sizes > hi)
    cells = []
    for q in range(int(quintiles.max()) + 1):
        in_quintile = np.flatnonzero(quintiles == q)
        for b, in_band in enumerate(bands):
            rows = np.flatnonzero((quintiles == q) & in_band)
            if not len(rows):
                continue
            fit_rows = rows
            if np.count_nonzero(weights[rows] > 0) < MIN_GROUP_OBS:
                enough = np.count_nonzero(weights[in_quintile] > 0) >= MIN_GROUP_OBS
                fit_rows = in_quintile if enough else np.arange(len(totals))
            fit = _cell_fit(fit_rows, shares, ln_x, per_capita, weights, cfg)
            cells.append({"label": f"q{q + 1}_band{b + 1}", "rows": rows,
                          **dict(zip(("budget", "eta_scale", "mean_shares", "own_price", "xi",
                                      "clamped"), fit))})
    return cells
