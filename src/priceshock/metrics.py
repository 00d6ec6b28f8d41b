"""Weighted distributional statistics.

Quantile groups, Gini and concentration indices on survey-weighted data,
welfare weights and the distributional characteristic of goods,
burden/progressivity decompositions, and Atkinson-based welfare
aggregation. Ranks use the weighted mid-rank F = (cum_w - w/2) / W; ties
keep their stable input order (``stable_order``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError

EQUIVALENCE_SCALES = ("none", "per_capita", "sqrt")


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Values with survey weights and an optional ranking key."""

    values: np.ndarray
    weights: np.ndarray
    rank_key: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        if v.shape != w.shape:
            raise DataValidationError("values and weights differ in length")
        if self.rank_key is not None:
            k = np.asarray(self.rank_key, dtype=float)
            object.__setattr__(self, "rank_key", k)
            if k.shape != v.shape:
                raise DataValidationError("rank key length does not match values")
        if np.any(w < 0):
            raise DataValidationError("weights must be nonnegative")
        if w.sum() <= 0:
            raise DataValidationError("total weight must be positive")


def equivalise(expenditure, size, scale: str = "sqrt"):
    """Adjust expenditure for household size: none, per_capita or sqrt."""
    expenditure = np.asarray(expenditure, dtype=float)
    size = np.asarray(size, dtype=float)
    if np.any(size < 1):
        raise DataValidationError("household size must be at least 1")
    if scale == "none":
        return expenditure.copy()
    if scale == "per_capita":
        return expenditure / size
    if scale == "sqrt":
        return expenditure / np.sqrt(size)
    raise DataValidationError(f"unknown equivalence scale {scale!r}")


def stable_order(values) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` along the last axis, from the
    faster default sort when it can be.

    Without ties the sorting permutation is unique, so the default (SIMD)
    sort returns the stable order itself. A row in whose order two
    neighbours are equal (+0.0 and -0.0 included), or that holds more than
    one NaN, is sorted again with the stable sort.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    ranked = np.take_along_axis(values, order, axis=-1)
    redo = (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1)
    if values.shape[-1] > 1:
        redo |= np.isnan(ranked[..., -2])
    if redo.any():
        order[redo] = np.argsort(values[redo], kind="stable")
    return order


def weighted_quantile_groups(values, weights, k: int) -> np.ndarray:
    """Assign each record to one of k weighted quantile groups.

    Records are sorted by value (stable for ties); a record whose
    inclusive cumulative weight lands exactly on a cut j*W/k goes to the
    lower group. Each group's weight mass is within one record weight of
    W/k.
    """
    if k < 2:
        raise DataValidationError("need at least two quantile groups")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = stable_order(values)
    cum = np.cumsum(weights[order])
    total = cum[-1]
    if total <= 0:
        raise DataValidationError("total weight must be positive")
    # ceil(cum / (W/k)) - 1, with exact multiples staying in the lower group
    ratio = cum * k / total
    grp = np.ceil(ratio - 1e-12).astype(int) - 1
    grp = np.clip(grp, 0, k - 1)
    out = np.empty(len(values), dtype=int)
    out[order] = grp
    return out


def _midranks(weights_in_order: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights_in_order)
    return (cum - weights_in_order / 2.0) / cum[-1]


def _nonnegative(values: np.ndarray) -> None:
    if np.any(values < 0):
        raise DataValidationError("Gini requires nonnegative values")


def _concentration_by(rank_by, weights):
    """``concentration(y, weights, rank_by)`` as a function of one column
    ``y`` at a time, every column ranked by one sort of ``rank_by``."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise DataValidationError("total weight must be positive")
    order = stable_order(np.asarray(rank_by, dtype=float))
    w = weights[order]
    centred = _midranks(w) - 0.5

    def index(y):
        mean = float(np.dot(weights, y)) / total
        if mean == 0:
            raise DataValidationError("concentration undefined for a zero-mean variable")
        return 2.0 * (float(np.dot(w, y[order] * centred)) / total) / mean

    return index


def concentration(values, weights, rank_by):
    """Concentration index of ``values`` when ranked by ``rank_by``.

    2 cov_w(y, F) / mean(y) with F the weighted mid-rank of the ranking
    variable (Lerman and Yitzhaki 1984). Ranking by the values themselves
    gives the Gini. ``values`` of shape (n, m) gives an array of m indices,
    one per column, from one sort; each equals the call on that column.
    """
    values = np.asarray(values, dtype=float)
    index = _concentration_by(rank_by, weights)
    if values.ndim == 2:
        return np.array([index(y) for y in values.T])
    return index(values)


def gini(values, weights) -> float:
    """Weighted Gini coefficient (values must be nonnegative)."""
    values = np.asarray(values, dtype=float)
    _nonnegative(values)
    return concentration(values, weights, values)


def welfare_weights(equivalised, weights, epsilon: float) -> tuple[np.ndarray, float]:
    """Iso-elastic social weights theta = (x / mean)^-epsilon and their mean.

    epsilon = 0 weights everyone equally; larger epsilon concentrates
    weight on low-expenditure households. Scale invariant by construction.
    """
    if epsilon < 0:
        raise DataValidationError("inequality aversion must be nonnegative")
    x = np.asarray(equivalised, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(x <= 0):
        raise DataValidationError("welfare weights require positive expenditure")
    mean = float(np.dot(w, x)) / float(w.sum())
    theta = (x / mean) ** (-epsilon)
    theta_bar = float(np.dot(w, theta)) / float(w.sum())
    return theta, theta_bar


def distributional_characteristic(theta, theta_bar, consumption, weights) -> float:
    """Welfare-weighted concentration of one good's consumption.

    d = sum_h w theta x / (theta_bar * sum_h w x); equals 1 for every good
    under constant welfare weights.
    """
    theta = np.asarray(theta, dtype=float)
    consumption = np.asarray(consumption, dtype=float)
    weights = np.asarray(weights, dtype=float)
    denom = theta_bar * float(np.dot(weights, consumption))
    if denom == 0:
        raise DataValidationError("good has zero aggregate consumption")
    return float(np.dot(weights, theta * consumption)) / denom


def household_inflation(shares: np.ndarray, relatives: np.ndarray,
                        totals: np.ndarray | None = None):
    """Household inflation rates and burdens from shares and price relatives.

    ``shares`` is households x categories; each row's rate is the
    share-weighted sum of category relatives, and the per-category terms
    are the contribution decomposition (they sum to the rate exactly).
    """
    shares = np.asarray(shares, dtype=float)
    relatives = np.asarray(relatives, dtype=float)
    contributions = shares * relatives[np.newaxis, :]
    pi = contributions.sum(axis=1)
    burden = None if totals is None else pi * np.asarray(totals, dtype=float)
    return pi, burden, contributions


@dataclass(frozen=True)
class ProgressivityRow:
    """One expenditure group's line of the burden-progressivity table."""

    name: str
    ci_pre: float
    ci_burden: float
    ci_adjusted: float
    rs: float
    kakwani: float
    avg_rate: float
    reranking: float
    contribution_to_k: float


def progressivity_table(
    x_pre,
    weights,
    group_burdens: np.ndarray,
    group_names,
) -> list[ProgressivityRow]:
    """Decompose the inflation burden into base and rate effects by group.

    Per group: the burden's concentration index (ranked by pre-change
    expenditure), the Kakwani-style gap to the pre-change Gini, the
    concentration of expenditure adjusted for that group's price change
    alone, and the redistributive gap. The total row uses real post-change
    expenditure x / (1 + pi) for the redistributive and reranking terms.
    Group Kakwani gaps weighted by rate shares reproduce the total gap
    exactly (concentration is linear in the variable).
    """
    x = np.asarray(x_pre, dtype=float)
    w = np.asarray(weights, dtype=float)
    burdens = np.asarray(group_burdens, dtype=float)
    if burdens.shape != (len(x), len(group_names)):
        raise DataValidationError("group burden matrix shape mismatch")
    _nonnegative(x)
    total_burden_h = burdens.sum(axis=1)
    group_b = list(burdens.T)
    # a burden whose weighted mean is 0, or underflows to 0, has no concentration index
    total_w = float(w.sum())
    burdened = [float(np.dot(w, b)) / total_w != 0 for b in [*group_b, total_burden_h]]
    # real expenditure after each group's price change alone, and after all
    real = [x / (1.0 + np.divide(b, x, out=np.zeros_like(b), where=x > 0)) for b in group_b]
    pi_h = np.divide(total_burden_h, x, out=np.zeros_like(total_burden_h), where=x > 0)
    real_total = x / (1.0 + pi_h)

    # every index ranked by pre-change expenditure comes from one sort: x
    # itself (the pre-change Gini), x after each group's price change alone,
    # real expenditure, and each burden that is not zero; each column is
    # contiguous, as the bits of its dot products depend on it
    by_x = _concentration_by(x, w)
    g_pre = by_x(np.ascontiguousarray(x))
    ci_adjusted = [by_x(x + b) for b in group_b]
    ci_real = [by_x(r) for r in real]
    ci_real_total = by_x(real_total)
    # no burden from a group: its progressivity is undefined, report 0
    ci_burden = [by_x(np.ascontiguousarray(b)) if nonzero else 0.0
                 for b, nonzero in zip([*group_b, total_burden_h], burdened)]
    kakwani = [c - g_pre if nonzero else 0.0 for c, nonzero in zip(ci_burden, burdened)]
    total_x = float(np.dot(w, x))
    overall_rate = float(np.dot(w, total_burden_h)) / total_x
    rates = [float(np.dot(w, b)) / total_x for b in group_b]

    k_total_parts = [r * k for r, k in zip(rates, kakwani[:-1])]
    denom = sum(k_total_parts)
    rows = [
        ProgressivityRow(
            name=name, ci_pre=g_pre, ci_burden=ci_burden[j], ci_adjusted=ci_adjusted[j],
            rs=ci_adjusted[j] - g_pre, kakwani=kakwani[j], avg_rate=rates[j],
            reranking=gini(real[j], w) - ci_real[j],
            contribution_to_k=k_total_parts[j] / denom if denom != 0 else 0.0,
        )
        for j, name in enumerate(group_names)
    ]
    gini_real_total = gini(real_total, w)
    rows.append(
        ProgressivityRow(
            name="total", ci_pre=g_pre, ci_burden=ci_burden[-1], ci_adjusted=ci_real_total,
            rs=g_pre - gini_real_total, kakwani=kakwani[-1], avg_rate=overall_rate,
            reranking=gini_real_total - ci_real_total,
            contribution_to_k=1.0 if denom != 0 else 0.0,
        )
    )
    return rows


@dataclass(frozen=True)
class AtkinsonResult:
    """Atkinson index, weighted mean and equally-distributed-equivalent value."""

    index: float
    mean: float
    yede: float


def atkinson(values, weights, epsilon: float) -> AtkinsonResult:
    """Atkinson inequality index and equally-distributed-equivalent value.

    epsilon = 2 reduces to 1 - harmonic/arithmetic mean; epsilon = 1 uses
    the geometric mean; other nonnegative epsilons use the power mean.
    Yede = mean * (1 - A).
    """
    if epsilon < 0:
        raise DataValidationError("inequality aversion must be nonnegative")
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0:
        raise DataValidationError("total weight must be positive")
    if epsilon >= 1 and np.any(x <= 0):
        raise DataValidationError("nonpositive values are not admissible at this aversion")
    mean = float(np.dot(w, x)) / total
    if epsilon == 1.0:
        ede = float(np.exp(np.dot(w, np.log(x)) / total))
    else:
        p = 1.0 - epsilon
        with np.errstate(over="ignore", divide="ignore"):
            ede = float((np.dot(w, x**p) / total) ** (1.0 / p))
            if epsilon > 1 and not 0.0 < ede < np.inf:
                # x**p left the float range at this aversion; the power mean is
                # homogeneous of degree one, so take it relative to the least x
                low = float(x[w > 0].min())
                ede = low * float((np.dot(w, (x / low) ** p) / total) ** (1.0 / p))
    a = 1.0 - ede / mean
    return AtkinsonResult(index=a, mean=mean, yede=mean * (1.0 - a))


def welfare_decomposition(pre: AtkinsonResult, post: AtkinsonResult) -> dict[str, float]:
    """Split the relative welfare change into equity, efficiency, interaction.

    equity + efficiency + interaction reproduces the relative Yede change
    exactly by construction.
    """
    equity = ((1.0 - post.index) - (1.0 - pre.index)) / (1.0 - pre.index)
    efficiency = (post.mean - pre.mean) / pre.mean
    interaction = equity * efficiency
    return {
        "equity": equity,
        "efficiency": efficiency,
        "interaction": interaction,
        "total": equity + efficiency + interaction,
    }
