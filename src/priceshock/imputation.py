"""Parametric imputation of expenditure patterns into an income dataset.

Three steps: total expenditure is predicted from disposable income and
demographics (log-linear with a simulated disturbance), participation in
each category is predicted with a binary-response model and assigned by
ranked probability until the source survey's weighted participation share
is replicated, and conditional budget shares follow quadratic Engel
curves with simulated disturbances, floored at zero and rescaled to sum
to one.

The module carries its own binary-response estimator; its weighted least
squares adds residual moments to the Engel fits' ``demand.wls_coefficients``.
All disturbances are counter-based keyed draws (``randutil.id_keys`` hashes
each record id once per run, and each step takes the result as ``keys``),
so results are reproducible and independent of processing order. The pipeline
works on column frames (``HouseholdSurvey``) in and out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .data import (LINKS, CategorySet, HouseholdRecord, HouseholdSurvey, IncomeRecord,
                   as_survey, match_labels)
from .demand import _collinear_columns, wls_coefficients
from .errors import ConvergenceError, DataValidationError, SeparationError
from .metrics import stable_order
from .randutil import id_keys, keyed_normals

GRADIENT_TOL = 1e-8
MAX_NEWTON_ITER = 200
SEPARATION_PREDICTOR_BOUND = 30.0
# demographic_design's cut points: household size bands (2, 5] and above 5,
# head-age bands [35, 55) and 55 or more, the age read from AGE_KEY
SIZE_BANDS = (2, 5)
AGE_BANDS = (35, 55)
AGE_KEY = "head_age"

_erf = np.vectorize(math.erf)


def _norm_cdf(z):
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / math.sqrt(2.0)))


def _norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _linear_predictor(design: np.ndarray, names, fit_names, coefficients) -> np.ndarray:
    """The columns ``fit_names`` of ``design`` (whose columns are ``names``)
    times ``coefficients``.

    The columns are taken as a copy, which numpy lays out in Fortran order,
    so the product runs the same BLAS kernel whatever the caller's layout. A
    Fortran-ordered design whose columns are exactly ``fit_names`` is used
    as it is: its product has the copy's bits without the copy.
    """
    names = list(names)
    cols = [names.index(n) for n in fit_names]
    if not (design.flags.f_contiguous and cols == list(range(design.shape[1]))):
        design = design[:, cols]
    return design @ coefficients


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Weighted least-squares fit with the residual moments of its sample.

    For a matrix outcome, ``coefficients`` has one column per outcome and
    the residual moments are arrays with one entry per outcome.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    residual_mean: float | np.ndarray
    residual_var: float | np.ndarray
    n_obs: int

    def predict(self, design: np.ndarray, names) -> np.ndarray:
        return _linear_predictor(design, names, self.names, self.coefficients)


@dataclass(frozen=True, eq=False)
class BinaryFit:
    """Maximum-likelihood binary-response fit (logit or probit link)."""

    names: tuple[str, ...]
    coefficients: np.ndarray
    link: str
    collinear: tuple[str, ...] = ()
    n_obs: int = 0
    log_likelihood: float = float("nan")

    def predict(self, design: np.ndarray, names) -> np.ndarray:
        z = _linear_predictor(design, names, self.names, self.coefficients)
        if self.link == "logit":
            with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0
                return 1.0 / (1.0 + np.exp(-z))
        return _norm_cdf(z)


def wls_fit(design: np.ndarray, y: np.ndarray, weights: np.ndarray, names) -> RegressionFit:
    """Weighted least squares with residual moments on the estimation sample.

    ``y`` is one outcome (n,) or several (n, m) on the same design: one
    lstsq serves every column and gives the rank check too.
    """
    beta = wls_coefficients(design, y, weights, names)
    weights = np.asarray(weights, dtype=float)
    resid = np.asarray(y, dtype=float) - np.asarray(design, dtype=float) @ beta
    w_total = weights.sum()
    r_mean = weights @ resid / w_total
    r_var = weights @ (resid - r_mean) ** 2 / w_total
    return RegressionFit(
        names=tuple(names), coefficients=beta, residual_mean=r_mean,
        residual_var=r_var, n_obs=len(weights),
    )


def binary_fit(design: np.ndarray, outcome: np.ndarray, weights: np.ndarray, names,
               link: str = "logit") -> BinaryFit:
    """Fisher-scoring ML for a binary outcome; collinear columns are excluded.

    Raises SeparationError instead of silently diverging when the classes
    are perfectly separable.
    """
    if link not in LINKS:
        raise DataValidationError(f"unknown link {link!r}")
    design = np.asarray(design, dtype=float)
    outcome = np.asarray(outcome, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (np.any(outcome == 1) and np.any(outcome == 0)):
        raise DataValidationError("both outcome classes must be present")
    kept, flagged = _collinear_columns(design * np.sqrt(weights)[:, np.newaxis], names)
    x = design[:, kept]
    kept_names = tuple(list(names)[j] for j in kept)
    beta = np.zeros(x.shape[1])
    for _ in range(MAX_NEWTON_ITER):
        z = x @ beta
        if link == "logit":
            prob = 1.0 / (1.0 + np.exp(-z))
            score_w = weights * (outcome - prob)
            info_w = weights * prob * (1.0 - prob)
        else:
            prob = np.clip(_norm_cdf(z), 1e-12, 1.0 - 1e-12)
            pdf = _norm_pdf(z)
            score_w = weights * pdf * (outcome - prob) / (prob * (1.0 - prob))
            info_w = weights * pdf**2 / (prob * (1.0 - prob))
        grad = x.T @ score_w
        if float(np.max(np.abs(grad))) < GRADIENT_TOL:
            ll = _binary_loglik(z, outcome, weights, link)
            return BinaryFit(
                names=kept_names, coefficients=beta, link=link,
                collinear=tuple(flagged), n_obs=len(outcome), log_likelihood=ll,
            )
        if float(np.max(np.abs(z))) > SEPARATION_PREDICTOR_BOUND:
            signs_ok = np.all((z > 0) == (outcome == 1))
            if signs_ok:
                raise SeparationError("complete separation: likelihood is unbounded")
        hess = x.T @ (x * info_w[:, np.newaxis])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "information matrix is singular; classes may be separable"
            ) from None
        beta = beta + step
    raise ConvergenceError(
        f"binary fit not converged in {MAX_NEWTON_ITER} iterations; "
        f"gradient max-norm {float(np.max(np.abs(grad))):.3g}"
    )


def _binary_loglik(z, outcome, weights, link) -> float:
    if link == "logit":
        prob = 1.0 / (1.0 + np.exp(-z))
    else:
        prob = _norm_cdf(z)
    prob = np.clip(prob, 1e-300, 1.0 - 1e-16)
    return float(np.dot(weights, outcome * np.log(prob) + (1 - outcome) * np.log(1 - prob)))


# ---------------------------------------------------------------------------
# Income calibration
# ---------------------------------------------------------------------------


def chauvenet_outliers(values: np.ndarray) -> np.ndarray:
    """Flag values whose expected count under the fitted normal is below 1/2."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return np.zeros(n, dtype=bool)
    mean = values.mean()
    sd = values.std(ddof=1)
    if sd == 0:
        return np.zeros(n, dtype=bool)
    z = np.abs(values - mean) / sd
    expected = n * 2.0 * (1.0 - _norm_cdf(z))
    return expected < 0.5


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibrated incomes, the Chauvenet outliers left out of the moments,
    and the affine map (``values = offset + scale * raw``)."""

    values: np.ndarray
    outlier_mask: np.ndarray
    scale: float
    offset: float


def calibrate_income(values: np.ndarray, target_mean: float, target_sd: float) -> CalibrationResult:
    """Affinely map incomes so non-outlier moments hit the targets.

    Outliers are excluded from the moment computation but transformed with
    the same map.
    """
    values = np.asarray(values, dtype=float)
    if np.all(values == values[0]):
        raise DataValidationError("cannot calibrate: all values identical")
    if target_sd <= 0:
        raise DataValidationError("target standard deviation must be positive")
    mask = chauvenet_outliers(values)
    core = values[~mask]
    mean = core.mean()
    sd = core.std(ddof=1)
    if sd <= 0:
        raise DataValidationError("non-outlier subsample has zero spread")
    scale = target_sd / sd
    offset = target_mean - scale * mean
    return CalibrationResult(
        values=offset + scale * values, outlier_mask=mask, scale=scale, offset=offset
    )


# ---------------------------------------------------------------------------
# Imputation steps
# ---------------------------------------------------------------------------


def impute_total_expenditure(fit: RegressionFit, design: np.ndarray, names,
                             record_ids, seed: int, *, keys=None) -> np.ndarray:
    """Simulated total expenditure: exp(linear predictor + keyed disturbance)."""
    pred = fit.predict(np.asarray(design, dtype=float), names)
    sd = math.sqrt(max(fit.residual_var, 0.0))
    z = keyed_normals(seed, "total_expenditure", record_ids, ["total"], keys=keys)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a value out of range is named below
        total = np.exp(pred + (fit.residual_mean + sd * z))
    if not np.all((total > 0) & (total < np.inf)):
        i = int(np.argmin((total > 0) & (total < np.inf)))
        raise DataValidationError(f"record {record_ids[i]!r}: imputed total expenditure "
                                  f"{total[i]:g} is out of range: check its inc and demo_* cells")
    return total


def participation_flags(probabilities: np.ndarray, weights: np.ndarray,
                        target_shares) -> np.ndarray:
    """``impute_participation`` for every column of the (records × categories)
    ``probabilities`` at once, each column with its own target share.

    One stable sort ranks every category's records, and one cumulative sum
    along the ranks gives the weight mass before each record.
    """
    target_shares = np.asarray(target_shares, dtype=float)
    outside = ~((target_shares >= 0.0) & (target_shares <= 1.0))
    if outside.any():
        raise DataValidationError(f"target share {target_shares[outside][0]} outside [0, 1]")
    weights = np.asarray(weights, dtype=float)
    # one row per category, its records contiguous for the sort and the sum
    order = stable_order(np.ascontiguousarray(-np.asarray(probabilities, dtype=float).T))
    total = float(weights.sum())
    eps = 1e-9 * max(total, 1.0)
    before = np.zeros(order.shape)
    np.cumsum(weights[order[:, :-1]], axis=1, out=before[:, 1:])
    flags = np.zeros(order.shape, dtype=int)
    np.put_along_axis(flags, order, before < (target_shares * total - eps)[:, np.newaxis], axis=1)
    return flags.T


def impute_participation(probabilities: np.ndarray, weights: np.ndarray,
                         target_share: float) -> np.ndarray:
    """Assign positive-expenditure flags to the highest-probability records.

    Records are taken in descending predicted probability (stable for
    ties) until their weight mass replicates the target share; the
    one-column case of ``participation_flags``.
    """
    column = np.asarray(probabilities, dtype=float)[:, np.newaxis]
    return participation_flags(column, weights, [target_share])[:, 0]


def impute_budget_shares(
    fits: dict[str, RegressionFit],
    design: np.ndarray,
    names,
    indicators: np.ndarray,
    record_ids,
    seed: int,
    categories: CategorySet,
    *, keys=None,
) -> np.ndarray:
    """Conditional budget shares with keyed disturbances, floored and rescaled.

    Every (record, category) cell is drawn, so a cell's draw does not depend
    on which others participate. Categories without a participation flag
    (or without a fitted Engel curve) get a zero share; each record's vector
    is rescaled to sum to exactly one.
    """
    design = np.asarray(design, dtype=float)
    z = keyed_normals(seed, "share", record_ids, categories.ids, keys=keys)
    raw = np.zeros(z.shape)
    for j, cat in enumerate(categories):
        fit = fits.get(cat)
        if fit is None:
            continue
        sd = math.sqrt(max(fit.residual_var, 0.0))
        raw[:, j] = fit.predict(design, names) + (fit.residual_mean + sd * z[:, j])
    raw = np.where(indicators, np.maximum(0.0, raw), 0.0)
    sums = raw.sum(axis=1)
    if np.any(sums <= 0):
        i = int(np.argmin(sums))
        raise DataValidationError(
            f"record {record_ids[i]!r}: all imputed shares are zero (no consumption basket)"
        )
    return raw / sums[:, np.newaxis]


# ---------------------------------------------------------------------------
# Demographic design
# ---------------------------------------------------------------------------


def demographic_design(survey: HouseholdSurvey) -> tuple[np.ndarray, list[str]]:
    """Covariate columns of a survey frame: household-size bands, flags,
    head-age bands.

    Size bands split at ``SIZE_BANDS``; every demographic column becomes a
    numeric regressor, in name order, with ``AGE_KEY`` expanded into
    ``AGE_BANDS`` dummies.
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    sizes = survey.size
    lo, hi = SIZE_BANDS
    cols.append(((sizes > lo) & (sizes <= hi)).astype(float))
    names.append(f"size_{lo + 1}_{hi}")
    cols.append((sizes > hi).astype(float))
    names.append(f"size_gt{hi}")
    for key in sorted(survey.demographic_names):
        v = survey.demographics[:, survey.demographic_names.index(key)]
        if key == AGE_KEY:
            a, b = AGE_BANDS
            cols.append(((v >= a) & (v < b)).astype(float))
            names.append(f"{key}_{a}_{b}")
            cols.append((v >= b).astype(float))
            names.append(f"{key}_ge{b}")
        else:
            cols.append(v)
            names.append(key)
    return np.column_stack(cols), names


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class ImputationReport:
    """Target and achieved participation by category, the calibration
    outliers counted, and notes on what the imputation did."""

    target_participation: dict[str, float]
    achieved_participation: dict[str, float]
    calibration_outliers: int
    notes: list[str] = field(default_factory=list)


@dataclass(eq=False)
class ImputationResult:
    """The imputed survey, its report, and the provenance columns that
    ``priceshock impute`` writes beside it."""

    survey: HouseholdSurvey
    report: ImputationReport
    provenance: dict[str, list]


def impute_expenditure_patterns(
    source: HouseholdSurvey | list[HouseholdRecord],
    income: HouseholdSurvey | list[HouseholdRecord] | list[IncomeRecord],
    categories: CategorySet,
    *,
    seed: int,
    link: str = "logit",
) -> ImputationResult:
    """Impute the source survey's expenditure patterns into an income dataset.

    Both sides are column frames; lists of records are converted once on
    entry. The income side needs only ids, weight, size, income and
    demographics (closure runs may pass the source survey itself). Source
    incomes are first calibrated (outlier-robust affine map) to the income
    dataset's moments; the three imputation steps then run with
    disturbances keyed on ``seed`` and the record ids. The imputed
    households come back as a HouseholdSurvey with the income side's
    columns and the imputed expenditure.
    """
    same = income is source
    source = as_survey(source)
    income = source if same else as_survey(income)
    if source.income is None:
        raise DataValidationError("source survey lacks disposable income; cannot impute")
    if income.income is None:
        raise DataValidationError("income dataset lacks disposable income")
    if not income.weight.sum() > 0:  # the achieved participation shares divide by it
        raise DataValidationError(f"income dataset {income.report.source!r}: every record has "
                                  f"weight 0, so no participation share can be weighed")
    if not np.all(income.income > 0):
        i = int(np.argmin(income.income > 0))
        raise DataValidationError(f"income record {str(income.ids[i])!r}: income "
                                  f"{income.income[i]:g} is not positive (its log is taken)")

    target_income = income.income
    target_core = target_income[~chauvenet_outliers(target_income)]
    calibration = calibrate_income(
        source.income, float(target_core.mean()), float(target_core.std(ddof=1))
    )
    if np.any(calibration.values <= 0):
        raise DataValidationError("calibrated incomes are not all positive; cannot take logs")

    source_w = source.weight
    source_exp = source.expenditure
    source_x = source_exp.sum(axis=1)
    ln_x = np.log(source_x)
    n_src, n_inc = len(source_w), len(income.weight)

    match_labels(income.demographic_names, source.demographic_names, income.report.source,
                 "covariate", f"those of {source.report.source}")
    demo_source, demo_names = demographic_design(source)
    demo_inc, _ = demographic_design(income)

    # Step 1: total expenditure from income and demographics.
    names_total = ["const", "ln_income"] + demo_names
    design_total = np.column_stack([np.ones(n_src), np.log(calibration.values), demo_source])
    fit_total = wls_fit(design_total, ln_x, source_w, names_total)
    design_total_inc = np.column_stack([np.ones(n_inc), np.log(target_income), demo_inc])
    ids_inc = income.ids.tolist()
    keys = id_keys(ids_inc)  # both streams draw from one hash of each id
    x_hat = impute_total_expenditure(fit_total, design_total_inc, names_total, ids_inc, seed, keys=keys)

    # Steps 2 and 3 share the quadratic-in-log-expenditure design.
    names_engel = ["const", "ln_x", "ln_x_sq"] + demo_names
    design_engel_source = np.column_stack([np.ones(n_src), ln_x, ln_x**2, demo_source])
    ln_x_hat = np.log(x_hat)
    # Fortran-ordered, so that each of the fits' predictions reads it without a copy
    design_engel_inc = np.asfortranarray(
        np.column_stack([np.ones(n_inc), ln_x_hat, ln_x_hat**2, demo_inc]))

    w_total = float(source_w.sum())
    targets: dict[str, float] = {}
    participation_fits: dict[str, BinaryFit] = {}
    share_fits: dict[str, RegressionFit] = {}
    notes: list[str] = []
    for j, cat in enumerate(categories):
        positive = source_exp[:, j] > 0
        share = float(np.dot(source_w, positive)) / w_total
        targets[cat] = share
        if 0.0 < share < 1.0:
            participation_fits[cat] = binary_fit(
                design_engel_source, positive.astype(float), source_w, names_engel, link=link
            )
        if share > 0.0:
            sel = positive
            share_fits[cat] = wls_fit(
                design_engel_source[sel], source_exp[sel, j] / source_x[sel], source_w[sel], names_engel
            )

    inc_w = income.weight
    indicators = np.zeros((n_inc, len(categories)), dtype=int)
    indicators[:, [j for j, cat in enumerate(categories) if targets[cat] == 1.0]] = 1
    fitted = [j for j, cat in enumerate(categories) if cat in participation_fits]
    if fitted:  # the categories that some but not all source households buy
        probs = np.array([participation_fits[categories.ids[j]].predict(
            design_engel_inc, names_engel) for j in fitted]).T
        indicators[:, fitted] = participation_flags(
            probs, inc_w, [targets[categories.ids[j]] for j in fitted])

    shares = impute_budget_shares(
        share_fits, design_engel_inc, names_engel, indicators, ids_inc, seed, categories, keys=keys
    )
    imputed = HouseholdSurvey(
        ids=income.ids, weight=inc_w, size=income.size, income=target_income,
        demographic_names=income.demographic_names, demographics=income.demographics,
        expenditure=shares * x_hat[:, np.newaxis], report=income.report,
    )
    achieved = {
        cat: float(np.dot(inc_w, indicators[:, j])) / float(inc_w.sum())
        for j, cat in enumerate(categories)
    }
    n_outliers = int(calibration.outlier_mask.sum())
    if n_outliers:
        notes.append(f"{n_outliers} income value(s) excluded from calibration moments")
    report = ImputationReport(
        target_participation=targets,
        achieved_participation=achieved,
        calibration_outliers=n_outliers,
        notes=notes,
    )
    provenance = {
        "imputed": [1] * n_inc,
        "imputation_seed": [seed] * n_inc,
        "model_version": [__version__] * n_inc,
    }
    return ImputationResult(survey=imputed, report=report, provenance=provenance)
