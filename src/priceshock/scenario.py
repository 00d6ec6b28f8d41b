"""Configuration-driven scenario runs.

Builds consumer price changes from observed inflation, carbon pricing and
indirect-tax schedules, prices them through each household's budget,
values the welfare cost with the calibrated demand system, recycles any
collected revenue, and aggregates the distributional tables. Runs are
deterministic under their seed; repeated runs emit byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._version import __version__
from .data import (
    CategorySet,
    BYTE_ORDER_MARK,
    LINKS,
    DEFAULT_REPORT_GROUPS,
    BridgingMatrix,
    FuelTable,
    HouseholdSurvey,
    LoadReport,
    MrioTable,
    load_bridge,
    load_fuels,
    load_household_survey,
    load_income_survey,
    load_mrio,
    load_price_relatives,
    match_labels,
    not_utf8,
    read_input,
    write_csv,
)
from .demand import (
    FRISCH_CAP,
    FRISCH_LEVEL,
    FRISCH_SHIFT,
    FRISCH_SLOPE,
    _frisch_terms,
    _value,
    budget_elasticity,
    frisch_parameter,
    les_calibrate_frisch,
    les_valuation,
    price_elasticities,
    wls_coefficients,
    LesParameters,
)
from .errors import DataValidationError, InfeasibleBudgetError, NumericalModelError
from .inputoutput import (_check_productive, _solve_from_minus_a, bridge_to_categories,
                          direct_fuel_intensity, sector_intensity)
from .metrics import (
    EQUIVALENCE_SCALES,
    atkinson,
    equivalise,
    progressivity_table,
    weighted_quantile_groups,
    welfare_decomposition,
)

if TYPE_CHECKING:  # imputation is imported by the first run that imputes
    from .imputation import ImputationReport, ImputationResult

RECYCLING_SCHEMES = ("none", "lump_sum_per_household", "per_capita", "targeted_bottom_q")

# Estimated group elasticities are clamped to an economically sane range
# before calibration; fits on small noisy groups can otherwise explode.
BUDGET_ELASTICITY_BOUNDS = (0.02, 4.0)
OWN_PRICE_BOUNDS = (-4.0, -1e-3)
MIN_GROUP_OBS = 10
# Composed consumer price relatives above this (a million-fold rise) are
# refused: prices, budgets and the price index all stay in float range.
MAX_PRICE_RELATIVE = 1e6


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Resolved run configuration (paths already anchored to the config dir)."""

    files: dict[str, Path]
    carbon_tax: float = 0.0
    pass_through: float = 1.0
    border_adjustment: bool = False
    recycling: str = "none"
    recycling_quantile: int = 1
    impute: bool = False
    fuel_map: dict[str, str] = field(default_factory=dict)
    taxes: dict[str, dict[str, float]] = field(default_factory=dict)
    exchange_rate: float = 1.0
    months_per_period: float = 1.0
    frisch_level: float = FRISCH_LEVEL
    frisch_slope: float = FRISCH_SLOPE
    frisch_shift: float = FRISCH_SHIFT
    frisch_cap: float = FRISCH_CAP
    size_bands: tuple[int, int] = (2, 5)
    engel_scale: str = "household_total"
    imputation_link: str = "logit"
    atkinson_epsilon: float = 2.0
    scale: str = "sqrt"
    groups: int = 5
    skip_empty_categories: bool = False
    seed: int = 0
    raw: dict[str, str] = field(default_factory=dict)

    def config_hash(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in sorted(self.raw.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def parse_config(path) -> RunConfig:
    """Read a flat key-value config file (dotted section prefixes, # comments)."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path, "line") from None
    if text.startswith("\ufeff"):
        raise DataValidationError(BYTE_ORDER_MARK.format(path=path, noun="line"))
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataValidationError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise DataValidationError(f"{path}: duplicate key {key!r}")
        raw[key] = value.strip()
    return build_config(raw, path.parent)


def _as_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _as_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _as_int(value: str) -> int:
    """An integer written as one (``5``) or as an integral number (``5.0``, ``5e0``)."""
    try:
        return int(value)
    except ValueError:
        number = _as_float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _as_size_bands(value: str) -> tuple[int, int]:
    parts = [_as_int(p.strip()) for p in value.split(",")]
    if len(parts) != 2 or parts[0] >= parts[1]:
        raise ValueError(f"expected two increasing cuts, got {value!r}")
    return parts[0], parts[1]


# range checks: (test of the parsed value, complaint formatted with its text)
POSITIVE = (lambda v: v > 0, "must be positive, got {!r}")
NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative, got {!r}")


def _one_of(noun, *choices):
    return lambda v: v in choices, f"unknown {noun} {{!r}}; expected one of {', '.join(choices)}"


# config key -> (RunConfig field, parser of its text value, range check or
# None); <category> stands for any id of CategorySet.default()
CONFIG_KEYS = {
    "scenario.carbon_tax": ("carbon_tax", _as_float, NONNEGATIVE),
    "scenario.pass_through": ("pass_through", _as_float,
                              (lambda v: 0 <= v <= 1, "must be in [0, 1], got {!r}")),
    "scenario.border_adjustment": ("border_adjustment", _as_bool, None),
    "scenario.recycling": ("recycling", str, _one_of("recycling scheme", *RECYCLING_SCHEMES)),
    "scenario.recycling_quantile": ("recycling_quantile", _as_int,
                                    (lambda v: v >= 1, "must be at least 1, got {!r}")),
    "scenario.impute": ("impute", _as_bool, None),
    "elasticity.exchange_rate": ("exchange_rate", _as_float, POSITIVE),
    "elasticity.months_per_period": ("months_per_period", _as_float, POSITIVE),
    "elasticity.frisch_level": ("frisch_level", _as_float, None),
    "elasticity.frisch_slope": ("frisch_slope", _as_float, None),
    "elasticity.frisch_shift": ("frisch_shift", _as_float, None),
    "elasticity.frisch_cap": ("frisch_cap", _as_float,
                              (lambda v: v < -1, "must be below -1, got {!r}")),
    "elasticity.size_bands": ("size_bands", _as_size_bands, None),
    "elasticity.engel_scale": ("engel_scale", str,
                               _one_of("engel scale", "household_total", "per_capita_month")),
    "imputation.link": ("imputation_link", str, _one_of("imputation link", *LINKS)),
    "distribution.atkinson_epsilon": ("atkinson_epsilon", _as_float, NONNEGATIVE),
    "distribution.scale": ("scale", str, _one_of("equivalence scale", *EQUIVALENCE_SCALES)),
    "distribution.groups": ("groups", _as_int, (lambda v: v >= 2, "must be at least 2, got {!r}")),
    "distribution.skip_empty_categories": ("skip_empty_categories", _as_bool, None),
    "seed": ("seed", _as_int, None),
    "tax.<category>.vat": ("taxes", _as_float, NONNEGATIVE),
    "tax.<category>.advalorem": ("taxes", _as_float, NONNEGATIVE),
    "tax.<category>.excise": ("taxes", _as_float, NONNEGATIVE),
    "tax.<category>.base_price": ("taxes", _as_float, POSITIVE),
    "fuel_map.<category>": ("fuel_map", str, None),
}


def build_config(raw: dict[str, str], base_dir) -> RunConfig:
    base_dir = Path(base_dir)
    cfg = RunConfig(files={}, raw=dict(raw))
    for key in ("files.households", "elasticity.exchange_rate"):  # required, no default
        if key not in raw:
            raise DataValidationError(f"config must name {key}")
    for key, value in raw.items():
        if key.startswith("files."):
            cfg.files[key[len("files."):]] = (base_dir / value).resolve()
            continue
        table_key, category = key, None
        section, _, rest = key.partition(".")
        if section in ("tax", "fuel_map"):
            category, dot, field_name = rest.partition(".")
            table_key = f"{section}.<category>{dot}{field_name}"
        if table_key not in CONFIG_KEYS:
            raise DataValidationError(f"unknown config key {key!r}")
        name, parse, check = CONFIG_KEYS[table_key]
        try:
            if category is not None and category not in CategorySet.default().ids:
                raise ValueError(f"unknown category {category!r}")
            parsed = parse(value)
            if check is not None and not check[0](parsed):
                raise ValueError(check[1].format(value))
        except ValueError as exc:
            raise DataValidationError(f"config key {key!r}: {exc}") from None
        if name == "taxes":
            cfg.taxes.setdefault(category, {})[field_name] = parsed
        elif name == "fuel_map":
            cfg.fuel_map[category] = parsed
        else:
            setattr(cfg, name, parsed)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """The rules that span keys; each key's own range is checked as it is parsed."""
    for name, p in cfg.files.items():
        if not p.is_file():
            fault = "is not a file" if p.exists() else "does not exist"
            raise DataValidationError(f"configured file files.{name} {fault}: {p}")
    if cfg.recycling_quantile > cfg.groups:
        raise DataValidationError(
            f"scenario.recycling_quantile must be between 1 and distribution.groups "
            f"({cfg.groups}), got {cfg.recycling_quantile}"
        )
    flows = ("mrio_z", "mrio_d", "mrio_x", "mrio_f", "bridge")
    missing = [name for name in flows if name not in cfg.files]
    if missing and (len(missing) < len(flows) or cfg.carbon_tax > 0 or cfg.fuel_map):
        raise DataValidationError(f"config must name files.{missing[0]}: files.mrio_* and "
                                  f"files.bridge go together; a carbon tax or fuel map needs them")
    if cfg.fuel_map and "fuels" not in cfg.files:
        raise DataValidationError(f"fuel_map.{next(iter(cfg.fuel_map))} needs files.fuels")
    if cfg.impute and "income" not in cfg.files:
        raise DataValidationError("scenario.impute requires files.income")


# ---------------------------------------------------------------------------
# Price formation
# ---------------------------------------------------------------------------


def consumer_price(producer_relative, vat=0.0, advalorem=0.0, excise_per_unit=0.0,
                   base_price=1.0):
    """Consumer price relative implied by a producer price relative.

    The consumer price is (producer + excise) * (1 + advalorem) * (1 + vat);
    the relative compares the same formula before and after the producer
    change, so purely multiplicative taxes leave relatives untouched while
    a per-unit excise dampens them. Arguments may be arrays (one entry per
    category, broadcast together); all-scalar arguments give a float.
    """
    if any(np.any(np.asarray(rate) < 0) for rate in (vat, advalorem, excise_per_unit)):
        raise DataValidationError("tax rates must be nonnegative")
    if np.any(np.asarray(base_price) <= 0):
        raise DataValidationError("base price must be positive")
    before = (base_price + excise_per_unit) * (1.0 + advalorem) * (1.0 + vat)
    after = (base_price * (1.0 + producer_relative) + excise_per_unit) * (1.0 + advalorem) * (1.0 + vat)
    return _value(after / before - 1.0)


def compose_relatives(*relatives: np.ndarray) -> np.ndarray:
    """Multiplicative composition of price relatives: prod(1 + r) - 1."""
    out = None
    for r in relatives:
        r = np.asarray(r, dtype=float)
        out = r.copy() if out is None else (1.0 + out) * (1.0 + r) - 1.0
    return out


@dataclass(frozen=True, eq=False)
class CarbonTaxResult:
    """A carbon tax priced through the economy: each category's price
    relative in all, through the supply chain and from the fuels it burns,
    each sector's, each category's emissions per currency unit, and the
    table and solve that gave them."""

    category_relatives: np.ndarray
    indirect_relatives: np.ndarray
    direct_relatives: np.ndarray
    producer_relatives: np.ndarray
    unit_emissions: np.ndarray
    mrio: MrioTable
    # [cost shock; sector intensity] and their products with (I - A)^-1
    leontief_rows: np.ndarray
    leontief_solution: np.ndarray


def carbon_tax_scenario(
    rate: float,
    mrio: MrioTable,
    bridge: BridgingMatrix,
    *,
    pass_through: float = 1.0,
    border_adjustment: bool = False,
    fuels: FuelTable | None = None,
    fuel_map: dict[int, str] | None = None,
) -> CarbonTaxResult:
    """Per-category consumer price relatives from a carbon tax.

    Sector cost shocks are the tax rate times each sector's emission
    intensity (domestic sectors only unless border adjustment is on),
    passed through the supply chain and bridged to categories. Purchased
    fuels in ``fuel_map`` additionally carry the tax on their combustion
    content directly. The same pass gives each category's emissions per
    currency of spending, embodied plus direct combustion.
    """
    if rate < 0:
        raise DataValidationError("carbon tax rate must be nonnegative")
    if tuple(bridge.products) != tuple(mrio.sectors):
        raise DataValidationError("bridge products do not match the inter-industry sectors")
    intensity = sector_intensity(mrio)
    shock = rate * (intensity.total if border_adjustment else intensity.domestic)
    minus_a = mrio.flows / -mrio.output  # -A bit for bit: IEEE division is sign-symmetric
    _check_productive(mrio.sectors, -minus_a.sum(axis=0))  # A's rule and message
    if not 0.0 <= pass_through <= 1.0:
        raise DataValidationError(f"pass-through rate {pass_through} outside [0, 1]")
    # the two rows of the total-requirements inverse a run needs, in one solve
    # (the library's own, with I - A formed in place of -A): cost pass-through
    # (as cost_passthrough) and embodied emissions (as embodied_intensity)
    rows = np.vstack([shock, intensity.total])
    solution = _solve_from_minus_a(minus_a, rows)
    producer = pass_through * solution[0]
    indirect = bridge_to_categories(bridge, producer)
    unit_emissions = bridge.shares @ solution[1]
    direct = np.zeros(bridge.shares.shape[0])
    for cat_index, fuel in (fuel_map or {}).items():
        if fuels is None:
            raise DataValidationError("fuel map supplied without a fuel table")
        direct[cat_index] = rate * direct_fuel_intensity(fuels, fuel)
        unit_emissions[cat_index] += direct_fuel_intensity(fuels, fuel)
    return CarbonTaxResult(
        category_relatives=compose_relatives(indirect, direct),
        indirect_relatives=indirect,
        direct_relatives=direct,
        producer_relatives=producer,
        unit_emissions=unit_emissions,
        mrio=mrio,
        leontief_rows=rows,
        leontief_solution=solution,
    )


def recycle_revenue(revenue: float, scheme: str, weights: np.ndarray,
                    sizes: np.ndarray | None = None,
                    target_mask: np.ndarray | None = None) -> np.ndarray:
    """Per-household transfers whose weighted sum reproduces the revenue.

    The last recipient absorbs any floating-point remainder so that
    conservation holds exactly.
    """
    if revenue < 0:
        raise DataValidationError("revenue must be nonnegative")
    weights = np.asarray(weights, dtype=float)
    transfers = np.zeros(len(weights))
    if revenue == 0 or scheme == "none":
        return transfers
    if scheme == "lump_sum_per_household":
        transfers[:] = revenue / weights.sum()
        recipients = weights > 0
    elif scheme == "per_capita":
        if sizes is None:
            raise DataValidationError("per-capita recycling needs household sizes")
        sizes = np.asarray(sizes, dtype=float)
        transfers = revenue * sizes / float(np.add.reduce(weights * sizes))
        recipients = weights > 0
    elif scheme == "targeted_bottom_q":
        if target_mask is None or not np.any(target_mask):
            raise DataValidationError("targeted recycling has an empty target group")
        mass = float(weights[target_mask].sum())
        if mass <= 0:
            raise DataValidationError("targeted recycling group has zero weight")
        transfers[target_mask] = revenue / mass
        recipients = target_mask & (weights > 0)
    else:
        raise DataValidationError(f"unknown recycling scheme {scheme!r}")
    # absorb fp remainder deterministically on the last positive-weight recipient
    idx = np.nonzero(recipients)[0]
    if len(idx):
        last = idx[-1]
        for _ in range(2):
            residual = revenue - float(np.add.reduce(weights * transfers))
            transfers[last] += residual / weights[last]
    return transfers


# ---------------------------------------------------------------------------
# Group elasticity estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DemandGroups:
    """The demand parameters of each quintile x size-band cell, one row per
    cell that holds a household: its ``labels`` entry, (cells, k)
    ``budget`` and ``own_price`` elasticities and ``mean_shares``, its Frisch
    ``xi`` and the count of its elasticities ``clamped``. ``of`` gives each
    household's row; ``n_fallback`` counts the cells fitted on a coarser
    sample."""

    labels: np.ndarray
    budget: np.ndarray
    own_price: np.ndarray
    mean_shares: np.ndarray
    xi: np.ndarray
    clamped: np.ndarray
    of: np.ndarray
    n_fallback: int


def _engel_fit(exp: np.ndarray, totals: np.ndarray, ln_x: np.ndarray,
               per_capita: np.ndarray, weights: np.ndarray, cfg: RunConfig):
    """Per-category quadratic Engel curves -> one ``DemandGroups`` row:
    (budget, own_price, mean_shares, xi, clamped).

    One weighted least-squares solve on one cell's rows of the inputs that
    ``estimate_demand_groups`` gathers fits every category bought there.
    """
    shares = exp / totals[:, np.newaxis]
    design = np.column_stack([np.ones(len(ln_x)), ln_x, ln_x**2])
    w_total = float(weights.sum())
    mean_shares = weights @ shares / w_total
    ln_c = float(np.dot(weights, ln_x)) / w_total
    bought = mean_shares > 0  # a category nobody buys gets budget elasticity 0
    budget = np.zeros(shares.shape[1])
    _, slope, curvature = wls_coefficients(design, shares[:, bought], weights,
                                           ["const", "ln_x", "ln_x_sq"])
    eta = budget_elasticity(mean_shares[bought], slope, curvature, ln_c)
    lo, hi = BUDGET_ELASTICITY_BOUNDS
    clamped = int(np.sum((eta < lo) | (eta > hi)))
    budget[bought] = np.clip(eta, lo, hi)
    consumption_pc_month = float(np.dot(weights, per_capita)) / w_total / cfg.months_per_period
    xi = frisch_parameter(
        consumption_pc_month, cfg.exchange_rate,
        level=cfg.frisch_level, slope=cfg.frisch_slope,
        shift=cfg.frisch_shift, cap=cfg.frisch_cap,
    )
    own = np.diag(price_elasticities(budget, mean_shares, xi))
    lo, hi = OWN_PRICE_BOUNDS
    clamped += int(np.sum((own < lo) | (own > hi)))
    return budget, np.clip(own, lo, hi), mean_shares, xi, clamped


def estimate_demand_groups(
    exp: np.ndarray, totals: np.ndarray, weights: np.ndarray, sizes: np.ndarray,
    quintiles: np.ndarray, cfg: RunConfig,
) -> DemandGroups:
    """One demand-system parameterisation per quintile x size-band cell.

    Cells with too few households of positive weight (one of weight 0 is
    not counted) fall back to their quintile, then to the whole sample, so
    estimation never fails on sparse cells. A fallback fit is made only
    when a cell first uses it. A cell's own fit takes its households in
    survey order, as a slice of a stable sort by cell.
    """
    per_capita = totals / sizes
    if cfg.engel_scale == "per_capita_month":
        ln_x = np.log(per_capita / cfg.months_per_period)
    else:
        ln_x = np.log(totals)
    inputs = (exp, totals, ln_x, per_capita, weights)
    lo, hi = cfg.size_bands
    cells = 3 * quintiles + np.where(sizes <= lo, 0, np.where(sizes <= hi, 1, 2))
    order = np.argsort(cells, kind="stable")  # a cell's rows: a slice, in survey order
    counts, held = np.bincount(cells), np.bincount(cells, weights=weights > 0)
    bounds = np.concatenate([[0], np.cumsum(counts[counts > 0])])
    q_held = np.bincount(quintiles, weights=weights > 0)
    rows: list[tuple] = []
    labels: list[str] = []
    n_fallback = 0
    fallbacks: dict[int | None, tuple] = {}  # by quintile, None for the whole sample
    for c, start, end in zip(np.flatnonzero(counts).tolist(), bounds[:-1], bounds[1:]):
        q, b = divmod(c, 3)
        if held[c] >= MIN_GROUP_OBS:
            rows.append(_engel_fit(*(a[order[start:end]] for a in inputs), cfg))
        else:
            # a fallback fit takes its rows in survey order, as the pooled fit does
            source = q if q_held[q] >= MIN_GROUP_OBS else None
            if source not in fallbacks:
                sample = quintiles == q if source is not None else slice(None)
                fallbacks[source] = _engel_fit(*(a[sample] for a in inputs), cfg)
            rows.append(fallbacks[source])
            n_fallback += 1
        labels.append(f"q{q + 1}_band{b + 1}")
    budget, own_price, mean_shares, xi, clamped = map(np.array, zip(*rows))
    return DemandGroups(np.array(labels), budget, own_price, mean_shares, xi, clamped,
                        (np.cumsum(counts > 0) - 1)[cells], n_fallback)


# Households that value_households values per numpy pass: a block's
# (households × categories) temporaries stay in a core's cache. At 24,000
# households one pass over all of them took half again as long.
VALUE_BLOCK_ROWS = 2048


def value_households(groups: DemandGroups, exp, totals, transfers, p1, emissions):
    """(cv, ye, ye_net, footprint at ``p1``), the households that cannot afford
    their committed bundle at ``p1`` (their block is not valued and keeps
    zeros: a run that has one reads no value) and the count valued as
    Cobb-Douglas.

    The households are valued in survey order, ``VALUE_BLOCK_ROWS`` at a
    time: each one's group budget elasticities and xi are its row
    (``groups.of``) of the groups' columns. The calibration and the
    closed forms (Creedy 1998) are row-wise, so each household gets the
    values its group alone would give, whatever the block size.
    """
    p0 = np.ones(len(p1))
    values = np.zeros((4, len(totals)))  # cv, ye, ye_net, footprint
    infeasible = np.zeros(len(totals), dtype=bool)
    n_cobb_douglas = 0
    for start in range(0, len(totals), VALUE_BLOCK_ROWS):
        block = slice(start, start + VALUE_BLOCK_ROWS)
        exp_b, totals_b = exp[block], totals[block]
        shares_b = exp_b / totals_b[:, np.newaxis]
        group_b = groups.of[block]
        # a share is 0 wherever nothing is spent, so phi is too
        phi = np.take(groups.budget, group_b, axis=0)
        phi *= shares_b
        # households with no bought good whose budget elasticity times share is
        # positive (a subnormal share makes it 0) have no marginal budget to
        # calibrate: value them as Cobb-Douglas (phi = own shares, gamma = 0)
        cobb_douglas = ~phi.any(axis=1)
        n_cobb_douglas += int(cobb_douglas.sum())
        phi[cobb_douglas] = shares_b[cobb_douglas]
        gamma, phi = _frisch_terms(phi, groups.xi[group_b], exp_b, totals_b)
        gamma[cobb_douglas] = 0.0
        params = LesParameters(gamma=gamma, phi=phi)
        try:
            value = les_valuation(p0, p1, totals_b, totals_b + transfers[block], params, emissions)
        except InfeasibleBudgetError:
            # the households whose budget misses the committed bundle after
            # the change: run_scenario names them in one message
            infeasible[block] = short = params.committed_cost(p1) >= totals_b
            if not short.any():  # short at the old prices only: nobody to name
                raise
            continue
        values[:3, block] = value.cv, value.ye, value.ye_net
        if emissions is not None:
            values[3, block] = value.footprint_after
    return values, infeasible, n_cobb_douglas


# ---------------------------------------------------------------------------
# Scenario run: load_inputs -> form_prices -> rank_households ->
# estimate_demand_groups -> value_households -> assemble -> build_tables
# ---------------------------------------------------------------------------


# elasticities.csv: one row per demand group and category
ELASTICITY_COLUMNS = ("group", "category", "share", "eta", "eta_own", "phi", "gamma", "xi")


@dataclass(eq=False)
class ScenarioResult:
    """What a run found: price relatives, the per-household columns, the
    tables, revenue, the demand groups' elasticities and the diagnostics."""

    categories: CategorySet
    group_names: tuple[str, ...]
    relatives_total: np.ndarray
    relatives_inflation: np.ndarray
    relatives_carbon: np.ndarray
    household: dict[str, np.ndarray]
    tables: dict[str, tuple[list[str], list[list]]]
    revenue: float
    seed: int
    config_hash: str
    elasticities: dict[str, np.ndarray] = field(
        default_factory=lambda: dict.fromkeys(ELASTICITY_COLUMNS, ()))
    diagnostics: dict[str, float] = field(default_factory=dict)
    load_report: LoadReport | None = None
    carbon: CarbonTaxResult | None = None
    imputation: ImputationReport | None = None


@dataclass(eq=False)
class Inputs:
    """Everything a run reads; ``frame`` is the survey it values."""

    categories: CategorySet
    survey: HouseholdSurvey
    imputed: ImputationResult | None  # the survey imputed into files.income
    mrio: MrioTable | None
    bridge: BridgingMatrix | None
    fuels: FuelTable | None
    rel_inflation: np.ndarray

    @property
    def frame(self) -> HouseholdSurvey:
        return self.survey if self.imputed is None else self.imputed.survey


def load_survey(cfg: RunConfig, impute: bool) -> tuple[HouseholdSurvey, ImputationResult | None]:
    """files.households and, when ``impute``, its imputation into files.income."""
    categories = CategorySet.default()
    survey = load_household_survey(cfg.files["households"], categories)
    if not impute:
        return survey, None
    income = load_income_survey(cfg.files["income"])
    # read as this module's attribute, which __getattr__ binds on first use
    impute = sys.modules[__name__].impute_expenditure_patterns
    return survey, impute(survey, income, categories, seed=cfg.seed, link=cfg.imputation_link)


def __getattr__(name: str):
    """Import ``imputation`` when ``impute_expenditure_patterns`` is first
    read (PEP 562): a run that does not impute never loads it. The function
    is then bound here, where a later read, or a wrapper set in its place,
    is found."""
    if name == "impute_expenditure_patterns":
        from .imputation import impute_expenditure_patterns

        globals()[name] = impute_expenditure_patterns
        return impute_expenditure_patterns
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def load_inputs(cfg: RunConfig) -> Inputs:
    """Load stage: the survey (imputed when scenario.impute is on), the flow
    tables and bridge, the fuels and the inflation relatives. The bridge's
    product columns are matched to the flow table's sectors by label."""
    categories = CategorySet.default()
    survey, imputed = load_survey(cfg, cfg.impute)
    mrio = bridge = fuels = None
    if "bridge" in cfg.files:  # with the four mrio_* files: validate_config asks for all five
        mrio = load_mrio(cfg.files["mrio_z"], cfg.files["mrio_d"],
                         cfg.files["mrio_x"], cfg.files["mrio_f"])
        bridge = load_bridge(cfg.files["bridge"], categories)
        if bridge.products != mrio.sectors:
            column = match_labels(bridge.products, mrio.sectors, "files.bridge",
                                  "product column", "the sectors of files.mrio_z")
            bridge = BridgingMatrix(bridge.categories, mrio.sectors, bridge.shares[:, column])
    if "fuels" in cfg.files:
        fuels = load_fuels(cfg.files["fuels"])
        for category, fuel in cfg.fuel_map.items():
            if fuel not in fuels.fuels:
                raise DataValidationError(f"config key 'fuel_map.{category}': unknown fuel "
                                          f"{fuel!r}, not listed in files.fuels")
    rel_inflation = (load_price_relatives(cfg.files["prices"], categories)
                     if "prices" in cfg.files else np.zeros(len(categories)))
    return Inputs(categories, survey, imputed, mrio, bridge, fuels, rel_inflation)


@dataclass(eq=False)
class Prices:
    """Consumer price relatives by category (``total`` composes inflation
    and ``carbon``), emissions per currency unit of each category, and each
    household's footprint before the change."""

    total: np.ndarray
    carbon: np.ndarray
    unit_emissions: np.ndarray
    footprint: np.ndarray
    carbon_result: CarbonTaxResult | None


def _emission_content_error(unit_emissions, categories) -> DataValidationError:
    j = int(np.argmax(np.nan_to_num(np.abs(unit_emissions), nan=np.inf)))  # the largest
    return DataValidationError(f"the emission content of {categories.ids[j]} is "
                               f"{unit_emissions[j]:.6g}, beyond the float range of household "
                               f"footprints: check files.mrio_f and files.fuels")


def form_prices(cfg: RunConfig, inputs: Inputs) -> Prices:
    """Price-formation stage: inflation composed with the carbon tax passed
    through the inter-industry table and the indirect-tax schedule."""
    categories, k = inputs.categories, len(inputs.categories)
    fuel_map_idx = {categories.index(c): f for c, f in cfg.fuel_map.items()}
    vat, advalorem, excise, base_prices = (
        np.array([cfg.taxes.get(c, {}).get(name, default) for c in categories])
        for name, default in (("vat", 0.0), ("advalorem", 0.0), ("excise", 0.0),
                              ("base_price", 1.0))
    )
    rel_carbon, unit_emissions, carbon = np.zeros(k), np.zeros(k), None
    # a tax or emission content far beyond the model's range overflows here:
    # the checks below name it before inf or nan reach the households
    with np.errstate(over="ignore", invalid="ignore"):
        if inputs.mrio is not None:
            # one inter-industry pass gives both the price relatives and the
            # emission content of each category (used even without a tax)
            carbon = carbon_tax_scenario(
                cfg.carbon_tax, inputs.mrio, inputs.bridge,
                pass_through=cfg.pass_through, border_adjustment=cfg.border_adjustment,
                fuels=inputs.fuels, fuel_map=fuel_map_idx,
            )
            unit_emissions = carbon.unit_emissions
            # producer-side component runs through the indirect-tax schedule;
            # the combustion component is already a consumer-level change
            taxed = consumer_price(carbon.indirect_relatives, vat=vat, advalorem=advalorem,
                                   excise_per_unit=excise, base_price=base_prices)
            rel_carbon = compose_relatives(taxed, carbon.direct_relatives)
        rel_total = compose_relatives(inputs.rel_inflation, rel_carbon)
        fp_before = inputs.frame.expenditure @ unit_emissions
    beyond = np.flatnonzero(~(rel_total <= MAX_PRICE_RELATIVE))
    if len(beyond):
        j = beyond[0]
        raise DataValidationError(
            f"the price relative of {categories.ids[j]} is {rel_total[j]:.6g}, beyond a "
            f"{MAX_PRICE_RELATIVE:g}-fold price rise: check scenario.carbon_tax, "
            f"the tax.* keys and files.prices"
        )
    if not (np.isfinite(unit_emissions).all() and np.isfinite(fp_before).all()):
        raise _emission_content_error(unit_emissions, categories)
    return Prices(rel_total, rel_carbon, unit_emissions, fp_before, carbon)


def rank_households(cfg: RunConfig, frame: HouseholdSurvey):
    """Ranking stage: each household's total expenditure, equivalised total
    and quantile group (0 the poorest)."""
    n = len(frame.ids)
    totals = frame.expenditure.sum(axis=1)
    eq = equivalise(totals, frame.size, cfg.scale)
    # more groups than households leave one empty before any ranking
    quintiles = weighted_quantile_groups(eq, frame.weight, cfg.groups) if cfg.groups <= n else None
    if quintiles is None or not np.bincount(quintiles, minlength=cfg.groups).all():
        message = (f"distribution.groups = {cfg.groups} leaves some groups empty: the "
                   f"sample's {n} households and weights cannot fill them")
        heavy, total = int(np.argmax(frame.weight)), float(frame.weight.sum())
        if frame.weight[heavy] > total / cfg.groups:
            message += (f"; household {str(frame.ids[heavy])!r} of files."
                        f"{'income' if cfg.impute else 'households'} holds weight "
                        f"{frame.weight[heavy]:g} of {total:g}, more than 1/{cfg.groups}")
        raise DataValidationError(message)
    return totals, eq, quintiles


def assemble(cfg: RunConfig, inputs: Inputs, prices: Prices, ranked, values, transfers,
             groups: DemandGroups):
    """Assembly stage: the per-household frame and the elasticity table's columns.

    ``ranked`` and ``values`` are what ``rank_households`` and
    ``value_households`` return. A report group's share and burden sum its
    categories' columns through one 0/1 category-to-group matrix; the
    frame's share_<group> and burden_<group> columns are the products' columns.
    One (households x categories) buffer holds the shares, then the burdens.
    """
    frame, categories = inputs.frame, inputs.categories
    totals, eq, quintiles = ranked
    cv, ye, ye_net, fp_after = values
    shares = frame.expenditure / totals[:, np.newaxis]
    pi_h = shares @ prices.total
    household = {
        "id": frame.ids, "weight": frame.weight, "size": frame.size, "quintile": quintiles,
        "x": totals, "equivalised": eq, "pi": pi_h, "burden": pi_h * totals,
        "cv": cv, "transfer": transfers, "cv_net": cv - transfers, "ye": ye, "ye_net": ye_net,
        "fp_before": prices.footprint, "fp_after": fp_after,
    }
    M = np.array([[c in members for members in DEFAULT_REPORT_GROUPS.values()]
                  for c in categories], dtype=float)
    share_g = shares @ M
    burden_g = np.multiply(frame.expenditure, prices.total, out=shares) @ M
    for j, g in enumerate(DEFAULT_REPORT_GROUPS):
        household[f"share_{g}"] = share_g[:, j]
        household[f"burden_{g}"] = burden_g[:, j]

    # group-level demand parameters: calibrated at the group mean basket,
    # expressed per currency unit of total expenditure; one row per group
    # and category, in that order
    shares_g = groups.mean_shares
    gp = les_calibrate_frisch(groups.budget, groups.xi, shares_g, shares_g,
                              np.ones(len(groups.xi)))
    kept = (shares_g > 0) | (not cfg.skip_empty_categories)
    cells = (groups.labels[:, np.newaxis], np.array(categories.ids), shares_g, groups.budget,
             groups.own_price, gp.phi, gp.gamma, groups.xi[:, np.newaxis])
    elasticities = {name: np.broadcast_to(v, kept.shape)[kept]
                    for name, v in zip(ELASTICITY_COLUMNS, cells)}
    return household, elasticities


def run_scenario(cfg: RunConfig) -> ScenarioResult:
    """Execute the full pipeline described in the module docstring."""
    inputs = load_inputs(cfg)
    prices = form_prices(cfg, inputs)
    frame = inputs.frame
    weights, sizes, exp = frame.weight, frame.size, frame.expenditure
    totals, _, quintiles = ranked = rank_households(cfg, frame)

    # carbon revenue and recycling
    revenue = float(np.add.reduce(weights * (exp @ prices.carbon))) if cfg.carbon_tax > 0 else 0.0
    transfers = recycle_revenue(revenue, cfg.recycling, weights, sizes=sizes,
                                target_mask=quintiles < cfg.recycling_quantile)

    groups = estimate_demand_groups(exp, totals, weights, sizes, quintiles, cfg)
    emissions = prices.unit_emissions if np.any(prices.unit_emissions > 0) else None
    values, infeasible, n_cobb_douglas = value_households(
        groups, exp, totals, transfers, 1.0 + prices.total, emissions
    )
    if np.any(infeasible):
        first = ", ".join(map(repr, frame.ids[np.flatnonzero(infeasible)[:5]].tolist()))
        raise InfeasibleBudgetError(f"{infeasible.sum()} of {len(totals)} households cannot "
                                    f"afford their committed bundle after the price change "
                                    f"(first: {first})")
    if not np.isfinite(values[3]).all():  # the footprints after the change
        raise _emission_content_error(prices.unit_emissions, inputs.categories)

    household, elasticities = assemble(cfg, inputs, prices, ranked, values, transfers, groups)
    group_names = tuple(DEFAULT_REPORT_GROUPS)
    return ScenarioResult(
        categories=inputs.categories,
        group_names=group_names,
        relatives_total=prices.total,
        relatives_inflation=inputs.rel_inflation,
        relatives_carbon=prices.carbon,
        household=household,
        tables=build_tables(household, group_names, cfg),
        revenue=revenue,
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        elasticities=elasticities,
        diagnostics={
            "cobb_douglas_fallbacks": n_cobb_douglas,
            "group_fallbacks": groups.n_fallback,
            "elasticity_clamps": int(groups.clamped.sum()),
            "dropped_zero_total": inputs.survey.report.n_dropped_zero_total,
        },
        load_report=inputs.survey.report,
        carbon=prices.carbon_result,
        imputation=None if inputs.imputed is None else inputs.imputed.report,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def build_tables(hh: dict[str, np.ndarray], group_names, cfg: RunConfig):
    """Aggregate tables from the per-household frame (also used by `report`).

    The frame holds a share_<group> and a burden_<group> column for each of
    ``group_names``. Each household's quintile is a whole number from 0 to
    ``cfg.groups`` - 1, and each quintile holds weight.
    """
    w = hh["weight"]
    x = hh["x"]
    eq = hh["equivalised"]
    quintiles = hh["quintile"].astype(int, copy=False)

    def weighted_sums(v):
        """The weighted sum of ``v`` over each quintile, each household's product
        added once in survey order, then the sum of those sums: the total."""
        sums = np.bincount(quintiles, weights=w * v, minlength=cfg.groups)
        return [*sums.tolist(), float(np.add.reduce(sums))]

    w_sums = weighted_sums(1.0)
    x_sums, eq_sums, burden_sums, cv_sums = map(weighted_sums, (x, eq, hh["burden"], hh["cv"]))
    spent = [weighted_sums(x * hh[f"share_{g}"]) for g in group_names]
    labels = [f"q{q + 1}" for q in range(cfg.groups)]
    agg_x = x_sums[-1]

    # t2: aggregate budget shares, group rates, contribution decomposition
    t2_rows = []
    for g, exp_g in zip(group_names, (s[-1] for s in spent)):
        b_g = weighted_sums(hh[f"burden_{g}"])[-1]
        t2_rows.append([g, exp_g / agg_x, b_g / exp_g if exp_g > 0 else 0.0, b_g / agg_x])
    total_rate = burden_sums[-1] / agg_x
    t2_rows.append(["total", 1.0, total_rate, total_rate])
    t2 = (["group", "budget_share", "avg_rate", "contribution"], t2_rows)

    # t3: budget shares by quintile plus relative expenditure
    mean_eq = eq_sums[-1] / w_sums[-1]
    t3_rows = [[label, *(s[q] / x_sums[q] for s in spent), (eq_sums[q] / w_sums[q]) / mean_eq]
               for q, label in enumerate(labels)]
    t3_rows.append(["average", *(row[1] for row in t2_rows[:-1]), 1.0])  # t2's budget shares
    t3 = (["quintile", *group_names, "relative_expenditure"], t3_rows)

    # t5: household-weighted group contributions to inflation by quintile
    rates = [weighted_sums(hh[f"burden_{g}"] / x) for g in group_names]
    t5_rows = []
    for q, label in enumerate([*labels, "average"]):
        cells = [r[q] / w_sums[q] for r in rates]
        t5_rows.append([label, *cells, sum(cells)])
    t5 = (["quintile", *group_names, "average"], t5_rows)

    # t6: progressivity decomposition on equivalised values (burdens scaled
    # by the same equivalence factor as expenditure)
    scale_factor = eq / x
    burdens = np.column_stack([hh[f"burden_{g}"] * scale_factor for g in group_names])
    rows = progressivity_table(eq, w, burdens, list(group_names))
    t6_cols = ["ci_pre", "ci_burden", "ci_adjusted", "rs", "kakwani", "avg_rate", "reranking",
               "contribution_to_k"]
    t6 = (["group", *t6_cols], [[r.name, *(getattr(r, c) for c in t6_cols)] for r in rows])

    # t7: welfare loss decomposition into fixed-basket and behavioural parts
    t7_rows = []
    for q, label in enumerate([*labels, "total"]):
        infl, rel_cv = burden_sums[q] / x_sums[q], cv_sums[q] / x_sums[q]
        t7_rows.append([label, infl, rel_cv, rel_cv - infl])
    t7 = (["quintile", "inflation", "relative_cv", "behaviour"], t7_rows)

    # t8/t9: Atkinson welfare before and after, on equivalised equivalent income
    ye_eq = equivalise(hh["ye_net"], hh["size"], cfg.scale)
    pre = atkinson(eq, w, cfg.atkinson_epsilon)
    if pre.yede == 0:  # the index rounds to 1; t8 and t9 divide by 1 - index
        i = int(np.argmin(eq))  # report's frame has no ids: its households go by number
        who = f"household {str(hh['id'][i])!r}" if "id" in hh else f"household number {i + 1}"
        raise NumericalModelError(f"distribution.atkinson_epsilon = {cfg.atkinson_epsilon:g}: "
                                  "the Atkinson index of equivalised expenditure rounds to 1; "
                                  f"{who} has the smallest equivalised expenditure, {eq[i]:g}")
    post = atkinson(ye_eq, w, cfg.atkinson_epsilon)
    t8 = (["state", "atkinson", "mean_ye", "yede"], [
        ["pre", pre.index, pre.mean, pre.yede],
        ["post", post.index, post.mean, post.yede],
        ["relative_change", (post.index - pre.index) / pre.index if pre.index != 0 else 0.0,
         post.mean / pre.mean - 1.0, post.yede / pre.yede - 1.0],
    ])
    decomp = welfare_decomposition(pre, post)
    t9 = (["component", "value"],
          [[c, decomp[c]] for c in ("equity", "efficiency", "interaction", "total")])
    return {
        "t2_inflation_drivers": t2,
        "t3_budget_shares": t3,
        "t5_incidence": t5,
        "t6_progressivity": t6,
        "t7_welfare": t7,
        "t8_atkinson": t8,
        "t9_decomposition": t9,
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

MONEY_COLUMNS = {"x", "equivalised", "burden", "cv", "transfer", "cv_net", "ye", "ye_net"}


def write_tables(tables, outdir) -> dict[str, Path]:
    """Write each aggregate table to ``<name>.csv`` in ``outdir`` by
    ``write_csv``: a column of texts as ``%s``, of numbers as ``%.6g``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        paths[name] = outdir / f"{name}.csv"
        columns = list(zip(*rows))
        write_csv(paths[name], header,
                  ["%s" if isinstance(column[0], str) else "%.6g" for column in columns], columns)
    return paths


def emit_reports(result: ScenarioResult, outdir) -> dict[str, Path]:
    """Write the aggregate tables, the per-household frame and a run manifest."""
    outdir = Path(outdir)
    paths = write_tables(result.tables, outdir)
    # money columns at 6 decimals; budget shares at the 12 digits that the
    # loaders read back exactly, so that ``report`` rebuilds t3 as ``run``
    # wrote it; the quintile, a whole number, at 12 digits too
    hh = result.household
    specs = [
        "%s" if c == "id"
        else "%.6f" if c in MONEY_COLUMNS or c.startswith("burden_")
        else "%.12g" if c.startswith("share_") or c == "quintile"
        else "%.6g"
        for c in hh
    ]
    for name, header, frame_specs, columns in (
            ("consumer_prices", ["category", "relative", "inflation", "carbon"],
             ["%s"] + ["%.12g"] * 3, [result.categories.ids, result.relatives_total,
                                      result.relatives_inflation, result.relatives_carbon]),
            ("elasticities", list(result.elasticities), ["%s", "%s"] + ["%.6g"] * 6,
             list(result.elasticities.values())),
            ("households", list(hh), specs, list(hh.values()))):
        paths[name] = outdir / f"{name}.csv"
        write_csv(paths[name], header, frame_specs, columns)

    p = outdir / "run_manifest.json"
    manifest = {
        "config_sha256": result.config_hash,
        "seed": result.seed,
        "package_version": __version__,
        "revenue": f"{result.revenue:.6f}",
        "diagnostics": {k: int(v) for k, v in result.diagnostics.items()},
    }
    if result.imputation is not None:
        imp = result.imputation
        manifest["imputation"] = {
            "participation": {
                cat: {"target": f"{target:.6f}",
                      "achieved": f"{imp.achieved_participation[cat]:.6f}"}
                for cat, target in imp.target_participation.items()
            },
            "calibration_outliers": imp.calibration_outliers,
            "notes": list(imp.notes),
        }
    p.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths["manifest"] = p
    return paths


def rebuild_tables_from_csv(households_csv, cfg: RunConfig):
    """Recompute every aggregate table from a stored per-household frame;
    each report group needs its share_<group> and burden_<group> column.

    Each row must hold a quintile of ``cfg.groups`` (a whole number from 0),
    a weight of 0 or more, a size of 1 or more, a positive ``x`` and
    ``equivalised``, an ``x`` by which each burden_<group> and
    ``equivalised`` divide to a finite ratio, and where the Atkinson
    aversion is 1 or more a positive ``ye_net``; the first row that does
    not is named. Each quintile must hold a household of positive weight.
    """
    needed = ["burden", "cv", "equivalised", "quintile", "size", "weight", "x", "ye_net"]

    def group_names(header):
        return tuple(dict.fromkeys(c.partition("_")[2] for c in header
                                   if c.startswith(("share_", "burden_"))))

    def number_columns(header):
        pairs = [f"{p}_{g}" for g in group_names(header) or ["<group>"] for p in ("share", "burden")]
        missing = [c for c in needed + pairs if c not in header]
        if missing:
            raise DataValidationError(f"{households_csv}: missing columns {missing}")
        return 0, [j for j, c in enumerate(header) if c != "id"]

    def checks(header, labels, values, bounds):
        columns = [c for c in header if c != "id"]
        row = dict(zip(columns, values.T))
        q = row["quintile"]
        positive = "{path}: row {row}, column {col!r}: value {value} is not positive"
        finite = np.ones(len(values), dtype=bool)  # the ratios to x that t5 and t6 take
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for c in ["equivalised", *(f"burden_{g}" for g in group_names(header))]:
                finite &= np.isfinite(row[c] / row["x"])
        found = [
            *((bounds.bad_rows(j), c, None) for j, c in enumerate(columns)),
            (~((q >= 0) & (q < cfg.groups) & (q == np.floor(q))), "quintile",
             f"{{path}}: row {{row}}, column 'quintile': {{text}} is not a quintile of "
             f"distribution.groups = {cfg.groups}, a whole number from 0 to {cfg.groups - 1}"),
            (row["weight"] < 0, "weight",
             "{path}: row {row}, column 'weight': negative value {value}"),
            (row["size"] < 1, "size", "{path}: row {row}, column 'size': value {value} < 1"),
            (row["x"] <= 0, "x", positive),
            (row["equivalised"] <= 0, "equivalised", positive),
            (~finite, "x",
             "{path}: row {row}, column 'x': value {value} is too small: a burden_<group> or "
             "equivalised divided by it leaves the float range"),
        ]
        if cfg.atkinson_epsilon >= 1:
            found.append((row["ye_net"] <= 0, "ye_net",
                          f"{positive}, as distribution.atkinson_epsilon = "
                          f"{cfg.atkinson_epsilon:g} asks"))
        return found

    header, _, block = read_input(households_csv, number_columns, checks)
    hh = dict(zip([c for c in header if c != "id"], block.T))
    # the quintiles that hold weight, whole numbers in [0, groups) by the checks
    held = np.unique(hh["quintile"][hh["weight"] > 0]).astype(int).tolist()
    if len(held) < cfg.groups:
        q = next(q for q, have in enumerate([*held, None]) if q != have)
        fault = (f"quintile {q} holds no household of positive weight" if held
                 else "every household has weight 0")
        raise DataValidationError(f"{households_csv}: {fault}; distribution.groups = "
                                  f"{cfg.groups} needs each quintile from 0 to {cfg.groups - 1} "
                                  f"to hold one")
    groups = group_names(header)
    return build_tables(hh, groups, cfg), groups
