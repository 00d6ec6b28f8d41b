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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .data import (
    CategorySet,
    DEFAULT_REPORT_GROUPS,
    BridgingMatrix,
    FuelTable,
    LoadReport,
    MrioTable,
    _write_rows,
    load_bridge,
    load_fuels,
    load_household_survey,
    load_income_survey,
    load_mrio,
    load_price_relatives,
    read_labelled_table,
)
from .demand import (
    _value,
    budget_elasticity,
    frisch_parameter,
    les_calibrate_frisch,
    les_valuation,
    price_elasticities,
    LesParameters,
)
from .errors import DataValidationError, InfeasibleBudgetError, NumericalModelError
from .imputation import ImputationReport, impute_expenditure_patterns, wls_fit
from .inputoutput import (
    TechnologyMatrix,
    bridge_to_categories,
    direct_fuel_intensity,
    leontief_solve,
    sector_intensity,
    technology_matrix,
)
from .metrics import (
    atkinson,
    equivalise,
    progressivity_table,
    weighted_quantile_groups,
    welfare_decomposition,
)

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
    frisch_level: float = 9.2
    frisch_slope: float = 0.973
    frisch_shift: float = 7000.0
    frisch_cap: float = -1.3
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
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
    "imputation.link": ("imputation_link", str, _one_of("imputation link", "logit", "probit")),
    "distribution.atkinson_epsilon": ("atkinson_epsilon", _as_float, NONNEGATIVE),
    "distribution.scale": ("scale", str,
                           _one_of("equivalence scale", "none", "per_capita", "sqrt")),
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


@dataclass(frozen=True)
class CarbonTaxResult:
    category_relatives: np.ndarray
    indirect_relatives: np.ndarray
    direct_relatives: np.ndarray
    producer_relatives: np.ndarray
    unit_emissions: np.ndarray
    technology: TechnologyMatrix
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
    tech = technology_matrix(mrio)
    if not 0.0 <= pass_through <= 1.0:
        raise DataValidationError(f"pass-through rate {pass_through} outside [0, 1]")
    # the two rows of the total-requirements inverse a run needs, in one solve:
    # cost pass-through (as cost_passthrough) and embodied emissions (as
    # embodied_intensity)
    rows = np.vstack([shock, intensity.total])
    solution = leontief_solve(tech, rows)
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
        technology=tech,
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
        transfers = revenue * sizes / float(np.dot(weights, sizes))
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
            residual = revenue - float(np.dot(weights, transfers))
            transfers[last] += residual / weights[last]
    return transfers


# ---------------------------------------------------------------------------
# Group elasticity estimation
# ---------------------------------------------------------------------------


@dataclass
class GroupDemand:
    budget: np.ndarray
    own_price: np.ndarray
    mean_shares: np.ndarray
    xi: float
    clamped: int


def _engel_fit(shares: np.ndarray, design: np.ndarray, ln_x: np.ndarray,
               per_capita: np.ndarray, weights: np.ndarray, cfg: RunConfig) -> GroupDemand:
    """Per-category quadratic Engel curves -> budget and own-price elasticities.

    One weighted least-squares solve on one cell's rows of the inputs that
    ``estimate_demand_groups`` prepares fits every category bought there.
    """
    w_total = float(weights.sum())
    mean_shares = weights @ shares / w_total
    ln_c = float(np.dot(weights, ln_x)) / w_total
    bought = mean_shares > 0  # a category nobody buys gets budget elasticity 0
    names = ["const", "ln_x", "ln_x_sq"]
    budget = np.zeros(shares.shape[1])
    fit = wls_fit(design, shares[:, bought], weights, names)
    _, slope, curvature = fit.coefficients
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
    own = np.clip(own, lo, hi)
    return GroupDemand(budget=budget, own_price=own, mean_shares=mean_shares, xi=xi, clamped=clamped)


def estimate_demand_groups(
    shares: np.ndarray, totals: np.ndarray, weights: np.ndarray, sizes: np.ndarray,
    quintiles: np.ndarray, cfg: RunConfig,
) -> tuple[list[GroupDemand], list[str], np.ndarray, int]:
    """One demand-system parameterisation per quintile x size-band cell.

    Cells with too few households fall back to their quintile, then to the
    whole sample, so estimation never fails on sparse cells. A fallback fit
    is made only when a cell first uses it.
    """
    per_capita = totals / sizes
    if cfg.engel_scale == "per_capita_month":
        ln_x = np.log(per_capita / cfg.months_per_period)
    else:
        ln_x = np.log(totals)
    design = np.column_stack([np.ones(len(totals)), ln_x, ln_x**2])

    def fit(rows) -> GroupDemand:
        return _engel_fit(shares[rows], design[rows], ln_x[rows], per_capita[rows],
                          weights[rows], cfg)

    lo, hi = cfg.size_bands
    band = np.where(sizes <= lo, 0, np.where(sizes <= hi, 1, 2))
    groups: list[GroupDemand] = []
    labels: list[str] = []
    assignment = np.zeros(len(totals), dtype=int)
    n_fallback = 0
    fallbacks: dict[int | None, GroupDemand] = {}  # by quintile, None for the whole sample
    for q in np.flatnonzero(np.bincount(quintiles)).tolist():
        q_sel = quintiles == q
        source = q if int(q_sel.sum()) >= MIN_GROUP_OBS else None
        for b in np.flatnonzero(np.bincount(band[q_sel])).tolist():
            sel = q_sel & (band == b)
            if int(sel.sum()) >= MIN_GROUP_OBS:
                groups.append(fit(sel))
            else:
                if source not in fallbacks:
                    fallbacks[source] = fit(q_sel if source is not None else slice(None))
                groups.append(fallbacks[source])
                n_fallback += 1
            assignment[sel] = len(groups) - 1
            labels.append(f"q{q + 1}_band{b + 1}")
    return groups, labels, assignment, n_fallback


# ---------------------------------------------------------------------------
# Scenario run
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
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
    elasticities: list[list] = field(default_factory=list)
    diagnostics: dict[str, float] = field(default_factory=dict)
    load_report: LoadReport | None = None
    carbon: CarbonTaxResult | None = None
    imputation: ImputationReport | None = None


def _emission_content_error(unit_emissions, categories) -> DataValidationError:
    j = int(np.argmax(np.nan_to_num(np.abs(unit_emissions), nan=np.inf)))  # the largest
    return DataValidationError(f"the emission content of {categories.ids[j]} is "
                               f"{unit_emissions[j]:.6g}, beyond the float range of household "
                               f"footprints: check files.mrio_f and files.fuels")


def run_scenario(cfg: RunConfig) -> ScenarioResult:
    """Execute the full pipeline described in the module docstring."""
    categories = CategorySet.default()
    survey = load_household_survey(cfg.files["households"], categories)
    frame, imputation = survey, None
    if cfg.impute:
        income = load_income_survey(cfg.files["income"])
        imputed = impute_expenditure_patterns(
            survey, income, categories, seed=cfg.seed, link=cfg.imputation_link
        )
        frame, imputation = imputed.survey, imputed.report
    ids, weights, sizes, exp = frame.ids, frame.weight, frame.size, frame.expenditure

    mrio = bridge = fuels = None
    if "bridge" in cfg.files:  # with the four mrio_* files: validate_config asks for all five
        mrio = load_mrio(cfg.files["mrio_z"], cfg.files["mrio_d"],
                         cfg.files["mrio_x"], cfg.files["mrio_f"])
        bridge = load_bridge(cfg.files["bridge"], categories)
    if "fuels" in cfg.files:
        fuels = load_fuels(cfg.files["fuels"])
        for category, fuel in cfg.fuel_map.items():
            if fuel not in fuels.fuels:
                raise DataValidationError(f"config key 'fuel_map.{category}': unknown fuel "
                                          f"{fuel!r}, not listed in files.fuels")

    k = len(categories)
    rel_inflation = np.zeros(k)
    if "prices" in cfg.files:
        rel_inflation = load_price_relatives(cfg.files["prices"], categories)

    fuel_map_idx = {categories.index(c): f for c, f in cfg.fuel_map.items()}
    vat, advalorem, excise, base_prices = (
        np.array([cfg.taxes.get(c, {}).get(name, default) for c in categories])
        for name, default in (("vat", 0.0), ("advalorem", 0.0), ("excise", 0.0),
                              ("base_price", 1.0))
    )
    rel_carbon = np.zeros(k)
    unit_emissions = np.zeros(k)
    carbon = None
    # a tax or emission content far beyond the model's range overflows here:
    # the checks below name it before inf or nan reach the households
    with np.errstate(over="ignore", invalid="ignore"):
        if mrio is not None:
            # one inter-industry pass gives both the price relatives and the
            # emission content of each category (used even without a tax)
            carbon = carbon_tax_scenario(
                cfg.carbon_tax, mrio, bridge,
                pass_through=cfg.pass_through, border_adjustment=cfg.border_adjustment,
                fuels=fuels, fuel_map=fuel_map_idx,
            )
            unit_emissions = carbon.unit_emissions
            # producer-side component runs through the indirect-tax schedule;
            # the combustion component is already a consumer-level change
            taxed = consumer_price(carbon.indirect_relatives, vat=vat, advalorem=advalorem,
                                   excise_per_unit=excise, base_price=base_prices)
            rel_carbon = compose_relatives(taxed, carbon.direct_relatives)
        rel_total = compose_relatives(rel_inflation, rel_carbon)
        fp_before = exp @ unit_emissions
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

    n = len(ids)
    totals = exp.sum(axis=1)
    shares = exp / totals[:, np.newaxis]

    eq = equivalise(totals, sizes, cfg.scale)
    # more groups than households leave one empty before any ranking
    quintiles = weighted_quantile_groups(eq, weights, cfg.groups) if cfg.groups <= n else None
    if quintiles is None or not np.bincount(quintiles, minlength=cfg.groups).all():
        raise DataValidationError(f"distribution.groups = {cfg.groups} leaves some groups "
                                  f"empty: the sample's {n} households and weights cannot fill them")

    pi_h = shares @ rel_total
    burden_h = pi_h * totals

    # carbon revenue and recycling
    carbon_burden_h = exp @ rel_carbon
    revenue = float(np.dot(weights, carbon_burden_h)) if cfg.carbon_tax > 0 else 0.0
    target_mask = quintiles < cfg.recycling_quantile
    transfers = recycle_revenue(revenue, cfg.recycling, weights, sizes=sizes,
                                target_mask=target_mask)

    groups, group_labels, assignment, n_fallback = estimate_demand_groups(
        shares, totals, weights, sizes, quintiles, cfg
    )

    p0 = np.ones(k)
    p1 = 1.0 + rel_total
    cv, ye, ye_net, fp_after = (np.zeros(n) for _ in range(4))
    infeasible = np.zeros(n, dtype=bool)
    n_cobb_douglas = 0

    emissions = unit_emissions if np.any(unit_emissions > 0) else None
    # one block of households per demand group, valued in one pass
    for gi, g in enumerate(groups):
        sel = assignment == gi
        exp_g, shares_g, totals_g = exp[sel], shares[sel], totals[sel]
        # households with no bought good whose budget elasticity times share is
        # positive (a subnormal share makes it 0) have no marginal budget to
        # calibrate: value them as Cobb-Douglas (phi = own shares, gamma = 0)
        cobb_douglas = ~np.any((exp_g > 0) & (g.budget * shares_g > 0), axis=1)[:, np.newaxis]
        n_cobb_douglas += int(cobb_douglas.sum())
        fit = les_calibrate_frisch(np.where(cobb_douglas, 1.0, g.budget), g.xi,
                                   shares_g, exp_g, totals_g)
        params = LesParameters(gamma=np.where(cobb_douglas, 0.0, fit.gamma), phi=fit.phi)
        try:
            value = les_valuation(p0, p1, totals_g, totals_g + transfers[sel], params, emissions)
        except InfeasibleBudgetError:
            # collect the households whose budget misses the committed
            # bundle after the change, across all groups, for one message
            short = params.committed_cost(p1) >= totals_g
            if not np.any(short):
                raise
            infeasible[sel] = short
            continue
        cv[sel], ye[sel], ye_net[sel] = value.cv, value.ye, value.ye_net
        if emissions is not None:
            fp_after[sel] = value.footprint_after
    if np.any(infeasible):
        first = ", ".join(map(repr, ids[np.flatnonzero(infeasible)[:5]].tolist()))
        raise InfeasibleBudgetError(f"{infeasible.sum()} of {n} households cannot afford their "
                                    f"committed bundle after the price change (first: {first})")

    if not np.isfinite(fp_after).all():
        raise _emission_content_error(unit_emissions, categories)
    cv_net = cv - transfers

    group_names = tuple(DEFAULT_REPORT_GROUPS.keys())
    group_cols = [
        [categories.index(c) for c in DEFAULT_REPORT_GROUPS[g]] for g in group_names
    ]
    share_g = np.column_stack([shares[:, cols].sum(axis=1) for cols in group_cols])
    burden_g = np.column_stack(
        [(exp[:, cols] * rel_total[cols]).sum(axis=1) for cols in group_cols]
    )

    household = {
        "id": ids,
        "weight": weights,
        "size": sizes,
        "quintile": quintiles,
        "x": totals,
        "equivalised": eq,
        "pi": pi_h,
        "burden": burden_h,
        "cv": cv,
        "transfer": transfers,
        "cv_net": cv_net,
        "ye": ye,
        "ye_net": ye_net,
        "fp_before": fp_before,
        "fp_after": fp_after,
    }
    for j, g in enumerate(group_names):
        household[f"share_{g}"] = share_g[:, j]
        household[f"burden_{g}"] = burden_g[:, j]

    # group-level demand parameters: calibrated at the group mean basket,
    # expressed per currency unit of total expenditure
    elasticity_rows: list[list] = []
    for label, g in zip(group_labels, groups):
        gp = les_calibrate_frisch(g.budget, g.xi, g.mean_shares, g.mean_shares, 1.0)
        for j, cat in enumerate(categories):
            if cfg.skip_empty_categories and g.mean_shares[j] <= 0:
                continue
            elasticity_rows.append([
                label, cat, g.mean_shares[j], g.budget[j], g.own_price[j],
                gp.phi[j], gp.gamma[j], g.xi,
            ])

    tables = build_tables(household, group_names, cfg)
    return ScenarioResult(
        categories=categories,
        group_names=group_names,
        relatives_total=rel_total,
        relatives_inflation=rel_inflation,
        relatives_carbon=rel_carbon,
        household=household,
        tables=tables,
        revenue=revenue,
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        elasticities=elasticity_rows,
        diagnostics={
            "cobb_douglas_fallbacks": n_cobb_douglas,
            "group_fallbacks": n_fallback,
            "elasticity_clamps": sum(g.clamped for g in groups),
            "dropped_zero_total": survey.report.n_dropped_zero_total,
        },
        load_report=survey.report,
        carbon=carbon,
        imputation=imputation,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def build_tables(hh: dict[str, np.ndarray], group_names, cfg: RunConfig):
    """Aggregate tables from the per-household frame (also used by `report`)."""
    w = hh["weight"]
    x = hh["x"]
    eq = hh["equivalised"]
    quintiles = hh["quintile"].astype(int)
    n_groups = int(quintiles.max()) + 1
    agg_x = float(np.dot(w, x))

    share_g = np.column_stack([hh[f"share_{g}"] for g in group_names])
    burden_g = np.column_stack([hh[f"burden_{g}"] for g in group_names])

    # t2: aggregate budget shares, group rates, contribution decomposition
    t2_rows = []
    for j, g in enumerate(group_names):
        exp_g = float(np.dot(w, x * share_g[:, j]))
        b_g = float(np.dot(w, burden_g[:, j]))
        share = exp_g / agg_x
        rate = b_g / exp_g if exp_g > 0 else 0.0
        t2_rows.append([g, share, rate, b_g / agg_x])
    total_rate = float(np.dot(w, hh["burden"])) / agg_x
    t2_rows.append(["total", 1.0, total_rate, total_rate])
    t2 = (["group", "budget_share", "avg_rate", "contribution"], t2_rows)

    # t3: budget shares by quintile plus relative expenditure
    mean_eq = float(np.dot(w, eq)) / float(w.sum())
    t3_rows = []
    for q in range(n_groups):
        sel = quintiles == q
        wq = w[sel]
        exp_q = float(np.dot(wq, x[sel]))
        row = [f"q{q + 1}"]
        row += [float(np.dot(wq, x[sel] * share_g[sel, j])) / exp_q for j in range(len(group_names))]
        row.append((float(np.dot(wq, eq[sel])) / float(wq.sum())) / mean_eq)
        t3_rows.append(row)
    avg_row = ["average"]
    avg_row += [float(np.dot(w, x * share_g[:, j])) / agg_x for j in range(len(group_names))]
    avg_row.append(1.0)
    t3_rows.append(avg_row)
    t3 = (["quintile", *group_names, "relative_expenditure"], t3_rows)

    # t5: household-weighted group contributions to inflation by quintile
    rate_contrib = burden_g / x[:, np.newaxis]
    t5_rows = []
    for q in range(n_groups):
        sel = quintiles == q
        wq_sum = float(w[sel].sum())
        cells = [float(np.dot(w[sel], rate_contrib[sel, j])) / wq_sum for j in range(len(group_names))]
        t5_rows.append([f"q{q + 1}", *cells, sum(cells)])
    cells = [float(np.dot(w, rate_contrib[:, j])) / float(w.sum()) for j in range(len(group_names))]
    t5_rows.append(["average", *cells, sum(cells)])
    t5 = (["quintile", *group_names, "average"], t5_rows)

    # t6: progressivity decomposition on equivalised values (burdens scaled
    # by the same equivalence factor as expenditure)
    scale_factor = eq / x
    rows = progressivity_table(eq, w, burden_g * scale_factor[:, np.newaxis], list(group_names))
    t6_rows = [
        [r.name, r.ci_pre, r.ci_burden, r.ci_adjusted, r.rs, r.kakwani,
         r.avg_rate, r.reranking, r.contribution_to_k]
        for r in rows
    ]
    t6 = (
        ["group", "ci_pre", "ci_burden", "ci_adjusted", "rs", "kakwani",
         "avg_rate", "reranking", "contribution_to_k"],
        t6_rows,
    )

    # t7: welfare loss decomposition into fixed-basket and behavioural parts
    t7_rows = []
    for q in range(n_groups):
        sel = quintiles == q
        xq = float(np.dot(w[sel], x[sel]))
        infl = float(np.dot(w[sel], hh["burden"][sel])) / xq
        rel_cv = float(np.dot(w[sel], hh["cv"][sel])) / xq
        t7_rows.append([f"q{q + 1}", infl, rel_cv, rel_cv - infl])
    infl = float(np.dot(w, hh["burden"])) / agg_x
    rel_cv = float(np.dot(w, hh["cv"])) / agg_x
    t7_rows.append(["total", infl, rel_cv, rel_cv - infl])
    t7 = (["quintile", "inflation", "relative_cv", "behaviour"], t7_rows)

    # t8/t9: Atkinson welfare before and after, on equivalised equivalent income
    ye_eq = equivalise(hh["ye_net"], hh["size"], cfg.scale)
    pre = atkinson(eq, w, cfg.atkinson_epsilon)
    if pre.yede == 0:  # the index rounds to 1; t8 and t9 divide by 1 - index
        raise NumericalModelError(f"distribution.atkinson_epsilon = {cfg.atkinson_epsilon:g}: "
                                  "the Atkinson index of equivalised expenditure rounds to 1")
    post = atkinson(ye_eq, w, cfg.atkinson_epsilon)
    t8 = (
        ["state", "atkinson", "mean_ye", "yede"],
        [
            ["pre", pre.index, pre.mean, pre.yede],
            ["post", post.index, post.mean, post.yede],
            ["relative_change", (post.index - pre.index) / pre.index if pre.index != 0 else 0.0,
             post.mean / pre.mean - 1.0, post.yede / pre.yede - 1.0],
        ],
    )
    decomp = welfare_decomposition(pre, post)
    t9 = (
        ["component", "value"],
        [
            ["equity", decomp["equity"]],
            ["efficiency", decomp["efficiency"]],
            ["interaction", decomp["interaction"]],
            ["total", decomp["total"]],
        ],
    )
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


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_tables(tables, outdir) -> dict[str, Path]:
    """Write each aggregate table to ``<name>.csv`` in ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        p = outdir / f"{name}.csv"
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(c) for c in row) + "\n")
        paths[name] = p
    return paths


def emit_reports(result: ScenarioResult, outdir) -> dict[str, Path]:
    """Write the aggregate tables, the per-household frame and a run manifest."""
    outdir = Path(outdir)
    relatives = (result.relatives_total, result.relatives_inflation, result.relatives_carbon)
    paths = write_tables({
        **result.tables,
        "consumer_prices": (["category", "relative", "inflation", "carbon"],
                            [[c, *(f"{r[j]:.12g}" for r in relatives)]
                             for j, c in enumerate(result.categories)]),
        "elasticities": (["group", "category", "share", "eta", "eta_own", "phi", "gamma", "xi"],
                         result.elasticities),
    }, outdir)

    # each spec gives the text that _format_cell (or {:.6f} for money
    # columns) gives the column's cells; budget shares keep format_value's
    # 12 digits, so that ``report`` rebuilds t3 as ``run`` wrote it
    hh = result.household
    p = outdir / "households.csv"
    columns = list(hh.keys())
    specs = [
        "%s" if c == "id"
        else "%.6f" if c in MONEY_COLUMNS or c.startswith("burden_")
        else "%d" if c == "quintile"
        else "%.12g" if c.startswith("share_")
        else "%.6g"
        for c in columns
    ]
    with open(p, "w") as fh:
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, specs, [hh[c] for c in columns], "\n")
    paths["households"] = p

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
    p.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths["manifest"] = p
    return paths


def rebuild_tables_from_csv(households_csv, cfg: RunConfig):
    """Recompute every aggregate table from a stored per-household frame."""
    needed = {"weight", "size", "quintile", "x", "equivalised", "pi", "burden", "cv", "ye_net"}

    def number_columns(header, ids):
        missing = needed - set(header)
        if missing:
            raise DataValidationError(f"{households_csv}: missing columns {sorted(missing)}")
        return [j for j, c in enumerate(header) if c != "id"]

    header, ids, block = read_labelled_table(households_csv, number_columns)
    del ids  # the tables need no ids
    hh = dict(zip([c for c in header if c != "id"], block.T))
    group_names = tuple(
        c[len("share_"):] for c in header if c.startswith("share_")
    )
    return build_tables(hh, group_names, cfg), group_names
