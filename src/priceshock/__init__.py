"""priceshock: microsimulation of price shocks on household welfare.

Propagates cost shocks (observed inflation, carbon pricing, indirect
taxes) through an inter-industry economy to consumer prices, models
household demand responses with a calibrated linear expenditure system,
and quantifies the distributional and welfare impact across the
expenditure distribution.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .data import (
    BridgingMatrix,
    CategorySet,
    FuelTable,
    HouseholdRecord,
    IncomeRecord,
    MrioTable,
    PriceScenario,
    load_bridge,
    load_fuels,
    load_household_survey,
    load_income_survey,
    load_mrio,
    load_price_relatives,
    write_household_survey,
)
from .demand import (
    ElasticitySet,
    LesParameters,
    behavioural_emissions,
    budget_elasticity,
    compensating_variation,
    equivalent_income,
    equivalent_variation,
    frisch_parameter,
    frisch_parameter_lahiri,
    les_calibrate,
    les_calibrate_frisch,
    les_demand,
    les_valuation,
    price_elasticities,
)
from .errors import (
    ConvergenceError,
    DataValidationError,
    InfeasibleBudgetError,
    NonProductiveEconomyError,
    NumericalModelError,
    PriceShockError,
    SeparationError,
)
from .inputoutput import (
    CarbonIntensity,
    LeontiefInverse,
    TechnologyMatrix,
    bridge_to_categories,
    bridge_to_industry,
    cost_passthrough,
    embodied_intensity,
    energy_industry_intensity,
    household_footprint,
    leontief_inverse,
    leontief_residual,
    leontief_solve,
    leontief_solve_residual,
    sector_intensity,
    technology_matrix,
)
from .metrics import (
    AtkinsonResult,
    WeightedSample,
    atkinson,
    concentration,
    distributional_characteristic,
    equivalise,
    gini,
    household_inflation,
    progressivity_table,
    stable_order,
    weighted_quantile_groups,
    welfare_decomposition,
    welfare_weights,
)
from .scenario import (
    RunConfig,
    ScenarioResult,
    carbon_tax_scenario,
    compose_relatives,
    consumer_price,
    emit_reports,
    parse_config,
    recycle_revenue,
    run_scenario,
)

# the submodule of each name imported on first read: no command but
# ``priceshock fixtures`` calls the fixtures, and only a run that imputes
# (or ``priceshock impute``) the imputation
_LAZY = {
    **dict.fromkeys(("canonical_fixtures", "write_fixture_bundle"), "fixtures"),
    **dict.fromkeys(("BinaryFit", "RegressionFit", "binary_fit", "calibrate_income",
                     "chauvenet_outliers", "impute_budget_shares", "impute_expenditure_patterns",
                     "impute_participation", "impute_total_expenditure", "wls_fit"),
                    "imputation"),
}


def __getattr__(name: str):
    """Import ``fixtures`` or ``imputation`` when it or one of its names in
    ``_LAZY`` is first read (PEP 562)."""
    if name in _LAZY or name in _LAZY.values():
        from importlib import import_module

        module = _LAZY.get(name, name)
        loaded = import_module(f"{__name__}.{module}")
        return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the API's classes, functions and constants, not the submodules that
# importing them binds here
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_LAZY))
