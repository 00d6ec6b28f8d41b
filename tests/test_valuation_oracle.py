"""The valued household frame of a whole run against references that share
none of the valuation kernel's code paths.

A per-household loop over the textbook two-exponential forms
(``les_reference``: utility and spending through the log price index, ln
phi included) and the scalar ``les_demand`` values each household from its
group's elasticities; ``run_scenario``'s frame must match it within 1e-12
relative. The frame's bits must not depend on how many households one
valuation pass takes (``VALUE_BLOCK_ROWS``).
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from les_reference import compensating_variation, equivalent_income, household_parameters
from priceshock import scenario
from priceshock.data import (CategorySet, HouseholdSurvey, load_household_survey,
                             write_household_survey)
from priceshock.demand import les_demand
from priceshock.scenario import (estimate_demand_groups, form_prices, load_inputs,
                                 parse_config, rank_households, run_scenario)

RTOL = 1e-12


def frame_by_loop(cfg, household):
    """cv, ye, ye_net and fp_after of every household, one at a time, from
    the run's prices, demand groups and transfers."""
    inputs = load_inputs(cfg)
    prices = form_prices(cfg, inputs)
    frame = inputs.frame
    totals, _, quintiles = rank_households(cfg, frame)
    groups = estimate_demand_groups(frame.expenditure, totals, frame.weight, frame.size,
                                    quintiles, cfg)
    p0, p1 = np.ones(len(prices.total)), 1.0 + prices.total
    want = {name: np.zeros(len(totals)) for name in ("cv", "ye", "ye_net", "fp_after")}
    for h, basket in enumerate(frame.expenditure):
        g = groups.of[h]
        params = household_parameters(groups.budget[g], groups.xi[g], basket)
        x, net = basket.sum(), basket.sum() + household["transfer"][h]
        want["cv"][h] = compensating_variation(p0, p1, x, params)
        want["ye"][h] = equivalent_income(p0, p1, x, params)
        want["ye_net"][h] = equivalent_income(p0, p1, net, params)
        want["fp_after"][h] = float(np.dot(les_demand(p1, net, params), prices.unit_emissions))
    return want


def assert_frame_matches_the_loop(cfg):
    household = run_scenario(cfg).household
    want = frame_by_loop(cfg, household)
    for name, values in want.items():
        np.testing.assert_allclose(household[name], values, rtol=RTOL, atol=0, err_msg=name)
    # cv_net = cv - transfer crosses zero: its error is bounded by the terms'
    cv_net = want["cv"] - household["transfer"]
    scale = np.abs(want["cv"]) + np.abs(household["transfer"])
    assert np.all(np.abs(household["cv_net"] - cv_net) <= RTOL * scale)


def test_demo_frame_matches_the_loop(bundle_dir):
    assert_frame_matches_the_loop(parse_config(bundle_dir / "config.txt"))


def test_demo_with_a_carbon_tax_and_recycling_matches_the_loop(bundle_dir):
    cfg = dataclasses.replace(parse_config(bundle_dir / "config.txt"), carbon_tax=0.5,
                              recycling="per_capita")
    assert_frame_matches_the_loop(cfg)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 300), groups=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       carbon_tax=st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.8),
       pass_through=st.floats(0.0, 1.0), border_adjustment=st.booleans(),
       recycling=st.sampled_from(scenario.RECYCLING_SCHEMES),
       taxes=st.dictionaries(st.sampled_from(CategorySet.default().ids),
                             st.fixed_dictionaries({"vat": st.floats(0.0, 0.3),
                                                    "excise": st.floats(0.0, 0.2)}),
                             max_size=4))
def test_drawn_surveys_match_the_loop(bundle_dir, n, groups, seed, carbon_tax, pass_through,
                                      border_adjustment, recycling, taxes):
    """Surveys of 10-300 households drawn from the demo survey, with 2-4
    quantile groups and so one or more demand-group fits, under drawn carbon
    and tax settings."""
    cfg = parse_config(bundle_dir / "config.txt")
    base = load_household_survey(cfg.files["households"], CategorySet.default())
    survey = drawn_survey(base, n, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "households.csv"
        write_household_survey(path, survey, CategorySet.default())
        assert_frame_matches_the_loop(dataclasses.replace(
            cfg, files={**cfg.files, "households": path}, groups=min(groups, n // 5),
            carbon_tax=carbon_tax, pass_through=pass_through, recycling=recycling,
            border_adjustment=border_adjustment, taxes=taxes))


def drawn_survey(base, n, rng):
    """n households drawn from ``base``: rows resampled, each spending cell
    times exp(0.3 N(0, 1))."""
    rows = rng.integers(0, len(base.ids), n)
    return HouseholdSurvey(
        ids=np.array([f"h{i}" for i in range(n)]), weight=base.weight[rows],
        size=base.size[rows], income=None, demographic_names=base.demographic_names,
        demographics=base.demographics[rows],
        expenditure=base.expenditure[rows] * np.exp(0.3 * rng.standard_normal((n, 19))),
        report=base.report)


@pytest.fixture(scope="module")
def large_config(bundle_dir, tmp_path_factory):
    """The demo scenario with a carbon tax and recycling on 2,500 drawn
    households: two passes at the default block size."""
    cfg = parse_config(bundle_dir / "config.txt")
    base = load_household_survey(cfg.files["households"], CategorySet.default())
    path = tmp_path_factory.mktemp("large") / "households.csv"
    write_household_survey(path, drawn_survey(base, 2500, np.random.default_rng(5)),
                           CategorySet.default())
    return dataclasses.replace(cfg, files={**cfg.files, "households": path}, carbon_tax=0.5,
                               recycling="per_capita")


def test_large_survey_frame_matches_the_loop(large_config):
    assert_frame_matches_the_loop(large_config)


@pytest.mark.parametrize("rows", [1, 7, None])
def test_frame_bits_do_not_depend_on_the_block_size(large_config, rows):
    """Every column of the frame has the same bits whether one valuation
    pass takes 1, 7, 2,048 (the default) or all households: each value is a
    row-wise calculation, the footprint's sum included."""
    default = run_scenario(large_config).household
    with mock.patch.object(scenario, "VALUE_BLOCK_ROWS", rows or len(default["x"])):
        blocked = run_scenario(large_config).household
    assert default.keys() == blocked.keys()
    for name, values in default.items():
        assert values.tobytes() == blocked[name].tobytes(), name
