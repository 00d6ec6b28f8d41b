"""``estimate_demand_groups`` against the Engel-fit oracle
(``oracles.engel_groups_by_loop``): one ``wls_fit`` per cell and category,
fallback cells included, and each elasticity from its formula.

xi must match within 1e-12 relative, and each budget elasticity within
1e-12 of the sum of its terms' magnitudes (``eta_scale``): the fits of one
category and of all categories at once round differently, and slope and
curvature cancel in an elasticity near 1. The own-price elasticities must
match the oracle's formula, applied to the run's budget elasticities,
within 1e-12 relative. The clamp counts, the fallback count, the group
labels and each household's group must match exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import engel_groups_by_loop, own_price
from priceshock.scenario import (MIN_GROUP_OBS, estimate_demand_groups, load_inputs, parse_config,
                                 rank_households)

RTOL = 1e-12


@pytest.fixture(scope="module")
def demo_cfg(bundle_dir):
    return parse_config(bundle_dir / "config.txt")


def assert_groups_match_the_oracle(exp, totals, weights, sizes, quintiles, cfg):
    groups = estimate_demand_groups(exp, totals, weights, sizes, quintiles, cfg)
    cells = engel_groups_by_loop(exp / totals[:, np.newaxis], totals, weights, sizes, quintiles,
                                 cfg)
    assert groups.labels.tolist() == [cell["label"] for cell in cells]
    held = [np.count_nonzero(weights[cell["rows"]] > 0) for cell in cells]
    assert groups.n_fallback == sum(count < MIN_GROUP_OBS for count in held)
    assert len(groups.xi) == len(cells)
    for g, cell in enumerate(cells):
        assert np.flatnonzero(groups.of == g).tolist() == cell["rows"].tolist(), cell["label"]
        budget = groups.budget[g]
        # an elasticity near 1 is a small sum of large terms: its error is
        # bounded by theirs
        assert np.all(np.abs(budget - cell["budget"]) <= RTOL * cell["eta_scale"]), cell["label"]
        assert groups.xi[g] == pytest.approx(cell["xi"], rel=RTOL, abs=0), cell["label"]
        np.testing.assert_allclose(groups.own_price[g],
                                   own_price(budget, cell["mean_shares"], cell["xi"])[0],
                                   rtol=RTOL, atol=0, err_msg=cell["label"])
        assert groups.clamped[g] == cell["clamped"], cell["label"]
    return cells


@st.composite
def samples(draw):
    """A survey of 30 to 150 households over 2 to 6 categories: lognormal
    spending with about a third of the cells zero, sizes 1 to 8 and quintile
    probabilities drawn too, so that cells (and sometimes whole quintiles)
    fall short of ``MIN_GROUP_OBS``; in some, a fifth of the weights are 0."""
    n = draw(st.integers(30, 150))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exp = rng.lognormal(5.0, 1.0, (n, k)) * (rng.random((n, k)) > draw(st.sampled_from([0.0, 0.3])))
    exp[:, 0] += rng.lognormal(5.0, 0.5, n)  # every household spends something
    if draw(st.booleans()):
        exp[:, -1] = 0.0  # a category nobody buys
    totals = exp.sum(axis=1)
    groups = draw(st.integers(1, 5))
    p = rng.dirichlet(np.ones(groups))
    quintiles = np.sort(rng.choice(groups, n, p=p))
    quintiles = np.searchsorted(np.unique(quintiles), quintiles)  # no empty quintile
    rng.shuffle(quintiles)
    sizes = rng.integers(1, 9, n).astype(float)
    weights = rng.uniform(0.5, 20.0, n)
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0  # counted by neither
    scale = draw(st.sampled_from(["total", "per_capita_month"]))
    return exp, totals, weights, sizes, quintiles, scale


@settings(max_examples=150, deadline=None)
@given(sample=samples())
def test_drawn_surveys_match_the_engel_oracle(demo_cfg, sample):
    exp, totals, weights, sizes, quintiles, scale = sample
    cfg = dataclasses.replace(demo_cfg, engel_scale=scale)
    assert_groups_match_the_oracle(exp, totals, weights, sizes, quintiles, cfg)


def test_fallbacks_to_the_quintile_and_to_the_whole_sample(demo_cfg):
    """Quintile 1 has 12 households, 11 in band 1 and one in band 3 (its
    fit is quintile 1's); quintile 2 has 5, so both its cells take the
    whole sample's fit."""
    rng = np.random.default_rng(7)
    n = 17
    exp = rng.lognormal(5.0, 1.0, (n, 3))
    totals = exp.sum(axis=1)
    sizes = np.array([1.0] * 11 + [8.0] + [1.0, 1.0, 4.0, 4.0, 4.0])
    quintiles = np.array([0] * 12 + [1] * 5)
    cells = assert_groups_match_the_oracle(exp, totals, rng.uniform(1.0, 2.0, n), sizes,
                                           quintiles, demo_cfg)
    assert [(cell["label"], len(cell["rows"])) for cell in cells] == [
        ("q1_band1", 11), ("q1_band3", 1), ("q2_band1", 2), ("q2_band2", 3)]


def test_demo_groups_match_the_engel_oracle(demo_cfg):
    frame = load_inputs(demo_cfg).frame
    totals, _, quintiles = rank_households(demo_cfg, frame)
    cells = assert_groups_match_the_oracle(frame.expenditure, totals, frame.weight, frame.size,
                                           quintiles, demo_cfg)
    assert sum(cell["clamped"] for cell in cells) == 59  # the demo's clamp count
