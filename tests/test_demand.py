"""Demand system: hand-derived calibration values, duality oracles, properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from priceshock.demand import (
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
from priceshock.errors import DataValidationError, InfeasibleBudgetError
from priceshock.fixtures import les_fixture

from les_reference import expenditure_needed, indirect_utility
from oracles import laspeyres_cost


@pytest.fixture(scope="module")
def calibrated():
    f = les_fixture()
    w = np.array(f.shares)
    eta = np.array(f.budget_elasticities)
    own = np.diag(price_elasticities(eta, w, f.xi))
    params = les_calibrate(own, eta, w, np.array(f.quantities), f.total)
    return f, params


def random_calibration(rng, n=None):
    """A random consistent instance: Engel aggregation exact, gamma >= 0."""
    n = n or int(rng.integers(2, 7))
    w = rng.dirichlet(np.ones(n) * 2.0)
    eta = rng.uniform(0.3, 1.8, n)
    eta /= float(w @ eta)  # enforce aggregation exactly
    xi = float(rng.uniform(-4.0, -1.3))
    total = float(rng.uniform(50, 500))
    q = w * total
    own = np.diag(price_elasticities(eta, w, xi))
    own = np.minimum(own, -1e-6)
    params = les_calibrate(own, eta, w, q, total, renormalize=True)
    return w, eta, xi, total, q, params


class TestBudgetElasticity:
    def test_flat_engel_curve_is_unit_elastic(self):
        assert budget_elasticity(0.3, 0.0, 0.0, 8.0) == 1.0

    def test_food_value_from_published_share(self):
        # 1 + (-0.108)/0.45 = 0.76
        assert abs(budget_elasticity(0.45, -0.108, 0.0, 0.0) - 0.76) < 1e-12

    def test_quadratic_term(self):
        # 1 + (0.1 + 2*0.01*5)/0.2 = 2.0
        assert abs(budget_elasticity(0.2, 0.1, 0.01, 5.0) - 2.0) < 1e-12

    def test_zero_share_rejected(self):
        with pytest.raises(DataValidationError):
            budget_elasticity(0.0, 0.1, 0.0, 5.0)


class TestFrischParameter:
    def test_zero_consumption_hand_value(self):
        # -exp(9.2 - 0.973*ln(7000)) = -1.7957
        expected = -math.exp(9.2 - 0.973 * math.log(7000.0))
        got = frisch_parameter(0.0, 1.0)
        assert got == expected
        assert abs(got - (-1.796)) < 1e-3

    def test_cap_binds_for_rich_groups(self):
        assert frisch_parameter(1e9, 1.0) == -1.3

    def test_monotone_towards_cap(self):
        values = [frisch_parameter(c, 100.0) for c in (0.0, 1e4, 1e5, 1e6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= -1.3 for v in values)

    def test_bad_arguments(self):
        with pytest.raises(DataValidationError):
            frisch_parameter(100.0, 0.0)
        with pytest.raises(DataValidationError):
            frisch_parameter(100.0, 1.0, shift=-200.0)

    @pytest.mark.parametrize("curve", [{"level": 800.0}, {"level": 1e308},
                                       {"slope": -1e19}, {"slope": 0.0, "shift": math.inf}])
    def test_curve_beyond_the_float_range_names_its_keys(self, curve):
        with pytest.raises(DataValidationError, match="elasticity.frisch_level, "
                           "elasticity.frisch_slope and elasticity.frisch_shift"):
            frisch_parameter(100.0, 1.0, **curve)

    def test_curve_at_the_float_limit_still_prices(self):
        # the largest exponent below ln(max float) is representable
        assert frisch_parameter(0.0, 1.0, level=709.0, slope=0.0) == -math.exp(709.0)
        assert frisch_parameter(0.0, 1.0, level=-800.0) == -1.3

    def test_lahiri_alternative(self):
        gdp = 30000.0
        expected = -1.0 / (0.485829 + 0.104019 * math.log(gdp))
        assert frisch_parameter_lahiri(gdp) == expected
        assert frisch_parameter_lahiri(1e5) > frisch_parameter_lahiri(1e3)  # toward zero
        with pytest.raises(DataValidationError):
            frisch_parameter_lahiri(0.0)


class TestPriceElasticities:
    def test_own_price_hand_values(self):
        f = les_fixture()
        m = price_elasticities(np.array(f.budget_elasticities), np.array(f.shares), f.xi)
        # -0.8*0.5*(1 - 0.8/1.5) + 0.8/(-1.5) = -0.72
        assert abs(m[0, 0] - (-0.72)) < 1e-12
        # eta_3 = 1.5 = -xi kills the first term: 1.5/(-1.5) = -1
        assert abs(m[2, 2] - (-1.0)) < 1e-12

    def test_zero_budget_elasticity_zeroes_the_row(self):
        m = price_elasticities(np.array([0.0, 1.0]), np.array([0.5, 0.5]), -2.0)
        assert np.all(m[0] == 0)

    def test_zero_xi_rejected(self):
        with pytest.raises(DataValidationError):
            price_elasticities(np.array([1.0]), np.array([1.0]), 0.0)

    def test_elasticity_set_invariants(self):
        f = les_fixture()
        w = np.array(f.shares)
        eta = np.array(f.budget_elasticities)
        es = ElasticitySet(budget=eta, matrix=price_elasticities(eta, w, f.xi),
                           shares=w, xi=f.xi)
        assert abs(float(es.shares @ es.budget) - 1.0) < 1e-6
        with pytest.raises(DataValidationError, match="cap"):
            ElasticitySet(budget=eta, matrix=np.zeros((3, 3)), shares=w, xi=-1.0)
        with pytest.raises(DataValidationError, match="Engel"):
            ElasticitySet(budget=eta * 1.2, matrix=np.zeros((3, 3)), shares=w, xi=-1.5)


class TestCalibration:
    def test_hand_values(self, calibrated):
        _, params = calibrated
        assert np.allclose(params.phi, [0.40, 0.30, 0.30], atol=1e-12)
        assert np.allclose(params.gamma, [70.0 / 3.0, 10.0, 0.0], atol=1e-9)

    def test_unit_elastic_good_has_no_committed_quantity(self):
        params = les_calibrate(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                               np.array([0.5, 0.5]), np.array([10.0, 10.0]), 20.0)
        assert np.all(params.gamma == 0)

    def test_phi_sums_to_one_under_engel_aggregation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            *_, params = random_calibration(rng)
            assert abs(params.phi.sum() - 1.0) < 1e-12

    def test_base_reproduction(self, calibrated):
        f, params = calibrated
        assert np.allclose(les_demand(np.ones(3), f.total, params), f.quantities,
                           rtol=1e-9)

    def test_infeasible_supernumerary_rejected(self):
        # own-price near zero forces committed quantities near the basket itself
        with pytest.raises(InfeasibleBudgetError):
            les_calibrate(np.array([-0.01, -0.01, -0.01]), np.array([0.8, 1.0, 1.5]),
                          np.array([0.5, 0.3, 0.2]), np.array([50.0, 30.0, 20.0]), 100.0)

    def test_positive_own_price_rejected(self):
        with pytest.raises(DataValidationError):
            les_calibrate(np.array([0.1, -1.0]), np.array([1.0, 1.0]),
                          np.array([0.5, 0.5]), np.array([10.0, 10.0]), 20.0)

    def test_negative_committed_quantities_are_retained(self):
        # own-price below -1 gives gamma < 0; the system stays well defined
        params = les_calibrate(np.array([-1.5, -0.5]), np.array([1.0, 1.0]),
                               np.array([0.5, 0.5]), np.array([10.0, 10.0]), 20.0,
                               renormalize=True)
        assert params.gamma[0] < 0
        q = les_demand(np.array([1.1, 1.0]), 20.0, params)
        assert abs(float(np.array([1.1, 1.0]) @ q) - 20.0) < 1e-12


class TestDemand:
    def test_hand_values_at_new_prices(self, calibrated):
        f, params = calibrated
        p1 = np.array([1.2, 1.0, 1.0])
        q = les_demand(p1, f.total, params)
        assert np.allclose(q, [44.0, 28.6, 18.6], atol=1e-9)
        assert abs(float(p1 @ q) - 100.0) < 1e-12

    def test_adding_up_on_random_instances(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(400):
            *_, total, _, params = random_calibration(rng)
            p = rng.uniform(0.5, 2.0, len(params.phi))
            if params.committed_cost(p) >= total:  # genuinely infeasible draw
                continue
            q = les_demand(p, total, params)
            assert abs(float(p @ q) / total - 1.0) < 1e-10
            checked += 1
        assert checked >= 300

    def test_homogeneity_degree_zero(self, calibrated):
        f, params = calibrated
        p = np.array([1.2, 0.9, 1.4])
        q1 = les_demand(p, f.total, params)
        q2 = les_demand(2.0 * p, 2.0 * f.total, params)
        assert np.allclose(q1, q2, rtol=1e-12)

    def test_infeasible_budget_raises(self, calibrated):
        _, params = calibrated
        with pytest.raises(InfeasibleBudgetError):
            les_demand(np.ones(3), 30.0, params)  # committed bundle costs 33.33

    def test_nonpositive_prices_rejected(self, calibrated):
        _, params = calibrated
        with pytest.raises(DataValidationError):
            les_demand(np.array([1.0, 0.0, 1.0]), 100.0, params)


class TestElasticityMatrixConsistency:
    def test_finite_difference_elasticities_match_formula(self):
        # central differences around the base point against the analytic matrix
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(100):
            w, eta, xi, total, q, params = random_calibration(rng)
            n = len(w)
            analytic = price_elasticities(eta, w, xi)
            for j in range(n):
                p_up = np.ones(n)
                p_dn = np.ones(n)
                p_up[j] += h
                p_dn[j] -= h
                dq = (les_demand(p_up, total, params) - les_demand(p_dn, total, params)) / (2 * h)
                fd = dq / q  # dq/dp * p/q at p=1
                assert np.max(np.abs(fd - analytic[:, j])) < 1e-4


def grid_expenditure(prices, utility, params, lo=1e-6, n_grid=4000):
    """Independent expenditure-function oracle for two active goods.

    Minimises p1 x1 + p2 x2 subject to the utility constraint by gridding
    the first good's supernumerary consumption.
    """
    a = np.flatnonzero(params.phi)
    assert len(a) == 2
    g1, g2 = params.gamma[a]
    f1, f2 = params.phi[a]
    p1, p2 = prices[a]
    fixed = params.committed_cost(prices) - p1 * g1 - p2 * g2
    s1 = np.linspace(lo, 60.0 * utility ** (1.0 / (f1 + f2)), n_grid)[1:]
    s2 = (utility / s1**f1) ** (1.0 / f2)
    cost = p1 * (g1 + s1) + p2 * (g2 + s2) + fixed
    return float(cost.min())


class TestWelfare:
    def test_cv_hand_value(self, calibrated):
        f, params = calibrated
        p0, p1 = np.ones(3), np.array([1.2, 1.0, 1.0])
        cv = compensating_variation(p0, p1, f.total, params)
        # closed form: 38 + (200/3) * 1.2^0.4 - 100
        expected = 38.0 + (200.0 / 3.0) * 1.2**0.4 - 100.0
        assert abs(cv - expected) < 1e-9
        assert abs(cv - 9.71) < 0.01
        laspeyres = laspeyres_cost(p0, p1, np.array(f.quantities))
        assert abs(laspeyres - 10.0) < 1e-12
        assert cv <= laspeyres
        assert abs((laspeyres - cv) - 0.29) < 0.01  # behavioural saving

    def test_cv_zero_for_unchanged_prices(self, calibrated):
        f, params = calibrated
        assert abs(compensating_variation(np.ones(3), np.ones(3), f.total, params)) < 1e-9

    def test_cobb_douglas_limit(self):
        params = LesParameters(gamma=np.zeros(3), phi=np.array([0.4, 0.3, 0.3]))
        p0 = np.ones(3)
        p1 = np.array([1.3, 1.1, 0.9])
        cv = compensating_variation(p0, p1, 100.0, params)
        expected = 100.0 * (np.prod(p1**params.phi) - 1.0)
        assert abs(cv - expected) < 1e-9

    def test_equivalent_income_hand_value(self, calibrated):
        f, params = calibrated
        p0, p1 = np.ones(3), np.array([1.2, 1.0, 1.0])
        ye = equivalent_income(p0, p1, f.total, params)
        expected = 100.0 / 3.0 + 62.0 / 1.2**0.4
        assert abs(ye - expected) < 1e-9
        assert abs(ye - 90.97) < 0.02

    def test_equivalent_income_identity_at_reference(self, calibrated):
        f, params = calibrated
        assert abs(equivalent_income(np.ones(3), np.ones(3), f.total, params) - f.total) < 1e-9

    def test_equivalent_income_decreases_in_prices(self, calibrated):
        f, params = calibrated
        p0 = np.ones(3)
        ys = [equivalent_income(p0, np.array([1.0 + d, 1.0, 1.0]), f.total, params)
              for d in (0.0, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_ev_below_cv_for_price_increases(self, calibrated):
        f, params = calibrated
        p0, p1 = np.ones(3), np.array([1.2, 1.0, 1.0])
        ev = equivalent_variation(p0, p1, f.total, params)
        cv = compensating_variation(p0, p1, f.total, params)
        assert 0 < ev < cv

    def test_cv_bounds_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w, eta, xi, total, q, params = random_calibration(rng)
            p0 = np.ones(len(w))
            p1 = 1.0 + rng.uniform(0.0, 0.5, len(w))
            cv = compensating_variation(p0, p1, total, params)
            assert -1e-9 <= cv <= laspeyres_cost(p0, p1, q) + 1e-9

    def test_expenditure_function_against_grid_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w, eta, xi, total, q, params = random_calibration(rng, n=2)
            p1 = 1.0 + rng.uniform(0.0, 0.4, 2)
            u0 = indirect_utility(np.ones(2), total, params)
            closed = expenditure_needed(p1, u0, params)
            oracle = grid_expenditure(p1, u0, params)
            assert oracle >= closed - 1e-9  # grid cannot beat the true minimum
            assert abs(oracle - closed) / closed < 1e-3

    def test_ev_leq_cv_via_grid_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w, eta, xi, total, q, params = random_calibration(rng, n=2)
            p0 = np.ones(2)
            p1 = 1.0 + rng.uniform(0.0, 0.4, 2)
            u0 = indirect_utility(p0, total, params)
            u1 = indirect_utility(p1, total, params)
            cv = grid_expenditure(p1, u0, params) - total
            ev = total - grid_expenditure(p0, u1, params)
            assert ev <= cv + 1e-6 * total


class TestBehaviouralEmissions:
    def test_fixture_drop(self, calibrated):
        f, params = calibrated
        before, after = behavioural_emissions(
            np.ones(3), np.array([1.2, 1.0, 1.0]), f.total, params, np.array([1.0, 0.0, 0.0])
        )
        assert abs(before - 50.0) < 1e-9
        assert abs(after - 44.0) < 1e-9

    def test_no_price_change_no_delta(self, calibrated):
        f, params = calibrated
        before, after = behavioural_emissions(
            np.ones(3), np.ones(3), f.total, params, np.array([0.5, 0.2, 0.1])
        )
        assert abs(before - after) < 1e-12

    def test_own_price_rise_weakly_reduces_quantity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w, eta, xi, total, q, params = random_calibration(rng)
            j = int(rng.integers(0, len(w)))
            p1 = np.ones(len(w))
            p1[j] = 1.25
            unit = np.zeros(len(w))
            unit[j] = 1.0
            before, after = behavioural_emissions(np.ones(len(w)), p1, total, params, unit)
            assert after <= before + 1e-12


@st.composite
def household_blocks(draw):
    """A demand group's elasticities, n household baskets and a price rise."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 6))
    budget = draw(arrays(float, k, elements=st.floats(0.2, 2.0)))
    xi = draw(st.floats(-4.0, -1.3))
    raw = draw(arrays(float, (n, k), elements=st.floats(0.0, 1.0)))
    raw[:, 0] += 0.1  # every household buys the first good
    shares = raw / raw.sum(axis=1, keepdims=True)
    totals = draw(arrays(float, n, elements=st.floats(10.0, 1e5)))
    p1 = 1.0 + draw(arrays(float, k, elements=st.floats(0.0, 1.0)))
    return budget, xi, shares, shares * totals[:, np.newaxis], totals, p1


class TestBlocks:
    """A block call equals the row-by-row 1-D calls of the same functions."""

    @settings(max_examples=200, deadline=None)
    @given(household_blocks())
    def test_block_matches_rows(self, block):
        budget, xi, shares, q, totals, p1 = block
        p0 = np.ones(len(p1))
        params = les_calibrate_frisch(budget, xi, shares, q, totals)
        rows = [les_calibrate_frisch(budget, xi, w, x, t) for w, x, t in zip(shares, q, totals)]
        np.testing.assert_allclose(params.gamma, [r.gamma for r in rows], rtol=1e-12)
        np.testing.assert_allclose(params.phi, [r.phi for r in rows], rtol=1e-12)
        feasible = params.committed_cost(p1) < totals
        if not np.all(feasible):
            with pytest.raises(InfeasibleBudgetError, match=f"{int((~feasible).sum())} of"):
                equivalent_income(p0, p1, totals, params)
            return
        checks = [
            (compensating_variation(p0, p1, totals, params),
             [compensating_variation(p0, p1, t, r) for t, r in zip(totals, rows)]),
            (equivalent_income(p0, p1, totals, params),
             [equivalent_income(p0, p1, t, r) for t, r in zip(totals, rows)]),
            (les_demand(p1, totals, params), [les_demand(p1, t, r) for t, r in zip(totals, rows)]),
        ]
        for block_value, row_values in checks:
            np.testing.assert_allclose(block_value, row_values, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(household_blocks())
    def test_compensation_restores_utility(self, block):
        budget, xi, shares, q, totals, p1 = block
        p0 = np.ones(len(p1))
        params = les_calibrate_frisch(budget, xi, shares, q, totals)
        cv = compensating_variation(p0, p1, totals, params)
        np.testing.assert_allclose(indirect_utility(p1, totals + cv, params),
                                   indirect_utility(p0, totals, params), rtol=1e-9)

    def test_one_household_gives_floats(self, calibrated):
        f, params = calibrated
        p0, p1 = np.ones(3), np.array([1.2, 1.0, 1.0])
        for value in (params.committed_cost(p1),
                      compensating_variation(p0, p1, f.total, params),
                      equivalent_income(p0, p1, f.total, params)):
            assert type(value) is float


@st.composite
def valuation_groups(draw):
    """Demand groups valued as a run values them: Cobb-Douglas rows where a
    household buys no good with a positive budget elasticity, goods nobody
    in a row buys, and price rises and transfers that may break a budget."""
    k = draw(st.integers(2, 6))
    p1 = 1.0 + draw(arrays(float, k, elements=st.sampled_from([0.0, 0.5, 30.0])
                           | st.floats(0.0, 3.0)))
    unit_emissions = draw(arrays(float, k, elements=st.floats(0.0, 2.0)))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        budget = draw(arrays(float, k, elements=st.sampled_from([0.0]) | st.floats(0.2, 2.0)))
        xi = draw(st.floats(-4.0, -1.01))
        raw = draw(arrays(float, (n, k), elements=st.sampled_from([0.0]) | st.floats(0.0, 1.0)))
        raw[np.arange(n), draw(arrays(int, n, elements=st.integers(0, k - 1)))] += 0.1
        shares = raw / raw.sum(axis=1, keepdims=True)
        totals = draw(arrays(float, n, elements=st.floats(10.0, 1e5)))
        transfers = draw(arrays(float, n, elements=st.floats(-1.0, 1.0))) * totals
        q = shares * totals[:, np.newaxis]
        cobb_douglas = ~np.any((q > 0) & (budget * shares > 0), axis=1)[:, np.newaxis]
        fit = les_calibrate_frisch(np.where(cobb_douglas, 1.0, budget), xi, shares, q, totals)
        params = LesParameters(gamma=np.where(cobb_douglas, 0.0, fit.gamma), phi=fit.phi)
        if n == 1 and draw(st.booleans(), label="one household as 1-D arrays"):
            params = LesParameters(gamma=params.gamma[0], phi=params.phi[0])
            totals, transfers = float(totals[0]), float(transfers[0])
        groups.append((params, totals, totals + transfers))
    return p1, unit_emissions, groups


class TestBlockValuation:
    """One pass per block equals the one-measure calls bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=valuation_groups())
    def test_equals_the_one_measure_calls(self, case):
        p1, unit_emissions, groups = case
        p0 = np.ones(len(p1))
        for (params, totals, net), emissions in itertools.product(groups, (unit_emissions, None)):
            try:
                expected = (compensating_variation(p0, p1, totals, params),
                            equivalent_income(p0, p1, totals, params),
                            equivalent_income(p0, p1, net, params),
                            None if emissions is None
                            else (les_demand(p1, net, params) * emissions).sum(axis=-1))
            except InfeasibleBudgetError as exc:
                with pytest.raises(InfeasibleBudgetError) as raised:
                    les_valuation(p0, p1, totals, net, params, emissions)
                assert str(raised.value) == str(exc)
                continue
            value = les_valuation(p0, p1, totals, net, params, emissions)
            assert (value.footprint_after is None) == (emissions is None)
            for got, want in zip(value, expected):
                np.testing.assert_array_equal(got, want)
