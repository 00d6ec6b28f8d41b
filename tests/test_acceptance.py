"""Acceptance suite.

One test (or test group) per acceptance criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget. Two
sub-assertions are marked strict-xfail because the published table values
they compare against are internally inconsistent at the stated tolerance
(the source tables were printed from unrounded inputs); the exact
arithmetic is in each xfail reason, and the corresponding identities are
asserted in full precision on computed quantities instead.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.
"""

import math
import time

import numpy as np
import pytest

from priceshock.cli import main as cli_main
from priceshock.demand import (
    compensating_variation,
    equivalent_income,
    equivalent_variation,
    frisch_parameter,
    les_calibrate,
    les_demand,
    price_elasticities,
)
from priceshock.fixtures import io2_table, les_fixture, write_fixture_bundle
from priceshock.imputation import impute_expenditure_patterns
from priceshock.inputoutput import (
    TechnologyMatrix,
    cost_passthrough,
    embodied_intensity,
    leontief_inverse,
    sector_intensity,
    technology_matrix,
)
from priceshock.metrics import (
    atkinson,
    distributional_characteristic,
    gini,
    household_inflation,
)
from priceshock.scenario import recycle_revenue

from oracles import laspeyres_cost

DURATIONS: dict[str, float] = {}


class timed:
    def __init__(self, key, budget):
        self.key = key
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        DURATIONS[self.key] = DURATIONS.get(self.key, 0.0) + elapsed
        if exc[0] is None:
            assert elapsed < self.budget, f"{self.key} took {elapsed:.2f}s (budget {self.budget}s)"
        return False


def note(line):
    print(f"ACCEPTANCE {line}")


# -- criterion 1: published inflation-decomposition identity -----------------

T2_SHARES = np.array([0.417, 0.047, 0.007, 0.529])
T2_RATES_PCT = np.array([42.89, 79.27, 63.65, 36.61])
T2_PRINTED_PCT = np.array([17.89, 3.74, 0.44, 19.36])
T2_PRINTED_TOTAL = 41.43


def test_c1_inflation_decomposition_identity():
    with timed("c1", 1.0):
        pi, _, contrib = household_inflation(T2_SHARES[None, :], T2_RATES_PCT / 100.0)
        contrib_pct = contrib[0] * 100.0
        total_pct = pi[0] * 100.0
        # the decomposition is exact: terms reproduce the total to 1e-12
        assert abs(contrib_pct.sum() - total_pct) < 1e-12
        # published cells at the printed precision (the motor-fuels cell is
        # covered by the strict xfail below)
        for j in (0, 2, 3):
            assert abs(contrib_pct[j] - T2_PRINTED_PCT[j]) <= 0.01
        assert abs(total_pct - T2_PRINTED_TOTAL) <= 0.01
        # exact products, full precision
        assert np.max(np.abs(contrib_pct - T2_SHARES * T2_RATES_PCT)) < 1e-12
    note("C1 inflation decomposition identity: PASS "
         f"(total {total_pct:.4f} vs {T2_PRINTED_TOTAL})")


@pytest.mark.xfail(
    strict=True,
    reason="published rounding: 0.047 * 79.27 = 3.7257, which is 0.0143 away from "
           "the printed 3.74 (the source used an unrounded share), so +-0.01 "
           "cannot hold for this cell",
)
def test_c1_motor_fuels_printed_cell():
    contrib_pct = T2_SHARES[1] * T2_RATES_PCT[1]
    note(f"C1 motor-fuels printed cell: FAIL as published ({contrib_pct:.4f} vs "
         f"{T2_PRINTED_PCT[1]}, gap exceeds 0.01; expected failure, see xfail reason)")
    assert abs(contrib_pct - T2_PRINTED_PCT[1]) <= 0.01


# -- criterion 2: welfare-index identities ------------------------------------


def test_c2_welfare_identities():
    with timed("c2", 1.0):
        # published pre-change triple: 11220 * (1 - 0.253) = 8381.34
        assert abs(11220.0 * (1.0 - 0.253) - 8381.0) <= 1.0
        # the identity holds by construction on computed indices
        rng = np.random.default_rng(0)
        for _ in range(20):
            res = atkinson(rng.lognormal(9.0, 0.6, 300), rng.uniform(0.5, 2.0, 300), 2.0)
            assert abs(res.yede - res.mean * (1.0 - res.index)) < 1e-12
        # decomposition on the published table values
        equity = ((1 - 0.251) - (1 - 0.253)) / (1 - 0.253)
        efficiency = 7947.9 / 11220.0 - 1.0
        interaction = equity * efficiency
        total = equity + efficiency + interaction
        assert abs(total - (-0.290)) <= 0.001
    note(f"C2 welfare identities: PASS (decomposition total {total:.4f} vs -0.290)")


@pytest.mark.xfail(
    strict=True,
    reason="published rounding: 7947.9 * (1 - 0.251) = 5952.98, which is 1.12 away "
           "from the printed 5954.1 (index printed to 3 decimals implies a +-4.0 "
           "band), so +-1 cannot hold for this triple",
)
def test_c2_post_change_printed_triple():
    implied = 7947.9 * (1.0 - 0.251)
    note(f"C2 post-change printed triple: FAIL as published ({implied:.2f} vs 5954.1, "
         "gap exceeds 1; expected failure, see xfail reason)")
    assert abs(implied - 5954.1) <= 1.0


# -- criterion 3: progressivity-table relations -------------------------------


def test_c3_progressivity_relations():
    with timed("c3", 1.0):
        ci_pre = 0.298
        ci_burden = np.array([0.229, 0.369, 0.271, 0.364])
        printed_k = np.array([-0.069, 0.070, -0.027, 0.066])
        derived_k = ci_burden - ci_pre
        assert np.max(np.abs(derived_k - printed_k)) <= 0.001 + 1e-12
        rates = np.array([0.179, 0.037, 0.004, 0.194])
        k_total = float(rates @ derived_k) / 0.414
        assert abs(k_total - 0.007) <= 0.001
    note(f"C3 progressivity relations: PASS (recombined K {k_total:.4f} vs 0.007)")


# -- criterion 4: two-sector oracle suite --------------------------------------


def test_c4_interindustry_oracles():
    with timed("c4", 1.0):
        t = io2_table()
        tech = technology_matrix(t)
        assert np.max(np.abs(tech.coefficients - [[0.2, 0.3], [0.4, 0.1]])) < 1e-6
        inv = leontief_inverse(tech)
        hand_l = np.array([[0.9, 0.3], [0.4, 0.8]]) / 0.6
        assert np.max(np.abs(inv.matrix - hand_l)) < 1e-6
        m = embodied_intensity(inv, sector_intensity(t))["total"]
        assert np.max(np.abs(m - [0.35, 0.45])) < 1e-6
        conserved = float(m @ t.final_demand)
        assert abs(conserved - 40.0) < 1e-6
        assert abs(conserved - t.emissions.sum()) < 1e-6
        relatives = cost_passthrough(inv, 10.0 * sector_intensity(t).total)
        assert np.max(np.abs(relatives - [3.5, 4.5])) < 1e-6
    note("C4 two-sector oracle suite: PASS (intensities 0.35/0.45, relatives 3.5/4.5)")


# -- criterion 5: demand-system oracle suite -----------------------------------


def test_c5_demand_oracles():
    with timed("c5", 1.0):
        f = les_fixture()
        w = np.array(f.shares)
        eta = np.array(f.budget_elasticities)
        own = np.diag(price_elasticities(eta, w, f.xi))
        params = les_calibrate(own, eta, w, np.array(f.quantities), f.total)
        assert np.max(np.abs(params.phi - [0.40, 0.30, 0.30])) < 1e-9
        assert np.max(np.abs(params.gamma - [23.333, 10.0, 0.0])) < 1e-3
        p0, p1 = np.ones(3), np.array([1.2, 1.0, 1.0])
        q = les_demand(p1, f.total, params)
        assert np.max(np.abs(q - [44.0, 28.6, 18.6])) < 1e-9
        cv = compensating_variation(p0, p1, f.total, params)
        laspeyres = laspeyres_cost(p0, p1, np.array(f.quantities))
        assert abs(cv - 9.71) <= 0.01
        assert cv <= laspeyres
        assert abs(laspeyres - 10.0) < 1e-12
        ye = equivalent_income(p0, p1, f.total, params)
        assert abs(ye - 90.97) <= 0.02
        ev = equivalent_variation(p0, p1, f.total, params)
        assert ev <= cv
    note(f"C5 demand-system oracle suite: PASS (CV {cv:.4f}, Ye {ye:.4f}, EV {ev:.4f})")


# -- criterion 6: randomized property suites -----------------------------------


def _random_les(rng):
    n = int(rng.integers(2, 6))
    w = rng.dirichlet(np.ones(n) * 2.0)
    eta = rng.uniform(0.3, 1.8, n)
    eta /= float(w @ eta)
    xi = float(rng.uniform(-4.0, -1.3))
    total = float(rng.uniform(50, 500))
    own = np.minimum(np.diag(price_elasticities(eta, w, xi)), -1e-6)
    params = les_calibrate(own, eta, w, w * total, total, renormalize=True)
    return w, eta, xi, total, params


def test_c6a_les_adding_up_and_homogeneity():
    rng = np.random.default_rng(61)
    with timed("c6", 20.0):
        checked = 0
        while checked < 1000:
            w, eta, xi, total, params = _random_les(rng)
            p = rng.uniform(0.6, 1.8, len(w))
            if params.committed_cost(p) >= total:
                continue
            q = les_demand(p, total, params)
            assert abs(float(p @ q) / total - 1.0) < 1e-10
            alpha = float(rng.uniform(0.5, 3.0))
            q2 = les_demand(alpha * p, alpha * total, params)
            assert np.max(np.abs(q2 - q)) < 1e-10 * max(1.0, float(np.max(np.abs(q))))
            checked += 1
    note("C6a adding-up and homogeneity (1000 cases): PASS")


def test_c6b_finite_difference_elasticities():
    rng = np.random.default_rng(62)
    h = 1e-6
    with timed("c6", 30.0):
        for _ in range(1000):
            w, eta, xi, total, params = _random_les(rng)
            n = len(w)
            analytic = price_elasticities(eta, w, xi)
            j = int(rng.integers(0, n))
            p_up, p_dn = np.ones(n), np.ones(n)
            p_up[j] += h
            p_dn[j] -= h
            q0 = w * total
            dq = (les_demand(p_up, total, params) - les_demand(p_dn, total, params)) / (2 * h)
            assert np.max(np.abs(dq / q0 - analytic[:, j])) < 1e-4
    note("C6b finite-difference elasticities match the analytic matrix (1000 cases): PASS")


def test_c6c_leontief_method_agreement():
    rng = np.random.default_rng(63)
    with timed("c6", 30.0):
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = rng.random((n, n))
            a *= rng.uniform(0.1, 0.9) / a.sum(axis=0).max()
            tech = TechnologyMatrix(sectors=tuple(f"s{i}" for i in range(n)), coefficients=a)
            direct = leontief_inverse(tech, "direct").matrix
            series = leontief_inverse(tech, "neumann").matrix
            assert np.max(np.abs(direct - series)) < 1e-6
    note("C6c direct and power-series inverses agree (1000 cases): PASS")


def test_c6d_gini_against_pairwise_oracle():
    rng = np.random.default_rng(64)
    with timed("c6", 20.0):
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            v = rng.uniform(0.0, 100.0, n)
            w = rng.uniform(0.1, 5.0, n)
            mean = float(w @ v) / w.sum()
            if mean == 0:
                continue
            mad = float(np.sum(np.abs(v[:, None] - v[None, :]) * np.outer(w, w)))
            oracle = mad / (2.0 * w.sum() ** 2 * mean)
            assert abs(gini(v, w) - oracle) < 1e-10
    note("C6d Gini covariance formula equals pairwise oracle (1000 cases): PASS")


def test_c6e_distributional_characteristic_unit():
    rng = np.random.default_rng(65)
    with timed("c6", 10.0):
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            x = rng.uniform(0.01, 10.0, n)
            w = rng.uniform(0.5, 2.0, n)
            assert distributional_characteristic(np.ones(n), 1.0, x, w) == 1.0
    note("C6e unit distributional characteristic under constant weights (1000 cases): PASS")


def test_c6f_revenue_conservation():
    rng = np.random.default_rng(66)
    with timed("c6", 10.0):
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            w = rng.uniform(0.1, 5.0, n)
            sizes = rng.integers(1, 9, n).astype(float)
            revenue = float(rng.uniform(0, 1e7))
            scheme = ("lump_sum_per_household", "per_capita", "targeted_bottom_q")[
                int(rng.integers(0, 3))
            ]
            mask = rng.random(n) < 0.4
            if not mask.any():
                mask[0] = True
            t = recycle_revenue(revenue, scheme, w, sizes=sizes, target_mask=mask)
            assert abs(float(w @ t) - revenue) <= 1e-9 * max(1.0, revenue)
    note("C6f revenue conservation (1000 cases): PASS")


def test_c6_total_runtime():
    assert DURATIONS.get("c6", 0.0) < 60.0
    note(f"C6 property suites total runtime: PASS ({DURATIONS['c6']:.1f}s < 60s)")


# -- criterion 7: imputation closure -------------------------------------------


def test_c7_imputation_closure(bundle):
    with timed("c7", 30.0):
        first = impute_expenditure_patterns(
            bundle.households, bundle.households, bundle.categories, seed=7
        )
        for cat in bundle.categories:
            assert first.report.achieved_participation[cat] == pytest.approx(
                first.report.target_participation[cat], abs=1e-12
            )
        w = np.array([r.weight for r in bundle.households])
        src = np.vstack([r.budget_shares() for r in bundle.households])
        imp = first.survey.expenditure / first.survey.expenditure.sum(axis=1)[:, np.newaxis]
        gap = np.max(np.abs(w @ src / w.sum() - w @ imp / w.sum()))
        assert gap < 0.02
        assert np.max(np.abs(imp.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(imp >= 0)
        second = impute_expenditure_patterns(
            bundle.households, bundle.households, bundle.categories, seed=7
        )
        assert first.survey.expenditure.tolist() == second.survey.expenditure.tolist()
    note(f"C7 imputation closure: PASS (mean-share gap {gap:.4f} < 0.02, reruns identical)")


# -- criterion 8: money-flexibility formula ------------------------------------


def test_c8_frisch_formula():
    with timed("c8", 1.0):
        xi0 = frisch_parameter(0.0, 1.0, level=9.2, slope=0.973, shift=7000.0)
        assert abs(xi0 - (-1.796)) <= 0.001
        assert xi0 == -math.exp(9.2 - 0.973 * math.log(7000.0))
        assert frisch_parameter(1e12, 1.0) == -1.3
        assert frisch_parameter(5e5, 100.0) <= -1.3
    note(f"C8 money-flexibility formula: PASS (xi(0) = {xi0:.4f}, cap verified)")


# -- criterion 9: end-to-end determinism ---------------------------------------


def test_c9_end_to_end_determinism(tmp_path):
    with timed("c9", 10.0):
        bundle_path = tmp_path / "inputs"
        write_fixture_bundle(bundle_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["run", "--config", str(bundle_path / "config.txt"),
                         "--out", str(out1), "--quiet"]) == 0
        assert cli_main(["run", "--config", str(bundle_path / "config.txt"),
                         "--out", str(out2), "--quiet"]) == 0
        tables = [
            "t2_inflation_drivers.csv", "t3_budget_shares.csv", "t5_incidence.csv",
            "t6_progressivity.csv", "t7_welfare.csv", "t8_atkinson.csv",
            "t9_decomposition.csv",
        ]
        for name in tables:
            assert (out1 / name).exists(), name
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name
        # the aggregate rate in the emitted table matches the published total
        text = (out1 / "t2_inflation_drivers.csv").read_text().splitlines()
        total_rate = float(text[-1].split(",")[2])
        assert abs(total_rate - 0.4143) <= 1e-4
    note(f"C9 end-to-end determinism: PASS (total rate {total_rate:.6f}, "
         f"{DURATIONS['c9']:.1f}s < 10s)")
