"""Estimators against independent oracles, then the imputation pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceshock.data import (CategorySet, IncomeRecord, as_survey, load_household_survey,
                             load_income_survey)
from priceshock.errors import DataValidationError, SeparationError
from priceshock.imputation import (
    BinaryFit,
    RegressionFit,
    _collinear_columns,
    binary_fit,
    calibrate_income,
    chauvenet_outliers,
    impute_budget_shares,
    impute_expenditure_patterns,
    impute_participation,
    impute_total_expenditure,
    participation_flags,
    wls_fit,
)


def budget_shares(frame):
    return frame.expenditure / frame.expenditure.sum(axis=1)[:, np.newaxis]


class TestWls:
    def test_exact_linear_relation(self):
        x = np.linspace(1, 10, 20)
        design = np.column_stack([np.ones(20), x])
        fit = wls_fit(design, 2.0 * x, np.ones(20), ["const", "x"])
        assert abs(fit.coefficients[1] - 2.0) < 1e-12
        assert abs(fit.coefficients[0]) < 1e-12
        assert fit.residual_var < 1e-20

    def test_constant_model_recovers_weighted_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        w = np.array([1.0, 1.0, 2.0])
        fit = wls_fit(np.ones((3, 1)), y, w, ["const"])
        assert abs(fit.coefficients[0] - float(w @ y) / w.sum()) < 1e-12

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, p = 50, 4
            design = np.column_stack([np.ones(n), rng.random((n, p - 1))])
            y = rng.random(n)
            w = rng.uniform(0.1, 3.0, n)
            fit = wls_fit(design, y, w, [f"c{i}" for i in range(p)])
            xtwx = design.T @ (design * w[:, None])
            xtwy = design.T @ (w * y)
            oracle = np.linalg.solve(xtwx, xtwy)
            assert np.max(np.abs(fit.coefficients - oracle)) < 1e-8

    def test_rank_deficiency_names_columns(self):
        x = np.linspace(1, 5, 30)
        design = np.column_stack([np.ones(30), x, 2.0 * x])
        with pytest.raises(DataValidationError, match="double_x"):
            wls_fit(design, x, np.ones(30), ["const", "x", "double_x"])

    def test_too_few_observations(self):
        with pytest.raises(DataValidationError):
            wls_fit(np.ones((2, 2)), np.ones(2), np.ones(2), ["a", "b"])

    def test_zero_weights_rejected(self):
        with pytest.raises(DataValidationError):
            wls_fit(np.ones((3, 1)), np.ones(3), np.zeros(3), ["a"])

    def test_residual_moments_are_weighted(self):
        design = np.ones((4, 1))
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 1.0, 1.0])
        fit = wls_fit(design, y, w, ["const"])
        assert abs(fit.residual_mean) < 1e-12
        assert abs(fit.residual_var - 25.0) < 1e-12



class TestWlsMatrixOutcome:
    """One rank check and one lstsq for several outcomes on one design."""

    def test_matrix_fit_matches_per_column_fits(self):
        rng = np.random.default_rng(11)
        for n, m in ((40, 1), (300, 7), (2000, 19)):
            ln_x = rng.normal(9.0, 0.8, n)
            design = np.column_stack([np.ones(n), ln_x, ln_x ** 2])
            y = rng.dirichlet(np.ones(m), n) + 0.01 * ln_x[:, np.newaxis]
            w = rng.uniform(0.2, 30.0, n)
            fit = wls_fit(design, y, w, ["const", "ln_x", "ln_x_sq"])
            assert fit.coefficients.shape == (3, m)
            assert fit.residual_mean.shape == fit.residual_var.shape == (m,)
            for j in range(m):
                one = wls_fit(design, y[:, j], w, ["const", "ln_x", "ln_x_sq"])
                scale = np.max(np.abs(one.coefficients))
                assert np.max(np.abs(fit.coefficients[:, j] - one.coefficients)) <= 1e-12 * scale
                assert abs(fit.residual_var[j] - one.residual_var) <= 1e-12 * one.residual_var
                # the residual mean is rounding noise around 0: compare on the outcome's scale
                assert abs(fit.residual_mean[j] - one.residual_mean) <= 1e-12 * np.std(y[:, j])

    def test_matrix_fit_names_collinear_columns(self):
        x = np.linspace(1, 5, 30)
        design = np.column_stack([np.ones(30), x, 2.0 * x])
        with pytest.raises(DataValidationError, match="double_x"):
            wls_fit(design, np.column_stack([x, x ** 2]), np.ones(30), ["const", "x", "double_x"])

    def test_full_rank_fit_runs_no_separate_rank_check(self, monkeypatch):
        # lstsq's rank serves the check; matrix_rank only names collinear columns
        def matrix_rank(*args, **kwargs):
            raise AssertionError("wls_fit ran a second decomposition")
        monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
        x = np.linspace(1.0, 3.0, 40)
        fit = wls_fit(np.column_stack([np.ones(40), x]), 2.0 * x, np.ones(40), ["const", "x"])
        np.testing.assert_allclose(fit.coefficients, [0.0, 2.0], atol=1e-12)

    def test_predictions_have_the_same_bits_in_either_layout(self):
        """A Fortran-ordered design is read without a copy; its products
        equal those of the column copy a C-ordered design is read through."""
        rng = np.random.default_rng(5)
        design = np.column_stack([np.ones(500), rng.normal(5.0, 1.0, (500, 4))])
        names = ["const", "a", "b", "c", "d"]
        y = design @ rng.normal(size=5) + rng.normal(size=500)
        fits = [wls_fit(design, y, np.ones(500), names),
                binary_fit(design, (y > np.median(y)).astype(float), np.ones(500), names),
                RegressionFit(names=("c", "const"), coefficients=np.array([0.5, -2.0]),
                              residual_mean=0.0, residual_var=1.0, n_obs=500)]
        for fit in fits:
            want = fit.predict(design, names)
            assert np.array_equal(fit.predict(np.asfortranarray(design), names), want)
        cols = [names.index(n) for n in fits[0].names]
        assert np.array_equal(fits[0].predict(design, names), design[:, cols] @ fits[0].coefficients)

    def test_one_outcome_is_bit_identical_to_the_pinned_fit(self):
        # pinned from the per-outcome implementation; imputation relies on it
        x = np.linspace(1.0, 3.0, 40)
        design = np.column_stack([np.ones(40), x, x ** 2])
        y = 0.3 * np.sin(7.0 * x) + 0.1 * x
        w = 1.0 + np.arange(40) % 5
        fit = wls_fit(design, y, w, ["const", "x", "x_sq"])
        assert [c.hex() for c in fit.coefficients.tolist()] == [
            "0x1.2e0b33864a038p+0", "-0x1.23e78ba07d073p+0", "0x1.3a2b15e9f7ccdp-2"]
        assert float(fit.residual_mean).hex() == "-0x1.2cccccccccccdp-52"
        assert float(fit.residual_var).hex() == "0x1.39dae061dc563p-5"


def greedy_collinear_columns(design, names):
    """Each column prefix's rank in turn: a column is kept when it raises
    the rank of the kept columns, flagged otherwise."""
    kept, flagged, rank = [], [], 0
    for j in range(design.shape[1]):
        r = np.linalg.matrix_rank(design[:, kept + [j]])
        if r > rank:
            kept.append(j)
            rank = r
        else:
            flagged.append(names[j])
    return kept, flagged


@st.composite
def designs(draw):
    """An (n, p) design whose later columns may repeat, scale, combine or
    nearly combine earlier ones (noise from 1e-3 down to 1e-15 of their
    size), or be zero; n may be below p."""
    n, p = draw(st.integers(1, 25)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e4])), (n, p))
    for j in range(1, p):
        kind = draw(st.sampled_from(["free", "combination", "near", "zero"]))
        if kind == "zero":
            design[:, j] = 0.0
        elif kind != "free":
            design[:, j] = design[:, :j] @ rng.normal(0.0, 1.0, j)
            if kind == "near":
                noise = draw(st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]))
                design[:, j] += noise * np.abs(design[:, j]).max() * rng.normal(0.0, 1.0, n)
    return design


class TestCollinearColumns:
    @settings(max_examples=300, deadline=None)
    @given(design=designs())
    def test_equals_the_greedy_walk(self, design):
        names = [f"c{j}" for j in range(design.shape[1])]
        assert _collinear_columns(design, names) == greedy_collinear_columns(design, names)

    def test_a_full_rank_design_takes_one_rank_test(self, monkeypatch):
        calls = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: calls.append(a.shape) or rank(a))
        x = np.linspace(1.0, 3.0, 40)
        design = np.column_stack([np.ones(40), x, x ** 2, np.sin(x)])
        assert _collinear_columns(design, ["a", "b", "c", "d"]) == ([0, 1, 2, 3], [])
        assert calls == [(40, 4)]


def golden_section_loglik(x, y, w, lo=-10.0, hi=10.0, iters=200):
    """1-D ML oracle for a no-intercept logit: maximise over the slope."""
    def nll(beta):
        z = beta * x
        p = 1.0 / (1.0 + np.exp(-z))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return -float(w @ (y * np.log(p) + (1 - y) * np.log(1 - p)))

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(iters):
        if nll(c) < nll(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    beta = (a + b) / 2
    return beta, -nll(beta)


class TestBinaryFit:
    def test_symmetric_data_zero_intercept(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])  # mirror-symmetric, not separable
        design = np.column_stack([np.ones(6), x])
        fit = binary_fit(design, y, np.ones(6), ["const", "x"])
        assert abs(fit.coefficients[0]) < 1e-6

    def test_constant_covariate_flagged_collinear(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=60)
        y = (x + rng.normal(scale=1.5, size=60) > 0).astype(float)
        design = np.column_stack([np.ones(60), np.full(60, 3.0), x])
        fit = binary_fit(design, y, np.ones(60), ["const", "flat", "x"])
        assert "flat" in fit.collinear
        assert fit.names == ("const", "x")

    def test_complete_separation_raises(self):
        x = np.linspace(-2, 2, 40)
        y = (x > 0).astype(float)
        design = np.column_stack([np.ones(40), x])
        with pytest.raises(SeparationError):
            binary_fit(design, y, np.ones(40), ["const", "x"])

    def test_single_class_rejected(self):
        with pytest.raises(DataValidationError):
            binary_fit(np.ones((10, 1)), np.ones(10), np.ones(10), ["const"])

    def test_loglik_matches_golden_section_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        y = (rng.random(100) < 1.0 / (1.0 + np.exp(-0.8 * x))).astype(float)
        w = rng.uniform(0.5, 2.0, 100)
        fit = binary_fit(x[:, None], y, w, ["x"])
        beta_star, ll_star = golden_section_loglik(x, y, w)
        assert abs(fit.log_likelihood - ll_star) < 1e-6
        assert abs(fit.coefficients[0] - beta_star) < 1e-4

    def test_probit_link(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        y = (rng.random(200) < 0.5 * (1 + np.vectorize(math.erf)(x / math.sqrt(2)))).astype(float)
        design = np.column_stack([np.ones(200), x])
        fit = binary_fit(design, y, np.ones(200), ["const", "x"], link="probit")
        probs = fit.predict(design, ["const", "x"])
        assert np.all((probs > 0) & (probs < 1))
        assert fit.coefficients[1] > 0

    def test_unknown_link(self):
        with pytest.raises(DataValidationError):
            binary_fit(np.ones((10, 1)), np.arange(10) % 2, np.ones(10), ["c"], link="cauchit")

    def test_logit_far_below_zero_predicts_zero_without_a_warning(self):
        fit = BinaryFit(names=("x",), coefficients=np.array([1.0]), link="logit")
        probs = fit.predict(np.array([[-1000.0], [0.0]]), ["x"])  # exp(1000) overflows
        assert probs.tolist() == [0.0, 0.5]


class TestChauvenet:
    def test_textbook_example(self):
        # z(100) = 1.79, expected count 5 * P(|Z| > 1.79) = 0.37 < 0.5
        mask = chauvenet_outliers(np.array([1.0, 1.0, 1.0, 1.0, 100.0]))
        assert mask.tolist() == [False, False, False, False, True]

    def test_no_outliers_in_regular_sample(self):
        rng = np.random.default_rng(4)
        mask = chauvenet_outliers(rng.uniform(9.0, 11.0, 30))
        assert not mask.any()

    def test_expected_count_arithmetic(self):
        values = np.array([1.0, 1.0, 1.0, 1.0, 100.0])
        z = abs(100.0 - values.mean()) / values.std(ddof=1)
        assert abs(z - 1.79) < 0.005
        expected = 5 * 2 * (1 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
        assert abs(expected - 0.37) < 0.005


class TestCalibrateIncome:
    def test_identity_when_targets_equal_source(self):
        rng = np.random.default_rng(5)
        v = rng.lognormal(9.0, 0.4, 100)
        core = v[~chauvenet_outliers(v)]
        res = calibrate_income(v, float(core.mean()), float(core.std(ddof=1)))
        assert np.max(np.abs(res.values - v)) < 1e-9 * v.max()

    def test_calibrated_moments_hit_targets(self):
        rng = np.random.default_rng(6)
        v = np.concatenate([rng.normal(50.0, 5.0, 60), [500.0]])
        res = calibrate_income(v, 120.0, 12.0)
        core = res.values[~res.outlier_mask]
        assert abs(core.mean() - 120.0) < 1e-9
        assert abs(core.std(ddof=1) - 12.0) < 1e-9
        assert res.outlier_mask.sum() == 1
        # the outlier is transformed with the same map
        assert abs(res.values[-1] - (res.offset + res.scale * 500.0)) < 1e-12

    def test_identical_values_rejected(self):
        with pytest.raises(DataValidationError):
            calibrate_income(np.full(10, 3.0), 5.0, 1.0)


class TestImputeTotal:
    def test_zero_variance_unit_slope_reproduces_income(self):
        fit = RegressionFit(names=("const", "ln_income"), coefficients=np.array([0.0, 1.0]),
                            residual_mean=0.0, residual_var=0.0, n_obs=100)
        y = np.array([100.0, 250.0, 1000.0])
        design = np.column_stack([np.ones(3), np.log(y)])
        x = impute_total_expenditure(fit, design, ["const", "ln_income"], ["a", "b", "c"], 7)
        assert np.allclose(x, y, rtol=1e-12)

    def test_fixed_seed_bit_identical(self):
        fit = RegressionFit(names=("const",), coefficients=np.array([5.0]),
                            residual_mean=0.1, residual_var=0.04, n_obs=10)
        design = np.ones((20, 1))
        ids = [f"r{i}" for i in range(20)]
        a = impute_total_expenditure(fit, design, ["const"], ids, 99)
        b = impute_total_expenditure(fit, design, ["const"], ids, 99)
        assert a.tolist() == b.tolist()
        c = impute_total_expenditure(fit, design, ["const"], ids, 100)
        assert a.tolist() != c.tolist()

    @pytest.mark.parametrize("level", [-800.0, 800.0])
    def test_total_beyond_the_float_range_names_the_record(self, level):
        fit = RegressionFit(names=("const",), coefficients=np.array([1.0]),
                            residual_mean=0.0, residual_var=0.0, n_obs=10)
        design = np.array([[1.0], [level], [1.0]])
        with pytest.raises(DataValidationError, match=r"record 'b': imputed total expenditure "
                                                      r"(0|inf) is out of range"):
            impute_total_expenditure(fit, design, ["const"], ["a", "b", "c"], 7)

    def test_disturbance_moments_large_sample(self):
        fit = RegressionFit(names=("const",), coefficients=np.array([0.0]),
                            residual_mean=0.25, residual_var=0.09, n_obs=10)
        n = 100_000
        design = np.zeros((n, 1))
        x = impute_total_expenditure(fit, design, ["const"], np.arange(n), 3)
        draws = np.log(x)
        assert abs(draws.mean() - 0.25) < 0.25 * 0.02 + 0.003
        assert abs(draws.std() - 0.3) < 0.3 * 0.02


def participation_by_column(probabilities, weights, share):
    """One category's flags: the records in stably sorted descending
    probability whose weight mass before them is below the target mass."""
    order = np.argsort(-probabilities, kind="stable")
    total = float(weights.sum())
    before = np.concatenate([[0.0], np.cumsum(weights[order])[:-1]])
    out = np.zeros(len(probabilities), dtype=int)
    out[order[before < share * total - 1e-9 * max(total, 1.0)]] = 1
    return out


class TestImputeParticipation:
    def test_target_one_selects_everyone(self):
        out = impute_participation(np.linspace(0, 1, 10), np.ones(10), 1.0)
        assert out.sum() == 10

    def test_target_zero_selects_nobody(self):
        out = impute_participation(np.linspace(0, 1, 10), np.ones(10), 0.0)
        assert out.sum() == 0

    def test_top_six_of_ten(self):
        probs = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7, 0.4, 0.6, 0.05, 0.5])
        out = impute_participation(probs, np.ones(10), 0.6)
        assert out.sum() == 6
        assert np.all(out[np.argsort(-probs)[:6]] == 1)

    def test_stable_tie_break(self):
        probs = np.array([0.5, 0.5, 0.5, 0.5])
        out = impute_participation(probs, np.ones(4), 0.5)
        assert out.tolist() == [1, 1, 0, 0]

    def test_weighted_mass_replication(self):
        probs = np.array([0.9, 0.8, 0.7, 0.2])
        weights = np.array([2.0, 1.0, 1.0, 4.0])
        out = impute_participation(probs, weights, 0.5)  # threshold mass 4.0
        assert out.tolist() == [1, 1, 1, 0]

    def test_bad_share(self):
        with pytest.raises(DataValidationError):
            impute_participation(np.ones(3), np.ones(3), 1.5)
        with pytest.raises(DataValidationError, match="target share nan"):
            participation_flags(np.ones((3, 2)), np.ones(3), [0.5, np.nan])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_column_loop_bit_for_bit(self, data):
        """Probabilities from a pool of a few values (signed zeros and nan
        among them), so most columns hold ties."""
        n, m = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 6))
        pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan])
                                  | st.floats(0.0, 1.0), min_size=1, max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = np.array(pool)[rng.integers(0, len(pool), (n, m))]
        weights = rng.choice([0.0, 1.0, 2.5, 12.5], n) if data.draw(st.booleans()) \
            else rng.uniform(0.0, 30.0, n)
        shares = [data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
                  for _ in range(m)]
        flags = participation_flags(probs, weights, shares)
        for j in range(m):
            want = participation_by_column(probs[:, j], weights, shares[j])
            np.testing.assert_array_equal(flags[:, j], want)
            np.testing.assert_array_equal(impute_participation(probs[:, j], weights, shares[j]),
                                          want)


class TestImputeShares:
    CATS = CategorySet(("a", "b", "c"))

    @staticmethod
    def flat_fit(level):
        return RegressionFit(names=("const",), coefficients=np.array([level]),
                             residual_mean=0.0, residual_var=0.0, n_obs=50)

    def test_single_positive_category_gets_share_one(self):
        fits = {"a": self.flat_fit(0.4)}
        shares = impute_budget_shares(fits, np.ones((2, 1)), ["const"],
                                      np.array([[1, 0, 0], [1, 0, 0]]), ["r0", "r1"], 1, self.CATS)
        assert np.allclose(shares[:, 0], 1.0)
        assert np.all(shares[:, 1:] == 0)

    def test_rescaling_hand_example(self):
        fits = {"a": self.flat_fit(0.5), "b": self.flat_fit(0.3), "c": self.flat_fit(0.4)}
        shares = impute_budget_shares(fits, np.ones((1, 1)), ["const"],
                                      np.array([[1, 1, 1]]), ["r0"], 1, self.CATS)
        assert np.allclose(shares[0], [0.5 / 1.2, 0.25, 0.4 / 1.2], atol=1e-12)

    def test_negative_prediction_floored(self):
        fits = {"a": self.flat_fit(-0.05), "b": self.flat_fit(0.5)}
        shares = impute_budget_shares(fits, np.ones((1, 1)), ["const"],
                                      np.array([[1, 1, 0]]), ["r0"], 1, self.CATS)
        assert shares[0].tolist() == [0.0, 1.0, 0.0]

    def test_all_zero_basket_rejected(self):
        fits = {"a": self.flat_fit(-0.2)}
        with pytest.raises(DataValidationError, match="no consumption basket"):
            impute_budget_shares(fits, np.ones((1, 1)), ["const"],
                                 np.array([[1, 0, 0]]), ["r0"], 1, self.CATS)

    def test_share_vectors_sum_to_one_with_noise(self):
        rng_fit = RegressionFit(names=("const",), coefficients=np.array([0.3]),
                                residual_mean=0.0, residual_var=0.01, n_obs=50)
        fits = {"a": rng_fit, "b": rng_fit, "c": rng_fit}
        shares = impute_budget_shares(fits, np.ones((30, 1)), ["const"],
                                      np.ones((30, 3), dtype=int), list(range(30)), 5, self.CATS)
        assert np.max(np.abs(shares.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(shares >= 0)


class TestPipeline:
    def test_closure_on_synthetic_survey(self, bundle):
        result = impute_expenditure_patterns(
            bundle.households, bundle.households, bundle.categories, seed=11
        )
        for cat in bundle.categories:
            assert result.report.achieved_participation[cat] == pytest.approx(
                result.report.target_participation[cat], abs=1e-12
            )
        w = np.array([r.weight for r in bundle.households])
        src = np.vstack([r.budget_shares() for r in bundle.households])
        imp = budget_shares(result.survey)
        mean_src = w @ src / w.sum()
        mean_imp = w @ imp / w.sum()
        assert np.max(np.abs(mean_src - mean_imp)) < 0.02

    def test_all_share_vectors_valid(self, bundle):
        result = impute_expenditure_patterns(
            bundle.households, bundle.households, bundle.categories, seed=11
        )
        shares = budget_shares(result.survey)
        assert np.max(np.abs(shares.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(shares >= 0)

    def test_determinism_under_seed(self, bundle):
        a = impute_expenditure_patterns(bundle.households, bundle.households,
                                        bundle.categories, seed=21)
        b = impute_expenditure_patterns(bundle.households, bundle.households,
                                        bundle.categories, seed=21)
        assert a.survey.expenditure.tolist() == b.survey.expenditure.tolist()

    def test_missing_income_fails_loudly(self, bundle, categories):
        import dataclasses

        stripped = [dataclasses.replace(r, disposable_income=None)
                    for r in bundle.households[:30]]
        with pytest.raises(DataValidationError, match="income"):
            impute_expenditure_patterns(stripped, bundle.households[:30], categories, seed=1)

    @pytest.mark.parametrize("income", [0.0, -5.0])
    def test_income_record_without_a_positive_income_is_named(self, bundle, income):
        import dataclasses

        records = list(bundle.households[:30])
        records[7] = dataclasses.replace(records[7], disposable_income=income)
        with pytest.raises(DataValidationError) as caught:
            impute_expenditure_patterns(bundle.households, records, bundle.categories, seed=1)
        assert str(caught.value) == (f"income record {records[7].id!r}: income {income:g} "
                                     f"is not positive (its log is taken)")

    def test_an_income_frame_of_zero_weight_is_named(self, bundle, bundle_dir, categories):
        """The achieved participation shares divide by the income side's
        weight, which a library caller may pass as all 0."""
        import dataclasses

        survey = load_household_survey(bundle_dir / "households.csv", categories)
        income = dataclasses.replace(survey, expenditure=None, weight=np.zeros(len(survey.ids)))
        with pytest.raises(DataValidationError) as caught:
            impute_expenditure_patterns(survey, income, categories, seed=1)
        assert str(caught.value) == (f"income dataset {survey.report.source!r}: every record has "
                                     f"weight 0, so no participation share can be weighed")
        records = [dataclasses.replace(r, weight=0.0) for r in bundle.households[:30]]
        with pytest.raises(DataValidationError, match="income dataset 'records': every record"):
            impute_expenditure_patterns(bundle.households, records, categories, seed=1)

    def test_demographic_design_missing_covariate(self, bundle):
        import dataclasses

        broken = [dataclasses.replace(bundle.households[0], demographics={"urban": 1.0})]
        with pytest.raises(DataValidationError, match="head_age"):
            as_survey(bundle.households[:5] + broken)


class TestColumnFrames:
    def test_permuting_income_records_permutes_the_baskets(self, bundle):
        """Each record's draws are keyed on its id, not on its position."""
        income = bundle.households
        order = np.random.default_rng(0).permutation(len(income))
        base = impute_expenditure_patterns(bundle.households, income, bundle.categories, seed=3)
        moved = impute_expenditure_patterns(bundle.households, [income[i] for i in order],
                                            bundle.categories, seed=3)
        assert moved.survey.ids.tolist() == base.survey.ids[order].tolist()
        expected = base.survey.expenditure[order]
        assert np.array_equal(moved.survey.expenditure > 0, expected > 0)
        np.testing.assert_allclose(moved.survey.expenditure, expected, rtol=1e-12, atol=0)
        assert moved.report == base.report

    def test_frames_and_record_lists_give_the_same_result(self, bundle, bundle_dir, categories):
        """The bundle's households.csv holds ``bundle.households`` to the bit."""
        survey = load_household_survey(bundle_dir / "households.csv", categories)
        income = load_income_survey(bundle_dir / "households.csv")
        frames = impute_expenditure_patterns(survey, income, categories, seed=5)
        income_records = [IncomeRecord(id=r.id, weight=r.weight, size=r.size,
                                       disposable_income=r.disposable_income,
                                       demographics=r.demographics) for r in bundle.households]
        lists = impute_expenditure_patterns(bundle.households, income_records, categories, seed=5)
        for a, b in ((frames.survey, lists.survey), (frames.survey, income)):
            assert a.ids.tolist() == b.ids.tolist()
            for name in ("weight", "size", "income"):
                assert getattr(a, name).tolist() == getattr(b, name).tolist()
        assert frames.survey.expenditure.tolist() == lists.survey.expenditure.tolist()
        assert frames.report == lists.report
        # one valid household per income row, as a HouseholdRecord would check it
        assert frames.survey.expenditure.shape == (len(income.ids), len(categories))
        assert (frames.survey.expenditure.sum(axis=1) > 0).all()
