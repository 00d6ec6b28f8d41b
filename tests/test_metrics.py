"""Weighted distributional statistics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceshock.errors import DataValidationError
from priceshock.metrics import (
    AtkinsonResult,
    WeightedSample,
    atkinson,
    concentration,
    distributional_characteristic,
    equivalise,
    gini,
    household_inflation,
    progressivity_table,
    weighted_quantile_groups,
    welfare_decomposition,
    welfare_weights,
)


def gini_pairwise(values, weights):
    """O(n^2) mean-absolute-difference oracle."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    mean = float(w @ v) / total
    mad = float(np.sum(np.abs(v[:, None] - v[None, :]) * np.outer(w, w)))
    return mad / (2.0 * total**2 * mean)


class TestEquivalise:
    def test_singleton_unchanged_under_any_scale(self):
        for scale in ("none", "per_capita", "sqrt"):
            assert equivalise(np.array([100.0]), np.array([1.0]), scale)[0] == 100.0

    def test_square_root_scale(self):
        assert equivalise(np.array([100.0]), np.array([4.0]), "sqrt")[0] == 50.0

    def test_per_capita_scale(self):
        assert equivalise(np.array([100.0]), np.array([4.0]), "per_capita")[0] == 25.0

    def test_unknown_scale_rejected(self):
        with pytest.raises(DataValidationError):
            equivalise(np.array([100.0]), np.array([4.0]), "oecd")

    def test_size_below_one_rejected(self):
        with pytest.raises(DataValidationError):
            equivalise(np.array([100.0]), np.array([0.5]), "sqrt")


class TestQuantileGroups:
    def test_ten_equal_weights_pair_up(self):
        values = np.arange(1.0, 11.0)
        grp = weighted_quantile_groups(values, np.ones(10), 5)
        assert grp.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_boundary_record_goes_to_lower_group(self):
        grp = weighted_quantile_groups(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 2)
        assert grp.tolist() == [0, 1]

    def test_dominant_record_assigned_deterministically(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        weights = np.array([6.0, 1.0, 1.0, 1.0, 1.0])
        grp = weighted_quantile_groups(values, weights, 5)
        # inclusive cumulative weights 6,7,8,9,10 against cuts of 2
        assert grp.tolist() == [2, 3, 3, 4, 4]

    def test_k_below_two_rejected(self):
        with pytest.raises(DataValidationError):
            weighted_quantile_groups(np.array([1.0, 2.0]), np.ones(2), 1)

    def test_group_masses_within_one_record_weight(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(50, 1000))
            v = rng.random(n)
            w = rng.uniform(0.1, 3.0, n)
            k = int(rng.integers(2, 9))
            grp = weighted_quantile_groups(v, w, k)
            total = w.sum()
            for g in range(k):
                mass = w[grp == g].sum()
                assert abs(mass - total / k) <= w.max() + 1e-12


class TestGini:
    def test_equal_values_zero(self):
        assert abs(gini(np.full(5, 3.0), np.ones(5))) < 1e-15

    def test_hand_example(self):
        # rank formula: 2*sum(i*y_i)/(n*sum(y)) - (n+1)/n = 1.6 - 1.2 = 0.4
        assert abs(gini(np.array([1.0, 2, 3, 4, 10]), np.ones(5)) - 0.40) < 1e-12

    def test_two_point_distribution(self):
        # pairwise: E|y1-y2| / (2 mean) = 0.5(b-a) / (a+b)
        a, b = 1.0, 3.0
        assert abs(gini(np.array([a, b]), np.ones(2)) - (b - a) / (2 * (a + b))) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.random(40)
        w = rng.uniform(0.5, 2.0, 40)
        assert abs(gini(v, w) - gini(123.4 * v, w)) < 1e-12

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            v = rng.uniform(0.0, 100.0, n)
            w = rng.uniform(0.1, 5.0, n)
            assert abs(gini(v, w) - gini_pairwise(v, w)) < 1e-10

    def test_concentration_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            v = rng.uniform(0.0, 10.0, n) + 0.01
            w = rng.uniform(0.1, 5.0, n)
            key = rng.random(n)
            c = concentration(v, w, key)
            assert -1.0 <= c <= 1.0

    def test_gini_equals_self_ranked_concentration(self):
        rng = np.random.default_rng(4)
        v = rng.random(30)
        w = rng.uniform(0.5, 2.0, 30)
        assert gini(v, w) == concentration(v, w, v)

    def test_errors(self):
        with pytest.raises(DataValidationError):
            gini(np.array([-1.0, 2.0]), np.ones(2))
        with pytest.raises(DataValidationError):
            gini(np.zeros(3), np.ones(3))


class TestWelfareWeights:
    def test_zero_aversion_gives_unit_weights(self):
        theta, theta_bar = welfare_weights(np.array([1.0, 5.0, 9.0]), np.ones(3), 0.0)
        assert np.all(theta == 1.0)
        assert theta_bar == 1.0

    def test_hand_example(self):
        theta, theta_bar = welfare_weights(np.array([1.0, 2.0]), np.ones(2), 1.0)
        assert np.allclose(theta, [1.5, 0.75])
        assert abs(theta_bar - 1.125) < 1e-12

    def test_scale_invariance(self):
        x = np.array([1.0, 2.0, 7.0])
        w = np.array([1.0, 2.0, 0.5])
        t1, b1 = welfare_weights(x, w, 1.5)
        t2, b2 = welfare_weights(10.0 * x, w, 1.5)
        assert np.allclose(t1, t2)
        assert abs(b1 - b2) < 1e-12

    def test_validation(self):
        with pytest.raises(DataValidationError):
            welfare_weights(np.array([1.0, 0.0]), np.ones(2), 1.0)
        with pytest.raises(DataValidationError):
            welfare_weights(np.array([1.0, 2.0]), np.ones(2), -0.5)


class TestDistributionalCharacteristic:
    def test_constant_weights_give_exactly_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.uniform(0.1, 10.0, n)
            w = rng.uniform(0.5, 2.0, n)
            theta = np.ones(n)
            assert distributional_characteristic(theta, 1.0, x, w) == 1.0

    def test_hand_example(self):
        d = distributional_characteristic(np.array([2.0, 1.0]), 1.5,
                                          np.array([10.0, 20.0]), np.ones(2))
        assert abs(d - 40.0 / 45.0) < 1e-12

    def test_single_consumer_limit(self):
        theta = np.array([3.0, 1.0])
        theta_bar = 2.0
        x = np.array([5.0, 0.0])  # consumed only by the high-weight household
        d = distributional_characteristic(theta, theta_bar, x, np.ones(2))
        assert abs(d - 3.0 / 2.0) < 1e-12

    def test_zero_consumption_rejected(self):
        with pytest.raises(DataValidationError):
            distributional_characteristic(np.ones(2), 1.0, np.zeros(2), np.ones(2))

    def test_necessities_rank_above_luxuries(self, bundle):
        # qualitative ordering: goods concentrated among low-expenditure
        # households carry the higher characteristic
        records = bundle.households
        w = np.array([r.weight for r in records])
        sizes = np.array([r.size for r in records])
        exp = np.vstack([r.expenditure for r in records])
        eq = equivalise(exp.sum(axis=1), sizes, "sqrt")
        theta, theta_bar = welfare_weights(eq, w, 1.0)

        def dc(cat):
            j = bundle.categories.index(cat)
            return distributional_characteristic(theta, theta_bar, exp[:, j], w)

        assert dc("food") > dc("durables")
        assert dc("food") > dc("education")


class TestHouseholdInflation:
    def test_published_decomposition_row(self):
        shares = np.array([[0.417, 0.047, 0.007, 0.529]])
        rates = np.array([0.4289, 0.7927, 0.6365, 0.3661])
        pi, burden, contrib = household_inflation(shares, rates, totals=np.array([100.0]))
        assert np.allclose(contrib[0], [0.178851, 0.037257, 0.004456, 0.193667], atol=5e-7)
        assert abs(pi[0] - 0.414231) < 5e-7
        assert abs(burden[0] - 41.4231) < 5e-5

    def test_contributions_sum_to_rate_exactly(self):
        rng = np.random.default_rng(6)
        shares = rng.dirichlet(np.ones(6), size=50)
        rates = rng.uniform(0.0, 1.0, 6)
        pi, _, contrib = household_inflation(shares, rates)
        assert np.max(np.abs(contrib.sum(axis=1) - pi)) < 1e-12

    def test_uniform_rates(self):
        shares = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
        pi, _, _ = household_inflation(shares, np.full(4, 0.3))
        assert np.allclose(pi, 0.3)

    def test_zero_rates_zero_burden(self):
        pi, burden, _ = household_inflation(np.array([[0.5, 0.5]]), np.zeros(2),
                                            totals=np.array([10.0]))
        assert pi[0] == 0.0 and burden[0] == 0.0


def toy_population(rng, n=400, groups=3):
    x = rng.lognormal(9.0, 0.6, n)
    w = rng.uniform(0.5, 2.0, n)
    shares = rng.dirichlet(np.ones(groups) * 3.0, size=n)
    rates = rng.uniform(0.1, 0.8, groups)
    burdens = shares * rates[None, :] * x[:, None]
    return x, w, burdens


class TestProgressivityTable:
    def test_group_kakwani_sums_reproduce_total(self):
        rng = np.random.default_rng(7)
        x, w, burdens = toy_population(rng)
        rows = progressivity_table(x, w, burdens, ["a", "b", "c"])
        total = rows[-1]
        r = total.avg_rate
        recombined = sum(row.avg_rate / r * row.kakwani for row in rows[:-1])
        assert abs(recombined - total.kakwani) < 1e-12
        assert abs(sum(row.contribution_to_k for row in rows[:-1]) - 1.0) < 1e-12

    def test_kakwani_is_burden_ci_minus_pre_gini(self):
        rng = np.random.default_rng(8)
        x, w, burdens = toy_population(rng)
        rows = progressivity_table(x, w, burdens, ["a", "b", "c"])
        for row in rows:
            assert abs(row.kakwani - (row.ci_burden - row.ci_pre)) < 1e-12

    def test_proportional_burden_is_neutral(self):
        rng = np.random.default_rng(9)
        x = rng.lognormal(9.0, 0.5, 300)
        w = rng.uniform(0.5, 2.0, 300)
        burdens = np.column_stack([0.2 * x, 0.1 * x])
        rows = progressivity_table(x, w, burdens, ["a", "b"])
        total = rows[-1]
        assert abs(total.kakwani) < 1e-12
        assert abs(total.rs) < 1e-12
        assert abs(total.reranking) < 1e-12

    def test_regressive_group_has_negative_kakwani(self):
        # burden share falls with expenditure: concentrated on the poor
        x = np.array([100.0, 200.0, 400.0, 800.0])
        w = np.ones(4)
        necessity_share = np.array([0.6, 0.5, 0.4, 0.3])
        burdens = (necessity_share * 0.4 * x)[:, None]
        rows = progressivity_table(x, w, burdens, ["necessity"])
        assert rows[0].kakwani < 0
        assert rows[0].rs < 0  # nominal spending on it is equalising-ranked below the Gini

    def test_reranking_nonnegative(self):
        rng = np.random.default_rng(10)
        x, w, burdens = toy_population(rng)
        rows = progressivity_table(x, w, burdens, ["a", "b", "c"])
        assert rows[-1].reranking >= -1e-12


class TestAtkinson:
    def test_hand_example_aversion_two(self):
        # harmonic mean 1.6, arithmetic 2.5: A = 0.36, Yede = 1.6
        res = atkinson(np.array([1.0, 4.0]), np.ones(2), 2.0)
        assert abs(res.index - 0.36) < 1e-12
        assert abs(res.yede - 1.6) < 1e-12

    def test_equal_values(self):
        res = atkinson(np.full(4, 7.0), np.ones(4), 2.0)
        assert abs(res.index) < 1e-12
        assert abs(res.yede - 7.0) < 1e-12

    def test_unit_aversion_uses_geometric_mean(self):
        v = np.array([1.0, 4.0])
        res = atkinson(v, np.ones(2), 1.0)
        assert abs(res.yede - 2.0) < 1e-12  # geometric mean of 1 and 4

    def test_yede_identity(self):
        rng = np.random.default_rng(11)
        v = rng.lognormal(8.0, 0.7, 500)
        w = rng.uniform(0.5, 2.0, 500)
        for eps in (0.0, 0.5, 1.0, 2.0):
            res = atkinson(v, w, eps)
            assert abs(res.yede - res.mean * (1 - res.index)) < 1e-9

    def test_nonpositive_rejected_at_high_aversion(self):
        with pytest.raises(DataValidationError):
            atkinson(np.array([0.0, 1.0]), np.ones(2), 2.0)


class TestWelfareDecomposition:
    def test_identity_reproduces_yede_change(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pre = atkinson(rng.lognormal(8, 0.5, 200), np.ones(200), 2.0)
            post = atkinson(rng.lognormal(7.8, 0.55, 200), np.ones(200), 2.0)
            d = welfare_decomposition(pre, post)
            assert abs(d["total"] - (post.yede / pre.yede - 1.0)) < 1e-12

    def test_no_change_gives_zeros(self):
        a = AtkinsonResult(index=0.3, mean=100.0, yede=70.0)
        d = welfare_decomposition(a, a)
        assert all(abs(v) < 1e-15 for v in d.values())

    def test_pure_mean_shift(self):
        pre = AtkinsonResult(index=0.3, mean=100.0, yede=70.0)
        post = AtkinsonResult(index=0.3, mean=80.0, yede=56.0)
        d = welfare_decomposition(pre, post)
        assert abs(d["equity"]) < 1e-15
        assert abs(d["efficiency"] - (-0.2)) < 1e-15
        assert abs(d["total"] - (-0.2)) < 1e-15


class TestWeightedSample:
    def test_validation(self):
        with pytest.raises(DataValidationError):
            WeightedSample(values=np.ones(3), weights=np.ones(2))
        with pytest.raises(DataValidationError):
            WeightedSample(values=np.ones(2), weights=np.array([-1.0, 1.0]))
        with pytest.raises(DataValidationError):
            WeightedSample(values=np.ones(2), weights=np.zeros(2))
        s = WeightedSample(values=np.array([1.0, 2.0]), weights=np.ones(2),
                           rank_key=np.array([2.0, 1.0]))
        assert s.rank_key is not None


# ---------------------------------------------------------------------------
# One sort per ranking: the block form against its n = 1 calls
# ---------------------------------------------------------------------------


def progressivity_reference(x, w, burdens, names):
    """progressivity_table as one concentration or gini call (and one sort)
    per index, each on a contiguous copy of the 1-D array it is built from;
    the rates are dots over the burden matrix's own columns."""
    g_pre = gini(x, w)
    total_x = float(np.dot(w, x))
    total_burden_h = burdens.sum(axis=1)
    rows, parts = [], []
    for j, name in enumerate(names):
        b = burdens[:, j]
        rate = float(np.dot(w, b)) / total_x
        ci_b = concentration(b.copy(), w, x) if np.dot(w, b) != 0 else 0.0
        kak = ci_b - g_pre if np.dot(w, b) != 0 else 0.0
        ci_adj = concentration(x + b, w, x)
        real = x / (1.0 + np.divide(b, x, out=np.zeros_like(b), where=x > 0))
        rows.append([name, g_pre, ci_b, ci_adj, ci_adj - g_pre, kak, rate,
                     gini(real, w) - concentration(real, w, x)])
        parts.append(rate * kak)
    denom = sum(parts)
    for row, part in zip(rows, parts):
        row.append(part / denom if denom != 0 else 0.0)
    real_total = x / (1.0 + np.divide(total_burden_h, x, out=np.zeros_like(total_burden_h),
                                      where=x > 0))
    burdened = np.dot(w, total_burden_h) != 0
    ci_b = concentration(total_burden_h, w, x) if burdened else 0.0
    ci_real = concentration(real_total, w, x)
    rows.append(["total", g_pre, ci_b, ci_real, g_pre - gini(real_total, w),
                 ci_b - g_pre if burdened else 0.0, float(np.dot(w, total_burden_h)) / total_x,
                 gini(real_total, w) - ci_real, 1.0 if denom != 0 else 0.0])
    return rows


@st.composite
def weighted_blocks(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ties = draw(st.booleans())  # ranking keys with many ties, broken by input order
    key = rng.integers(0, 4, n).astype(float) if ties else rng.lognormal(8.0, 1.0, n)
    w = rng.random(n) * 10.0 + draw(st.sampled_from([0.0, 0.1]))
    w[0] += 1.0
    block = rng.normal(1.0, 2.0, (n, m))
    if draw(st.booleans()):
        block = np.asfortranarray(block)
    return key, w, block


class TestConcentrationBlock:
    @settings(max_examples=150, deadline=None)
    @given(case=weighted_blocks())
    def test_block_equals_its_column_calls_bit_for_bit(self, case):
        key, w, block = case
        got = concentration(block, w, key)
        assert got.shape == (block.shape[1],)
        for j in range(block.shape[1]):
            assert got[j] == concentration(block[:, j], w, key)

    def test_scalar_call_is_the_one_column_block(self):
        rng = np.random.default_rng(4)
        x, w, key = rng.random(50) + 0.1, rng.random(50) + 0.5, rng.random(50)
        one = concentration(x, w, key)
        assert isinstance(one, float)
        assert concentration(x[:, np.newaxis], w, key).tolist() == [one]

    def test_zero_mean_column_rejected(self):
        block = np.column_stack([np.arange(1.0, 6.0), [1.0, -1.0, 2.0, -2.0, 0.0]])
        with pytest.raises(DataValidationError, match="zero-mean"):
            concentration(block, np.ones(5), np.arange(5.0))

    @settings(max_examples=100, deadline=None)
    @given(case=weighted_blocks(), zero_group=st.booleans())
    def test_progressivity_table_equals_per_index_calls_bit_for_bit(self, case, zero_group):
        key, w, block = case
        x = key + 1.0
        burdens = np.ascontiguousarray(np.abs(block) * x[:, np.newaxis] * 0.1)
        if zero_group:
            burdens[:, 0] = 0.0
        names = [f"g{j}" for j in range(burdens.shape[1])]
        got = [[r.name, r.ci_pre, r.ci_burden, r.ci_adjusted, r.rs, r.kakwani, r.avg_rate,
                r.reranking, r.contribution_to_k]
               for r in progressivity_table(x, w, burdens, names)]
        assert got == progressivity_reference(x, w, burdens, names)
