"""Price formation, revenue recycling, and end-to-end run invariants."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from priceshock.data import (DEFAULT_REPORT_GROUPS, BridgingMatrix, CategorySet, HouseholdSurvey,
                             LoadReport, load_household_survey, read_table)
from priceshock.demand import (LesParameters, compensating_variation, equivalent_income,
                               les_calibrate_frisch, les_demand)
from priceshock.errors import DataValidationError
from priceshock.fixtures import io2_table
from priceshock.imputation import wls_coefficients
from priceshock.scenario import (
    MIN_GROUP_OBS,
    VALUE_BLOCK_ROWS,
    DemandGroups,
    Inputs,
    Prices,
    RunConfig,
    _engel_fit,
    assemble,
    build_tables,
    carbon_tax_scenario,
    compose_relatives,
    consumer_price,
    emit_reports,
    estimate_demand_groups,
    parse_config,
    rebuild_tables_from_csv,
    recycle_revenue,
    run_scenario,
    value_households,
)

from oracles import fuel_table


class TestConsumerPrice:
    def test_no_taxes_identity(self):
        assert consumer_price(0.17) == pytest.approx(0.17, abs=1e-15)

    def test_multiplicative_taxes_preserve_unchanged_prices(self):
        assert consumer_price(0.0, vat=0.2, advalorem=0.05) == 0.0

    def test_excise_dampens_hand_example(self):
        # (110+10)*1.1 / ((100+10)*1.1) - 1 = 120/110 - 1
        got = consumer_price(0.10, vat=0.1, excise_per_unit=10.0, base_price=100.0)
        assert abs(got - (120.0 / 110.0 - 1.0)) < 1e-12

    def test_negative_rates_rejected(self):
        with pytest.raises(DataValidationError):
            consumer_price(0.1, vat=-0.1)
        with pytest.raises(DataValidationError):
            consumer_price(0.1, base_price=0.0)


class TestConsumerPriceArrays:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_array_form_equals_per_element_scalar_calls(self, data):
        k = data.draw(st.integers(1, 19))

        def column(lo, hi):
            return data.draw(arrays(float, k, elements=st.floats(lo, hi)))

        r, vat, adv = column(-0.99, 10.0), column(0.0, 1.0), column(0.0, 1.0)
        excise, base = column(0.0, 100.0), column(0.01, 500.0)
        got = consumer_price(r, vat=vat, advalorem=adv, excise_per_unit=excise, base_price=base)
        expected = [consumer_price(*args) for args in zip(r.tolist(), vat.tolist(), adv.tolist(),
                                                          excise.tolist(), base.tolist())]
        assert all(type(v) is float for v in expected)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_scalar_taxes_broadcast_over_relatives(self):
        r = np.array([0.0, 0.1, 0.5])
        got = consumer_price(r, vat=0.2, excise_per_unit=5.0, base_price=50.0)
        assert got.tolist() == [consumer_price(v, vat=0.2, excise_per_unit=5.0, base_price=50.0)
                                for v in r.tolist()]

    def test_array_errors_keep_their_messages(self):
        r = np.zeros(3)
        with pytest.raises(DataValidationError, match="^tax rates must be nonnegative$"):
            consumer_price(r, vat=np.array([0.1, -0.1, 0.0]))
        with pytest.raises(DataValidationError, match="^tax rates must be nonnegative$"):
            consumer_price(r, excise_per_unit=np.array([0.0, 0.0, -1.0]))
        with pytest.raises(DataValidationError, match="^base price must be positive$"):
            consumer_price(r, base_price=np.array([1.0, 0.0, 2.0]))


class TestComposeRelatives:
    def test_two_way_product(self):
        a, b = np.array([0.1, 0.0]), np.array([0.2, 0.3])
        got = compose_relatives(a, b)
        assert np.allclose(got, [(1.1 * 1.2) - 1, 0.3], rtol=1e-15)

    def test_identity_element(self):
        a = np.array([0.17, -0.05])
        assert np.allclose(compose_relatives(a, np.zeros(2)), a, rtol=1e-15, atol=1e-16)

    def test_roundtrip_through_one_is_idempotent(self):
        # (1 + ((1+r) - 1)) == (1+r) exactly for r in (-0.5, 1): composing a
        # second zero shock cannot move the value again
        r = np.array([0.17, -0.05, 0.4289])
        once = compose_relatives(r, np.zeros(3))
        twice = compose_relatives(once, np.zeros(3))
        assert once.tolist() == twice.tolist()


class TestCarbonTax:
    def make_bridge(self):
        t = io2_table()
        return BridgingMatrix(categories=("c0", "c1"), products=t.sectors, shares=np.eye(2))

    def test_zero_rate_zero_relatives(self):
        res = carbon_tax_scenario(0.0, io2_table(), self.make_bridge())
        assert np.all(res.category_relatives == 0)

    def test_hand_relatives_with_identity_bridge(self):
        res = carbon_tax_scenario(10.0, io2_table(), self.make_bridge())
        assert np.allclose(res.category_relatives, [3.5, 4.5], atol=1e-9)
        assert np.allclose(res.producer_relatives, [3.5, 4.5], atol=1e-9)

    def test_rate_linearity(self):
        r1 = carbon_tax_scenario(2.0, io2_table(), self.make_bridge())
        r2 = carbon_tax_scenario(4.0, io2_table(), self.make_bridge())
        assert np.allclose(2 * r1.indirect_relatives, r2.indirect_relatives, rtol=1e-12)

    def test_imported_sectors_excluded_by_default(self):
        t = io2_table()
        from priceshock.data import MrioTable

        t2 = MrioTable(sectors=t.sectors, flows=t.flows, final_demand=t.final_demand,
                       output=t.output, emissions=t.emissions,
                       origin=("domestic", "imported"))
        res = carbon_tax_scenario(10.0, t2, self.make_bridge())
        # only sector 1's intensity (0.1) is taxed: relatives = 1 * L[0, :]
        assert np.allclose(res.category_relatives, [1.5, 0.5], atol=1e-9)
        res_ba = carbon_tax_scenario(10.0, t2, self.make_bridge(), border_adjustment=True)
        assert np.allclose(res_ba.category_relatives, [3.5, 4.5], atol=1e-9)

    def test_direct_fuel_component(self):
        fuels = fuel_table()
        res = carbon_tax_scenario(100.0, io2_table(), self.make_bridge(),
                                  fuels=fuels, fuel_map={0: "diesel"})
        assert abs(res.direct_relatives[0] - 100.0 * 2.68 / 73.4 / 1000.0) < 1e-15
        assert res.direct_relatives[1] == 0.0

    def test_mismatched_bridge_rejected(self):
        bad = BridgingMatrix(categories=("c0",), products=("nope",), shares=np.array([[1.0]]))
        with pytest.raises(DataValidationError, match="products"):
            carbon_tax_scenario(1.0, io2_table(), bad)


class TestRecycling:
    def test_lump_sum_two_households(self):
        t = recycle_revenue(10.0, "lump_sum_per_household", np.array([1.0, 1.0]))
        assert np.allclose(t, [5.0, 5.0])

    def test_per_capita_split(self):
        t = recycle_revenue(8.0, "per_capita", np.array([1.0, 1.0]),
                            sizes=np.array([1.0, 3.0]))
        assert np.allclose(t, [2.0, 6.0])

    def test_zero_revenue(self):
        t = recycle_revenue(0.0, "lump_sum_per_household", np.array([1.0, 2.0]))
        assert np.all(t == 0)

    def test_targeted_scheme(self):
        mask = np.array([True, False, True, False])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        t = recycle_revenue(12.0, "targeted_bottom_q", w, target_mask=mask)
        assert np.all(t[~mask] == 0)
        assert abs(float(w @ t) - 12.0) < 1e-12

    def test_empty_target_rejected(self):
        with pytest.raises(DataValidationError, match="empty target"):
            recycle_revenue(1.0, "targeted_bottom_q", np.ones(3),
                            target_mask=np.zeros(3, dtype=bool))

    def test_conservation_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            w = rng.uniform(0.1, 5.0, n)
            sizes = rng.integers(1, 9, n).astype(float)
            revenue = float(rng.uniform(0, 1e6))
            scheme = ("lump_sum_per_household", "per_capita", "targeted_bottom_q")[int(rng.integers(0, 3))]
            mask = rng.random(n) < 0.4
            if scheme == "targeted_bottom_q" and not mask.any():
                mask[0] = True
            t = recycle_revenue(revenue, scheme, w, sizes=sizes, target_mask=mask)
            assert np.all(t >= 0)
            assert abs(float(w @ t) - revenue) <= 1e-9 * max(1.0, revenue)


class TestConfig:
    def test_parse_and_hash(self, bundle_dir):
        cfg = parse_config(bundle_dir / "config.txt")
        assert cfg.groups == 5
        assert cfg.scale == "sqrt"
        h1 = cfg.config_hash()
        cfg.raw["seed"] = "43"
        assert cfg.config_hash() != h1

    def test_unknown_key_rejected(self, tmp_path, bundle_dir):
        text = (bundle_dir / "config.txt").read_text() + "scenario.frobnicate = 1\n"
        p = tmp_path / "c.txt"
        p.write_text(text)
        with pytest.raises(DataValidationError, match="frobnicate"):
            parse_config(p)

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("files.households = nowhere.csv\nelasticity.exchange_rate = 10\n")
        with pytest.raises(DataValidationError, match="does not exist"):
            parse_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(DataValidationError, match="duplicate key"):
            parse_config(p)

    def test_frisch_cap_at_or_above_minus_one_rejected(self, tmp_path, bundle_dir):
        for cap in ("-1.0", "-0.5"):
            p = derived_config(bundle_dir, tmp_path, "c.txt",
                               lambda t: t + f"\nelasticity.frisch_cap = {cap}")
            with pytest.raises(DataValidationError, match="elasticity.frisch_cap"):
                parse_config(p)

    @pytest.mark.parametrize("line, message", [
        ("elasticity.engel_scale = weekly", "unknown engel scale 'weekly'"),
        ("imputation.link = cloglog", "unknown imputation link 'cloglog'"),
        ("elasticity.size_bands = 5,2", "elasticity.size_bands"),
        ("scenario.recycling_quantile = many", "expected a number, got 'many'"),
        ("scenario.impute = maybe", "'scenario.impute': expected a boolean"),
    ])
    def test_bad_values_rejected(self, tmp_path, bundle_dir, line, message):
        p = derived_config(bundle_dir, tmp_path, "c.txt", lambda t: t + "\n" + line)
        with pytest.raises(DataValidationError, match=message):
            parse_config(p)

    def test_removed_epsilon_key_is_unknown(self, tmp_path, bundle_dir):
        p = derived_config(bundle_dir, tmp_path, "c.txt",
                           lambda t: t + "\ndistribution.epsilon = 1.0")
        with pytest.raises(DataValidationError, match="unknown config key"):
            parse_config(p)

    def test_carbon_tax_requires_io_inputs(self, tmp_path, bundle_dir):
        text = "files.households = households.csv\n" \
               "elasticity.exchange_rate = 180\nscenario.carbon_tax = 1.0\n"
        p = bundle_dir / "c_bad.txt"
        p.write_text(text)
        with pytest.raises(DataValidationError, match="mrio"):
            parse_config(p)


def derived_config(bundle_dir, tmp_path, name, transform=lambda t: t):
    """Copy the bundle config with file paths made absolute, then transform it."""
    lines = []
    for line in (bundle_dir / "config.txt").read_text().splitlines():
        if line.startswith("files."):
            key, _, value = line.partition("=")
            lines.append(f"{key.strip()} = {bundle_dir / value.strip()}")
        else:
            lines.append(line)
    p = tmp_path / name
    p.write_text(transform("\n".join(lines)) + "\n")
    return p


@pytest.fixture(scope="module")
def run_result(bundle_dir):
    cfg = parse_config(bundle_dir / "config.txt")
    return run_scenario(cfg)


class TestRunScenario:
    def test_aggregate_table_matches_recomputation(self, run_result):
        hh = run_result.household
        w, x = hh["weight"], hh["x"]
        header, rows = run_result.tables["t2_inflation_drivers"]
        total_row = rows[-1]
        recomputed = float(w @ hh["burden"]) / float(w @ x)
        assert abs(total_row[2] - recomputed) < 1e-9
        for j, g in enumerate(run_result.group_names):
            exp_g = float(w @ (x * hh[f"share_{g}"]))
            assert abs(rows[j][1] - exp_g / float(w @ x)) < 1e-9

    def test_contributions_sum_to_total(self, run_result):
        _, rows = run_result.tables["t2_inflation_drivers"]
        parts = sum(r[3] for r in rows[:-1])
        assert abs(parts - rows[-1][3]) < 1e-12

    def test_behaviour_column_nonpositive(self, run_result):
        _, rows = run_result.tables["t7_welfare"]
        for row in rows:
            assert row[3] <= 1e-12

    def test_cv_below_fixed_basket_burden_per_household(self, run_result):
        hh = run_result.household
        assert np.all(hh["cv"] <= hh["burden"] + 1e-9)
        assert np.all(hh["cv"] >= -1e-9)

    def test_equivalent_income_below_budget_for_price_rises(self, run_result):
        hh = run_result.household
        assert np.all(hh["ye"] <= hh["x"] + 1e-9)

    def test_t6_relations(self, run_result):
        header, rows = run_result.tables["t6_progressivity"]
        i_k, i_ci, i_pre = header.index("kakwani"), header.index("ci_burden"), header.index("ci_pre")
        i_rate = header.index("avg_rate")
        total = rows[-1]
        for row in rows[:-1]:
            assert abs(row[i_k] - (row[i_ci] - row[i_pre])) < 1e-12
        recombined = sum(r[i_rate] / total[i_rate] * r[i_k] for r in rows[:-1])
        assert abs(recombined - total[i_k]) < 1e-12

    def test_null_scenario_zero_burden_and_cv(self, bundle_dir, tmp_path):
        prices = tmp_path / "prices0.csv"
        _, rows, _ = read_table(bundle_dir / "prices.csv")
        prices.write_text("\n".join(["category,pi"] + [f"{r[0]},0" for r in rows]) + "\n")
        cfg_path = derived_config(
            bundle_dir, tmp_path, "null.txt",
            lambda t: t.replace(f"files.prices = {bundle_dir / 'prices.csv'}",
                                f"files.prices = {prices}"),
        )
        res = run_scenario(parse_config(cfg_path))
        assert np.max(np.abs(res.household["burden"])) < 1e-9
        assert np.max(np.abs(res.household["cv"])) < 1e-6
        assert np.max(np.abs(res.household["ye"] - res.household["x"])) < 1e-6
        _, rows8 = res.tables["t8_atkinson"]
        assert abs(rows8[0][1] - rows8[1][1]) < 1e-9  # pre and post indices equal

    def test_composability_of_relatives(self, bundle_dir, tmp_path):
        zero_prices = tmp_path / "prices0.csv"
        _, rows, _ = read_table(bundle_dir / "prices.csv")
        zero_prices.write_text("\n".join(["category,pi"] + [f"{r[0]},0" for r in rows]) + "\n")

        p1 = derived_config(bundle_dir, tmp_path, "inflation.txt")
        p2 = derived_config(
            bundle_dir, tmp_path, "carbon.txt",
            lambda t: t.replace("scenario.carbon_tax = 0.0", "scenario.carbon_tax = 0.02")
                       .replace(f"files.prices = {bundle_dir / 'prices.csv'}",
                                f"files.prices = {zero_prices}"),
        )
        p3 = derived_config(
            bundle_dir, tmp_path, "combined.txt",
            lambda t: t.replace("scenario.carbon_tax = 0.0", "scenario.carbon_tax = 0.02"),
        )
        r1 = run_scenario(parse_config(p1))
        r2 = run_scenario(parse_config(p2))
        r3 = run_scenario(parse_config(p3))
        composed = compose_relatives(r1.relatives_total, r2.relatives_total)
        assert np.max(np.abs(composed - r3.relatives_total)) < 1e-12

    def test_revenue_conservation_in_run(self, bundle_dir, tmp_path):
        p = derived_config(
            bundle_dir, tmp_path, "recycle.txt",
            lambda t: t.replace("scenario.carbon_tax = 0.0", "scenario.carbon_tax = 0.02")
                       .replace("scenario.recycling = none", "scenario.recycling = per_capita"),
        )
        res = run_scenario(parse_config(p))
        hh = res.household
        collected = float(hh["weight"] @ hh["transfer"])
        assert abs(collected - res.revenue) <= 1e-9 * max(1.0, res.revenue)
        assert res.revenue > 0

    def test_targeted_recycling_reaches_bottom_quintile_only(self, bundle_dir, tmp_path):
        p = derived_config(
            bundle_dir, tmp_path, "targeted.txt",
            lambda t: t.replace("scenario.carbon_tax = 0.0", "scenario.carbon_tax = 0.02")
                       .replace("scenario.recycling = none",
                                "scenario.recycling = targeted_bottom_q"),
        )
        res = run_scenario(parse_config(p))
        hh = res.household
        bottom = hh["quintile"] == 0
        assert np.all(hh["transfer"][bottom] > 0)
        assert np.all(hh["transfer"][~bottom] == 0)
        collected = float(hh["weight"] @ hh["transfer"])
        assert abs(collected - res.revenue) <= 1e-9 * max(1.0, res.revenue)
        # net welfare loss of recipients is reduced by the transfer
        assert np.all(hh["cv_net"][bottom] < hh["cv"][bottom])

    def test_footprints_respond_to_prices(self, run_result):
        hh = run_result.household
        assert np.all(hh["fp_before"] > 0)
        assert np.all(hh["fp_after"] > 0)

    def test_elasticity_export_rows(self, run_result):
        table = run_result.elasticities
        assert len(table["group"]), "elasticity table must not be empty"
        cats = set(table["category"].tolist())
        assert "food" in cats and "alcohol" in cats
        assert np.all(table["xi"] <= -1.3)  # money flexibility at or below the cap

    def test_skip_empty_categories_flag(self, bundle_dir, tmp_path):
        p = derived_config(
            bundle_dir, tmp_path, "skip.txt",
            lambda t: t + "\ndistribution.skip_empty_categories = true",
        )
        res = run_scenario(parse_config(p))
        cats = set(res.elasticities["category"].tolist())
        assert "alcohol" not in cats and "childcare" not in cats
        assert "food" in cats

    def test_per_capita_month_engel_scale(self, bundle_dir, tmp_path, run_result):
        p = derived_config(
            bundle_dir, tmp_path, "pcm.txt",
            lambda t: t + "\nelasticity.engel_scale = per_capita_month",
        )
        res = run_scenario(parse_config(p))
        # the run completes with the alternative scaling and still satisfies
        # the per-household welfare bound
        assert np.all(res.household["cv"] <= res.household["burden"] + 1e-9)
        assert res.config_hash != run_result.config_hash

    def test_household_whose_budgeted_share_underflows_is_cobb_douglas(self, bundle_dir,
                                                                       tmp_path, run_result):
        # a weightless household buying alcohol, which no weighted household
        # buys (budget elasticity 0), and food at the smallest subnormal: its
        # food share is 0, so no good has budget elasticity x share > 0
        header, rows, _ = read_table(bundle_dir / "households.csv")
        cells = dict.fromkeys(header, "0") | {"id": "hhcd", "size": "1", "exp_alcohol": "100",
                                               "exp_food": "5e-324"}
        households = tmp_path / "households.csv"
        households.write_text("\n".join([",".join(header), *map(",".join, rows),
                                         ",".join(cells[c] for c in header)]) + "\n")
        p = derived_config(
            bundle_dir, tmp_path, "cd.txt",
            lambda t: t.replace(f"files.households = {bundle_dir / 'households.csv'}",
                                f"files.households = {households}"),
        )
        res = run_scenario(parse_config(p))
        hh = res.household
        assert hh["id"][-1] == "hhcd"
        alcohol = res.relatives_total[res.categories.index("alcohol")]
        assert hh["cv"][-1] == pytest.approx(100.0 * alcohol, rel=1e-12)
        assert res.diagnostics["cobb_douglas_fallbacks"] == (
            run_result.diagnostics["cobb_douglas_fallbacks"] + 1)


class TestEmitAndReload:
    def test_emitted_tables_reload_identically(self, run_result, tmp_path):
        paths = emit_reports(run_result, tmp_path)
        required = [
            "t2_inflation_drivers", "t3_budget_shares", "t5_incidence",
            "t6_progressivity", "t7_welfare", "t8_atkinson", "t9_decomposition",
        ]
        for name in required:
            assert paths[name].exists()
            _, rows, _ = read_table(paths[name])
            assert len(rows) >= 2

    def test_rebuild_from_stored_households_matches(self, run_result, tmp_path, bundle_dir):
        paths = emit_reports(run_result, tmp_path)
        cfg = parse_config(bundle_dir / "config.txt")
        tables, groups = rebuild_tables_from_csv(paths["households"], cfg)
        assert groups == run_result.group_names
        for name, (header, rows) in tables.items():
            orig_header, orig_rows = run_result.tables[name]
            assert header == orig_header
            for ra, rb in zip(rows, orig_rows):
                for a, b in zip(ra, rb):
                    if isinstance(a, str):
                        assert a == b
                    else:
                        # stored at 6 figures; recomputation agrees to that precision
                        assert a == pytest.approx(b, rel=2e-5, abs=2e-5)

    def test_manifest_hash_tracks_config(self, run_result, tmp_path, bundle_dir):
        import json

        paths = emit_reports(run_result, tmp_path)
        manifest = json.loads(paths["manifest"].read_text())
        cfg = parse_config(bundle_dir / "config.txt")
        assert manifest["config_sha256"] == cfg.config_hash()
        cfg.raw["scenario.carbon_tax"] = "1.0"
        assert manifest["config_sha256"] != cfg.config_hash()


class TestBuildTablesDirect:
    def test_minimal_frame(self, bundle_dir):
        cfg = parse_config(bundle_dir / "config.txt")
        n = 40
        rng = np.random.default_rng(17)
        x = rng.lognormal(9, 0.4, n)
        hh = {
            "weight": np.ones(n),
            "size": np.full(n, 4.0),
            "quintile": np.repeat(np.arange(5), n // 5),
            "x": x,
            "equivalised": x / 2.0,
            "pi": np.full(n, 0.1),
            "burden": 0.1 * x,
            "cv": 0.09 * x,
            "transfer": np.zeros(n),
            "cv_net": 0.09 * x,
            "ye": 0.9 * x,
            "ye_net": 0.9 * x,
            "fp_before": np.zeros(n),
            "fp_after": np.zeros(n),
            "share_g1": np.full(n, 0.6),
            "burden_g1": 0.06 * x,
            "share_g2": np.full(n, 0.4),
            "burden_g2": 0.04 * x,
        }
        tables = build_tables(hh, ("g1", "g2"), cfg)
        _, rows = tables["t2_inflation_drivers"]
        assert abs(rows[-1][2] - 0.1) < 1e-12
        _, rows7 = tables["t7_welfare"]
        assert all(abs(r[3] - (-0.01)) < 1e-12 for r in rows7)

    def test_quintile_rows_equal_masked_sums_bit_for_bit(self, bundle_dir, run_result):
        """t3, t5 and t7 take each quintile as a slice of one stable sort; every
        cell equals the sum over a boolean mask of the frame in survey order."""
        hh, names = run_result.household, run_result.group_names
        tables = build_tables(hh, names, parse_config(bundle_dir / "config.txt"))
        assert_quintile_rows_are_masked_sums(tables, hh, names, 5)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tables_equal_the_sums_of_a_loop_over_households(self, data):
        """On drawn frames, some weights 0 and each quintile holding weight:
        the quintile rows bit for bit as masked sums, and t2, t5's average
        row and t7's total row within 1e-12 of sums taken household by
        household."""
        n, n_groups = data.draw(st.integers(10, 300)), data.draw(st.integers(2, 6))
        names = tuple(f"g{j}" for j in range(data.draw(st.integers(1, 4))))

        def column(low, high, zero=False):
            values = st.floats(low, high)
            return data.draw(arrays(float, n, elements=st.just(0.0) | values if zero else values))

        hh = {"weight": column(0.01, 1e3, zero=True),
              "size": data.draw(arrays(float, n, elements=st.integers(1, 8).map(float))),
              "quintile": data.draw(arrays(np.int64, n, elements=st.integers(0, n_groups - 1))),
              "x": column(1.0, 1e6), "equivalised": column(1.0, 1e6), "burden": column(0.0, 1e4),
              "cv": column(0.0, 1e4), "ye_net": column(1.0, 1e6)}
        for g in names:
            hh[f"share_{g}"], hh[f"burden_{g}"] = column(0.0, 1.0), column(0.0, 1e4, zero=True)
        held = data.draw(st.permutations(range(n)))[:n_groups]
        hh["quintile"][held] = np.arange(n_groups)
        hh["weight"][held] = np.maximum(hh["weight"][held], 1.0)
        tables = build_tables(hh, names, RunConfig(files={}, groups=n_groups))
        assert_quintile_rows_are_masked_sums(tables, hh, names, n_groups)

        def loop_sum(*columns):  # sum over households of the product of their cells
            return math.fsum(math.prod(c[i] for c in columns) for i in range(n))

        w, x = hh["weight"], hh["x"]
        agg_x = loop_sum(w, x)
        total_rate = loop_sum(w, hh["burden"]) / agg_x
        t2 = []
        for g in names:
            exp_g, b_g = loop_sum(w, x, hh[f"share_{g}"]), loop_sum(w, hh[f"burden_{g}"])
            t2.append([exp_g / agg_x, b_g / exp_g if exp_g > 0 else 0.0, b_g / agg_x])
        t2.append([1.0, total_rate, total_rate])
        t5 = [loop_sum(w, hh[f"burden_{g}"] / x) / math.fsum(w) for g in names]
        t7 = [total_rate, loop_sum(w, hh["cv"]) / agg_x]
        close = {"rel": 1e-12, "abs": 0.0}
        assert [row[1:] for row in tables["t2_inflation_drivers"][1]] == [
            pytest.approx(row, **close) for row in t2]
        average, total = tables["t5_incidence"][1][-1], tables["t7_welfare"][1][-1]
        assert average[0] == "average" and average[1:-1] == pytest.approx(t5, **close)
        assert total[0] == "total" and total[1:3] == pytest.approx(t7, **close)
        assert total[3] == total[2] - total[1]


def assert_quintile_rows_are_masked_sums(tables, hh, names, n_groups):
    """Each quintile row of t3, t5 and t7 is, bit for bit, sums over a boolean
    mask of the frame, its households in survey order."""
    w, x = hh["weight"], hh["x"]
    mean_eq = float(np.dot(w, hh["equivalised"])) / float(w.sum())
    for q in range(n_groups):
        sel = hh["quintile"] == q
        wq, xq = w[sel], float(np.dot(w[sel], x[sel]))
        t3 = [float(np.dot(wq, x[sel] * hh[f"share_{g}"][sel])) / xq for g in names]
        t3.append(float(np.dot(wq, hh["equivalised"][sel])) / float(wq.sum()) / mean_eq)
        t5 = [float(np.dot(wq, hh[f"burden_{g}"][sel] / x[sel])) / float(wq.sum())
              for g in names]
        t7 = [float(np.dot(wq, hh[c][sel])) / xq for c in ("burden", "cv")]
        assert tables["t3_budget_shares"][1][q][1:] == t3
        assert tables["t5_incidence"][1][q][1:-1] == t5
        assert tables["t7_welfare"][1][q][1:3] == t7


class TestEngelFitOneSolvePerGroup:
    def test_budget_elasticities_match_per_category_fits(self, bundle_dir):
        from priceshock.data import CategorySet, load_household_survey
        from priceshock.demand import budget_elasticity, price_elasticities
        from priceshock.imputation import wls_fit
        from priceshock.scenario import BUDGET_ELASTICITY_BOUNDS, OWN_PRICE_BOUNDS, _engel_fit

        cfg = parse_config(bundle_dir / "config.txt")
        survey = load_household_survey(bundle_dir / "households.csv", CategorySet.default())
        exp, w, sizes = survey.expenditure, survey.weight, survey.size
        totals = exp.sum(axis=1)
        for sel in (np.ones(len(totals), dtype=bool), sizes <= 2, sizes > 2):
            ln_x = np.log(totals[sel])
            design = np.column_stack([np.ones(sel.sum()), ln_x, ln_x ** 2])
            shares = exp[sel] / totals[sel][:, np.newaxis]
            got_budget, _, _, got_xi, got_clamped = _engel_fit(exp[sel], totals[sel], ln_x,
                                                               totals[sel] / sizes[sel], w[sel], cfg)
            # one wls_fit per bought category, as the elasticities were first computed
            mean_shares = w[sel] @ shares / w[sel].sum()
            ln_c = float(np.dot(w[sel], ln_x)) / float(w[sel].sum())
            lo, hi = BUDGET_ELASTICITY_BOUNDS
            budget, clamped = np.zeros(exp.shape[1]), 0
            for j in np.flatnonzero(mean_shares > 0):
                beta = wls_fit(design, shares[:, j], w[sel], ["c", "x", "x2"]).coefficients
                eta = float(budget_elasticity(mean_shares[j], beta[1], beta[2], ln_c))
                clamped += not lo <= eta <= hi
                budget[j] = min(max(eta, lo), hi)
            assert np.allclose(got_budget, budget, rtol=1e-10, atol=0.0)
            assert (got_budget == 0).tolist() == (mean_shares <= 0).tolist()
            own = np.diag(price_elasticities(budget, mean_shares, got_xi))
            clamped += int(np.sum((own < OWN_PRICE_BOUNDS[0]) | (own > OWN_PRICE_BOUNDS[1])))
            assert got_clamped == clamped


def assert_row_is_the_fit(groups, g, fit, label):
    """Row ``g`` of ``groups`` holds the bits of one ``_engel_fit`` row."""
    budget, own_price, mean_shares, xi, clamped = fit
    for got, want in ((groups.budget[g], budget), (groups.own_price[g], own_price),
                      (groups.mean_shares[g], mean_shares)):
        assert got.tobytes() == want.tobytes(), label
    assert (groups.xi[g], groups.clamped[g]) == (xi, clamped), label


class TestFallbackFitsOnDemand:
    """A quintile's fit and the whole sample's are made only when a sparse
    cell falls back to them, and then once each."""

    def test_demo_fits_each_cell_and_each_fallback_source_once(self, bundle_dir):
        cfg = parse_config(bundle_dir / "config.txt")
        with mock.patch("priceshock.scenario.wls_coefficients", wraps=wls_coefficients) as counted:
            result = run_scenario(cfg)
        # 14 cells: 11 fitted on their own rows, 3 falling back to 3 distinct fits
        assert result.diagnostics["group_fallbacks"] == 3
        assert counted.call_count == 14

    def test_a_sparse_quintile_gets_the_whole_sample_fit(self, bundle_dir):
        cfg = parse_config(bundle_dir / "config.txt")
        survey = load_household_survey(bundle_dir / "households.csv", CategorySet.default())
        exp, w, sizes = survey.expenditure, survey.weight, survey.size
        totals = exp.sum(axis=1)
        lo, hi = cfg.size_bands
        band = np.where(sizes <= lo, 0, np.where(sizes <= hi, 1, 2))
        # q1 gets 6 households, too few for a fit of its own; q2 keeps 5 of
        # its size-band-1 households, so that cell falls back to q2's fit
        quintiles = np.r_[np.zeros(6, dtype=int), 1 + np.arange(len(totals) - 6) % 4]
        quintiles[np.flatnonzero((quintiles == 1) & (band == 0))[5:]] = 2
        with mock.patch("priceshock.scenario.wls_coefficients", wraps=wls_coefficients) as counted:
            groups = estimate_demand_groups(exp, totals, w, sizes, quintiles, cfg)
        cells = np.bincount(3 * quintiles + band)
        assert groups.n_fallback == int(np.sum((cells > 0) & (cells < MIN_GROUP_OBS))) == 3
        assert counted.call_count == 13

        def engel_fit(rows):
            ln_x = np.log(totals[rows])
            return _engel_fit(exp[rows], totals[rows], ln_x, totals[rows] / sizes[rows], w[rows],
                              cfg)

        pooled, q2 = engel_fit(np.ones(len(totals), dtype=bool)), engel_fit(quintiles == 1)
        row_of = {label: g for g, label in enumerate(groups.labels.tolist())}
        for label, want in (("q1_band2", pooled), ("q1_band3", pooled), ("q2_band1", q2)):
            assert_row_is_the_fit(groups, row_of[label], want, label)

    def test_households_of_weight_0_change_no_fit(self, bundle_dir, tmp_path):
        """Six weight-0 copies of hh0027 lift its cell q2_band1 from 4 rows to
        MIN_GROUP_OBS, but not its households of positive weight: it still
        falls back to q2's fit, and the tables, the elasticities and the
        prices stay byte for byte those of the run without the copies."""
        survey = (bundle_dir / "households.csv").read_text()
        row = next(line for line in survey.splitlines() if line.startswith("hh0027,"))
        _, weight, rest = row.split(",", 2)
        padded = tmp_path / "households.csv"
        padded.write_text(survey + "".join(f"hh0027_{i},0,{rest}\n" for i in range(6)))
        cfg_path = derived_config(bundle_dir, tmp_path, "padded.txt", lambda t: t.replace(
            f"files.households = {bundle_dir / 'households.csv'}", f"files.households = {padded}"))
        results = {}
        for name, cfg in (("plain", parse_config(bundle_dir / "config.txt")),
                          ("padded", parse_config(cfg_path))):
            result = run_scenario(cfg)
            emit_reports(result, tmp_path / name)
            results[name] = result
        padded_hh = results["padded"].household
        assert float(weight) > 0 and len(padded_hh["id"]) == 246
        assert {f"hh0027_{i}" for i in range(6)} <= set(padded_hh["id"][padded_hh["quintile"] == 1])
        for key in ("group_fallbacks", "elasticity_clamps"):
            assert results["padded"].diagnostics[key] == results["plain"].diagnostics[key], key
        for name in (*results["plain"].tables, "elasticities", "consumer_prices"):
            assert ((tmp_path / "padded" / f"{name}.csv").read_bytes()
                    == (tmp_path / "plain" / f"{name}.csv").read_bytes()), name

    def test_each_cell_is_fitted_on_its_rows_in_survey_order(self, bundle_dir):
        """A cell's fit takes its slice of the stable sort by cell: the rows of
        a boolean mask, in the same order, so the same bits."""
        cfg = parse_config(bundle_dir / "config.txt")
        survey = load_household_survey(bundle_dir / "households.csv", CategorySet.default())
        exp, w, sizes = survey.expenditure, survey.weight, survey.size
        totals = exp.sum(axis=1)
        lo, hi = cfg.size_bands
        band = np.where(sizes <= lo, 0, np.where(sizes <= hi, 1, 2))
        quintiles = np.arange(len(totals)) % 5  # cells interleaved in survey order
        groups = estimate_demand_groups(exp, totals, w, sizes, quintiles, cfg)
        cells = 3 * quintiles + band
        fitted = 0
        for index, label in enumerate(groups.labels.tolist()):
            q, b = int(label[1]) - 1, int(label[-1]) - 1
            rows = cells == 3 * q + b
            assert (groups.of == index).tolist() == rows.tolist()
            if rows.sum() < MIN_GROUP_OBS:
                continue
            ln_x = np.log(totals[rows])
            want = _engel_fit(exp[rows], totals[rows], ln_x, totals[rows] / sizes[rows], w[rows],
                              cfg)
            assert_row_is_the_fit(groups, index, want, label)
            fitted += 1
        assert fitted >= 10


def test_estimate_demand_groups_peak_memory_stays_under_the_expenditure():
    """estimate_demand_groups adds a traced peak under the bytes of the
    (households x categories) expenditure it reads: it gathers one cell's
    rows at a time. Copying the budget shares, the design and the vectors
    into cell order first took about 1.85x."""
    n, k = 100_000, len(CategorySet.default())
    rng = np.random.default_rng(5)
    exp = rng.lognormal(5.0, 1.0, (n, k)) * (rng.random((n, k)) < 0.8)
    exp[:, 0] += 1.0
    totals = exp.sum(axis=1)
    sizes = rng.integers(1, 9, n).astype(float)
    weights = rng.uniform(0.5, 20.0, n)
    quintiles = rng.integers(0, 5, n)
    tracemalloc.start()
    try:
        groups = estimate_demand_groups(exp, totals, weights, sizes, quintiles,
                                        RunConfig(files={}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(groups.labels), groups.n_fallback) == (15, 0)  # every cell fits its own rows
    assert peak < exp.nbytes, f"peak {peak / exp.nbytes:.2f}x the expenditure"


def demand_groups(budget, xi, of) -> DemandGroups:
    """A table of the given budget elasticities and xi, one row per group,
    and each household's row ``of``; its other columns are zeros."""
    budget, xi = np.asarray(budget, dtype=float), np.asarray(xi, dtype=float)
    zeros = np.zeros_like(budget)
    return DemandGroups(labels=np.array([f"g{g}" for g in range(len(xi))]), budget=budget,
                        own_price=zeros, mean_shares=zeros, xi=xi,
                        clamped=np.zeros(len(xi), dtype=int), of=np.asarray(of), n_fallback=0)


class TestValueHouseholdsAgainstTheScalarFunctions:
    """value_households values every household in one pass, its group's
    elasticities taken from a table by group id; where every household
    affords its committed bundle, each one's values match the one-household
    functions within 1e-12 relative."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 300), n_groups=st.integers(1, 4), k=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1), transfer=st.sampled_from([0.0, 0.2]),
           with_emissions=st.booleans())
    def test_block_values_match_a_per_household_loop(self, n, n_groups, k, seed, transfer,
                                                     with_emissions):
        rng = np.random.default_rng(seed)
        exp = rng.lognormal(5.0, 1.0, (n, k)) * (rng.random((n, k)) < 0.7)
        exp[exp.sum(axis=1) == 0, 0] = 1.0
        totals = exp.sum(axis=1)
        shares = exp / totals[:, np.newaxis]
        transfers = transfer * rng.random(n) * totals
        p0, p1 = np.ones(k), 1.0 + 0.3 * rng.random(k)
        emissions = rng.random(k) if with_emissions else None
        # zero budget elasticities leave some households Cobb-Douglas, and a
        # large |xi| some short of their committed bundle
        drawn = [(2.0 * rng.random(k) * (rng.random(k) < 0.8), -1.2 - rng.exponential(2.0))
                 for _ in range(n_groups)]
        assignment = rng.integers(0, n_groups, n)
        assignment[:n_groups] = np.arange(n_groups)  # no group is empty
        groups = demand_groups(*zip(*drawn), assignment)

        values, infeasible, n_cobb_douglas = value_households(
            groups, exp, totals, transfers, p1, emissions)

        want = np.zeros((4, n))
        short, cobb_douglas = np.zeros(n, dtype=bool), 0
        for h in range(n):
            budget, xi = drawn[assignment[h]]
            cd = not np.any((exp[h] > 0) & (budget * shares[h] > 0))
            cobb_douglas += cd
            fit = les_calibrate_frisch(1.0 if cd else budget, xi, shares[h], exp[h], totals[h])
            params = LesParameters(gamma=0.0 * fit.gamma if cd else fit.gamma, phi=fit.phi)
            short[h] = params.committed_cost(p1) >= totals[h]
            if short[h]:
                continue
            net = totals[h] + transfers[h]
            want[:, h] = (compensating_variation(p0, p1, totals[h], params),
                          equivalent_income(p0, p1, totals[h], params),
                          equivalent_income(p0, p1, net, params),
                          les_demand(p1, net, params) @ emissions if with_emissions else 0.0)
        assert infeasible.tolist() == short.tolist()
        assert n_cobb_douglas == cobb_douglas
        if short.any():
            # the run reads no value once a household is short of its committed
            # bundle: its block (here every household) is not valued
            assert n <= VALUE_BLOCK_ROWS and not values.any()
        else:
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(10, 200), n_groups=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_each_household_gets_the_bits_its_group_alone_gives(self, n, n_groups, seed):
        """The closed forms are row-wise: valuing all households at once
        gives each the cv and equivalent incomes of a call on its group's
        households alone."""
        rng = np.random.default_rng(seed)
        k = 5
        exp = rng.lognormal(5.0, 1.0, (n, k)) * (rng.random((n, k)) < 0.7)
        exp[exp.sum(axis=1) == 0, 0] = 1.0
        totals = exp.sum(axis=1)
        transfers = 0.2 * rng.random(n) * totals
        p1 = 1.0 + 0.1 * rng.random(k)
        budget = 0.5 + rng.random((n_groups, k))
        xi = -2.0 - rng.random(n_groups)
        assignment = rng.integers(0, n_groups, n)
        values, infeasible, _ = value_households(demand_groups(budget, xi, assignment), exp,
                                                 totals, transfers, p1, None)
        assert not infeasible.any()
        for g in range(n_groups):
            rows = assignment == g
            if not rows.any():
                continue
            alone, _, _ = value_households(
                demand_groups(budget[g:g + 1], xi[g:g + 1], np.zeros(rows.sum(), dtype=int)),
                exp[rows], totals[rows], transfers[rows], p1, None)
            assert values[:3, rows].tobytes() == alone[:3].tobytes()


class TestReportGroupMatrix:
    """assemble sums each report group's shares and burdens through one 0/1
    category-to-group matrix; each cell equals the sum of the group's
    category columns within 1e-15 of the sum of their magnitudes (relative,
    for the shares and any nonnegative burden)."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_group_columns_equal_masked_column_sums(self, data):
        cats = CategorySet.default()
        n, k = data.draw(st.integers(1, 12)), len(cats)
        cell = st.one_of(st.just(0.0), st.floats(1e-6, 1e9))
        exp = data.draw(arrays(float, (n, k), elements=cell))
        exp[exp.sum(axis=1) == 0, 0] = 1.0  # the loader keeps positive totals only
        rel = data.draw(arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(-0.99, 1e6))))
        frame = HouseholdSurvey(ids=np.array([f"h{i}" for i in range(n)]), weight=np.ones(n),
                                size=np.ones(n), income=None, demographic_names=(),
                                demographics=np.zeros((n, 0)), expenditure=exp,
                                report=LoadReport(source="test"))
        inputs = Inputs(cats, frame, None, None, None, None, np.zeros(k))
        prices = Prices(rel, np.zeros(k), np.zeros(k), np.zeros(n), None)
        totals = exp.sum(axis=1)
        shares = exp / totals[:, np.newaxis]
        ranked = (totals, totals, np.zeros(n, dtype=int))
        household, _ = assemble(RunConfig(files={}), inputs, prices, ranked, np.zeros((4, n)),
                                np.zeros(n), demand_groups(np.zeros((0, k)), [], []))
        for g, members in DEFAULT_REPORT_GROUPS.items():
            mask = np.isin(cats.ids, members)
            for name, terms in (("share", shares[:, mask]), ("burden", exp[:, mask] * rel[mask])):
                got, want = household[f"{name}_{g}"], terms.sum(axis=1)
                assert (np.abs(got - want) <= 1e-15 * np.abs(terms).sum(axis=1)).all(), (name, g)
