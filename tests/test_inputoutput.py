"""Inter-industry algebra against hand-derived and exact-rational oracles."""

import dataclasses
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceshock import inputoutput, scenario
from priceshock.cli import main

from priceshock.data import BridgingMatrix, FuelTable, HouseholdRecord, MrioTable
from priceshock.errors import (
    ConvergenceError,
    DataValidationError,
    NonProductiveEconomyError,
)
from priceshock.fixtures import io2_table
from priceshock.inputoutput import (
    TechnologyMatrix,
    bridge_to_categories,
    bridge_to_industry,
    cost_passthrough,
    direct_fuel_intensity,
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
from priceshock.scenario import carbon_tax_scenario

from oracles import fuel_table

# hand derivation on the two-sector table: det(I - A) = 0.8*0.9 - 0.12 = 0.6
L_HAND = np.array([[0.9, 0.3], [0.4, 0.8]]) / 0.6


def random_productive(rng, n, rho_max=0.95):
    a = rng.random((n, n))
    a *= rng.uniform(0.1, rho_max) / a.sum(axis=0).max()
    return TechnologyMatrix(sectors=tuple(f"s{i}" for i in range(n)), coefficients=a)


class TestTechnologyMatrix:
    def test_hand_division(self):
        tech = technology_matrix(io2_table())
        assert tech.coefficients.tolist() == [[0.2, 0.3], [0.4, 0.1]]

    def test_zero_flows_give_zero_coefficients(self):
        t = MrioTable(sectors=("a", "b"), flows=np.zeros((2, 2)),
                      final_demand=np.array([5.0, 7.0]), output=np.array([5.0, 7.0]),
                      emissions=np.zeros(2), origin=("domestic", "domestic"))
        assert np.all(technology_matrix(t).coefficients == 0)

    def test_column_sum_above_one_names_sector(self):
        t = MrioTable(sectors=("heavy", "light"), flows=np.array([[60.0, 0.0], [60.0, 0.0]]),
                      final_demand=np.array([40.0, 40.0]), output=np.array([100.0, 100.0]),
                      emissions=np.zeros(2), origin=("domestic", "domestic"))
        with pytest.raises(NonProductiveEconomyError, match="heavy"):
            technology_matrix(t)

    @pytest.mark.parametrize("cells", [[-1e-300], [np.nan, -0.5], [-0.5, np.nan], [-np.inf]])
    def test_a_negative_coefficient_is_refused_whatever_else(self, cells):
        """A negative coefficient is refused even beside a nan."""
        a = np.full((2, 2), 0.1)
        a.flat[:len(cells)] = cells
        with pytest.raises(DataValidationError, match="coefficients must be nonnegative"):
            TechnologyMatrix(sectors=("a", "b"), coefficients=a)

    def test_reproduces_output_from_demand(self):
        t = io2_table()
        tech = technology_matrix(t)
        assert np.allclose(tech.coefficients @ t.output + t.final_demand, t.output)


class TestLeontiefInverse:
    def test_hand_two_by_two(self):
        inv = leontief_inverse(technology_matrix(io2_table()))
        assert np.allclose(inv.matrix, L_HAND, atol=1e-9)
        assert inv.method == "direct"

    def test_zero_technology_gives_identity(self):
        tech = TechnologyMatrix(sectors=("a", "b"), coefficients=np.zeros((2, 2)))
        assert np.allclose(leontief_inverse(tech).matrix, np.eye(2))

    def test_requirements_times_demand_reproduce_output(self):
        t = io2_table()
        inv = leontief_inverse(technology_matrix(t))
        assert np.allclose(inv.matrix @ t.final_demand, [100.0, 100.0])

    def test_neumann_agrees_with_direct(self):
        tech = technology_matrix(io2_table())
        direct = leontief_inverse(tech, "direct")
        series = leontief_inverse(tech, "neumann")
        assert series.method == "neumann"
        assert series.terms is not None
        assert np.max(np.abs(direct.matrix - series.matrix)) < 1e-6

    def test_neumann_nonconvergence_reports_last_norm(self):
        tech = technology_matrix(io2_table())
        with pytest.raises(ConvergenceError, match="max-norm"):
            leontief_inverse(tech, "neumann", max_terms=2)

    def test_defining_residual_small(self):
        tech = technology_matrix(io2_table())
        for method in ("direct", "neumann"):
            inv = leontief_inverse(tech, method)
            assert leontief_residual(tech, inv) < 1e-8
            assert np.all(inv.matrix >= np.eye(2) - 1e-12)

    def test_agreement_on_random_productive_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            tech = random_productive(rng, int(rng.integers(2, 21)))
            d = leontief_inverse(tech, "direct").matrix
            s = leontief_inverse(tech, "neumann").matrix
            assert np.max(np.abs(d - s)) < 1e-6

    def test_monotone_in_coefficients(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            tech = random_productive(rng, n, rho_max=0.8)
            a2 = tech.coefficients.copy()
            i, j = rng.integers(0, n, size=2)
            a2[i, j] += min(0.05, 0.9 - a2[:, j].sum())
            l1 = leontief_inverse(tech).matrix
            l2 = leontief_inverse(TechnologyMatrix(tech.sectors, a2)).matrix
            assert np.all(l2 >= l1 - 1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(DataValidationError):
            leontief_inverse(technology_matrix(io2_table()), "cholesky")


class TestCostPassthrough:
    def test_no_intermediates_returns_shock(self):
        tech = TechnologyMatrix(sectors=("a", "b"), coefficients=np.zeros((2, 2)))
        inv = leontief_inverse(tech)
        shock = np.array([0.3, 0.7])
        assert cost_passthrough(inv, shock).tolist() == [0.3, 0.7]

    def test_carbon_shock_hand_product(self):
        t = io2_table()
        inv = leontief_inverse(technology_matrix(t))
        shock = 10.0 * sector_intensity(t).total  # [1, 3]
        assert np.allclose(cost_passthrough(inv, shock), [3.5, 4.5], atol=1e-9)

    def test_zero_rate_gives_zero(self):
        inv = leontief_inverse(technology_matrix(io2_table()))
        assert np.all(cost_passthrough(inv, np.array([1.0, 3.0]), rate=0.0) == 0)

    def test_rate_outside_unit_interval_rejected(self):
        inv = leontief_inverse(technology_matrix(io2_table()))
        for rate in (-0.1, 1.1):
            with pytest.raises(DataValidationError):
                cost_passthrough(inv, np.array([1.0, 3.0]), rate=rate)

    def test_linearity_in_shock(self):
        rng = np.random.default_rng(11)
        inv = leontief_inverse(random_productive(rng, 6))
        t = rng.random(6)
        for alpha in (0.25, 2.0, 7.5):
            assert np.allclose(cost_passthrough(inv, alpha * t),
                               alpha * cost_passthrough(inv, t), rtol=1e-12)


class TestIntensities:
    def test_hand_division(self):
        s = sector_intensity(io2_table())
        assert s.total.tolist() == [0.1, 0.3]
        assert s.domestic.tolist() == [0.1, 0.3]
        assert s.imported.tolist() == [0.0, 0.0]

    def test_imported_sector_split(self):
        t = io2_table()
        t2 = MrioTable(sectors=t.sectors, flows=t.flows, final_demand=t.final_demand,
                       output=t.output, emissions=t.emissions, origin=("domestic", "imported"))
        s = sector_intensity(t2)
        assert s.domestic.tolist() == [0.1, 0.0]
        assert s.imported.tolist() == [0.0, 0.3]

    def test_zero_emissions_and_linearity(self):
        t = io2_table()
        z = MrioTable(sectors=t.sectors, flows=t.flows, final_demand=t.final_demand,
                      output=t.output, emissions=np.zeros(2), origin=t.origin)
        assert np.all(sector_intensity(z).total == 0)
        d = MrioTable(sectors=t.sectors, flows=t.flows, final_demand=t.final_demand,
                      output=t.output, emissions=2 * t.emissions, origin=t.origin)
        assert np.allclose(sector_intensity(d).total, 2 * sector_intensity(t).total)

    def test_energy_intensity_single_fuel(self):
        # lpg at 50.2 per litre, 1.5 kg per litre: 1.5/50.2 kg = 2.988e-5 t per currency
        fuels = FuelTable(fuels=("lpg",), price=np.array([50.2]),
                          carbon_kg_per_unit=np.array([1.5]))
        got = energy_industry_intensity(fuels, np.array([1.0]))
        assert abs(got - 1.5 / 50.2 / 1000.0) < 1e-15
        assert abs(got - 2.988e-5) < 1e-8

    def test_energy_intensity_mix_invariance_for_equal_fuels(self):
        fuels = FuelTable(fuels=("a", "b"), price=np.array([10.0, 20.0]),
                          carbon_kg_per_unit=np.array([1.0, 2.0]))  # both 0.1 kg per currency
        for mix in ([1.0, 0.0], [0.3, 0.7], [0.5, 0.5]):
            assert abs(energy_industry_intensity(fuels, np.array(mix)) - 1e-4) < 1e-18

    def test_energy_intensity_weight_validation(self):
        fuels = fuel_table()
        with pytest.raises(DataValidationError, match="sum to"):
            energy_industry_intensity(fuels, np.full(len(fuels.fuels), 0.5))


class TestEmbodied:
    def test_hand_product_and_conservation(self):
        t = io2_table()
        inv = leontief_inverse(technology_matrix(t))
        m = embodied_intensity(inv, sector_intensity(t))
        assert np.allclose(m["total"], [0.35, 0.45], atol=1e-12)
        assert abs(float(m["total"] @ t.final_demand) - t.emissions.sum()) < 1e-10

    def test_conservation_exact_in_rational_arithmetic(self):
        # same algebra with Fractions: s L d == sum(F) with no rounding at all
        z = [[Fraction(20), Fraction(30)], [Fraction(40), Fraction(10)]]
        x = [Fraction(100), Fraction(100)]
        d = [Fraction(50), Fraction(50)]
        f = [Fraction(10), Fraction(30)]
        a = [[z[i][j] / x[j] for j in range(2)] for i in range(2)]
        det = (1 - a[0][0]) * (1 - a[1][1]) - a[0][1] * a[1][0]
        l = [[(1 - a[1][1]) / det, a[0][1] / det], [a[1][0] / det, (1 - a[0][0]) / det]]
        s = [f[i] / x[i] for i in range(2)]
        m = [s[0] * l[0][j] + s[1] * l[1][j] for j in range(2)]
        assert m[0] * d[0] + m[1] * d[1] == f[0] + f[1]

    def test_zero_intensity_and_zero_technology(self):
        t = io2_table()
        inv = leontief_inverse(technology_matrix(t))
        zero = sector_intensity(MrioTable(sectors=t.sectors, flows=t.flows,
                                          final_demand=t.final_demand, output=t.output,
                                          emissions=np.zeros(2), origin=t.origin))
        assert np.all(embodied_intensity(inv, zero)["total"] == 0)
        eye = leontief_inverse(TechnologyMatrix(t.sectors, np.zeros((2, 2))))
        s = sector_intensity(t)
        assert np.allclose(embodied_intensity(eye, s)["total"], s.total)

    def test_random_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            tech = random_productive(rng, n, rho_max=0.85)
            x = rng.uniform(10, 100, n)
            z = tech.coefficients * x[np.newaxis, :]
            d = x - z.sum(axis=1)
            if np.any(d <= 0):
                continue
            f = rng.uniform(0, 5, n)
            table = MrioTable(sectors=tech.sectors, flows=z, final_demand=d, output=x,
                              emissions=f, origin=tuple("domestic" for _ in range(n)))
            inv = leontief_inverse(technology_matrix(table))
            m = embodied_intensity(inv, sector_intensity(table))
            assert abs(float(m["total"] @ d) / f.sum() - 1.0) < 1e-8


class TestBridging:
    def test_identity_bridge(self):
        b = BridgingMatrix(categories=("a", "b"), products=("p", "q"), shares=np.eye(2))
        v = np.array([3.0, 4.0])
        assert bridge_to_industry(b, v).tolist() == [3.0, 4.0]

    def test_hand_split(self):
        b = BridgingMatrix(categories=("a",), products=("p", "q"),
                           shares=np.array([[0.6, 0.4]]))
        assert bridge_to_industry(b, np.array([10.0])).tolist() == [6.0, 4.0]

    def test_total_preserved_for_row_stochastic(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            shares = rng.random((rows, cols))
            shares /= shares.sum(axis=1, keepdims=True)
            b = BridgingMatrix(categories=tuple(f"c{i}" for i in range(rows)),
                               products=tuple(f"p{i}" for i in range(cols)), shares=shares)
            v = rng.uniform(0, 100, rows)
            assert abs(bridge_to_industry(b, v).sum() - v.sum()) < 1e-9 * max(1, v.sum())

    def test_price_mapping_is_weighted_average(self):
        b = BridgingMatrix(categories=("a",), products=("p", "q"),
                           shares=np.array([[0.6, 0.4]]))
        rel = bridge_to_categories(b, np.array([0.1, 0.2]))
        assert abs(rel[0] - 0.14) < 1e-15


class TestFootprint:
    def test_diesel_unit_volume(self):
        # 73.4 currency at 73.4 per litre buys one litre: 2.68 kg = 0.00268 t
        fuels = fuel_table()
        record = HouseholdRecord(id="h", weight=1, size=1,
                                 expenditure=np.array([73.4, 100.0]))
        fp = household_footprint(record, np.zeros(2), fuels, {0: "diesel"})
        assert abs(fp.direct - 0.00268) < 1e-12
        assert fp.indirect == 0.0
        assert fp.total == fp.direct

    def test_linearity_in_expenditure(self):
        fuels = fuel_table()
        intensity = np.array([2e-4, 1e-4])
        r1 = HouseholdRecord(id="a", weight=1, size=1, expenditure=np.array([50.0, 80.0]))
        r2 = HouseholdRecord(id="b", weight=1, size=1, expenditure=np.array([100.0, 160.0]))
        f1 = household_footprint(r1, intensity, fuels, {0: "petrol"})
        f2 = household_footprint(r2, intensity, fuels, {0: "petrol"})
        assert abs(f2.total - 2 * f1.total) < 1e-12

    def test_small_expenditure_small_footprint(self):
        fuels = fuel_table()
        r = HouseholdRecord(id="a", weight=1, size=1, expenditure=np.array([1e-9, 1e-9]))
        fp = household_footprint(r, np.array([1e-4, 1e-4]), fuels, {0: "diesel"})
        assert fp.total < 1e-10

    def test_unknown_fuel_in_map(self):
        fuels = fuel_table()
        r = HouseholdRecord(id="a", weight=1, size=1, expenditure=np.array([1.0, 1.0]))
        with pytest.raises(DataValidationError, match="plutonium"):
            household_footprint(r, np.zeros(2), fuels, {0: "plutonium"})

    def test_direct_intensity_helper(self):
        fuels = fuel_table()
        assert abs(direct_fuel_intensity(fuels, "diesel") - 2.68 / 73.4 / 1000) < 1e-18


def random_economy(rng, n, k=4):
    """A productive n-sector table (x = (I - A)^-1 d, Z = A diag(x)) and a
    k x n row-stochastic bridge."""
    tech = random_productive(rng, n)
    d = rng.uniform(1.0, 100.0, n)
    x = np.linalg.solve(np.eye(n) - tech.coefficients, d)
    sectors = tech.sectors
    table = MrioTable(sectors=sectors, flows=tech.coefficients * x, final_demand=d, output=x,
                      emissions=rng.uniform(0.0, 5.0, n) * x,
                      origin=tuple(rng.choice(["domestic", "imported"], n).tolist()))
    shares = rng.random((k, n))
    bridge = BridgingMatrix(categories=tuple(f"c{j}" for j in range(k)), products=sectors,
                            shares=shares / shares.sum(axis=1, keepdims=True))
    return table, bridge


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestLeontiefSolve:
    def test_rows_equal_rows_of_the_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            tech = random_productive(rng, n)
            rows = rng.uniform(0.0, 2.0, (int(rng.integers(1, 4)), n))
            got = leontief_solve(tech, rows)
            assert rel_err(got, rows @ leontief_inverse(tech).matrix) < 1e-12
            assert leontief_solve_residual(tech, rows, got) < 1e-12

    def test_hand_two_by_two(self):
        tech = technology_matrix(io2_table())
        rows = np.array([[1.0, 0.0], [0.5, 2.0]])
        assert np.allclose(leontief_solve(tech, rows), rows @ L_HAND, rtol=1e-14, atol=0)

    def test_row_length_must_match(self):
        with pytest.raises(DataValidationError, match="sector count"):
            leontief_solve(technology_matrix(io2_table()), np.ones((2, 3)))

    def test_carbon_tax_scenario_equals_inverse_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            table, bridge = random_economy(rng, int(rng.integers(1, 31)))
            rate, pass_through = rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.0)
            border = bool(rng.integers(0, 2))
            res = carbon_tax_scenario(rate, table, bridge, pass_through=pass_through,
                                      border_adjustment=border)
            inv = leontief_inverse(technology_matrix(table))
            intensity = sector_intensity(table)
            shock = rate * (intensity.total if border else intensity.domestic)
            if shock.any():
                producer = cost_passthrough(inv, shock, pass_through)
                assert rel_err(res.producer_relatives, producer) < 1e-12
                assert rel_err(res.indirect_relatives, bridge_to_categories(bridge, producer)) < 1e-12
            else:
                assert not res.producer_relatives.any()
            embodied = bridge.shares @ embodied_intensity(inv, intensity)["total"]
            assert rel_err(res.unit_emissions, embodied) < 1e-12
            assert leontief_solve_residual(technology_matrix(res.mrio), res.leontief_rows,
                                           res.leontief_solution) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), border=st.booleans())
    def test_the_runs_solve_is_leontief_solve_bit_for_bit(self, n, seed, border):
        """carbon_tax_scenario forms I - A once from the flow table; its solve
        equals leontief_solve on technology_matrix's A, bit for bit."""
        table, bridge = random_economy(np.random.default_rng(seed), n)
        table = dataclasses.replace(table, origin=("imported", *table.origin[1:]))
        res = carbon_tax_scenario(2.0, table, bridge, border_adjustment=border)
        want = leontief_solve(technology_matrix(table), res.leontief_rows)
        assert res.leontief_solution.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_a_column_sum_of_one_or_more_is_refused_in_the_same_words(self, n, seed):
        """A sector that buys more inputs than it sells: carbon_tax_scenario
        refuses the table with technology_matrix's message."""
        rng = np.random.default_rng(seed)
        _, bridge = random_economy(rng, n)
        j = int(rng.integers(n))
        flows, final_demand = rng.random((n, n)), rng.random(n)
        flows[:, j] *= 50.0
        flows[j] *= 0.01
        final_demand[j] *= 0.01
        table = MrioTable(sectors=bridge.products, flows=flows, final_demand=final_demand,
                          output=flows.sum(axis=1) + final_demand, emissions=rng.random(n),
                          origin=("imported",) + ("domestic",) * (n - 1))
        with pytest.raises(NonProductiveEconomyError) as ref:
            technology_matrix(table)
        with pytest.raises(NonProductiveEconomyError) as run:
            carbon_tax_scenario(1.0, table, bridge)
        assert str(run.value) == str(ref.value)

    def test_pass_through_outside_unit_interval_rejected(self):
        table, bridge = random_economy(np.random.default_rng(3), 4)
        with pytest.raises(DataValidationError, match="pass-through rate"):
            carbon_tax_scenario(1.0, table, bridge, pass_through=1.5)


def test_run_never_forms_the_inverse(bundle_dir, tmp_path, monkeypatch):
    """A taxed demo run prices and emits without calling leontief_inverse."""
    def refuse(*args, **kwargs):
        raise AssertionError("leontief_inverse called")

    monkeypatch.setattr(inputoutput, "leontief_inverse", refuse)
    monkeypatch.setattr(scenario, "leontief_inverse", refuse, raising=False)
    work = shutil.copytree(bundle_dir, tmp_path / "b")
    cfg = work / "config.txt"
    cfg.write_text(cfg.read_text().replace("scenario.carbon_tax = 0.0", "scenario.carbon_tax = 0.5"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"), "--quiet"]) == 0
    assert (tmp_path / "r" / "households.csv").exists()
