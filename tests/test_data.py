"""Loader validation, load reports, and CSV round-trips."""

import csv
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import priceshock.data as data_module
import priceshock.scenario as scenario_module
from priceshock.cli import main
from priceshock.data import (
    CategorySet,
    HouseholdRecord,
    MrioTable,
    BridgingMatrix,
    FuelTable,
    HouseholdSurvey,
    LoadReport,
    PriceScenario,
    _csv_field,
    _keyed_order,
    match_labels,
    CSV_BLOCK_ROWS,
    FEW_ROWS,
    SURVEY_VALUE_LIMIT,
    _number_words,
    _write_rows,
    as_survey,
    load_bridge,
    load_fuels,
    load_household_survey,
    load_mrio,
    load_price_relatives,
    read_input,
    read_table,
    write_household_survey,
)
from priceshock.errors import DataValidationError
from priceshock.scenario import (
    MONEY_COLUMNS,
    RunConfig,
    ScenarioResult,
    build_tables,
    emit_reports,
    parse_config,
    rebuild_tables_from_csv,
    run_scenario,
    write_tables,
)

from oracles import format_value

CATS = CategorySet(("food", "fuel", "rest"))


def write_survey_csv(path, rows, header=None):
    header = header or "id,weight,size,inc,exp_food,exp_fuel,exp_rest"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestHouseholdLoader:
    def test_well_formed_file_loads_all_rows(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", [
            "a,1,2,100,50,10,40",
            "b,2,1,200,60,20,20",
            "c,1,3,150,70,0,30",
        ])
        survey = load_household_survey(p, CATS)
        assert len(survey.ids) == 3
        assert survey.report.n_dropped_zero_total == 0
        assert survey.income[0] == 100.0
        assert survey.expenditure[2].tolist() == [70.0, 0.0, 30.0]

    def test_dropped_row_keeps_its_income_unchecked(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50,10,40", "b,2,1,1e300,0,0,0"])
        assert load_household_survey(p, CATS).report.n_dropped_zero_total == 1
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50,10,40", "b,2,1,1e300,1,0,0"])
        with pytest.raises(DataValidationError, match=r"row 3, column 'inc': value 1e\+300 exceeds"):
            load_household_survey(p, CATS)

    def test_zero_expenditure_row_dropped_and_counted(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", [
            "a,1,2,100,50,10,40",
            "b,2,1,200,0,0,0",
        ])
        survey = load_household_survey(p, CATS)
        assert len(survey.ids) == 1
        assert survey.report.n_dropped_zero_total == 1
        # the mutation must be visible in the report, never silent
        assert any("zero total expenditure" in n for n in survey.report.notes)

    def test_negative_expenditure_names_row_and_column(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", [
            "a,1,2,100,50,10,40",
            "b,2,1,200,-5,20,20",
        ])
        with pytest.raises(DataValidationError, match=r"row 3.*exp_food.*-5"):
            load_household_survey(p, CATS)

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,abc,10,40"])
        with pytest.raises(DataValidationError, match=r"row 2.*exp_food.*abc"):
            load_household_survey(p, CATS)

    def test_missing_expenditure_column(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50,10"],
                             header="id,weight,size,inc,exp_food,exp_fuel")
        with pytest.raises(DataValidationError, match="rest"):
            load_household_survey(p, CATS)

    def test_unknown_expenditure_column(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50,10,40,1"],
                             header="id,weight,size,inc,exp_food,exp_fuel,exp_rest,exp_zzz")
        with pytest.raises(DataValidationError, match="exp_zzz"):
            load_household_survey(p, CATS)

    def test_duplicate_column_rejected(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50,10,40"],
                             header="id,weight,size,inc,exp_food,exp_food,exp_rest")
        with pytest.raises(DataValidationError, match="duplicate columns"):
            load_household_survey(p, CATS)

    def test_duplicate_id_rejected(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", [
            "a,1,2,100,50,10,40",
            "a,1,2,100,50,10,40",
        ])
        with pytest.raises(DataValidationError, match="duplicate household id"):
            load_household_survey(p, CATS)

    @pytest.mark.parametrize("first, second, row", [('"a\x00"', "a", 2), ("a", '"a\x00"', 3)])
    def test_id_ending_in_a_nul_is_named_next_to_the_id_without_it(self, tmp_path, first,
                                                                     second, row):
        """The frame's id array would drop the NUL, and the two ids would
        read as one id twice or load as two rows with one id."""
        p = write_survey_csv(tmp_path / "hh.csv", [f"{first},1,2,100,50,10,40",
                                                   f"{second},1,2,100,50,10,40"])
        expected = f"{p}: row {row}, column 'id': id 'a\\x00' ends in a NUL character"
        assert message(load_household_survey, p, CATS) == expected
        assert message(ref_household_survey, p, CATS) == expected

    def test_missing_income_column_is_legal(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,50,10,40"],
                             header="id,weight,size,exp_food,exp_fuel,exp_rest")
        survey = load_household_survey(p, CATS)
        assert survey.income is None

    def test_budget_shares_sum_to_one(self, tmp_path):
        p = write_survey_csv(tmp_path / "hh.csv", ["a,1,2,100,50.5,10.25,39.25"])
        exp = load_household_survey(p, CATS).expenditure[0]
        assert abs((exp / exp.sum()).sum() - 1.0) < 1e-9


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        records = [
            HouseholdRecord(
                id=f"h{i}", weight=round(float(rng.random() * 10), 4),
                size=float(rng.integers(1, 9)),
                expenditure=np.round(rng.random(3) * 1e4, 6),
                demographics={"urban": float(rng.integers(0, 2))},
                disposable_income=round(float(rng.random() * 1e5), 6),
            )
            for i in range(25)
        ]
        p = tmp_path / "hh.csv"
        write_household_survey(p, records, CATS)
        loaded = load_household_survey(p, CATS)
        assert len(loaded.ids) == len(records)
        for i, a in enumerate(records):
            assert a.id == loaded.ids[i]
            assert a.weight == loaded.weight[i]
            assert a.size == loaded.size[i]
            assert a.disposable_income == loaded.income[i]
            assert a.expenditure.tolist() == loaded.expenditure[i].tolist()
            assert a.demographics == dict(zip(loaded.demographic_names,
                                              loaded.demographics[i].tolist()))

    def test_written_file_is_idempotent(self, tmp_path):
        records = [
            HouseholdRecord(id="a", weight=1.5, size=2.0,
                            expenditure=np.array([0.1, 2e-5, 123456.789012]))
        ]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_household_survey(p1, records, CATS)
        write_household_survey(p2, load_household_survey(p1, CATS), CATS)
        assert p1.read_bytes() == p2.read_bytes()


def write_mrio_files(tmp_path, z, d, x, f, sectors=("s1", "s2"), origin=None):
    zp = tmp_path / "z.csv"
    zp.write_text(
        "sector," + ",".join(sectors) + "\n"
        + "\n".join(s + "," + ",".join(str(v) for v in row) for s, row in zip(sectors, z))
        + "\n"
    )
    dp = tmp_path / "d.csv"
    dp.write_text("sector,d\n" + "\n".join(f"{s},{v}" for s, v in zip(sectors, d)) + "\n")
    xp = tmp_path / "x.csv"
    if origin:
        xp.write_text("sector,x,origin\n"
                      + "\n".join(f"{s},{v},{o}" for s, v, o in zip(sectors, x, origin)) + "\n")
    else:
        xp.write_text("sector,x\n" + "\n".join(f"{s},{v}" for s, v in zip(sectors, x)) + "\n")
    fp = tmp_path / "f.csv"
    fp.write_text("sector,f\n" + "\n".join(f"{s},{v}" for s, v in zip(sectors, f)) + "\n")
    return zp, dp, xp, fp


class TestMrioLoader:
    def test_two_sector_table_loads_with_zero_residual(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30])
        t = load_mrio(*paths)
        assert t.flows.tolist() == [[20.0, 30.0], [40.0, 10.0]]
        resid = t.output - (t.flows.sum(axis=1) + t.final_demand)
        assert np.all(resid == 0)
        assert t.origin == ("domestic", "domestic")

    def test_origin_flags_loaded(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30],
                                 origin=("domestic", "imported"))
        t = load_mrio(*paths)
        assert t.origin == ("domestic", "imported")
        assert t.domestic_mask().tolist() == [True, False]

    def test_dimension_mismatch_rejected(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30])
        (tmp_path / "d.csv").write_text("sector,d\ns1,50\ns2,50\ns3,1\n")
        with pytest.raises(DataValidationError, match="labels do not match"):
            load_mrio(*paths)

    def test_identity_violation_names_worst_sector(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [110, 100], [10, 30])
        with pytest.raises(DataValidationError, match=r"s1.*residual"):
            load_mrio(*paths)

    def test_row_order_free_but_label_set_strict(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30])
        (tmp_path / "d.csv").write_text("sector,d\ns2,50\ns1,50\n")
        t = load_mrio(*paths)
        assert t.final_demand.tolist() == [50.0, 50.0]


class TestOtherLoaders:
    def test_bridge_row_sums_enforced(self, tmp_path):
        p = tmp_path / "bridge.csv"
        p.write_text("category,p1,p2\nfood,0.6,0.4\nfuel,1,0\nrest,0.5,0.49\n")
        with pytest.raises(DataValidationError, match=r"rest.*sums to"):
            load_bridge(p, CATS)

    def test_bridge_loads_in_registry_order(self, tmp_path):
        p = tmp_path / "bridge.csv"
        p.write_text("category,p1,p2\nrest,0.5,0.5\nfood,0.6,0.4\nfuel,1,0\n")
        b = load_bridge(p, CATS)
        assert b.categories == CATS.ids
        assert b.shares[0].tolist() == [0.6, 0.4]

    def test_prices_loader(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("category,pi\nfood,0.4289\nfuel,0.7927\nrest,0.3661\n")
        rel = load_price_relatives(p, CATS)
        assert rel.tolist() == [0.4289, 0.7927, 0.3661]

    def test_price_relative_below_minus_one_rejected(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("category,pi\nfood,-1.5\nfuel,0\nrest,0\n")
        with pytest.raises(DataValidationError, match="exceed -1"):
            load_price_relatives(p, CATS)

    def test_fuels_loader_and_positivity(self, tmp_path):
        p = tmp_path / "fuels.csv"
        p.write_text("fuel,price,kgco2_per_unit\ndiesel,73.4,2.68\nlpg,50.2,1.5\n")
        t = load_fuels(p)
        assert t.index("diesel") == 0
        p.write_text("fuel,price,kgco2_per_unit\ndiesel,0,2.68\n")
        with pytest.raises(DataValidationError, match="strictly positive"):
            load_fuels(p)

    def test_read_table_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataValidationError, match="row 3"):
            read_table(p)

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        p = tmp_path / "x.csv"
        p.write_text(f"a,b\n1,2\n{big},3\n")
        with pytest.raises(DataValidationError, match=r"x.csv: row 3: field larger than field limit"):
            read_table(p)
        p.write_text(f'category,p1\nfood,1\n"{big}",1\n')
        with pytest.raises(DataValidationError, match=r"x.csv: row 3: field larger than field limit"):
            load_bridge(p, CATS)

    def test_income_survey_loader(self, tmp_path):
        from priceshock.data import load_income_survey

        p = tmp_path / "income.csv"
        p.write_text(
            "id,weight,size,inc,demo_urban\n"
            "a,1.5,2,45000,1\n"
            "b,2.0,4,30000,0\n"
        )
        survey = load_income_survey(p)
        assert isinstance(survey, HouseholdSurvey) and survey.expenditure is None
        assert len(survey.ids) == 2
        assert survey.income[0] == 45000.0
        assert dict(zip(survey.demographic_names, survey.demographics[1].tolist())) == {"urban": 0.0}

    def test_income_survey_ignores_expenditure_columns_with_note(self, tmp_path):
        from priceshock.data import load_income_survey

        p = tmp_path / "income.csv"
        p.write_text("id,weight,size,inc,exp_food\na,1,1,100,0\n")
        survey = load_income_survey(p)
        assert len(survey.ids) == 1  # zero expenditure must not drop income rows
        assert any("expenditure column" in n for n in survey.report.notes)

    def test_income_survey_requires_income(self, tmp_path):
        from priceshock.data import load_income_survey

        p = tmp_path / "income.csv"
        p.write_text("id,weight,size\na,1,1\n")
        with pytest.raises(DataValidationError, match="inc"):
            load_income_survey(p)

    @pytest.mark.parametrize("row, message", [
        ("b,1e300,2,5,1", "row 3, column 'weight': value 1e+300 exceeds 1e+100"),
        ("b,1,2,1e101,1", "row 3, column 'inc': value 1e+101 exceeds 1e+100"),
        ("b,1,2,5,-1e200", "row 3, column 'demo_urban': value -1e+200 exceeds 1e+100"),
    ])
    def test_income_survey_names_a_value_beyond_the_survey_limit(self, tmp_path, row,
                                                                     message):
        from priceshock.data import load_income_survey

        p = tmp_path / "income.csv"
        p.write_text(f"id,weight,size,inc,demo_urban\na,1,2,45000,1\n{row}\n")
        with pytest.raises(DataValidationError) as caught:
            load_income_survey(p)
        assert str(caught.value) == f"{p}: {message}"


    @pytest.mark.parametrize("row, message", [
        ("b,-1,2,5,1", "row 3, column 'weight': negative value -1.0"),
        ("b,1,0.5,5,1", "row 3, column 'size': value 0.5 < 1"),
        ("a,1,2,5,1", "row 3: duplicate household id 'a'"),
        ("b,-1,0.5,nan,1", "row 3, column 'weight': negative value -1.0"),
        ('"a\x00",1,2,5,1', "row 3, column 'id': id 'a\\x00' ends in a NUL character"),
    ], ids=["negative weight", "size below 1", "duplicate id", "weight before size and inc",
            "id ending in a NUL"])
    def test_income_survey_names_a_faulty_row_as_the_household_loader(self, tmp_path, row,
                                                                        message):
        from priceshock.data import load_income_survey

        p = tmp_path / "income.csv"
        p.write_text(f"id,weight,size,inc,demo_urban\na,1,2,45000,1\n{row}\n")
        with pytest.raises(DataValidationError) as caught:
            load_income_survey(p)
        assert str(caught.value) == f"{p}: {message}"


class TestFlowTableRead:
    """load_mrio and load_bridge give np.loadtxt the row count they know, so
    that it reads each file into one record array, and check its values by
    their least and greatest value; faults read as they did."""

    def test_each_file_is_read_once_with_its_row_count(self, tmp_path):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30],
                                 origin=("domestic", "imported"))
        bridge = tmp_path / "bridge.csv"
        bridge.write_text("category,s1,s2\nrest,0.5,0.5\nfood,0.6,0.4\nfuel,1,0\n")
        loadtxt = mock.Mock(wraps=np.loadtxt)
        with mock.patch.object(data_module.np, "loadtxt", loadtxt), no_row_path():
            table = load_mrio(*paths)
            load_bridge(bridge, CATS)
        assert [c.kwargs["max_rows"] for c in loadtxt.call_args_list] == [3, 3, 3, 3, 4]
        assert table.origin == ("domestic", "imported")

    def test_a_short_file_reserves_no_more_rows_than_it_holds(self, tmp_path):
        """A header of many columns over a short file asks for no row
        count beyond the bytes that follow the header."""
        path = tmp_path / "t.csv"
        path.write_text("key," + ",".join(f"c{j}" for j in range(999)) + "\na" + ",1" * 999 + "\n")
        loadtxt = mock.Mock(wraps=np.loadtxt)
        with mock.patch.object(data_module.np, "loadtxt", loadtxt):
            _, labels, values = read_input(path, lambda header: (0, range(1, len(header))),
                                           row_count=lambda header: len(header) - 1)
        assert loadtxt.call_args.kwargs["max_rows"] == 3
        assert labels == ["a"] and values.tolist() == [[1.0] * 999]

    @pytest.mark.parametrize("label, fault", [
        ("industry", "duplicate sector row 'industry'"),
        ("services", "sector row labels do not match the sector columns; unexpected 1: 'services'"),
    ], ids=["repeated label", "new label"])
    def test_a_flow_table_with_a_row_more_than_its_columns(self, tmp_path, bundle_dir, capsys,
                                                           label, fault):
        """The demo's 2-sector mrio_z.csv with a third row exits 1 naming it."""
        work = shutil.copytree(bundle_dir, tmp_path / "b")
        z = work / "mrio_z.csv"
        assert z.read_text().split("\n")[0] == "sector,energy,industry"
        with open(z, "a") as fh:
            fh.write(f"{label},1,1\n")
        capsys.readouterr()
        assert main(["run", "--config", str(work / "config.txt"), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {z}: {fault}\n"

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("name", ["z", "d", "f"])
    def test_a_faulty_flow_file_cell_is_named(self, tmp_path, name, text):
        paths = write_mrio_files(tmp_path, [[20, 30], [40, 10]], [50, 50], [100, 100], [10, 30])
        path = dict(zip("zdxf", paths))[name]
        lines = path.read_text().split("\n")
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + text  # the last cell of sector s2
        path.write_text("\n".join(lines))
        column = {"z": "s2", "d": "d", "f": "f"}[name]
        if text == "-1":
            noun = {"z": "flow", "d": "final demand", "f": "emissions"}[name]
            fault = (f"sector 's2' has negative {noun} -1.0; flows, final demand and emissions "
                     f"must be nonnegative")
        else:
            fault = f"non-finite value {text!r}"
        with pytest.raises(DataValidationError) as caught:
            load_mrio(*paths)
        assert str(caught.value) == f"{path}: row 3, column {column!r}: {fault}"

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1"])
    def test_a_faulty_bridge_cell_is_named(self, tmp_path, text):
        path = tmp_path / "bridge.csv"
        path.write_text(f"category,p1,p2\nfood,0.6,0.4\nfuel,1,{text}\nrest,0.5,0.5\n")
        fault = (f"category 'fuel' has negative share -1.0; bridging shares must be nonnegative"
                 if text == "-1" else f"non-finite value {text!r}")
        with pytest.raises(DataValidationError) as caught:
            load_bridge(path, CATS)
        assert str(caught.value) == f"{path}: row 3, column 'p2': {fault}"


class TestTypeInvariants:
    def test_category_set_rejects_duplicates_and_empties(self):
        with pytest.raises(DataValidationError):
            CategorySet(("a", "a"))
        with pytest.raises(DataValidationError):
            CategorySet(("a", ""))

    def test_record_rejects_negative_weight_and_small_size(self):
        with pytest.raises(DataValidationError):
            HouseholdRecord(id="a", weight=-1, size=1, expenditure=np.array([1.0]))
        with pytest.raises(DataValidationError):
            HouseholdRecord(id="a", weight=1, size=0.5, expenditure=np.array([1.0]))

    def test_records_are_immutable(self):
        r = HouseholdRecord(id="a", weight=1, size=1, expenditure=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            r.expenditure[0] = 5.0

    def test_mrio_requires_positive_output(self):
        with pytest.raises(DataValidationError, match="strictly positive"):
            MrioTable(sectors=("a",), flows=np.array([[0.0]]), final_demand=np.array([0.0]),
                      output=np.array([0.0]), emissions=np.array([0.0]), origin=("domestic",))

    def test_fuel_table_vector_lengths(self):
        with pytest.raises(DataValidationError):
            FuelTable(fuels=("a", "b"), price=np.array([1.0]),
                      carbon_kg_per_unit=np.array([1.0, 2.0]))

    def test_bridging_matrix_nonnegative(self):
        with pytest.raises(DataValidationError, match="nonnegative"):
            BridgingMatrix(categories=("a",), products=("p", "q"),
                           shares=np.array([[1.5, -0.5]]))

    def test_tables_reject_non_finite_values(self):
        with pytest.raises(DataValidationError, match="must be finite"):
            MrioTable(sectors=("a",), flows=np.array([[np.nan]]), final_demand=np.array([1.0]),
                      output=np.array([2.0]), emissions=np.array([0.0]), origin=("domestic",))
        with pytest.raises(DataValidationError, match="must be finite"):
            BridgingMatrix(categories=("a",), products=("p",), shares=np.array([[np.inf]]))
        with pytest.raises(DataValidationError, match="must be finite"):
            FuelTable(fuels=("a",), price=np.array([np.nan]), carbon_kg_per_unit=np.array([1.0]))

    FINITE = "flows, final demand, output and emissions must be finite"
    SIGNED = "flows, final demand and emissions must be nonnegative"

    @pytest.mark.parametrize("cells, fault", [
        ({"flows": np.nan}, FINITE), ({"final_demand": np.inf}, FINITE),
        ({"output": -np.inf}, FINITE), ({"emissions": np.nan}, FINITE),
        ({"flows": -1.0}, SIGNED), ({"final_demand": -1.0}, SIGNED), ({"emissions": -1.0}, SIGNED),
        ({"output": -1.0}, "sector 'b': output must be strictly positive"),
        ({"flows": -1.0, "emissions": np.nan}, FINITE),
        ({"emissions": -1.0, "output": np.inf}, FINITE),
    ])
    def test_mrio_table_names_a_nan_an_inf_or_a_sign(self, cells, fault):
        """The last cell of each array named is set; any non-finite cell is
        named before any sign."""
        arrays = {"flows": np.array([[1.0, 2.0], [3.0, 4.0]]),
                  "final_demand": np.array([7.0, 3.0]), "output": np.array([10.0, 10.0]),
                  "emissions": np.array([1.0, 2.0])}
        for name, value in cells.items():
            arrays[name].flat[-1] = value
        with pytest.raises(DataValidationError) as caught:
            MrioTable(sectors=("a", "b"), origin=("domestic", "domestic"), **arrays)
        assert str(caught.value) == fault

    def test_price_scenario_invariants(self):
        from priceshock.data import PriceScenario

        s = PriceScenario(category_relatives=np.array([0.4, -0.1]), carbon_tax=2.0,
                          vat=np.array([0.17, 0.0]))
        assert s.category_relatives.tolist() == [0.4, -0.1]
        with pytest.raises(DataValidationError, match="exceed -1"):
            PriceScenario(category_relatives=np.array([-1.0]))
        with pytest.raises(DataValidationError, match="carbon tax"):
            PriceScenario(category_relatives=np.array([0.1]), carbon_tax=-1.0)
        with pytest.raises(DataValidationError, match="vat"):
            PriceScenario(category_relatives=np.array([0.1]), vat=np.array([-0.1]))
        with pytest.raises(DataValidationError, match="one entry per category"):
            PriceScenario(category_relatives=np.array([0.1, 0.2]), vat=np.array([0.1]))


def package_dataclasses():
    """Every dataclass that a module of the package defines."""
    for name in ("data", "demand", "fixtures", "imputation", "inputoutput", "metrics",
                 "scenario"):
        module = importlib.import_module(f"priceshock.{name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                yield cls


class TestRecordEquality:
    """A record that holds an array is equal only to itself and hashes by
    identity; a record without one compares by value."""

    def test_a_record_with_an_array_field_compares_by_identity(self):
        from priceshock.imputation import ImputationResult

        holding = [cls for cls in package_dataclasses()
                   if any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))]
        assert len(holding) == 20
        for cls in (*holding, ImputationResult):  # an ImputationResult holds a frame
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls

    def test_a_flow_table_is_hashable_and_equal_only_to_itself(self, bundle):
        table = bundle.io2
        twin = dataclasses.replace(table)
        assert table == table and table != twin  # the parent's __eq__ raised on distinct tables
        assert len({table, twin, table}) == 2  # the parent's frozen __hash__ raised TypeError
        assert {table: 1}[table] == 1

    def test_a_survey_frame_is_hashable_and_equal_only_to_itself(self, bundle_dir, categories):
        survey = data_module.load_household_survey(bundle_dir / "households.csv", categories)
        twin = dataclasses.replace(survey)
        assert survey == survey and survey != twin
        assert hash(survey) != hash(twin) and len({survey, twin}) == 2

    def test_replace_builds_a_run_config_a_record_and_a_frame(self, bundle, bundle_dir,
                                                              categories):
        cfg = scenario_module.parse_config(bundle_dir / "config.txt")
        changed = dataclasses.replace(cfg, groups=3)
        assert (changed.groups, changed.seed, changed.files) == (3, cfg.seed, cfg.files)
        record = bundle.households[0]
        heavier = dataclasses.replace(record, weight=record.weight + 1.0)
        assert heavier.weight == record.weight + 1.0
        assert heavier.expenditure is record.expenditure and heavier.id == record.id
        survey = data_module.load_household_survey(bundle_dir / "households.csv", categories)
        income = dataclasses.replace(survey, expenditure=None)
        assert income.expenditure is None and income.ids is survey.ids

    def test_records_without_arrays_keep_value_equality(self, bundle_dir):
        from priceshock.metrics import AtkinsonResult

        assert CategorySet.default() == CategorySet.default()
        assert hash(CategorySet.default()) == hash(CategorySet.default())
        assert AtkinsonResult(0.1, 2.0, 1.8) == AtkinsonResult(0.1, 2.0, 1.8)
        assert LoadReport("a", 2, 1, 1, ["n"]) == LoadReport("a", 2, 1, 1, ["n"])
        cfg = scenario_module.parse_config(bundle_dir / "config.txt")
        assert cfg == scenario_module.parse_config(bundle_dir / "config.txt")
        assert cfg != dataclasses.replace(cfg, groups=3)


# ---------------------------------------------------------------------------
# Bulk loaders and writer against per-cell references
# ---------------------------------------------------------------------------

# text forms float() accepts for the same value
NUMBER_TEXTS = (repr, "{:.6g}".format, "{:E}".format, " {!r} ".format, "{:_}".format)
NON_FINITE = ("nan", "inf", "-Infinity", "1e400")


def ref_cell(text, path, lineno, column):
    """Per-cell reference: float(), then the finite-number rule."""
    try:
        v = float(text)
    except ValueError:
        raise DataValidationError(
            f"{path}: row {lineno}, column {column!r}: non-numeric value {text!r}") from None
    if not np.isfinite(v):
        raise DataValidationError(
            f"{path}: row {lineno}, column {column!r}: non-finite value {text!r}")
    return v


def ref_household_survey(path, categories):
    """The row-by-row household loader that the bulk loader replaced."""
    header, rows, lines = read_table(path)

    def within_limit(v, lineno, column):
        if abs(v) > SURVEY_VALUE_LIMIT:
            raise DataValidationError(
                f"{path}: row {lineno}, column {column!r}: value {v} exceeds 1e+100")
        return v

    idx = {c: header.index(c) for c in header}
    demo_cols = [c for c in header if c.startswith("demo_")]
    out = {"ids": [], "weight": [], "size": [], "income": [], "demo": [], "exp": []}
    seen = set()
    for lineno, row in zip(lines, rows):
        hid = row[idx["id"]]
        if hid.endswith("\x00"):
            raise DataValidationError(
                f"{path}: row {lineno}, column 'id': id {hid!r} ends in a NUL character")
        if hid in seen:
            raise DataValidationError(f"{path}: row {lineno}: duplicate household id {hid!r}")
        seen.add(hid)
        weight = ref_cell(row[idx["weight"]], path, lineno, "weight")
        size = ref_cell(row[idx["size"]], path, lineno, "size")
        if weight < 0:
            raise DataValidationError(f"{path}: row {lineno}, column 'weight': negative value {weight}")
        within_limit(weight, lineno, "weight")
        if size < 1:
            raise DataValidationError(f"{path}: row {lineno}, column 'size': value {size} < 1")
        within_limit(size, lineno, "size")
        exp = []
        for cat in categories:
            col = "exp_" + cat
            v = ref_cell(row[idx[col]], path, lineno, col)
            if v < 0:
                raise DataValidationError(
                    f"{path}: row {lineno}, column {col!r}: negative expenditure {v}")
            exp.append(within_limit(v, lineno, col))
        if sum(exp) <= 0:
            continue
        out["demo"].append([within_limit(ref_cell(row[idx[c]], path, lineno, c), lineno, c)
                            for c in demo_cols])
        if "inc" in header:
            out["income"].append(within_limit(ref_cell(row[idx["inc"]], path, lineno, "inc"),
                                              lineno, "inc"))
        for key, v in (("ids", hid), ("weight", weight), ("size", size), ("exp", exp)):
            out[key].append(v)
    if not out["ids"]:
        raise DataValidationError(f"{path}: no usable household rows")
    if not any(w > 0 for w in out["weight"]):
        dropped = len(rows) - len(out["ids"])
        raise DataValidationError(f"{path}: every household has weight 0" + (
            f", once the {dropped} of zero total expenditure are dropped" if dropped else ""))
    return out


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def survey_tables(draw):
    """households.csv text: shuffled columns, optional inc and demo_*, some
    zero-total rows, numbers in several float() spellings."""
    n = draw(st.integers(1, 8))
    columns = ["id", "weight", "size", "exp_food", "exp_fuel", "exp_rest"]
    columns += [c for c in ("inc", "demo_urban") if draw(st.booleans())]
    columns = draw(st.permutations(columns))

    def number(lo, hi):
        v = draw(st.floats(lo, hi))
        return draw(st.sampled_from(NUMBER_TEXTS))(v)

    rows = []
    for i in range(n):
        zero = draw(st.booleans()) and draw(st.booleans())
        cells = {"id": f"h{i}", "weight": number(0.0, 1e6), "size": number(1.0, 12.0),
                 "inc": number(-1e6, 1e6), "demo_urban": number(0.0, 1.0)}
        for c in ("exp_food", "exp_fuel", "exp_rest"):
            cells[c] = "0" if zero else number(0.0, 1e7)
        rows.append([cells[c] for c in columns])
    return columns, rows


def write_rows(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return path


def load_both(path):
    """(bulk result or error text, reference result or error text)."""
    results = []
    for loader in (load_household_survey, ref_household_survey):
        try:
            results.append(loader(path, CATS))
        except DataValidationError as exc:
            results.append(str(exc))
    return results


@pytest.fixture(scope="module")
def new_dir(tmp_path_factory):
    """A new empty directory on each call, one per Hypothesis example."""
    root = tmp_path_factory.mktemp("bulk")
    return lambda: Path(tempfile.mkdtemp(dir=root))


class TestBulkLoaders:
    @settings(max_examples=100, deadline=None)
    @given(table=survey_tables())
    def test_household_columns_equal_per_cell_parse(self, new_dir, table):
        path = write_rows(new_dir() / "hh.csv", *table)
        survey, ref = load_both(path)
        if isinstance(ref, str):  # every row had zero total
            assert survey == ref
            return
        assert survey.ids.tolist() == ref["ids"]
        assert bits(survey.weight) == bits(ref["weight"])
        assert bits(survey.size) == bits(ref["size"])
        assert bits(survey.expenditure) == bits(ref["exp"])
        assert bits(survey.demographics) == bits(np.reshape(ref["demo"], survey.demographics.shape))
        if "inc" in table[0]:
            assert bits(survey.income) == bits(ref["income"])
        else:
            assert survey.income is None
        assert survey.report.n_dropped_zero_total == len(table[1]) - len(ref["ids"])
        # one valid household per kept id, as a HouseholdRecord would check it
        assert all(len(column) == len(ref["ids"]) for column in
                   (survey.weight, survey.size, survey.demographics, survey.expenditure))
        assert (survey.expenditure.sum(axis=1) > 0).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ids_of_any_length_read_as_on_the_row_path(self, new_dir, data):
        """The fast path's ids come from a bytes field sized by the first
        block's ids; an id that fills the field has the file read again.
        Plain files with ids of any printable length, spaces kept, at both
        block sizes: the loader never takes the row path and gives the
        ids, columns and report of ``ref_household_survey``."""
        n = data.draw(st.integers(1, 30))
        lengths = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            lengths.sort()  # the longest ids last, beyond twice the first block's
        ids = [data.draw(st.from_regex(rf"[ !#-+\--~]{{{k}}}", fullmatch=True)) for k in lengths]
        assume(len(set(ids)) == n)
        rows = [[hid, "1.5", "2", repr(float(i % 3)), "0", "4.25"] for i, hid in enumerate(ids)]
        path = write_rows(new_dir() / "hh.csv",
                          ["id", "weight", "size", "exp_food", "exp_fuel", "exp_rest"], rows)
        ref = ref_household_survey(path, CATS)
        with no_row_path(), blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            survey = load_household_survey(path, CATS)
        assert survey.ids.tolist() == ref["ids"]
        assert survey.ids.dtype == np.array(ref["ids"], dtype=str).dtype
        assert bits(survey.expenditure) == bits(ref["exp"])
        assert bits(survey.weight) == bits(ref["weight"])
        assert survey.report.n_loaded == len(ref["ids"])

    @settings(max_examples=250, deadline=None)
    @given(table=survey_tables(), data=st.data())
    def test_first_fault_message_equals_row_loop(self, new_dir, table, data):
        header, rows = table
        kinds = {
            "non-numeric": lambda c: data.draw(st.sampled_from(["abc", "", "1.2.3", "0x10"])),
            "non-finite": lambda c: data.draw(st.sampled_from(NON_FINITE)),
            "negative weight": lambda c: "-0.5",
            "size below 1": lambda c: "0.75",
            "negative expenditure": lambda c: "-3",
            "duplicate id": lambda c: rows[0][header.index("id")],
            "beyond the limit": lambda c: data.draw(st.sampled_from(["1e101", "-2.5e300"])),
        }
        targets = {"negative weight": ["weight"], "size below 1": ["size"],
                   "duplicate id": ["id"],
                   "negative expenditure": ["exp_food", "exp_fuel", "exp_rest"]}
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(sorted(kinds)))
            col = data.draw(st.sampled_from(targets.get(kind, [c for c in header if c != "id"])))
            i = data.draw(st.integers(0, len(rows) - 1))
            rows[i][header.index(col)] = kinds[kind](col)
        survey, ref = load_both(write_rows(new_dir() / "hh.csv", header, rows))
        if isinstance(ref, str):
            assert survey == ref
        else:  # faults only in the demo/inc cells of dropped rows
            assert survey.ids.tolist() == ref["ids"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_value_cells_equal_per_cell_parse(self, new_dir, data):
        n, m = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))
        valid = st.builds(lambda f, v: f(v), st.sampled_from(NUMBER_TEXTS), st.floats(allow_nan=False,
                                                                                      allow_infinity=False))
        cells = st.one_of(valid, valid, st.sampled_from(["x", "", "nan", "-inf", "1e999", "1_0"]))
        rows = [[f"k{i}", *(data.draw(cells) for _ in range(m))] for i in range(n)]
        names = [f"c{j}" for j in range(m)]
        path = write_labelled(new_dir() / "t.csv", ["key", *names], rows)
        try:
            expected = [[ref_cell(r[j + 1], path, i + 2, names[j]) for j in range(m)]
                        for i, r in enumerate(rows)]
        except DataValidationError as exc:
            with pytest.raises(DataValidationError) as got:
                read_input(path, lambda header: (0, range(1, m + 1)))
            assert str(got.value) == str(exc)
        else:
            _, labels, block = read_input(path, lambda header: (0, range(1, m + 1)))
            assert labels == [r[0] for r in rows]
            assert block.shape == (n, m)
            assert bits(block) == bits(np.reshape(expected, (n, m)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_keyed_loaders_equal_per_cell_parse(self, new_dir, data):
        scratch = new_dir()
        n = data.draw(st.integers(1, 5))
        sectors = [f"s{i}" for i in range(n)]
        fmt = st.sampled_from(NUMBER_TEXTS)
        z = [[data.draw(fmt)(data.draw(st.floats(0.0, 1e4))) for _ in sectors] for _ in sectors]
        d = [data.draw(fmt)(data.draw(st.floats(1.0, 1e4))) for _ in sectors]
        f = [data.draw(fmt)(data.draw(st.floats(0.0, 1e3))) for _ in sectors]
        z_ref = np.array([[float(c) for c in row] for row in z])
        d_ref, f_ref = np.array([float(c) for c in d]), np.array([float(c) for c in f])
        x_ref = z_ref.sum(axis=1) + d_ref
        order = data.draw(st.permutations(range(n)))  # keyed rows in any order
        write_rows(scratch / "z.csv", ["sector", *sectors], [[s, *r] for s, r in zip(sectors, z)])
        for name, col, cells in (("d", "d", d), ("x", "x", [repr(v) for v in x_ref.tolist()]), ("f", "f", f)):
            write_rows(scratch / f"{name}.csv", ["sector", col], [[sectors[i], cells[i]] for i in order])
        t = load_mrio(*(scratch / f"{name}.csv" for name in "zdxf"))
        assert bits(t.flows) == bits(z_ref)
        assert bits(t.final_demand) == bits(d_ref)
        assert bits(t.output) == bits(x_ref)
        assert bits(t.emissions) == bits(f_ref)
        pi = [data.draw(fmt)(data.draw(st.floats(-0.99, 5.0))) for _ in CATS]
        write_rows(scratch / "prices.csv", ["category", "pi"],
                   [[CATS.ids[i], pi[i]] for i in data.draw(st.permutations(range(len(CATS))))])
        assert bits(load_price_relatives(scratch / "prices.csv", CATS)) == bits([float(c) for c in pi])


def csv_field(text):
    """``text`` as the csv module writes it as one field."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]


def ref_households_csv(hh):
    """The cell-by-cell households.csv text that the row-format writer replaced."""
    columns = list(hh)
    formats = [
        csv_field if c == "id"
        else (lambda v: str(int(v))) if c == "quintile"
        else (lambda v: f"{float(v):.6f}") if c in MONEY_COLUMNS or c.startswith("burden_")
        else format_value if c.startswith("share_")
        else (lambda v: f"{float(v):.6g}")
        for c in columns
    ]
    lines = [",".join(columns)]
    lines += [",".join(f(v) for f, v in zip(formats, row)) for row in zip(*(hh[c] for c in columns))]
    return "\n".join(lines) + "\n"


class TestHouseholdWriter:
    """The block path (``FEW_ROWS`` patched to 0) against the per-cell text."""

    EDGES = (0.0, -0.0, 1e16, -3.5e17, 1e300, 5e-324, -2.2250738585072014e-308, 0.5, 999999.5)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_row_format_equals_per_cell_format(self, new_dir, data):
        n = data.draw(st.integers(1, 6))
        values = st.one_of(st.sampled_from(self.EDGES),
                           st.floats(allow_nan=False, allow_infinity=False))
        col = lambda: data.draw(arrays(float, n, elements=values))  # noqa: E731
        hh = {"id": np.array([data.draw(st.from_regex(r'[A-Za-z0-9_.,"\r\né -]{1,8}',
                                                     fullmatch=True))
                              for _ in range(n)]),
              "weight": col(), "size": col(),
              "quintile": np.array([data.draw(st.integers(0, 9)) for _ in range(n)]),
              "x": col(), "cv": col(), "pi": col(), "share_food": col(), "burden_food": col()}
        result = ScenarioResult(
            categories=CATS, group_names=("food",), relatives_total=np.zeros(3),
            relatives_inflation=np.zeros(3), relatives_carbon=np.zeros(3),
            household=hh, tables={}, revenue=0.0, seed=0, config_hash="",
        )
        out = new_dir()
        with mock.patch.object(data_module, "FEW_ROWS", 0):
            emit_reports(result, out)
        text = (out / "households.csv").read_bytes().decode()
        assert text == ref_households_csv(hh)
        _, rows, _ = read_table(out / "households.csv")
        assert [row[0] for row in rows] == hh["id"].tolist()


def edge_values(n):
    """Values at the block writer's edges, ``n`` or more of each kind."""
    rng = np.random.default_rng(7)
    sign = rng.choice([-1.0, 1.0], n)
    tens = 10.0 ** rng.integers(-20, 21, n // 3)
    decimals = np.floor(10.0 ** rng.uniform(0, 13, n // 3)) + 0.5
    halfway = decimals / 10.0 ** rng.integers(0, 20, n // 3)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                        2.0**52, 2.0**52 - 0.5, 2.0**53 + 2, 1e16, 1e300, 0.0078125, 999999.5])
    return {
        "log-uniform": sign * 10.0 ** rng.uniform(-12, 12, n),
        "ties k/2^m": sign * rng.integers(0, 2**20, n) / 2.0 ** rng.integers(0, 30, n),
        "k/10^m near rounding": np.concatenate(
            [halfway, np.nextafter(halfway, 0), np.nextafter(halfway, np.inf)]),
        "powers of ten": np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        "zeros, non-finite, subnormal, huge": sign * np.concatenate([
            np.resize(special, n // 3), rng.random(n // 3) * 2.2250738585072014e-308,
            2.0**52 * 10.0 ** rng.uniform(0, 30, n - 2 * (n // 3))]),
    }


class TestRowWriter:
    """The block writer against per-cell ``spec % v``."""

    VALUES = edge_values(100_002)
    SPECS = ("%.6f", "%.6g", "%.12g")

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("kind", list(VALUES))
    def test_cells_equal_percent_format(self, spec, kind):
        values = self.VALUES[kind]
        out = io.BytesIO()
        _write_rows(out, [spec], [values], "\n")
        got = out.getvalue().decode().split("\n")[:-1]
        assert len(got) == len(values)
        wrong = [(v, text) for v, text in zip(values.tolist(), got) if spec % v != text]
        assert not wrong, wrong[:5]

    def test_a_value_rounding_up_a_decade_is_placed_without_falling_back(self):
        values = np.array([[9.9999996, 0.00999999999, 99999.96]])
        _, bad = _number_words(values, "%.6g", np.array([False, True, True]))
        assert not bad.any()

    def test_rows_at_block_edges_fall_back_in_place(self):
        n = 2 * CSV_BLOCK_ROWS + 1
        rng = np.random.default_rng(11)
        ids = np.array([f"h{i}" for i in range(n)], dtype=object)
        ids[[3, CSV_BLOCK_ROWS]] = ["a,b", "\u00e9\ud800"]  # quoted; no UTF-8 form
        columns = [ids] + [rng.random(n) * 1e4 - 5e3 for _ in self.SPECS] + [["1,x"] * n]
        specs = ["%s", *self.SPECS, "%s"]
        # exponent form, non-finite, at or over 2**52: one per edge row
        for row, col, value in ((0, 2, 1e300), (CSV_BLOCK_ROWS - 1, 1, np.nan),
                                (CSV_BLOCK_ROWS, 1, 2.0**60), (2 * CSV_BLOCK_ROWS - 1, 3, 1e-7),
                                (2 * CSV_BLOCK_ROWS, 1, -np.inf)):
            columns[col][row] = value
        out = io.BytesIO()
        _write_rows(out, specs, columns, "\r\n")
        row_format = ",".join(specs) + "\r\n"
        texts = [[_csv_field(str(t)) for t in columns[0]], *(c.tolist() for c in columns[1:-1]),
                 list(map(_csv_field, columns[-1]))]
        assert out.getvalue().decode("utf-8", "surrogatepass") == "".join(
            row_format % row for row in zip(*texts))

    @pytest.mark.parametrize("n", [FEW_ROWS - 1, FEW_ROWS])
    def test_either_side_of_few_rows_equals_percent_format(self, n):
        """Fewer than ``FEW_ROWS`` rows go to ``%`` whole, ``FEW_ROWS`` to
        the block path: both write the same bytes, texts that need quoting
        and every number spec included."""
        rng = np.random.default_rng(n)
        quoted = ["a,b", 'say "x"', "c\r\nd", "\u00e9,"]
        ids = np.array([quoted[i % 4] if i % 7 == 1 else f"h{i}" for i in range(n)])
        specs = ["%s", *self.SPECS, "%s"]
        columns = [ids, *(rng.random(n) * 10.0 ** rng.integers(-3, 9, n) - 5e3 for _ in self.SPECS),
                   np.resize(np.array(["plain", "x,y"]), n)]
        out = io.BytesIO()
        _write_rows(out, specs, columns, "\r\n")
        row_format = ",".join(specs) + "\r\n"
        cells = [[_csv_field(t) if s == "%s" else t for t in c.tolist()]
                 for s, c in zip(specs, columns)]
        assert out.getvalue() == "".join(row_format % row for row in zip(*cells)).encode()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_percent_format_of_each_row(self, data):
        """The UTF-8 bytes written, against ``row_format % row`` encoded
        with ``surrogatepass``: rows falling back to ``%`` at and next to
        the block edges, ids with non-ASCII text, lone surrogates, NULs and
        characters the CSV field quotes."""
        n = data.draw(st.sampled_from([CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1,
                                       2 * CSV_BLOCK_ROWS + 1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ids = [f"h{i}" for i in range(n)]
        texts = st.text(st.characters(codec="utf-8") | st.sampled_from('\ud800\udfff\x00,"\r\n'),
                        max_size=6)
        edges = sorted({0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, n - 1} & set(range(n)))
        for i in data.draw(st.lists(st.sampled_from(edges), max_size=3)):
            ids[i] = data.draw(texts)
        specs = ["%s", *data.draw(st.permutations(self.SPECS))]
        columns = [np.array(ids, dtype=object)]
        columns += [rng.random(n) * 10.0 ** rng.integers(-3, 9, n) - 5e3 for _ in specs[1:]]
        for i in data.draw(st.lists(st.sampled_from(edges), max_size=3)):
            j = data.draw(st.integers(1, len(specs) - 1))
            edge = [1e300, 2.0**60, 1e-7, -0.0, 0.5, np.nan, -np.inf]
            columns[j][i] = data.draw(st.sampled_from(edge))
        out = io.BytesIO()
        _write_rows(out, specs, columns, "\r\n")
        row_format = ",".join(specs) + "\r\n"
        cells = [list(map(_csv_field, ids)), *(c.tolist() for c in columns[1:])]
        want = "".join(row_format % row for row in zip(*cells))
        assert out.getvalue() == want.encode("utf-8", "surrogatepass")


class TestIntegerColumns:
    """A column of whole numbers under ``%.12g`` (households.csv's
    ``quintile``) reads as ``str(int(v))``, as ``%d`` wrote it."""

    EDGES = [0, 1, 4, 9, 10, 999_999, 10**6 - 1, 10**6, 10**6 + 1, 10**11, 10**12 - 1]

    @pytest.mark.parametrize("n", [FEW_ROWS - 1, CSV_BLOCK_ROWS + 5])
    def test_cells_equal_str_of_the_integer_on_either_path(self, n):
        values = np.resize(np.array(self.EDGES), n)
        values[len(self.EDGES):] = np.arange(n - len(self.EDGES)) % 5
        for column in (values, values.astype(float)):
            out = io.BytesIO()
            _write_rows(out, ["%.12g"], [column], "\n")
            assert out.getvalue().decode().split("\n")[:-1] == [str(v) for v in values.tolist()]


def frozen_records():
    """(record class, its constructor's arguments): each array argument a
    float64 array, the others what the record accepts."""
    from priceshock.demand import ElasticitySet, LesParameters
    from priceshock.inputoutput import CarbonIntensity, LeontiefInverse, TechnologyMatrix

    two = ("a", "b")

    def v(*xs):
        return np.array(xs, dtype=float)

    return [
        (MrioTable, dict(sectors=two, flows=v([1, 2], [3, 4]), final_demand=v(7, 3),
                         output=v(10, 10), emissions=v(1, 2), origin=("domestic", "imported"))),
        (BridgingMatrix, dict(categories=("food",), products=two, shares=v([0.5, 0.5]))),
        (FuelTable, dict(fuels=("gas",), price=v(1), carbon_kg_per_unit=v(2))),
        (HouseholdRecord, dict(id="h", weight=1.0, size=1.0, expenditure=v(1, 2))),
        (PriceScenario, dict(category_relatives=v(0.1, 0.2), vat=v(0.2, 0.2), advalorem=v(0, 0),
                             excise_per_unit=v(1, 0), base_prices=v(1, 2))),
        (ElasticitySet, dict(budget=v(1, 1), matrix=v([-1, 0], [0, -1]), shares=v(0.5, 0.5),
                             xi=-2.0)),
        (LesParameters, dict(gamma=v(1, 1), phi=v(0.5, 0.5))),
        (TechnologyMatrix, dict(sectors=two, coefficients=v([0.1, 0.2], [0.3, 0.1]))),
        (LeontiefInverse, dict(matrix=v([1.2, 0.3], [0.4, 1.1]), method="direct")),
        (CarbonIntensity, dict(sectors=two, total=v(1, 2), domestic=v(1, 1), imported=v(0, 1))),
    ]


@pytest.mark.parametrize("cls, kwargs", frozen_records(),
                         ids=[cls.__name__ for cls, _ in frozen_records()])
def test_a_record_keeps_its_float_arrays_uncopied_and_read_only(cls, kwargs):
    record = cls(**kwargs)
    arrays = {name: a for name, a in kwargs.items() if isinstance(a, np.ndarray)}
    for name, a in arrays.items():
        assert getattr(record, name) is a, name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, next(iter(arrays)), None)


class TestTextColumns:
    """A numpy str column becomes words in numpy, as UTF-8 where a text is
    not ASCII; a text that needs quoting or holds a NUL sends its row to
    ``%``."""

    SPECIAL = st.text(st.characters(codec="utf-8") | st.sampled_from('\ud800\udfff\x00,"\r\n'),
                      max_size=6)
    TEXTS = (st.just("") | st.from_regex(r"[A-Za-z0-9_. -]{1,12}", fullmatch=True) | SPECIAL
             | st.text(st.sampled_from("ab\x00"), max_size=8)
             | st.text(st.sampled_from("ab"), min_size=40, max_size=300)
             | st.text(st.sampled_from('ab,"\x00\u00e9'), min_size=40, max_size=300))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), block=st.integers(1, 9), n=st.integers(1, 40))
    def test_bytes_equal_the_percent_path_of_each_row(self, data, block, n):
        """ids and labels as str arrays, most of them plain and some drawn
        with commas, quotes, CR, LF, NUL, non-ASCII characters, lone
        surrogates, empty or long, in blocks that mix plain rows with rows
        written by ``%``."""
        columns = []
        for prefix in ("h", "g"):
            texts = [f"{prefix}{i}" for i in range(n)]
            for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
                texts[i] = data.draw(self.TEXTS)
            columns.append(np.array(texts, dtype=str))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        specs = ["%s", "%.6f", "%s", "%.6g"]
        columns = [columns[0], rng.random(n) * 1e4, columns[1], rng.random(n) - 0.5]
        out = io.BytesIO()
        with mock.patch.object(data_module, "CSV_BLOCK_ROWS", block), \
                mock.patch.object(data_module, "FEW_ROWS", 0):
            _write_rows(out, specs, columns, "\n")
        row_format = ",".join(specs) + "\n"
        cells = [[_csv_field(str(t)) if s == "%s" else t for t in c.tolist()]
                 for s, c in zip(specs, columns)]
        want = "".join(row_format % row for row in zip(*cells))
        assert out.getvalue() == want.encode("utf-8", "surrogatepass")


def ref_write_household_survey(path, records, categories, extra_columns=None):
    """The per-cell csv.writer version of write_household_survey."""
    demo_keys = sorted({k for r in records for k in r.demographics})
    has_income = any(r.disposable_income is not None for r in records)
    header = ["id", "weight", "size", *(["inc"] if has_income else [])]
    header += ["demo_" + k for k in demo_keys] + ["exp_" + c for c in categories]
    extras = dict(extra_columns or {})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + list(extras))
        for i, r in enumerate(records):
            row = [r.id, format_value(r.weight), format_value(r.size)]
            if has_income:
                row.append(format_value(r.disposable_income))
            row += [format_value(r.demographics[k]) for k in demo_keys]
            row += [format_value(v) for v in r.expenditure]
            writer.writerow(row + [str(extras[c][i]) for c in extras])


class TestSurveyWriter:
    """The block path (``FEW_ROWS`` patched to 0) against ``csv.writer``."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_frame_writer_equals_per_cell_writer(self, new_dir, data):
        n = data.draw(st.integers(1, 6))
        values = st.one_of(st.sampled_from(TestHouseholdWriter.EDGES),
                           st.floats(0.0, 1e12), st.floats(allow_nan=False, allow_infinity=False))
        names = data.draw(st.lists(st.sampled_from(["urban", "head_age", "b,c", "a"]),
                                   unique=True))
        has_income = data.draw(st.booleans())
        ids = data.draw(st.lists(st.from_regex(r'[A-Za-z0-9_.,"\r\n -]{1,8}', fullmatch=True),
                                 min_size=n, max_size=n, unique=True))
        records = [
            HouseholdRecord(
                id=hid, weight=data.draw(st.floats(0.0, 1e6)), size=data.draw(st.floats(1.0, 20.0)),
                expenditure=np.array([data.draw(st.floats(0.0, 1e9)) for _ in CATS]) + 1.0,
                demographics={k: data.draw(values) for k in names},
                disposable_income=data.draw(values) if has_income else None,
            )
            for hid in ids
        ]
        extras = data.draw(st.sampled_from([None, {"imputed": [1] * n, "model_version": ["0.1,x"] * n}]))
        out = new_dir()
        ref_write_household_survey(out / "ref.csv", records, CATS, extras)
        with mock.patch.object(data_module, "FEW_ROWS", 0):
            write_household_survey(out / "records.csv", records, CATS, extras)
        # an income or demo_* cell beyond the loader's limit, as written, or
        # no household of positive weight: the loader refuses the file, so
        # the frame comes from the records
        extreme = any(abs(float(format_value(v))) > SURVEY_VALUE_LIMIT for r in records
                      for v in [*r.demographics.values(), r.disposable_income or 0.0])
        weightless = all(r.weight == 0 for r in records)
        if extreme:
            with pytest.raises(DataValidationError, match=r"exceeds 1e\+100"):
                load_household_survey(out / "ref.csv", CATS)
        elif weightless:
            with pytest.raises(DataValidationError, match="every household has weight 0"):
                load_household_survey(out / "ref.csv", CATS)
        frame = (as_survey(records) if extreme or weightless
                 else load_household_survey(out / "ref.csv", CATS))
        with mock.patch.object(data_module, "FEW_ROWS", 0):
            write_household_survey(out / "frame.csv", frame, CATS, extras)
        expected = (out / "ref.csv").read_bytes()
        assert (out / "records.csv").read_bytes() == expected
        assert (out / "frame.csv").read_bytes() == expected


    @pytest.mark.parametrize("second,match", [
        ({"demographics": {"urban": 1.0, "age": 3.0}},
         r"^record 'b': covariate labels do not match the first record's; unexpected 1: 'age'$"),
        ({"demographics": {}},
         r"^record 'b': covariate labels do not match the first record's; missing 1: 'urban'$"),
        ({"disposable_income": None}, r"'b': no disposable income"),
    ])
    def test_records_that_do_not_form_one_frame_are_rejected(self, tmp_path, second, match):
        first = dict(id="a", weight=1.0, size=1.0, expenditure=np.ones(3),
                     demographics={"urban": 0.0}, disposable_income=10.0)
        records = [HouseholdRecord(**first), HouseholdRecord(**{**first, "id": "b", **second})]
        with pytest.raises(DataValidationError, match=match):
            write_household_survey(tmp_path / "hh.csv", records, CATS)


def test_run_builds_no_household_record(bundle_dir, monkeypatch):
    """The survey stays in columns from the loader to the written tables."""
    built = []
    original = HouseholdRecord.__post_init__
    monkeypatch.setattr(HouseholdRecord, "__post_init__",
                        lambda self: (built.append(self.id), original(self)))
    result = run_scenario(parse_config(bundle_dir / "config.txt"))
    assert len(result.household["id"]) == 240
    assert built == []


# ---------------------------------------------------------------------------
# Labelled tables: the loadtxt fast path against read_table and float() per cell
# ---------------------------------------------------------------------------


def labelled_csv_text(header, rows, quote_all=False, blanks=(), terminators=("\n",),
                      bom=False, final_break=True):
    """CSV text of ``header`` and ``rows``; line i ends in ``terminators[i %
    len(terminators)]``. Each (index, text) of ``blanks`` inserts a line of
    ``text`` (empty or whitespace) before that line."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    lines = []
    for row in [header, *rows]:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2])  # without the writer's \r\n
    for pos, text in sorted(blanks, reverse=True):
        lines.insert(pos, text)
    lines = [line + terminators[i % len(terminators)] for i, line in enumerate(lines)]
    text = ("\ufeff" if bom else "") + "".join(lines)
    return text if final_break else text[:-len(terminators[(len(lines) - 1) % len(terminators)])]


PLAIN_ENDS = [("\n",), ("\r\n",)]


@st.composite
def line_layouts(draw, n, first=1):
    """labelled_csv_text keywords for a table of ``n`` rows: quoting, blank
    and whitespace-only lines from line ``first`` on, line ends (mixed in
    one file too), a BOM; half of them plain."""
    if draw(st.booleans()):
        return dict(terminators=draw(st.sampled_from(PLAIN_ENDS)),
                    final_break=draw(st.booleans()))
    ends = PLAIN_ENDS + [("\r",), ("\r\n", "\n"), ("\n", "\r", "\n")]
    return dict(quote_all=draw(st.booleans()),
                blanks=draw(st.lists(st.tuples(st.integers(first, n + 1),
                                               st.sampled_from(["", " ", "  ", "\t"])),
                                     max_size=2)),
                terminators=draw(st.sampled_from(ends)),
                bom=draw(st.integers(0, 3)) == 0, final_break=draw(st.booleans()))


def write_labelled(path, header, rows, **layout):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(labelled_csv_text(header, rows, **layout))
    return path


PLAIN_LABEL = st.from_regex(r"[a-z0-9 #._-]{0,5}", fullmatch=True)
# labels that need quoting, some with a line break inside the quotes
ODD_LABEL = st.from_regex(r'[a-z0-9 ,"\r\n\xe9\x1c]{0,4}', fullmatch=True)
FINITE_TEXT = st.builds(lambda f, v: f(v), st.sampled_from(NUMBER_TEXTS),
                        st.floats(0.0, 1e6))
# cells that loadtxt reads as float() does, that only float() reads, or
# that neither reads as a finite number
ODD_CELLS = ("2_0", " 20 ", "nan", "inf", "-Infinity", "1e400", "1e-400", "-0", "0x10", "",
             " ", "abc", "\x1c1", "1\x1f", "\uff11", "1 ")
FAULTS = ("non-numeric", "nan", "inf", "1e400", "ragged", "duplicate label",
          "duplicate column", "unknown label")


def inject_faults(data, header, rows):
    """Put 1-3 faults drawn from FAULTS into ``header`` and ``rows`` in place,
    most of them into one row, so that a row often holds several."""
    hot = data.draw(st.integers(0, len(rows) - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(FAULTS))
        i = hot if data.draw(st.booleans()) else data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(1, len(header) - 1))
        if kind in ("non-numeric", "nan", "inf", "1e400") and j >= len(rows[i]):
            continue  # a row made ragged has lost that cell
        if kind == "non-numeric":
            rows[i][j] = data.draw(st.sampled_from(["abc", "", "1.2.3", "0x10", "1__0"]))
        elif kind in ("nan", "inf", "1e400"):
            rows[i][j] = kind
        elif kind == "ragged":
            rows[i] = rows[i][:-1] if data.draw(st.booleans()) else [*rows[i], "1"]
        elif kind == "duplicate label":
            source = rows[data.draw(st.integers(0, len(rows) - 1))]
            if rows[i] and source:  # a row made ragged twice may have no cells
                rows[i][0] = source[0]
        elif kind == "duplicate column":
            header[j] = header[data.draw(st.integers(1, len(header) - 1))]
        elif rows[i]:
            rows[i][0] = "zz"


def message(fn, *args):
    """``fn(*args)``'s DataValidationError text, or None when it returns."""
    try:
        fn(*args)
    except DataValidationError as exc:
        return str(exc)
    return None


def ref_values(path, header, rows, lines, positions, names=None):
    """The cells at ``positions`` of each row as floats, parsed one cell at a
    time in row order, then in the order of ``positions``; ``names[j]``
    names the column at ``positions[j]`` (by default its header name)."""
    names = [header[p] for p in positions] if names is None else names
    values = [[ref_cell(row[p], path, lineno, name) for p, name in zip(positions, names)]
              for lineno, row in zip(lines, rows)]
    return np.array(values, dtype=float).reshape(len(rows), len(positions))


def ref_labelled(path, columns, order):
    """read_input as a per-cell loop reads a table: a file fault, then a
    header fault, then a label-set fault, then a cell fault row by row."""
    header, rows, lines = read_table(path)
    at, positions = columns(header)
    labels = [row[at] for row in rows]
    order(header, labels)
    return header, labels, ref_values(path, header, rows, lines, positions)


def labelled_outcome(reader, path, callbacks):
    """(header, labels, shape, value bits) as ``reader`` reads ``path`` with
    the ``columns`` and ``order`` callbacks, or its message."""
    columns, order = callbacks
    try:
        header, labels, values = reader(path, columns, order=order)
    except DataValidationError as exc:
        return str(exc)
    return header, labels, values.shape, bits(values)


def ref_flows(path):
    """(sectors, Z) as load_mrio reads them: the cells of each row in
    row-label column order."""
    header, rows, lines = read_table(path)
    if len(header) < 2:
        raise DataValidationError(f"{path}: flow matrix needs at least one sector column")
    if header[0] != "sector":
        raise DataValidationError(f"{path}: first column must be 'sector', got {header[0]!r}")
    col_sectors, row_sectors = header[1:], [r[0] for r in rows]
    match_labels(row_sectors, col_sectors, path, "sector row", "the sector columns")
    col_pos = {s: j + 1 for j, s in enumerate(col_sectors)}
    sectors = tuple(row_sectors)
    flows = [[ref_nonnegative(row[col_pos[s]], path, lineno, s, row[0], "flow") for s in sectors]
             for lineno, row in zip(lines, rows)]
    return sectors, np.array(flows, dtype=float).reshape(len(rows), len(sectors))


def ref_nonnegative(text, path, lineno, column, sector, noun):
    """Per-cell reference of an inter-industry value: ``ref_cell``, then the
    nonnegativity rule, naming the row's sector."""
    v = ref_cell(text, path, lineno, column)
    if v < 0:
        raise DataValidationError(
            f"{path}: row {lineno}, column {column!r}: sector {sector!r} has negative {noun} {v}; "
            "flows, final demand and emissions must be nonnegative")
    return v


def ref_bridge(path, categories):
    """load_bridge as a per-cell loop reads the matrix."""
    header, rows, lines = read_table(path)
    products = tuple(header[1:])
    if not products:
        raise DataValidationError(f"{path}: bridging matrix needs product columns")
    order, _ = _keyed_order(path, "category", categories.ids)(header, [r[0] for r in rows])
    B = ref_values(path, header, rows, lines, range(1, len(header)))
    for lineno, row, shares in zip(lines, rows, B):
        for product, v in zip(products, shares):
            if v < 0:
                raise DataValidationError(
                    f"{path}: row {lineno}, column {product!r}: category {row[0]!r} has negative "
                    f"share {v}; bridging shares must be nonnegative")
        if abs(shares.sum() - 1.0) > 1e-9:
            raise DataValidationError(f"{path}: row {lineno}: bridging row {row[0]!r} sums to "
                                      f"{shares.sum():.12g}, expected 1")
    return BridgingMatrix(categories=categories.ids, products=products, shares=B[order])


def ref_keyed_column(path, key_column, expected, name, origin=False, noun=None,
                     relative=False, against="the category registry"):
    """``name``'s column of a file keyed by ``key_column``, in the order of
    ``expected``, as a per-cell loop reads it; with ``noun``, each value
    nonnegative (``ref_nonnegative``); with ``origin``, each output positive
    and then the origin flags of mrio_x.csv (blank: domestic); with
    ``relative``, each price relative above -1."""
    header, rows, lines = read_table(path)
    if name not in header:
        raise DataValidationError(f"{path}: missing column {name!r}")
    order, _ = _keyed_order(path, key_column, expected, against)(header, [r[0] for r in rows])
    j = header.index(name)
    values, flags = [], []
    for lineno, row in zip(lines, rows):
        if noun is not None:
            values.append(ref_nonnegative(row[j], path, lineno, name, row[0], noun))
        else:
            values.append(ref_cell(row[j], path, lineno, name))
        if relative and values[-1] <= -1:
            raise DataValidationError(f"{path}: row {lineno}, column {name!r}: category "
                                      f"{row[0]!r} has price relative {values[-1]}; price "
                                      f"relatives must exceed -1")
        if origin and values[-1] <= 0:
            raise DataValidationError(f"{path}: row {lineno}, column {name!r}: sector {row[0]!r}: "
                                      f"output must be strictly positive, got {values[-1]}")
        if origin and "origin" in header:
            flag = row[header.index("origin")]
            if flag not in ("", "domestic", "imported"):
                raise DataValidationError(f"{path}: row {lineno}, column 'origin': expected "
                                          f"domestic/imported, got {flag!r}")
            flags.append(flag or "domestic")
    flags = [flags[i] for i in order] if flags else ["domestic"] * len(order)
    return np.array(values, dtype=float)[order], tuple(flags)


def ref_mrio(z_path, d_path, x_path, f_path):
    """load_mrio as per-cell loops read the four files, in that order."""
    sectors, Z = ref_flows(z_path)
    rows_of_z = f"the rows of {z_path}"
    d, _ = ref_keyed_column(d_path, "sector", sectors, "d", noun="final demand", against=rows_of_z)
    x, origin = ref_keyed_column(x_path, "sector", sectors, "x", origin=True, against=rows_of_z)
    f, _ = ref_keyed_column(f_path, "sector", sectors, "f", noun="emissions", against=rows_of_z)
    return MrioTable(sectors=sectors, flows=Z, final_demand=d, output=x, emissions=f,
                     origin=origin)


def ref_prices(path, categories):
    """load_price_relatives as a per-cell loop reads prices.csv."""
    return ref_keyed_column(path, "category", categories.ids, "pi", relative=True)[0]


def ref_fuels(path):
    """load_fuels as a per-cell loop reads fuels.csv."""
    header, rows, lines = read_table(path)
    for col in ("fuel", "price", "kgco2_per_unit"):
        if col not in header:
            raise DataValidationError(f"{path}: missing column {col!r}")
    names = ("price", "kgco2_per_unit")
    seen = set()
    for lineno, row in zip(lines, rows):
        fuel = row[header.index("fuel")]
        if fuel in seen:
            raise DataValidationError(f"{path}: row {lineno}: duplicate fuel {fuel!r}")
        seen.add(fuel)
        cells = [ref_cell(row[header.index(c)], path, lineno, c) for c in names]
        for c, v, noun in zip(names, cells, (("price", "prices"),
                                             ("carbon content", "carbon contents"))):
            if v <= 0:
                raise DataValidationError(f"{path}: row {lineno}, column {c!r}: fuel {fuel!r} has "
                                          f"{noun[0]} {v}; fuel {noun[1]} must be strictly positive")
    values = ref_values(path, header, rows, lines, [header.index(c) for c in names])
    return FuelTable(fuels=tuple(row[header.index("fuel")] for row in rows), price=values[:, 0],
                     carbon_kg_per_unit=values[:, 1])


# the reader's own block size, and one that puts block edges inside lines
# and between the \r and \n of a line end
BLOCK_SIZES = (data_module.CHUNK_BYTES, 3)


def blocks_of(size):
    return mock.patch.object(data_module, "CHUNK_BYTES", size)


def no_row_path():
    return mock.patch.object(data_module, "read_table",
                             side_effect=AssertionError("a plain file went to the row path"))


def test_loadtxt_checks_the_field_count_only_when_reading_every_column():
    """The reader's proof of the comma rule rests on this: reading every
    column, loadtxt raises for a row whose field count differs from the
    first row's; with usecols it reads the row, so the comma scan stays."""
    with pytest.raises(ValueError):
        np.loadtxt(["1,2", "3,4,5"], delimiter=",", comments=None)
    values = np.loadtxt(["1,2", "3,4,5"], delimiter=",", comments=None, usecols=[0, 1])
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


MATCH_LABEL = st.text(alphabet="abcd", max_size=2)


def listed(kind, labels):
    """A label list as match_labels words it: its count and first five."""
    if not labels:
        return ""
    return (f"; {kind} {len(labels)}: " + ", ".join(repr(label) for label in labels[:5])
            + (", ..." if len(labels) > 5 else ""))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_match_labels_gives_positions_exactly_for_a_permutation(data):
    """For any ``found`` and any ``expected`` without repeats, match_labels
    gives each expected label's position in ``found`` when ``found`` is a
    permutation of ``expected``; otherwise it raises, naming the first
    label ``found`` repeats, or else the missing and unexpected labels."""
    expected = data.draw(st.lists(MATCH_LABEL, max_size=12, unique=True), label="expected")
    pool = st.sampled_from(expected) | MATCH_LABEL if expected else MATCH_LABEL
    found = data.draw(st.permutations(expected) | st.lists(pool, max_size=12), label="found")
    if sorted(found) == sorted(expected):
        positions = match_labels(found, expected, "t.csv", "sector", "the registry")
        assert [found[i] for i in positions] == expected
        return
    with pytest.raises(DataValidationError) as caught:
        match_labels(found, expected, "t.csv", "sector", "the registry")
    repeated = [label for i, label in enumerate(found) if label in found[:i]]
    if repeated:
        assert str(caught.value) == f"t.csv: duplicate sector {repeated[0]!r}"
        return
    missing = [label for label in expected if label not in found]
    unexpected = [label for label in found if label not in expected]
    assert missing or unexpected
    assert str(caught.value) == ("t.csv: sector labels do not match the registry"
                                 + listed("missing", missing) + listed("unexpected", unexpected))


CUT_FAULTS = ("extra comma", "missing comma", "trailing comma", "short first row",
              "blank line", "whitespace line")


class TestLabelledReader:
    @staticmethod
    def value_columns(width, order):
        """read_input's ``columns`` and ``order`` callbacks: the value
        columns ``order`` for a header of ``width`` columns and unique
        labels, and a message otherwise."""
        def columns(header):
            if len(header) != width or width < 2:
                raise DataValidationError(f"header {header!r}")
            return 0, order

        def unique(header, labels):
            if len(set(labels)) != len(labels):
                raise DataValidationError("duplicate labels")
            return None, None
        return columns, unique

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_plain_files_take_the_fast_path_bit_for_bit(self, new_dir, data):
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        labels = data.draw(st.lists(PLAIN_LABEL, min_size=n, max_size=n, unique=True))
        plain = st.builds(lambda f, v: f(v), st.sampled_from(NUMBER_TEXTS[:4]),
                          st.floats(allow_nan=False, allow_infinity=False))
        rows = [[label, *(data.draw(plain) for _ in range(m))] for label in labels]
        header = ["key", *(f"c{j}" for j in range(m))]
        path = write_labelled(new_dir() / "t.csv", header, rows,
                              terminators=data.draw(st.sampled_from(PLAIN_ENDS)),
                              final_break=data.draw(st.booleans()))
        columns = self.value_columns(m + 1, data.draw(st.permutations(range(1, m + 1))))
        expected = labelled_outcome(ref_labelled, path, columns)
        with no_row_path(), blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            assert labelled_outcome(read_input, path, columns) == expected
        assert not isinstance(expected, str)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reader_equals_read_table_and_per_cell_parse(self, new_dir, data):
        n, m = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
        header = ["key", *(f"c{j}" for j in range(m))]
        labels = data.draw(st.lists(data.draw(st.sampled_from([PLAIN_LABEL, ODD_LABEL])),
                                    min_size=n, max_size=n, unique=True))
        cells = st.one_of(FINITE_TEXT, FINITE_TEXT, st.sampled_from(ODD_CELLS))
        rows = [[label, *(data.draw(cells) for _ in range(m))] for label in labels]
        if n and m and data.draw(st.integers(0, 3)):
            inject_faults(data, header, rows)
        path = write_labelled(new_dir() / "t.csv", header, rows,
                              **data.draw(line_layouts(n, first=0)))
        # any column order, as load_mrio reads Z in row-label order
        columns = self.value_columns(m + 1, data.draw(st.permutations(range(1, m + 1))))
        with blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            got = labelled_outcome(read_input, path, columns)
        assert got == labelled_outcome(ref_labelled, path, columns)

    @pytest.mark.parametrize("text", [
        "", "\n", "\r\n", "key,c0", "key,c0\n", "key,c0\r\n", "key,c0\n\n", "key,c0\n  \n",
        "key,c0\r", "key,c0\na,\n", "key,c0\na, \n", "key,c0\na,1\n\n", "\ufeffkey,c0\na,1\n",
    ])
    def test_header_only_and_empty_files_warn_nothing(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        columns = self.value_columns(2, [1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = labelled_outcome(read_input, path, columns)
        assert [str(w.message) for w in caught] == []
        assert got == labelled_outcome(ref_labelled, path, columns)

    @pytest.mark.parametrize("text", [
        "key,c0\na,1,2\n", "key,c0\na,1,2\nb,3,4\n", "key,c0,c1\na,1\n", "key,c0,c1\na,1\nb,2\n",
        "key,c0\na,1\nb,2,3\n", "key,c0\na\r,1\n", "key\rc0,c1\na,1\n", "key,c0\na,1\rb,2\n",
        "key,c0\na,1\r", "key,c0\r\na,1\r\r\n", "key,c0\na,1\n\rb,2\n", "key,c0\na,\x1c1\n",
        "key,c0\na,1\x1f\n", "key,c0\na\x00,1\n", "key,c0\na,1\x00\n", "key,c0\n\xe9,1\n",
        "key,c0\na,\uff11\n", "key,c0\na,\xa01\n", "key,c0\na,1\t\n", "key,c0\na,1\n\nb,1,2\n",
        "key,c0\na,1\x7f\n", 'key,c0\n"a",1\n', "key,c\x1f0\na,1\n", "key,c0\r\na,\x0c1\r\n",
        "key,c0\r\na\r,1\r\n", "key,c0\r\na,1\r\n\rb,2\r\n",
    ])
    def test_odd_lines_read_as_on_the_row_path(self, tmp_path, text):
        """Ragged rows, stray carriage returns, control and non-ASCII bytes."""
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        columns = self.value_columns(2, [1])
        expected = labelled_outcome(ref_labelled, path, columns)
        for size in BLOCK_SIZES:
            with blocks_of(size):
                assert labelled_outcome(read_input, path, columns) == expected, size

    @pytest.mark.parametrize("text", [
        "key,c0\nabcdefghi,1\n", "key,c0\na,123456789\n", "key,abcdefghi\na,1\n",
        "key,c0\na,12345678\n", "key,c0,c1,c2\na,1,2,3\n", "key,c0,c1,c2\na,1,2,3456789\n",
        "key,c0,c1,c2\na,1,2,34567890\n",
    ])
    def test_a_field_over_the_csv_limit_fails_as_on_the_row_path(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        width = text[:text.index("\n")].count(",") + 1
        columns = self.value_columns(width, range(1, width))
        limit = csv.field_size_limit(8)
        try:
            got = labelled_outcome(read_input, path, columns)
            expected = labelled_outcome(ref_labelled, path, columns)
        finally:
            csv.field_size_limit(limit)
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cut_files_read_as_on_the_row_path(self, new_dir, data):
        """A file whose label comes first and whose other columns are all
        read, in header order, goes to loadtxt as each line's rest, with no
        comma scan: a row with an extra, a missing or a trailing comma, a
        short first row, a blank or whitespace-only line, mixed \\n and
        \\r\\n line ends and a line at or one over the csv field limit
        each give the row path's message or bits, at each block size."""
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 4))
        labels = data.draw(st.lists(PLAIN_LABEL, min_size=n, max_size=n, unique=True))
        cell = st.builds(lambda f, v: f(v), st.sampled_from(NUMBER_TEXTS[:4]),
                         st.floats(0.0, 1e6))
        lines = [",".join(["key", *(f"c{j}" for j in range(m))])]
        lines += [",".join([label, *(data.draw(cell) for _ in range(m))]) for label in labels]
        faults = data.draw(st.lists(st.sampled_from(CUT_FAULTS), max_size=2))
        for kind in faults:
            i = data.draw(st.integers(1, len(lines) - 1))
            if kind in ("blank line", "whitespace line"):  # the last line included
                blank = "" if kind == "blank line" else data.draw(st.sampled_from([" ", "  "]))
                lines.insert(data.draw(st.integers(1, len(lines))), blank)
            elif kind == "trailing comma":
                lines[i] += ","
            elif "," not in lines[i]:
                continue  # an inserted line: nothing to move
            elif kind == "extra comma":
                at = data.draw(st.integers(lines[i].index(",") + 1, len(lines[i])))
                lines[i] = lines[i][:at] + "," + lines[i][at:]
            elif kind == "missing comma":
                at = data.draw(st.sampled_from([j for j, c in enumerate(lines[i]) if c == ","]))
                lines[i] = lines[i][:at] + lines[i][at + 1:]
            elif "," in lines[1]:  # a short first row
                lines[1] = lines[1][:lines[1].rindex(",")]
        ends = [data.draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        if not data.draw(st.booleans()):
            text = text[:-len(ends[-1])]
        path = new_dir() / "t.csv"
        path.write_bytes(text.encode())
        longest = max(map(len, lines))
        over = data.draw(st.booleans())  # the longest line at the field limit, or one over
        columns = self.value_columns(m + 1, range(1, m + 1))
        limit = csv.field_size_limit(longest - over)
        try:
            expected = labelled_outcome(ref_labelled, path, columns)
            for size in BLOCK_SIZES:
                with blocks_of(size):
                    if faults or over:
                        assert labelled_outcome(read_input, path, columns) == expected, size
                        continue
                    with no_row_path():
                        assert labelled_outcome(read_input, path, columns) == expected, size
        finally:
            csv.field_size_limit(limit)
        assert faults or over or not isinstance(expected, str)

    def test_first_column_is_labels_not_values(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", ["c0", "id", "c1"], [["1", "a", "2"], ["3", "b", "4"]])
        got = read_input(path, lambda header: (0, [0, 2]))
        assert got[1] == ["1", "3"]
        assert got[2].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_mrio_flows_equal_per_cell_parse(self, new_dir, data):
        scratch = new_dir()
        n = data.draw(st.integers(1, 5))
        sectors = data.draw(st.permutations([f"s{i}" for i in range(n)]))
        columns = data.draw(st.permutations(sectors))  # header order free of row order
        header = ["sector", *columns]
        rows = [[s, *(data.draw(FINITE_TEXT) for _ in columns)] for s in sectors]
        z = np.array([[float(c) for c in r[1:]] for r in rows])[:, [columns.index(s) for s in sectors]]
        d = np.full(n, 10.0)
        for name, col, values in (("d", "d", d), ("x", "x", z.sum(axis=1) + d), ("f", "f", d)):
            write_rows(scratch / f"{name}.csv", ["sector", col],
                       [[s, repr(v)] for s, v in zip(sectors, values.tolist())])
        faulted = data.draw(st.booleans())
        if faulted:
            inject_faults(data, header, rows)
        layout = data.draw(line_layouts(n)) if data.draw(st.booleans()) else {}
        zp = write_labelled(scratch / "z.csv", header, rows, **layout)
        paths = [zp, *(scratch / f"{name}.csv" for name in "dxf")]
        expected = message(ref_flows, zp)
        if expected is not None:
            with blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
                assert message(load_mrio, *paths) == expected
            return
        ref_sectors, ref_z = ref_flows(zp)
        # x.csv from the flows as they stand: a row that lost its last cell
        # and then gained a "1" is whole again, with a changed value
        write_rows(scratch / "x.csv", ["sector", "x"],
                   [[s, repr(v)] for s, v in zip(ref_sectors, (ref_z.sum(axis=1) + d).tolist())])
        with blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            t = load_mrio(*paths)
        assert t.sectors == ref_sectors == tuple(sectors)
        assert bits(t.flows) == bits(ref_z)
        if not faulted:
            assert bits(ref_z) == bits(z)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_load_bridge_equals_per_cell_parse(self, new_dir, data):
        m = data.draw(st.integers(1, 4))
        products = [f"p{j}" for j in range(m)]
        exact = st.sampled_from((repr, " {!r} ".format, "{:_}".format))
        rows = []
        for cat in data.draw(st.permutations(CATS.ids)):
            w = np.array([data.draw(st.floats(0.0, 1e3)) for _ in products]) + 1.0
            rows.append([cat, *(data.draw(exact)(v) for v in (w / w.sum()).tolist())])
        header = ["category", *products]
        if data.draw(st.booleans()):
            inject_faults(data, header, rows)
        layout = data.draw(line_layouts(len(rows))) if data.draw(st.booleans()) else {}
        path = write_labelled(new_dir() / "bridge.csv", header, rows, **layout)
        expected = message(ref_bridge, path, CATS)
        with blocks_of(data.draw(st.sampled_from(BLOCK_SIZES))):
            if expected is not None:
                assert message(load_bridge, path, CATS) == expected
                return
            shares = load_bridge(path, CATS).shares
        assert bits(shares) == bits(ref_bridge(path, CATS).shares)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_keyed_and_fuel_files_equal_per_cell_parse(self, new_dir, data):
        """mrio_d/x/f.csv (x with an origin column or without), prices.csv
        and fuels.csv, one of them with faults and odd lines, load as
        their per-cell references load them, at each block size."""
        scratch = new_dir()
        n = data.draw(st.integers(1, 4))
        sectors = [f"s{i}" for i in range(n)]
        z = np.array([[data.draw(st.floats(0.0, 1e4)) for _ in sectors] for _ in sectors])
        write_rows(scratch / "z.csv", ["sector", *sectors],
                   [[s, *map(repr, row)] for s, row in zip(sectors, z.tolist())])
        d = [data.draw(FINITE_TEXT) for _ in sectors]
        x = (z.sum(axis=1) + [float(v) for v in d]).tolist()
        flags = [data.draw(st.sampled_from(["domestic", "imported", ""])) for _ in sectors]
        x_header = ["sector", "x", "origin"] if data.draw(st.booleans()) else ["sector", "x"]
        order = data.draw(st.permutations(range(n)))  # keyed rows in any order
        categories = data.draw(st.permutations(CATS.ids))
        fuel_header = data.draw(st.permutations(["fuel", "price", "kgco2_per_unit"]))
        fuel_rows = [[f"fuel{i}" if c == "fuel" else repr(data.draw(st.floats(0.1, 1e3)))
                      for c in fuel_header] for i in range(data.draw(st.integers(1, 3)))]
        tables = {
            "d": (["sector", "d"], [[sectors[i], d[i]] for i in order]),
            "x": (x_header, [[sectors[i], repr(x[i]), flags[i]][:len(x_header)] for i in order]),
            "f": (["sector", "f"], [[s, data.draw(FINITE_TEXT)] for s in sectors]),
            "prices": (["category", "pi"], [[c, data.draw(FINITE_TEXT)] for c in categories]),
            "fuels": (fuel_header, fuel_rows),
        }
        faulted = data.draw(st.sampled_from([None, *tables]))
        layout = {}
        if faulted is not None:
            header, rows = tables[faulted]
            inject_faults(data, header, rows)
            layout = data.draw(line_layouts(len(rows), first=0))
        for name, (header, rows) in tables.items():
            write_labelled(scratch / f"{name}.csv", header, rows,
                           **(layout if name == faulted else {}))
        mrio_paths = [scratch / f"{name}.csv" for name in "zdxf"]
        loads = ((load_mrio, ref_mrio, mrio_paths),
                 (load_price_relatives, ref_prices, [scratch / "prices.csv", CATS]),
                 (load_fuels, ref_fuels, [scratch / "fuels.csv"]))
        for loader, reference, args in loads:
            expected = message(reference, *args)
            want = reference(*args) if expected is None else None
            for size in BLOCK_SIZES:
                with blocks_of(size):
                    if expected is not None:
                        assert message(loader, *args) == expected, size
                        continue
                    got = loader(*args)
                if isinstance(got, np.ndarray):
                    assert bits(got) == bits(want), size
                    continue
                assert vars(got).keys() == vars(want).keys()
                for key, value in vars(want).items():
                    if isinstance(value, np.ndarray):
                        assert bits(getattr(got, key)) == bits(value), (key, size)
                    else:
                        assert getattr(got, key) == value, (key, size)


def test_plain_wide_tables_and_results_skip_the_row_path(bundle_dir, tmp_path, monkeypatch):
    """The demo's input files, mrio_x.csv with its text origin column too,
    and the households.csv a run writes, load through loadtxt alone, to the
    per-cell references' values."""
    cfg = parse_config(bundle_dir / "config.txt")
    emit_reports(run_scenario(cfg), tmp_path / "run")
    categories = CategorySet.default()
    mrio_paths = [bundle_dir / f"mrio_{name}.csv" for name in "zdxf"]
    ref = ref_mrio(*mrio_paths)
    shares = ref_bridge(bundle_dir / "bridge.csv", categories).shares
    prices = ref_prices(bundle_dir / "prices.csv", categories)
    fuels = ref_fuels(bundle_dir / "fuels.csv")
    real = data_module.read_table

    def read_table_but_plain(path):
        assert Path(path).name not in ("mrio_z.csv", "mrio_d.csv", "mrio_x.csv", "mrio_f.csv",
                                       "bridge.csv", "prices.csv", "fuels.csv",
                                       "households.csv"), path
        return real(path)

    monkeypatch.setattr(data_module, "read_table", read_table_but_plain)
    mrio = load_mrio(*mrio_paths)
    assert mrio.sectors == ref.sectors and mrio.origin == ref.origin
    for name in ("flows", "final_demand", "output", "emissions"):
        assert bits(getattr(mrio, name)) == bits(getattr(ref, name)), name
    assert bits(load_bridge(bundle_dir / "bridge.csv", categories).shares) == bits(shares)
    assert bits(load_price_relatives(bundle_dir / "prices.csv", categories)) == bits(prices)
    got = load_fuels(bundle_dir / "fuels.csv")
    assert got.fuels == fuels.fuels
    assert bits(got.price) == bits(fuels.price)
    assert bits(got.carbon_kg_per_unit) == bits(fuels.carbon_kg_per_unit)
    tables, _ = rebuild_tables_from_csv(tmp_path / "run" / "households.csv", cfg)
    for name, path in write_tables(tables, tmp_path / "report").items():
        assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes(), name


OPEN_COUNTER = """
import collections, json, os, sys
from pathlib import Path

inputs = Path(sys.argv[1]).resolve().parent
opens = collections.Counter()


def hook(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        path = Path(args[0]).resolve()
        if path.parent == inputs:
            opens[path.name] += 1


sys.addaudithook(hook)
from priceshock.cli import main

assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]) == 0
print(json.dumps(opens))
"""


def test_a_run_opens_each_input_file_once(tmp_path):
    """On the sectors_wide benchmark inputs (60 sectors), whose mrio_x.csv
    labels its rows with a sector and an origin flag, a run opens every
    input file once: no reader declines a file after opening it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.WIDE_SECTORS = 60
    gen.generate("sectors_wide", 1, tmp_path / "in")
    assert (tmp_path / "in" / "mrio_x.csv").read_text().startswith("sector,x,origin\n")
    src = str(Path(data_module.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", OPEN_COUNTER, str(tmp_path / "in" / "config.txt"),
                           str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    inputs = sorted(path.name for path in (tmp_path / "in").iterdir())
    assert json.loads(proc.stdout) == dict.fromkeys(inputs, 1)


def synthetic_result(n):
    """A ScenarioResult whose household frame has ``n`` rows of random values."""
    rng = np.random.default_rng(3)
    groups = ("food", "motor_fuels", "domestic_energy_electricity", "other")
    hh = {"id": np.array([f"h{i}" for i in range(n)]), "weight": rng.random(n) * 500,
          "size": rng.integers(1, 8, n).astype(float), "quintile": rng.integers(0, 5, n)}
    for c in ("x", "equivalised", "pi", "burden", "cv", "transfer", "cv_net", "ye", "ye_net",
              "fp_before", "fp_after"):
        hh[c] = rng.random(n) * 1e5
    for g in groups:
        hh[f"share_{g}"] = rng.random(n)
        hh[f"burden_{g}"] = rng.random(n) * 1e3
    return ScenarioResult(
        categories=CATS, group_names=groups, relatives_total=np.zeros(3),
        relatives_inflation=np.zeros(3), relatives_carbon=np.zeros(3),
        household=hh, tables={}, revenue=0.0, seed=0, config_hash="",
    )


def test_emit_reports_peak_memory_stays_under_the_frame(tmp_path):
    """Writing households.csv takes less traced memory than the frame's own
    number columns; formatting it through Python floats took about 4x."""
    n = 100_000
    result = synthetic_result(n)
    frame_bytes = n * (len(result.household) - 1) * 8
    tracemalloc.start()
    try:
        emit_reports(result, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "households.csv").read_text().count("\n") == n + 1
    assert peak < frame_bytes, f"peak {peak / frame_bytes:.2f}x the frame"


def test_build_tables_peak_memory_stays_near_the_frame():
    """build_tables adds a traced peak under 1.25x the frame's number
    columns; copying its columns into quintile order and stacking them for
    the progressivity table took about 2.3x."""
    n = 100_000
    result = synthetic_result(n)
    hh = result.household
    for c in ("x", "equivalised", "ye_net"):  # kept positive, as report asks
        hh[c] += 1.0
    frame_bytes = n * (len(hh) - 1) * 8
    tracemalloc.start()
    try:
        tables = build_tables(hh, result.group_names, RunConfig(files={}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables["t3_budget_shares"][1]) == 6
    assert peak < 1.25 * frame_bytes, f"peak {peak / frame_bytes:.2f}x the frame"


def test_report_reads_households_csv_near_the_frame(tmp_path, bundle_dir, monkeypatch):
    """rebuild_tables_from_csv reads a 100k-row households.csv with a traced
    peak under 2x the frame's number columns, ids included; holding every
    row as text first took about 11x. The peak is taken when the tables start."""
    n = 100_000
    result = synthetic_result(n)
    emit_reports(result, tmp_path / "out")
    frame_bytes = n * (len(result.household) - 1) * 8
    del result
    peaks = []

    def build_tables(hh, group_names, cfg):
        peaks.append(tracemalloc.get_traced_memory()[1])
        assert len(hh["weight"]) == n
        return {}

    monkeypatch.setattr(scenario_module, "build_tables", build_tables)
    cfg = parse_config(bundle_dir / "config.txt")
    tracemalloc.start()
    try:
        rebuild_tables_from_csv(tmp_path / "out" / "households.csv", cfg)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2 * frame_bytes, f"peak {peaks[0] / frame_bytes:.2f}x the frame"


def test_load_mrio_peak_memory_stays_near_the_matrix(tmp_path):
    """load_mrio's traced peak stays under 2x the bytes of the flow matrix;
    holding every cell as text first took about 9x, streaming rows 2.1x."""
    n = 400
    rng = np.random.default_rng(5)
    z = rng.random((n, n)) * 10.0
    d = np.full(n, 100.0)
    sectors = [f"s{i}" for i in range(n)]
    write_rows(tmp_path / "z.csv", ["sector", *sectors],
               [[s, *map(repr, row)] for s, row in zip(sectors, z.tolist())])
    for name, col, values in (("d", "d", d), ("x", "x", z.sum(axis=1) + d), ("f", "f", d)):
        write_rows(tmp_path / f"{name}.csv", ["sector", col],
                   [[s, repr(v)] for s, v in zip(sectors, values.tolist())])
    paths = [tmp_path / f"{name}.csv" for name in "zdxf"]
    tracemalloc.start()
    try:
        t = load_mrio(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(t.flows) == bits(z)
    assert peak < 2 * z.nbytes, f"peak {peak / z.nbytes:.2f}x the matrix"


def test_load_household_survey_peak_memory_stays_near_the_values(tmp_path):
    """load_household_survey reads a 100k-row plain survey with a traced
    peak under 3x the block of values it parses; holding the file's bytes
    and the positions of its commas took about 3.7x."""
    n = 100_000
    rng = np.random.default_rng(7)
    categories = CategorySet.default()
    survey = HouseholdSurvey(
        ids=np.array([f"hh{i:06d}" for i in range(n)]), weight=rng.random(n) * 50,
        size=rng.integers(1, 8, n).astype(float), income=rng.random(n) * 1e5,
        demographic_names=("urban",), demographics=rng.integers(0, 2, (n, 1)).astype(float),
        expenditure=np.round(rng.random((n, len(categories))) * 1e3, 6),
        report=LoadReport(source="test"))
    path = tmp_path / "households.csv"
    write_household_survey(path, survey, categories)
    values_bytes = n * (4 + len(categories)) * 8  # weight, size, inc, demo_urban, exp_*
    tracemalloc.start()
    try:
        loaded = load_household_survey(path, categories)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(loaded.expenditure) == bits(survey.expenditure)
    assert peak < 3 * values_bytes, f"peak {peak / values_bytes:.2f}x the values"
