"""Frozen-fixture checks: any change to these values is a failure."""

import hashlib

import numpy as np

from priceshock.data import DEFAULT_REPORT_GROUPS
from priceshock.fixtures import (
    GROUP_PRICE_RELATIVES,
    TARGET_GROUP_SHARES,
    category_price_relatives,
    write_fixture_bundle,
)

HOUSEHOLDS_SHA256 = "652774768c00e34b69693e1aa4f4d9bb1c35431f3b550c15bbb3bb33b5c92238"
# every other file ``priceshock fixtures`` writes
BUNDLE_SHA256 = {
    "mrio_z.csv": "1f44ac7b8515add0d9aff61e77053c051eb5d17bf7c76d85a4143fea40211fdf",
    "mrio_d.csv": "75cd58d7084a1e74bff9b6a0716cbb1a0177bb2f920dd6f48f154372d903e790",
    "mrio_x.csv": "f7fecc7facb14f585570aba3d321241f0c30977e9baa352d20e412e5b08e606a",
    "mrio_f.csv": "94ad5a813990fba5b64f31764fa750a5d450a6319fbf828b7bb629db8717479c",
    "bridge.csv": "aff2885d384df21acb1a115d8b39e2a114e0da860d3cf690685c57cb326bc80d",
    "prices.csv": "9f719e0ed6a96e4a69d656ed5152721a770a73466fae536eedcfaf4b34f99415",
    "fuels.csv": "c654b5c4ffd9fcc160a806670ceedb914e8b0872127ef260fb3c6ccf792221d4",
    "config.txt": "1259587bf1d7bccd9fe66e294fca832d72bb39a9287e8413c092efac8b0fadae",
}


def test_io2_accounting_identity_by_hand(bundle):
    # row 1: 0.2*100 + 0.3*100 + 50 = 100, row 2: 0.4*100 + 0.1*100 + 50 = 100
    t = bundle.io2
    assert t.flows.tolist() == [[20.0, 30.0], [40.0, 10.0]]
    assert (t.flows.sum(axis=1) + t.final_demand).tolist() == [100.0, 100.0]
    assert t.output.tolist() == [100.0, 100.0]
    assert t.emissions.tolist() == [10.0, 30.0]


def test_les_engel_aggregation_by_hand(bundle):
    # 0.5*0.8 + 0.3*1.0 + 0.2*1.5 = 1
    f = bundle.les
    assert f.quantities == (50.0, 30.0, 20.0)
    assert f.budget_elasticities == (0.8, 1.0, 1.5)
    assert f.xi == -1.5
    assert sum(w * e for w, e in zip(f.shares, f.budget_elasticities)) == 1.0


def test_household_fixture_shape_and_shares(bundle):
    records = bundle.households
    assert len(records) >= 200
    for r in records[::17]:
        assert abs(r.budget_shares().sum() - 1.0) < 1e-9
        assert r.weight == 12.5
    # alcohol and childcare stay as all-zero columns
    exp = np.vstack([r.expenditure for r in records])
    i_alcohol = bundle.categories.index("alcohol")
    i_childcare = bundle.categories.index("childcare")
    assert np.all(exp[:, i_alcohol] == 0)
    assert np.all(exp[:, i_childcare] == 0)


def test_household_fixture_frozen_values(bundle):
    r0 = bundle.households[0]
    assert r0.id == "hh0000"
    assert r0.size == 4.0
    assert r0.disposable_income == 12087.911364
    assert r0.demographics == {"urban": 0.0, "head_age": 59.0}
    assert r0.expenditure[0] == 6134.272022
    assert r0.expenditure[3] == 828.210124


def test_household_fixture_file_hash_frozen(bundle_dir):
    digest = hashlib.sha256((bundle_dir / "households.csv").read_bytes()).hexdigest()
    assert digest == HOUSEHOLDS_SHA256


def test_bundle_file_hashes_frozen(tmp_path):
    paths = write_fixture_bundle(tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for name, p in paths.items() if name != "households"}
    assert digests == BUNDLE_SHA256


def test_aggregate_group_shares_hit_targets(bundle):
    records = bundle.households
    w = np.array([r.weight for r in records])
    exp = np.vstack([r.expenditure for r in records])
    agg = float(w @ exp.sum(axis=1))
    for g, members in DEFAULT_REPORT_GROUPS.items():
        cols = [bundle.categories.index(c) for c in members]
        share = float(w @ exp[:, cols].sum(axis=1)) / agg
        assert abs(share - TARGET_GROUP_SHARES[g]) < 1e-9


def test_aggregate_inflation_matches_hand_sum(bundle):
    # sum of target shares times group rates
    expected = sum(TARGET_GROUP_SHARES[g] * GROUP_PRICE_RELATIVES[g] for g in TARGET_GROUP_SHARES)
    records = bundle.households
    w = np.array([r.weight for r in records])
    exp = np.vstack([r.expenditure for r in records])
    rel = category_price_relatives(bundle.categories)
    agg_burden = float(w @ (exp @ rel))
    agg_x = float(w @ exp.sum(axis=1))
    assert abs(agg_burden / agg_x - expected) < 1e-9


def test_bundle_regeneration_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_fixture_bundle(d1)
    write_fixture_bundle(d2)
    for name in ("households.csv", "mrio_z.csv", "bridge.csv", "prices.csv", "fuels.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
