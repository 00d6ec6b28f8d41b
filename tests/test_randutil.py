"""Counter-based keyed draws: pinned stream, order independence, moments."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priceshock.imputation
import priceshock.randutil
from priceshock.data import CategorySet, HouseholdRecord, IncomeRecord, load_household_survey
from priceshock.imputation import impute_expenditure_patterns
from priceshock.randutil import id_keys, keyed_normals, keyed_uniforms
from priceshock.scenario import parse_config, run_scenario

IDS = ["hh0000", "hh0001", "r7"]
LABELS = ["food", "total"]


def bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.uint64).ravel().tolist()


def test_normals_are_box_muller_of_the_uniforms_bit_for_bit():
    ids, labels = [f"r{i}" for i in range(500)], [f"c{j}" for j in range(7)]
    u1, u2 = keyed_uniforms(3, "share", ids, labels)
    want = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    assert bits(keyed_normals(3, "share", ids, labels)) == bits(want)


def test_golden_cells():
    """A change to the keying, the mixer or the transform changes these."""
    u1, u2 = keyed_uniforms(42, "share", IDS, LABELS)
    assert u1.tolist() == [[0.24990869968277607, 0.8209050644881724],
                           [0.5750071217674475, 0.061276433221130855],
                           [0.2010151729114067, 0.7108866048084674]]
    assert u2.tolist() == [[0.46118201846829243, 0.35497815437424607],
                           [0.5278519268005197, 0.337280054125375],
                           [0.8477513811627202, 0.13950849453778869]]
    z = keyed_normals(42, "share", IDS, LABELS)
    np.testing.assert_allclose(z, [[-0.7359220430441276, -1.136518956108413],
                                   [-1.2882114336366732, -0.18539384370910725],
                                   [0.3860872945765408, 1.0079390941171602]], rtol=1e-13)
    assert keyed_normals(7, "total_expenditure", ["a"], ["total"])[0, 0] == pytest.approx(
        -0.16514378934473986, rel=1e-13)


def test_seed_stream_and_label_each_change_the_draws():
    base = keyed_normals(1, "share", IDS, LABELS)
    assert not np.array_equal(base, keyed_normals(2, "share", IDS, LABELS))
    assert not np.array_equal(base, keyed_normals(1, "total", IDS, LABELS))
    assert not np.array_equal(base[:, 0], keyed_normals(1, "share", IDS, ["rents"])[:, 0])


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.text(max_size=6), min_size=1, max_size=12, unique=True),
       labels=st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**31), data=st.data())
def test_permuting_ids_or_labels_permutes_the_block(ids, labels, seed, data):
    rows = data.draw(st.permutations(range(len(ids))))
    cols = data.draw(st.permutations(range(len(labels))))
    block = keyed_normals(seed, "s", ids, labels)
    permuted = keyed_normals(seed, "s", [ids[i] for i in rows], [labels[j] for j in cols])
    assert bits(permuted) == bits(block[np.ix_(rows, cols)])
    # a cell does not depend on which other ids are drawn with it
    assert bits(keyed_normals(seed, "s", ids[:1], labels)) == bits(block[:1])


def reference_uniforms(seed, stream, ids, labels):
    """keyed_uniforms as its docstring states it, one cell at a time in Python
    integers: each id hashed again for every stream, as ``"\x1f".join`` of
    its parts."""
    mask = 2**64 - 1

    def key(*parts):
        digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def mix(x):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    u = np.zeros((2, len(ids), len(labels)))
    for i, record in enumerate(ids):
        for j, label in enumerate(labels):
            state = key(record) ^ key(int(seed), stream, label)
            for step in (1, 2):
                u[step - 1, i, j] = (mix((state + step * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0**-53
    return u


@settings(max_examples=60, deadline=None)
@given(ids=st.one_of(st.lists(st.text(max_size=6), min_size=1, max_size=12, unique=True),
                     st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=12, unique=True)),
       labels=st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**31))
def test_ids_hashed_once_draw_as_each_stream_hashing_them_again(ids, labels, seed):
    """Keys taken once (``id_keys``, str or int ids, any Unicode) give every
    stream the bits it gets when it hashes the ids itself."""
    keys = id_keys(ids)
    for stream in ("total_expenditure", "share"):
        u1, u2 = keyed_uniforms(seed, stream, ids, labels, keys=keys)
        want = reference_uniforms(seed, stream, ids, labels)
        assert bits(u1) == bits(want[0]) and bits(u2) == bits(want[1])
        assert bits(keyed_normals(seed, stream, ids, labels, keys=keys)) == bits(
            keyed_normals(seed, stream, ids, labels))


def test_imputation_hashes_each_record_id_once(bundle_dir, monkeypatch):
    hashed = []
    original = priceshock.randutil.id_keys

    def counting(ids):
        hashed.append(len(ids))
        return original(ids)

    monkeypatch.setattr(priceshock.randutil, "id_keys", counting)
    monkeypatch.setattr(priceshock.imputation, "id_keys", counting)
    survey = load_household_survey(bundle_dir / "households.csv", CategorySet.default())
    impute_expenditure_patterns(survey, survey, CategorySet.default(), seed=3)
    assert hashed == [240]


def test_uniforms_lie_in_unit_interval():
    u1, u2 = keyed_uniforms(3, "share", range(2000), range(50))
    for u in (u1, u2):
        assert u.min() >= 0.0 and u.max() < 1.0
        assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))  # 53-bit grid


def test_normal_moments_of_200k_draws():
    z = keyed_normals(11, "share", [f"r{i}" for i in range(40_000)], ["a", "b", "c", "d", "e"])
    assert z.shape == (40_000, 5)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_imputing_run_makes_no_generator_and_no_record(tmp_path, bundle_dir, monkeypatch):
    """Imputation draws with keyed blocks and stays in columns."""
    def no_generator(*args, **kwargs):
        raise AssertionError("a per-draw generator was built")

    monkeypatch.setattr(priceshock.randutil, "rng_for", no_generator)
    assert not hasattr(priceshock.imputation, "rng_for")
    assert not hasattr(priceshock.imputation, "normals")
    built = []
    for cls in (HouseholdRecord, IncomeRecord):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, original=original: (built.append(self.id), original(self)))
    lines = [f"files.income = {bundle_dir / 'households.csv'}", "scenario.impute = true"]
    for line in (bundle_dir / "config.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        lines.append(f"{key.strip()} = {bundle_dir / value.strip()}" if line.startswith("files.")
                     else line)
    cfg = tmp_path / "config.txt"
    cfg.write_text("\n".join(lines) + "\n")
    result = run_scenario(parse_config(cfg))
    assert result.imputation is not None
    assert len(result.household["id"]) == 240
    assert built == []
