"""Guards that keep a refactor from changing what the program writes or
what the benchmark measures.

Golden digests: every file that ``run``, ``report`` and ``impute`` write,
on the demo bundle and on small seed-1 inputs of the three benchmark
workloads, has the sha256 pinned below. A change meant to keep the
outputs (a refactor, a faster path) must leave this table alone. A change
that alters an output on purpose updates the table in the same change and
says why.

Thread count: ``run`` on the full-size survey_carbon inputs writes the same
bytes under one BLAS thread and under two, for every file whose sums no
longer pass through BLAS.

Tracer targets: ``perfbench/tracer.py`` times the run by wrapping
attributes of the package's modules by name, and a name that no longer
resolves silently reads as 0 calls and 0 s.
"""

import hashlib
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import priceshock
from priceshock.cli import main
from priceshock.fixtures import write_fixture_bundle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str) -> types.ModuleType:
    """A module of ``perfbench/``, run from its source without writing bytecode beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


GOLDEN = {
    "demo/report/t2_inflation_drivers.csv":
        "9867159b4ee3efc5e26f99ed1c19c4a60d013ea03d255bc0ae8daae18a7bad1b",
    "demo/report/t3_budget_shares.csv":
        "cc245268a968e2a5e92ca46d18f60846670f133851f28b2ffb9601572095c169",
    "demo/report/t5_incidence.csv":
        "c9d77ad6114f46767f426e63ae5e7635e15bb3eee8d6b0ee2b8ce60a9480a973",
    "demo/report/t6_progressivity.csv":
        "091d7a5df03330f427212063506bf3e9298a9bfc0922738868425f9511e896c3",
    "demo/report/t7_welfare.csv":
        "2153afc08982ce04917a3ee08443d8414d99bb05cc5c6fb0bc64b298985990d4",
    "demo/report/t8_atkinson.csv":
        "7553f0b38631db3fc2542aece4d0517141c86d826edd2fb2b689c658b2f37558",
    "demo/report/t9_decomposition.csv":
        "2149a276876296a204947386f2322f86c559db0b1247ce1fa6dcbdf04f4525ac",
    "demo/run/consumer_prices.csv":
        "1b98fd52cd19f2d735fe8db6247e114e56c853a268554191ac1ee61c233cc014",
    "demo/run/elasticities.csv":
        "97a4528a5a91f16e4cf997ed51b0ba90af6204d2bf1fdcfaf00fb1abd7423e25",
    "demo/run/households.csv":
        "63a6351be22effb612a942fb90576b850964181d54c6efa4acf79b91c8988309",
    "demo/run/run_manifest.json":
        "d05533fce4ececad9ac9321e53ea685289bfaade225b295be0232b79d4a8dd06",
    "demo/run/t2_inflation_drivers.csv":
        "9867159b4ee3efc5e26f99ed1c19c4a60d013ea03d255bc0ae8daae18a7bad1b",
    "demo/run/t3_budget_shares.csv":
        "cc245268a968e2a5e92ca46d18f60846670f133851f28b2ffb9601572095c169",
    "demo/run/t5_incidence.csv":
        "c9d77ad6114f46767f426e63ae5e7635e15bb3eee8d6b0ee2b8ce60a9480a973",
    "demo/run/t6_progressivity.csv":
        "091d7a5df03330f427212063506bf3e9298a9bfc0922738868425f9511e896c3",
    "demo/run/t7_welfare.csv":
        "2153afc08982ce04917a3ee08443d8414d99bb05cc5c6fb0bc64b298985990d4",
    "demo/run/t8_atkinson.csv":
        "7553f0b38631db3fc2542aece4d0517141c86d826edd2fb2b689c658b2f37558",
    "demo/run/t9_decomposition.csv":
        "2149a276876296a204947386f2322f86c559db0b1247ce1fa6dcbdf04f4525ac",
    "survey_carbon/report/t2_inflation_drivers.csv":
        "e3600cd619609b44b1416fda3c4244a3dd6b240b672b309a5bbf3129dd20789e",
    "survey_carbon/report/t3_budget_shares.csv":
        "5f66a925e786b8fcf9f13da07ec8cc39974cdd22b4c2f6925bcbc304ceea22bc",
    "survey_carbon/report/t5_incidence.csv":
        "ba7c91a02823f5654558ca991cc998f84e412c72fc40a1fbb2f1f7e90b646878",
    "survey_carbon/report/t6_progressivity.csv":
        "e874c6ca8833723ac6c6c49c0b08eed6a2b726914667d7f2cec444c890bd5a87",
    "survey_carbon/report/t7_welfare.csv":
        "70fe417333f1bf64ec5d6689e1eead0313fb11774f098c49e016a3a47386374c",
    "survey_carbon/report/t8_atkinson.csv":
        "87dc259ae1a7e100d543e684b6cb6cd4d2fa8423c1c02879c5b3938366ac825f",
    "survey_carbon/report/t9_decomposition.csv":
        "787a9f058aecfac75aef34168ad5fe22274327105a7071edb730908e0e3e1378",
    "survey_carbon/run/consumer_prices.csv":
        "ecc0a985e02206dd924dfb68eec51e665da673f74e798ea55b39ba2c4c073bf9",
    "survey_carbon/run/elasticities.csv":
        "51c8037dea0580dd74583b55e83ce9973e61e59ce990c1d4f6c5da47ef63a544",
    "survey_carbon/run/households.csv":
        "570f69927eaca7f9fd3284ed0315dbef6e69458dd2cbc0892c2eb0e0fd6254df",
    "survey_carbon/run/run_manifest.json":
        "184effb5cd6f21acc783a1eb2035293a016852a2fee3df2773f720f400a13be6",
    "survey_carbon/run/t2_inflation_drivers.csv":
        "c1ce4cd13ea2d3aeee1b88e24bd28ba285764c4fd453dc23a10574f6fd362984",
    "survey_carbon/run/t3_budget_shares.csv":
        "5f66a925e786b8fcf9f13da07ec8cc39974cdd22b4c2f6925bcbc304ceea22bc",
    "survey_carbon/run/t5_incidence.csv":
        "ba7c91a02823f5654558ca991cc998f84e412c72fc40a1fbb2f1f7e90b646878",
    "survey_carbon/run/t6_progressivity.csv":
        "e874c6ca8833723ac6c6c49c0b08eed6a2b726914667d7f2cec444c890bd5a87",
    "survey_carbon/run/t7_welfare.csv":
        "70fe417333f1bf64ec5d6689e1eead0313fb11774f098c49e016a3a47386374c",
    "survey_carbon/run/t8_atkinson.csv":
        "87dc259ae1a7e100d543e684b6cb6cd4d2fa8423c1c02879c5b3938366ac825f",
    "survey_carbon/run/t9_decomposition.csv":
        "787a9f058aecfac75aef34168ad5fe22274327105a7071edb730908e0e3e1378",
    "impute_income/imputed.csv":
        "f64f26942e40ffe7c5334f7d384f38b22db75ba58604c3f2536a93dd9b3d3508",
    "impute_income/report/t2_inflation_drivers.csv":
        "e8aee609c8dcbd950c5696540564cf995b05ba8911c8b43dc662fdc9f63cf95c",
    "impute_income/report/t3_budget_shares.csv":
        "a61bafcfd839644ac6303c3c3a87da3c541eea308251aaa7b412ceb91da4b8c0",
    "impute_income/report/t5_incidence.csv":
        "b6c66943ad4cea3c1677ea4ce963c76d9c4f0382df2228a9ae9ba23ea5cca4c9",
    "impute_income/report/t6_progressivity.csv":
        "84d4d0d25868d21c9a775d93058351b495c4763db3bc0b9abcd5276a98eb9a95",
    "impute_income/report/t7_welfare.csv":
        "19b37ef0264d4f8464de75bfe9aa22fc6e0960a1a061d0f76cc7679299ee8e5b",
    "impute_income/report/t8_atkinson.csv":
        "60b31d1e7c4745d93527b6ff0678f1149dfcc809cfd15892b4b4dd03fe04acbc",
    "impute_income/report/t9_decomposition.csv":
        "5d4940f0a4fd7030e0a32a639411dbced66c99f67ef4a7b5f88c816a15dc519c",
    "impute_income/run/consumer_prices.csv":
        "ecc0a985e02206dd924dfb68eec51e665da673f74e798ea55b39ba2c4c073bf9",
    "impute_income/run/elasticities.csv":
        "ae8bdfc14f899a793478119683c493a3afad062330eaa42e3e9b1bfc34219c4d",
    "impute_income/run/households.csv":
        "278d196ccc59e9cce892c9298fd141be514f8ae903b97da301d2d6bc4d6d76aa",
    "impute_income/run/run_manifest.json":
        "0674789d3b6b8514509bc38dfb9a2f8d36d01024d68e0d724af09a1e0af2029f",
    "impute_income/run/t2_inflation_drivers.csv":
        "644b18f33cfb9fe20f0b38a4c3f67cd8665238501eae5f98c2f6176eddf7672c",
    "impute_income/run/t3_budget_shares.csv":
        "a61bafcfd839644ac6303c3c3a87da3c541eea308251aaa7b412ceb91da4b8c0",
    "impute_income/run/t5_incidence.csv":
        "b6c66943ad4cea3c1677ea4ce963c76d9c4f0382df2228a9ae9ba23ea5cca4c9",
    "impute_income/run/t6_progressivity.csv":
        "84d4d0d25868d21c9a775d93058351b495c4763db3bc0b9abcd5276a98eb9a95",
    "impute_income/run/t7_welfare.csv":
        "19b37ef0264d4f8464de75bfe9aa22fc6e0960a1a061d0f76cc7679299ee8e5b",
    "impute_income/run/t8_atkinson.csv":
        "60b31d1e7c4745d93527b6ff0678f1149dfcc809cfd15892b4b4dd03fe04acbc",
    "impute_income/run/t9_decomposition.csv":
        "5d4940f0a4fd7030e0a32a639411dbced66c99f67ef4a7b5f88c816a15dc519c",
    "sectors_wide/report/t2_inflation_drivers.csv":
        "df597ae1aa6eae03efa3847c58a503728ea13e49c3411625b45b53aac3c2c285",
    "sectors_wide/report/t3_budget_shares.csv":
        "cc245268a968e2a5e92ca46d18f60846670f133851f28b2ffb9601572095c169",
    "sectors_wide/report/t5_incidence.csv":
        "582a7658341610c4126fbe4e1f18f08613d0adf945309dc483e85207d28ade10",
    "sectors_wide/report/t6_progressivity.csv":
        "6cc2df3d470e4cc45a541e51678ef3c483b9c914a15438c3506b1b3cc44ee742",
    "sectors_wide/report/t7_welfare.csv":
        "6a13bbfb491e7a7b632fb44f200aa65a97c59002682fc43fb0a23011b62994c3",
    "sectors_wide/report/t8_atkinson.csv":
        "d15a21897aa769d490918f028cd31ea3148babad506651b4bbdab0467ffff220",
    "sectors_wide/report/t9_decomposition.csv":
        "93e6c8245db00c58bafdd288ae19058731bd11fe67ef76340bc4ebc6023b8d23",
    "sectors_wide/run/consumer_prices.csv":
        "be7a84f2e5b9bc8dbe5da3a436c6d4e3fe31347ef9a59652df6e773a25833994",
    "sectors_wide/run/elasticities.csv":
        "97a4528a5a91f16e4cf997ed51b0ba90af6204d2bf1fdcfaf00fb1abd7423e25",
    "sectors_wide/run/households.csv":
        "ca3fbcd0e9a9f9c8c46df1cc6286528571f75f2a3b3907a1db190401ade9c9f1",
    "sectors_wide/run/run_manifest.json":
        "9386ac83b889c3361357b89b5b4f066c4623ff85705998b0fef21a7624f95646",
    "sectors_wide/run/t2_inflation_drivers.csv":
        "df597ae1aa6eae03efa3847c58a503728ea13e49c3411625b45b53aac3c2c285",
    "sectors_wide/run/t3_budget_shares.csv":
        "cc245268a968e2a5e92ca46d18f60846670f133851f28b2ffb9601572095c169",
    "sectors_wide/run/t5_incidence.csv":
        "582a7658341610c4126fbe4e1f18f08613d0adf945309dc483e85207d28ade10",
    "sectors_wide/run/t6_progressivity.csv":
        "6cc2df3d470e4cc45a541e51678ef3c483b9c914a15438c3506b1b3cc44ee742",
    "sectors_wide/run/t7_welfare.csv":
        "6a13bbfb491e7a7b632fb44f200aa65a97c59002682fc43fb0a23011b62994c3",
    "sectors_wide/run/t8_atkinson.csv":
        "d15a21897aa769d490918f028cd31ea3148babad506651b4bbdab0467ffff220",
    "sectors_wide/run/t9_decomposition.csv":
        "93e6c8245db00c58bafdd288ae19058731bd11fe67ef76340bc4ebc6023b8d23",
}


def sha256_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Digests of the files written for each input set, keyed '<set>/<command>/<file>'."""
    gen = perfbench_module("gen")
    gen.SURVEY_TILES, gen.INCOME_RECORDS, gen.WIDE_SECTORS = 2, 480, 60  # 480 households
    root = tmp_path_factory.mktemp("golden")
    write_fixture_bundle(root / "demo" / "in")
    for workload in gen.WORKLOADS:
        gen.generate(workload, 1, root / workload / "in")
    for name in ("demo", *gen.WORKLOADS):
        cfg, out = root / name / "in" / "config.txt", root / name / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out / "run"), "--quiet"]) == 0
        assert main(["report", "--config", str(cfg), "--results",
                     str(out / "run" / "households.csv"), "--out", str(out / "report"),
                     "--quiet"]) == 0
    cfg = root / "impute_income" / "in" / "config.txt"
    out = root / "impute_income" / "out" / "imputed.csv"
    assert main(["impute", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return {f"{name}/{path}": digest for name in ("demo", *gen.WORKLOADS)
            for path, digest in sha256_tree(root / name / "out").items()}


def test_every_output_file_has_its_golden_digest(outputs):
    assert sorted(outputs) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if outputs[name] != GOLDEN[name]]
    assert changed == []


# t6, t8 and t9 still sum through metrics' np.dot, whose order follows the BLAS thread count
THREAD_STABLE = ("households.csv", "run_manifest.json", "t2_inflation_drivers.csv",
                 "t3_budget_shares.csv", "t5_incidence.csv", "t7_welfare.csv")


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """survey_carbon at seed 1 and full size (24,000 households), run in a new
    interpreter under 1 and under 2 BLAS threads: the same bytes."""
    perfbench_module("gen").generate("survey_carbon", 1, tmp_path / "in")
    src = str(Path(priceshock.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "priceshock.cli", "run", "--config",
                        str(tmp_path / "in" / "config.txt"), "--out", str(out), "--quiet"],
                       env=env, check=True)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in THREAD_STABLE})
    assert digests[0] == digests[1]


# targets already gone from the package; pruning them from the tracer is
# an open benchmark item
KNOWN_MISSING_TARGETS = {
    "scenario.leontief_inverse", "scenario.embodied_intensity",
    "scenario.compensating_variation", "scenario.equivalent_income", "scenario.les_demand",
    "imputation.rng_for",
    # the Engel fits solve through wls_coefficients, which has no residual moments
    "scenario.wls_fit",
}


def test_tracer_targets_resolve():
    tracer = perfbench_module("tracer")
    missing = {f"{module}.{attr}" for module, attr, _ in (*tracer.SPANS, *tracer.COUNTERS)
               if not hasattr(importlib.import_module(f"priceshock.{module}"), attr)}
    assert missing <= KNOWN_MISSING_TARGETS
