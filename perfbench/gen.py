"""Seeded input generator for the priceshock benchmark.

Each workload's inputs are a directory of CSV files plus a ``config.txt``,
written here directly (never through the program's own writers) from the
base files in ``data/`` and the workload seed. The same seed gives
byte-identical files; ``generate`` returns the sha256 of every file it
wrote so a result can show which inputs it ran.

Random draws use Box-Muller on PCG64 uniforms, whose stream numpy keeps
stable across versions, so a seed names the same inputs on any install.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

SURVEY_TILES = 100  # 240-household base survey x 100 = 24,000 households
JITTER_SD = 0.1
INCOME_RECORDS = 4800
WIDE_SECTORS = 1500
IMPORTED_EVERY = 5

FUEL_MAP = {"motor_fuels": "petrol", "domestic_energy": "lpg", "electricity": "electricity"}
DEMO_MRIO = ("mrio_z.csv", "mrio_d.csv", "mrio_x.csv", "mrio_f.csv", "bridge.csv")


def _normals(rng: np.random.Generator, shape) -> np.ndarray:
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def read_base_survey():
    """(header, rows) of the 240-household canonical survey."""
    with open(DATA / "households.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def _config(extra: str = "") -> str:
    lines = ["files.households = households.csv"]
    lines += [f"files.{name[:-4]} = {name}" for name in DEMO_MRIO]
    lines += [
        "files.prices = prices.csv",
        "files.fuels = fuels.csv",
        "scenario.carbon_tax = 0.5",
        "scenario.pass_through = 1.0",
        "scenario.recycling = per_capita",
        "elasticity.exchange_rate = 180.0",
        "elasticity.months_per_period = 1.0",
        "elasticity.size_bands = 2,5",
        "distribution.atkinson_epsilon = 2.0",
        "distribution.scale = sqrt",
        "distribution.groups = 5",
        "seed = 42",
    ]
    lines += [f"fuel_map.{cat} = {fuel}" for cat, fuel in FUEL_MAP.items()]
    return "\n".join(lines) + "\n" + extra


def _survey_carbon(rng, out: Path) -> dict:
    header, base = read_base_survey()
    exp_cols = [j for j, c in enumerate(header) if c.startswith("exp_")]
    base_exp = np.array([[float(r[j]) for j in exp_cols] for r in base])
    rows = []
    for t in range(SURVEY_TILES):
        jitter = np.exp(JITTER_SD * _normals(rng, base_exp.shape))
        exp = np.where(base_exp > 0, base_exp * jitter, 0.0)
        for r, e in zip(base, exp):
            row = list(r)
            row[0] = f"{r[0]}-{t:03d}"
            for j, v in zip(exp_cols, e):
                row[j] = _fmt(v)
            rows.append(row)
    _write_rows(out / "households.csv", header, rows)
    for name in DEMO_MRIO:
        shutil.copyfile(DATA / name, out / name)
    (out / "config.txt").write_text(_config())
    return {"households": len(rows), "income_records": 0, "sectors": 2}


def _impute_income(rng, out: Path) -> dict:
    header, base = read_base_survey()
    keep = [j for j, c in enumerate(header) if not c.startswith("exp_")]
    pick = np.floor(rng.random(INCOME_RECORDS) * len(base)).astype(int)
    inc_jitter = np.exp(JITTER_SD * _normals(rng, INCOME_RECORDS))
    inc = header.index("inc")
    rows = []
    for i, (b, s) in enumerate(zip(pick, inc_jitter)):
        row = [base[b][j] for j in keep]
        row[0] = f"inc{i:05d}"
        row[inc] = _fmt(float(base[b][inc]) * s)
        rows.append(row)
    _write_rows(out / "income.csv", [header[j] for j in keep], rows)
    shutil.copyfile(DATA / "households.csv", out / "households.csv")
    for name in DEMO_MRIO:
        shutil.copyfile(DATA / name, out / name)
    extra = "files.income = income.csv\nscenario.impute = true\n"
    (out / "config.txt").write_text(_config(extra))
    return {"households": len(base), "income_records": INCOME_RECORDS, "sectors": 2}


def productive_table(rng, n: int):
    """(Z, d, x, f): Z = A diag(x) with x = (I - A)^-1 d, so x = Z 1 + d."""
    A = rng.random((n, n))
    A *= (0.3 + 0.4 * rng.random(n)) / A.sum(axis=0)  # column sums in [0.3, 0.7)
    d = 50.0 + 100.0 * rng.random(n)
    x = np.linalg.solve(np.eye(n) - A, d)
    Z = A * x[np.newaxis, :]
    f = x * (0.02 + 0.18 * rng.random(n))
    return Z, d, x, f


def _sectors_wide(rng, out: Path) -> dict:
    n = WIDE_SECTORS
    Z, d, x, f = productive_table(rng, n)
    sectors = [f"s{i:04d}" for i in range(n)]
    with open(out / "mrio_z.csv", "w") as fh:
        fh.write("sector," + ",".join(sectors) + "\n")
        for s, row in zip(sectors, Z):
            fh.write(s + "," + ",".join(map(_fmt, row)) + "\n")
    for name, col, vec in (("mrio_d", "d", d), ("mrio_f", "f", f)):
        _write_rows(out / f"{name}.csv", ["sector", col],
                    [[s, _fmt(v)] for s, v in zip(sectors, vec)])
    origin = ["imported" if i % IMPORTED_EVERY == IMPORTED_EVERY - 1 else "domestic"
              for i in range(n)]
    _write_rows(out / "mrio_x.csv", ["sector", "x", "origin"],
                [[s, _fmt(v), o] for s, v, o in zip(sectors, x, origin)])

    with open(DATA / "bridge.csv", newline="") as fh:
        categories = [r[0] for r in list(csv.reader(fh))[1:]]
    B = rng.random((len(categories), n))
    B /= B.sum(axis=1, keepdims=True)
    _write_rows(out / "bridge.csv", ["category", *sectors],
                [[c, *map(_fmt, row)] for c, row in zip(categories, B)])

    shutil.copyfile(DATA / "households.csv", out / "households.csv")
    extra = "scenario.border_adjustment = true\n"
    (out / "config.txt").write_text(_config(extra))
    return {"households": len(read_base_survey()[1]), "income_records": 0, "sectors": n}


WORKLOADS = {
    "survey_carbon": _survey_carbon,
    "impute_income": _impute_income,
    "sectors_wide": _sectors_wide,
}


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def generate(workload: str, seed: int, out) -> dict:
    """Write the workload's inputs for ``seed`` into ``out``.

    Returns the input sizes (rows of households.csv and income.csv, the
    sector count), ``output_rows`` (the rows households.csv of the run
    will have) and ``inputs_sha256``, the hash of every file written.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    shutil.copyfile(DATA / "prices.csv", out / "prices.csv")
    shutil.copyfile(DATA / "fuels.csv", out / "fuels.csv")
    info = WORKLOADS[workload](rng, out)
    info["output_rows"] = info["income_records"] or info["households"]
    info["inputs_sha256"] = sha256_files(out)
    return info
