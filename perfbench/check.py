"""Checks on the output directory of one ``priceshock run``.

``check_outputs`` returns a list of problems (empty when the run is
correct): every expected file present, the households.csv row count,
no NaN or inf in any table, the t2 contributions summing to the total,
transfers conserving the manifest revenue (every workload recycles its
revenue), and cv <= burden for every household. ``compare_reference`` compares the t2-t9 tables with the ones
stored under ``reference/`` within ``REF_RTOL``/``REF_ATOL``.
Tolerances allow for the 6 significant digits the tables are printed
with.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

TABLES = (
    "t2_inflation_drivers", "t3_budget_shares", "t5_incidence", "t6_progressivity",
    "t7_welfare", "t8_atkinson", "t9_decomposition",
)
OUTPUT_FILES = (
    *(f"{t}.csv" for t in TABLES),
    "households.csv", "consumer_prices.csv", "elasticities.csv", "run_manifest.json",
)

# A printed 6-significant-digit value is within 5e-6 relative of the
# number it stands for; 2e-5 allows a last-digit flip on either side.
REF_RTOL = 2e-5
REF_ATOL = 1e-9
HALF_MICRO = 5e-7  # rounding of a %.6f money column


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def dir_sha256(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(outdir).iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_outputs(outdir, expected_households: int) -> list[str]:
    outdir = Path(outdir)
    missing = [f for f in OUTPUT_FILES if not (outdir / f).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    problems = []
    tables = {}
    for name in OUTPUT_FILES:
        if not name.endswith(".csv"):
            continue
        header, rows = read_csv(outdir / name)
        tables[name[:-4]] = (header, rows)
        bad = [c for r in rows for c in r if (v := _number(c)) is not None and not math.isfinite(v)]
        if bad:
            problems.append(f"{name}: {len(bad)} non-finite cell(s), e.g. {bad[0]!r}")

    header, rows = tables["households"]
    if len(rows) != expected_households:
        problems.append(f"households.csv has {len(rows)} rows, expected {expected_households}")
    col = {c: j for j, c in enumerate(header)}
    weight = [float(r[col["weight"]]) for r in rows]
    transfer = [float(r[col["transfer"]]) for r in rows]
    over = [r[col["id"]] for r in rows
            if float(r[col["cv"]]) > float(r[col["burden"]]) + 2 * HALF_MICRO
            + 1e-12 * abs(float(r[col["burden"]]))]
    if over:
        problems.append(f"cv > burden for {len(over)} household(s), e.g. {over[0]!r}")

    revenue = float(json.loads((outdir / "run_manifest.json").read_text())["revenue"])
    recycled = math.fsum(w * t for w, t in zip(weight, transfer))
    slack = HALF_MICRO * (1.0 + math.fsum(weight)) + 1e-9 * abs(revenue)
    if abs(recycled - revenue) > slack:
        problems.append(f"sum(weight * transfer) = {recycled!r}, manifest revenue {revenue!r}")

    header, rows = tables["t2_inflation_drivers"]
    j = header.index("contribution")
    parts = [float(r[j]) for r in rows if r[0] != "total"]
    total = [float(r[j]) for r in rows if r[0] == "total"]
    slack = REF_RTOL * math.fsum(map(abs, parts)) + REF_ATOL
    if len(total) != 1 or abs(math.fsum(parts) - total[0]) > slack:
        problems.append(f"t2 contributions {parts} do not sum to the total {total}")
    return problems


def compare_reference(outdir, workload: str) -> list[str]:
    """Cell-by-cell comparison of t2-t9 with reference/<workload>/."""
    problems = []
    for t in TABLES:
        ref_header, ref_rows = read_csv(REFERENCE / workload / f"{t}.csv")
        header, rows = read_csv(Path(outdir) / f"{t}.csv")
        if header != ref_header or len(rows) != len(ref_rows):
            problems.append(f"{t}: shape or header differs from the reference")
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for c, (got, want) in enumerate(zip(row, ref_row)):
                a, b = _number(got), _number(want)
                same = got == want if a is None or b is None else _close(a, b, REF_RTOL, REF_ATOL)
                if not same:
                    problems.append(f"{t} row {i + 1} column {header[c]!r}: {got} != reference {want}")
    return problems


def output_facts(outdir) -> dict:
    """Deterministic counts the per-layer ratios are based on."""
    outdir = Path(outdir)
    _, households = read_csv(outdir / "households.csv")
    _, elasticities = read_csv(outdir / "elasticities.csv")
    manifest = json.loads((outdir / "run_manifest.json").read_text())
    return {
        "households": len(households),
        "groups": len({r[0] for r in elasticities}),
        "elasticity_rows": len(elasticities),
        "diagnostics": manifest.get("diagnostics", {}),
        "emit_bytes": sum(p.stat().st_size for p in outdir.iterdir()),
    }
