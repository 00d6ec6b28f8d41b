"""priceshock benchmark: batch runs of ``priceshock run`` on generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload survey_carbon --seed 1 --seconds 30 --trace 0

Writes the workload's inputs for ``--seed`` (see gen.py), makes one
untimed warm-up run, then runs ``cli.main(["run", ...])`` in a closed
loop with one caller, one fresh interpreter per run and BLAS/OpenMP
pinned to one thread, for ``--seconds`` (at least ``MIN_RUNS`` runs).
Every run's outputs are checked (check.py) and hashed; a run whose hash
differs from the others on the same inputs fails. On survey_carbon and
sectors_wide the warm-up runs the inputs of ``REF_SEED`` and its t2-t9
tables must match reference/.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every other run is traced (tracer.py) and the line
reports the per-layer metrics. Every timing is taken at the host's
reference speed: the run's own process times a fixed tick of work every
20 ms (hostspeed.py), and the benchmark takes the ticks' time out of the
timing and divides it by the ticks' slowdown over the same interval.
On a shared host the same code runs up to 1.7x slower from one second
to the next and for minutes at a time; the ticks follow that. A metric's
value is the median over the invocation's runs. Medians, quartiles, run
counts, the unadjusted figures, the host's slowdown and the sha256 of
every input go to the lines before it and to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

REF_SEED = 0
REFERENCE_WORKLOADS = ("survey_carbon", "sectors_wide")
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_once(inputs: Path, outdir: Path, expected_households: int, *,
             trace: bool = False, reference: str | None = None) -> dict:
    """One child run; returns its measurements and the problems found."""
    result_path = outdir.with_name(outdir.name + ".json")
    cmd = [sys.executable, str(HERE / "child.py"), str(inputs / "config.txt"),
           str(outdir), str(result_path), "1" if trace else "0"]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": trace, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"traced": trace, "problems": [f"exit code {proc.returncode}: {tail[0]}"]}
    rec = json.loads(result_path.read_text())
    rec["traced"] = trace
    adjust_to_reference_speed(rec, rec.pop("imported") - launched)
    if not rec.pop("module_file").startswith(str(SRC)):
        rec["problems"] = [f"priceshock was not imported from {SRC}"]
        return rec
    if rec["speed"]["run"] is None:
        rec["problems"] = ["no host-speed tick during the run"]
        return rec
    rec["problems"] = check.check_outputs(outdir, expected_households)
    if reference:
        rec["problems"] += check.compare_reference(outdir, reference)
    if not rec["problems"]:
        rec["hash"] = check.dir_sha256(outdir)
        rec["facts"] = check.output_facts(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    result_path.unlink()
    return rec


def adjust_to_reference_speed(rec: dict, launch_to_import_s: float) -> None:
    """Replace the run's timings by their values at the host's reference speed.

    Each timing loses the time its phase spent in ticks and is divided by
    the ticks' slowdown in that phase (the import phase's, or the run's when
    the import saw no tick). The unadjusted timings and the slowdowns stay
    in ``rec["raw"]`` and ``rec["speed"]``.
    """
    import_ticks, run_ticks = rec.pop("import_ticks"), rec.pop("run_ticks")
    run_factor = hostspeed.factor(run_ticks)
    import_factor = hostspeed.factor(import_ticks) or run_factor
    rec["speed"] = {"import": import_factor, "run": run_factor,
                    "import_ticks": len(import_ticks), "run_ticks": len(run_ticks)}
    rec["raw"] = {"setup_s": launch_to_import_s, "import_s": rec["import_s"],
                  "run_wall_s": rec["run_wall_s"], "cpu_s": rec["cpu_s"]}
    if run_factor is None:
        return
    import_tick_s = sum(import_ticks)
    run_tick_s = sum(run_ticks)
    rec["setup_s"] = (launch_to_import_s - import_tick_s) / import_factor
    rec["import_s"] = (rec["import_s"] - import_tick_s) / import_factor
    rec["run_wall_s"] = (rec["run_wall_s"] - run_tick_s) / run_factor
    rec["cpu_s"] = (rec["cpu_s"] - run_tick_s) / run_factor
    for layer in rec.get("layers", {}).values():
        layer["s"] /= run_factor
        layer["self_s"] /= run_factor


def mark_nondeterministic(runs: list[dict]) -> None:
    """Fail every run whose output hash differs from the most common one."""
    hashes = collections.Counter(r["hash"] for r in runs if "hash" in r)
    if not hashes:
        return
    common, _ = hashes.most_common(1)[0]
    for r in runs:
        if "hash" in r and r["hash"] != common:
            r["problems"].append("outputs differ byte-for-byte from the other runs")


def summarize(values: list[float]) -> dict:
    """The median of the runs (the reported value), with the quartiles and count."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: list[dict], households: int, attempted: int, failed: int) -> dict:
    per_run = {
        "run_wall_s": ("s", [r["run_wall_s"] for r in runs]),
        "households_per_s": ("households/s", [households / r["run_wall_s"] for r in runs]),
        "setup_s": ("s", [r["setup_s"] for r in runs]),
        "cpu_s": ("s", [r["cpu_s"] for r in runs]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in runs]),
    }
    out = {name: (unit, summarize(values)) for name, (unit, values) in per_run.items()}
    out["ok_runs_ratio"] = ("ratio", summarize([(attempted - failed) / attempted]))
    return out


def unadjusted(runs: list[dict]) -> dict:
    """The timings before adjustment and the host's slowdown, for the record."""
    out = {f"unadjusted.{k}": summarize([r["raw"][k] for r in runs])
           for k in ("run_wall_s", "setup_s", "cpu_s")}
    out.update({f"host_slowdown.{k}": summarize([r["speed"][k] for r in runs])
                for k in ("run", "import")})
    return out


def per_layer(traced: list[dict], untraced: list[dict], info: dict) -> dict:
    """Per-layer metrics from the traced runs (timings: the median run's)."""
    facts = traced[0]["facts"]
    counts = {name: v["calls"] for name, v in traced[0]["layers"].items()}
    households = facts["households"]
    diagnostics = facts["diagnostics"]
    income = info["income_records"]

    def timing(name, key="s"):
        return summarize([r["layers"][name][key] for r in traced])

    def exact(value):
        return summarize([value])

    def ratio(num, base):
        return exact(num / base if base else 0.0)

    demand = ("demand.les_calibrate_frisch", "demand.compensating_variation",
              "demand.equivalent_income", "demand.les_demand")
    leontief_flop = 8.0 / 3.0 * info["sectors"] ** 3  # LU plus n right-hand sides
    out = {
        "cli.import_s": ("s", summarize([r["import_s"] for r in traced])),
        "data.load_household_survey_s": ("s", timing("data.load_household_survey")),
        "data.household_rows": ("count", exact(info["households"])),
        "data.load_mrio_s": ("s", timing("data.load_mrio")),
        "data.mrio_cells": ("count", exact(info["sectors"] ** 2)),
        "data.load_bridge_s": ("s", timing("data.load_bridge")),
        "data.load_income_survey_s": ("s", timing("data.load_income_survey")),
        "data.income_rows": ("count", exact(income)),
        "inputoutput.leontief_inverse_calls": ("count", exact(counts["inputoutput.leontief_inverse"])),
        "inputoutput.leontief_inverse_s": ("s", timing("inputoutput.leontief_inverse")),
        "inputoutput.leontief_gflop_computed": (
            "GFLOP", exact(counts["inputoutput.leontief_inverse"] * leontief_flop / 1e9)),
        "inputoutput.embodied_intensity_s": ("s", timing("inputoutput.embodied_intensity")),
        "scenario.carbon_tax_scenario_s": ("s", timing("scenario.carbon_tax_scenario")),
    }
    for name in demand:
        out[f"{name}_calls"] = ("count", exact(counts[name]))
        out[f"{name}_s"] = ("s", timing(name))
    out.update({
        "demand.calls_per_household": (
            "calls/household", ratio(sum(counts[n] for n in demand), households)),
        "demand.cobb_douglas_fallback_ratio": (
            "ratio", ratio(diagnostics.get("cobb_douglas_fallbacks", 0), households)),
        "scenario.run_scenario_s": ("s", timing("scenario.run_scenario")),
        "scenario.run_scenario_self_s": ("s", timing("scenario.run_scenario", "self_s")),
        "scenario.estimate_demand_groups_s": ("s", timing("scenario.estimate_demand_groups")),
        "imputation.wls_fit_calls": ("count", exact(counts["imputation.wls_fit"])),
        "scenario.group_fallback_ratio": (
            "ratio", ratio(diagnostics.get("group_fallbacks", 0), facts["groups"])),
        "scenario.elasticity_clamp_ratio": (
            "ratio", ratio(diagnostics.get("elasticity_clamps", 0), 2 * facts["elasticity_rows"])),
        "scenario.build_tables_s": ("s", timing("scenario.build_tables")),
        "scenario.emit_reports_s": ("s", timing("scenario.emit_reports")),
        "scenario.emit_bytes": ("bytes", exact(facts["emit_bytes"])),
        "metrics.weighted_quantile_groups_s": ("s", timing("metrics.weighted_quantile_groups")),
        "metrics.progressivity_table_s": ("s", timing("metrics.progressivity_table")),
        "metrics.atkinson_s": ("s", timing("metrics.atkinson")),
        "imputation.impute_expenditure_patterns_s": (
            "s", timing("imputation.impute_expenditure_patterns")),
        "randutil.rng_for_calls": ("count", exact(counts["randutil.rng_for"])),
        "randutil.rng_for_s": ("s", timing("randutil.rng_for")),
        "imputation.draws_per_record": ("draws/record", ratio(counts["randutil.rng_for"], income)),
        "imputation.binary_fit_calls": ("count", exact(counts["imputation.binary_fit"])),
        "imputation.binary_fit_s": ("s", timing("imputation.binary_fit")),
        "imputation.wls_fit_s": ("s", timing("imputation.wls_fit")),
        "trace.overhead_s": ("s", summarize([
            statistics.median(r["run_wall_s"] for r in traced)
            - statistics.median(r["run_wall_s"] for r in untraced)])),
    })
    return out


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    inputs = work / "inputs"
    info = gen.generate(workload, seed, inputs)
    expected = info["output_rows"]
    print(f"inputs sha256 (seed {seed}): {json.dumps(info['inputs_sha256'], sort_keys=True)}")

    if workload in REFERENCE_WORKLOADS:
        ref = gen.generate(workload, REF_SEED, work / "ref-inputs")
        warmup = run_once(work / "ref-inputs", work / "warmup", ref["output_rows"],
                          reference=workload)
    else:
        warmup = run_once(inputs, work / "warmup", expected)

    timed: list[dict] = []
    start = time.monotonic()
    while True:
        n_traced = sum(r["traced"] for r in timed)
        n_plain = len(timed) - n_traced
        elapsed = time.monotonic() - start
        # stop before a run that would end past the deadline
        if n_plain >= (2 if trace else MIN_RUNS) and n_traced >= (2 if trace else 0) \
                and elapsed * (len(timed) + 1) / len(timed) > seconds:
            break
        traced_now = trace and n_traced < n_plain
        timed.append(run_once(inputs, work / f"run{len(timed)}", expected, trace=traced_now))
    mark_nondeterministic(timed if workload in REFERENCE_WORKLOADS else [warmup, *timed])

    runs = [warmup, *timed]
    failed = sum(bool(r["problems"]) for r in runs)
    ok = [r for r in timed if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = None
    if plain and (traced or not trace):
        metrics = (per_layer(traced, plain, info) if trace
                   else end_to_end(plain, expected, len(runs), failed))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": info["inputs_sha256"],
        "attempted": len(runs), "failed": failed,
        "problems": [p for r in runs for p in r["problems"]],
        "runs": runs,
        "metrics": metrics,
        "unadjusted": unadjusted(plain) if plain else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "priceshock" / "cli.py").is_file():
        print(f"error: {SRC / 'priceshock'} not found; run from a priceshock checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    for p in result["problems"]:
        print(f"FAILED CHECK: {p}")
    if result["metrics"] is None:
        print("error: no run completed; no metrics", file=sys.stderr)
        return 1
    for name, (unit, s) in result["metrics"].items():
        print(f"{name:40s} {s['value']:.6g} {unit}  (median; q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n={s['n']})")
    for name, s in result["unadjusted"].items():
        print(f"{name:40s} {s['value']:.6g}  (median; q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n={s['n']})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": s["value"], "unit": unit}
                    for name, (unit, s) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
