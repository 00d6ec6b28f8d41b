"""In-process time of each stage of ``priceshock run``, printed as JSON.

Usage (from the repository root):

    python3 scripts/stage_times.py --workload survey_carbon --seed 1 --repeat 15
    python3 scripts/stage_times.py --workload survey_carbon --tiles 1000   # 240k households
    python3 scripts/stage_times.py --config path/to/config.txt --repeat 5
    python3 scripts/stage_times.py --workload survey_carbon --repeat 5 --label NAME

With ``--workload`` the inputs are the ones ``perfbench/gen.py`` writes for
``--seed`` (``--tiles`` sets its ``SURVEY_TILES``, the copies of the
240-household base survey); with ``--config`` they are that config's. The
run (``run_scenario`` then ``emit_reports``) is made ``--repeat`` times in
this process after one untimed warm-up. Each stage is timed where the run
calls it: ``load_inputs``, ``form_prices``, ``rank_households``,
``estimate_demand_groups``, ``value_households``, ``build_tables`` and
``emit_reports``; ``run`` is the whole of both calls. The JSON gives the
best and the median of each, in seconds, and ``vmhwm_mb``, the process's
peak resident memory (VmHWM in /proc/self/status) after its last call.
BLAS and OpenMP are pinned to one thread unless the environment sets them.

``--label NAME`` times the workload at each of ``SIZES`` (240, 24,000 and
240,000 households), each in a fresh interpreter that reads inputs written
beforehand, so that its memory peak is the run's own, and writes the
reports to ``BENCH_<NAME>.json`` in the current directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from priceshock import scenario  # noqa: E402

STAGES = ("load_inputs", "form_prices", "rank_households", "estimate_demand_groups",
          "value_households", "build_tables", "emit_reports")
SIZES = (1, 100, 1000)  # --label: SURVEY_TILES, the copies of the 240-household survey


def vmhwm_mb() -> float | None:
    """This process's peak resident memory so far, in MB (None where the
    system has no /proc/self/status)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _timed(fn, name: str, samples: dict[str, list[float]], peaks: dict[str, float | None]):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples[name].append(time.perf_counter() - start)
            peaks[name] = vmhwm_mb()
    return wrapper


def time_stages(config, outdir, repeat: int) -> dict:
    """{stage: {calls, best_s, median_s, vmhwm_mb}} for ``repeat`` runs of ``config``."""
    samples: dict[str, list[float]] = {name: [] for name in (*STAGES, "run")}
    peaks: dict[str, float | None] = dict.fromkeys(samples)
    with ExitStack() as stack:
        for name in STAGES:
            stack.enter_context(mock.patch.object(
                scenario, name, _timed(getattr(scenario, name), name, samples, peaks)))
        for rep in range(repeat + 1):  # the first run warms up and is not kept
            if rep == 1:
                for seconds in samples.values():
                    seconds.clear()
            start = time.perf_counter()
            result = scenario.run_scenario(scenario.parse_config(config))
            scenario.emit_reports(result, outdir)
            samples["run"].append(time.perf_counter() - start)
            peaks["run"] = vmhwm_mb()
    return {
        name: {"calls": len(seconds), "best_s": min(seconds, default=None),
               "median_s": statistics.median(seconds) if seconds else None,
               "vmhwm_mb": peaks[name]}
        for name, seconds in samples.items()
    }


def generate(workload: str, seed: int, tiles: int | None, out: Path) -> tuple[Path, dict]:
    """(config path, facts) of the inputs ``perfbench/gen.py`` writes to ``out``."""
    import gen

    if tiles is not None:
        gen.SURVEY_TILES = tiles
    info = gen.generate(workload, seed, out)
    return out / "config.txt", {"workload": workload, "seed": seed,
                                "households": info["households"],
                                "output_rows": info["output_rows"]}


def write_label(args, work: Path) -> dict:
    """Time the workload at each of ``SIZES`` in a fresh interpreter and
    write ``BENCH_<label>.json``."""
    report = {"label": args.label, "workload": args.workload, "seed": args.seed,
              "repeat": args.repeat, "sizes": []}
    for tiles in SIZES:
        config, facts = generate(args.workload, args.seed, tiles, work / f"inputs-{tiles}")
        child = subprocess.run(
            [sys.executable, __file__, "--config", str(config), "--repeat", str(args.repeat)],
            check=True, capture_output=True, text=True)
        report["sizes"].append({**facts, "stages": json.loads(child.stdout)["stages"]})
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="a perfbench workload, its inputs written by gen.py")
    source.add_argument("--config", help="a run configuration file")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed (default 1)")
    parser.add_argument("--tiles", type=int, default=None,
                        help="copies of the base survey (gen.SURVEY_TILES, default its own)")
    parser.add_argument("--repeat", type=int, default=15, help="timed runs (default 15)")
    parser.add_argument("--label", help="time the workload at each of SIZES and write "
                                        "BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.label is not None and (args.workload is None or args.tiles is not None):
        parser.error("--label needs --workload and sets the sizes itself (no --tiles)")

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if args.label is not None:
            report = write_label(args, work)
        else:
            report = {"repeat": args.repeat}
            if args.workload:
                config, facts = generate(args.workload, args.seed, args.tiles, work / "inputs")
                report.update(facts)
            else:
                config = Path(args.config)
                report["config"] = str(config)
            report["stages"] = time_stages(config, work / "out", args.repeat)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
