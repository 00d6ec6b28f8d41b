"""In-process time of each stage of ``priceshock run``, printed as JSON.

Usage (from the repository root):

    python3 scripts/stage_times.py --workload survey_carbon --seed 1 --repeat 15
    python3 scripts/stage_times.py --workload survey_carbon --tiles 1000   # 240k households
    python3 scripts/stage_times.py --config path/to/config.txt --repeat 5

With ``--workload`` the inputs are the ones ``perfbench/gen.py`` writes for
``--seed`` (``--tiles`` sets its ``SURVEY_TILES``, the copies of the
240-household base survey); with ``--config`` they are that config's. The
run (``run_scenario`` then ``emit_reports``) is made ``--repeat`` times in
this process after one untimed warm-up. Each stage is timed where the run
calls it: ``load_inputs``, ``form_prices``, ``rank_households``,
``estimate_demand_groups``, ``value_households``, ``build_tables`` and
``emit_reports``; ``run`` is the whole of both calls. The JSON gives the
best and the median of each, in seconds. BLAS and OpenMP are pinned to
one thread unless the environment sets them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
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


def _timed(fn, samples: list[float]):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)
    return wrapper


def time_stages(config, outdir, repeat: int) -> dict:
    """{stage: [seconds of each timed run]} for ``repeat`` runs of ``config``."""
    samples: dict[str, list[float]] = {name: [] for name in (*STAGES, "run")}
    with ExitStack() as stack:
        for name in STAGES:
            stack.enter_context(mock.patch.object(
                scenario, name, _timed(getattr(scenario, name), samples[name])))
        for rep in range(repeat + 1):  # the first run warms up and is not kept
            if rep == 1:
                for seconds in samples.values():
                    seconds.clear()
            start = time.perf_counter()
            result = scenario.run_scenario(scenario.parse_config(config))
            scenario.emit_reports(result, outdir)
            samples["run"].append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="a perfbench workload, its inputs written by gen.py")
    source.add_argument("--config", help="a run configuration file")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed (default 1)")
    parser.add_argument("--tiles", type=int, default=None,
                        help="copies of the base survey (gen.SURVEY_TILES, default its own)")
    parser.add_argument("--repeat", type=int, default=15, help="timed runs (default 15)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        report = {"repeat": args.repeat}
        if args.workload:
            import gen

            if args.tiles is not None:
                gen.SURVEY_TILES = args.tiles
            info = gen.generate(args.workload, args.seed, work / "inputs")
            config = work / "inputs" / "config.txt"
            report.update(workload=args.workload, seed=args.seed, households=info["households"],
                          output_rows=info["output_rows"])
        else:
            config = Path(args.config)
            report["config"] = str(config)
        samples = time_stages(config, work / "out", args.repeat)
    report["stages"] = {
        name: {"calls": len(seconds), "best_s": min(seconds, default=None),
               "median_s": statistics.median(seconds) if seconds else None}
        for name, seconds in samples.items()
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
