"""In-process time of each stage of ``priceshock run``, printed as JSON.

Usage (from the repository root):

    python3 scripts/stage_times.py --workload survey_carbon --seed 1 --repeat 15
    python3 scripts/stage_times.py --workload survey_carbon --tiles 1000   # 240k households
    python3 scripts/stage_times.py --config path/to/config.txt --repeat 5
    python3 scripts/stage_times.py --workload survey_carbon --repeat 5 --label NAME

With ``--workload`` the inputs are the ones ``perfbench/gen.py`` writes for
``--seed`` (``--tiles`` sets its ``SURVEY_TILES``, the copies of the
240-household base survey), and they are timed, once written, in a fresh
interpreter that this script starts with ``--config``; with ``--config``
they are that config's. The run (``run_scenario`` then ``emit_reports``)
is made ``--repeat`` times in the timing process after one untimed
warm-up. Each stage is timed where the run calls it: ``load_inputs``,
``form_prices``, ``rank_households``, ``estimate_demand_groups``,
``value_households``, ``assemble``, ``build_tables`` and
``emit_reports``; ``run`` is the whole of both calls.
Each run starts once the previous one's result is released, and the
timing process first sets the allocator policy that ``priceshock``'s
``main`` sets (``priceshock.cli.keep_heap``), so the stages run as they
do in ``priceshock run``. The JSON gives the best and the median of
each, in seconds; ``first_s``, its time in the warm-up run, which pays
the first-use costs (lazy imports, caches, first page faults) that a
fresh ``priceshock run`` pays too; ``minor_faults``, the minor page
faults (``ru_minflt``) of its calls in the warm-up run, a count that
repeats to within a few percent whatever the host's speed; and
``vmhwm_mb``, the process's peak resident memory (VmHWM in
/proc/self/status) after its call in the warm-up run, the only run whose
peak no earlier run raised. Its ``import_s`` is the time of ``import
priceshock.cli`` in the timing process, which makes it before it imports
anything else, or null where the process had imported it already. BLAS
and OpenMP are pinned to one thread unless the environment sets them.

``--label NAME`` times the workload the same way, every size's inputs
written before the first is timed, and writes the reports to
``BENCH_<NAME>.json`` in the current directory. There a size's
``import_s`` is the median of ``IMPORT_SAMPLES`` further fresh
interpreters, in the same environment, that each import numpy and then
time only ``import priceshock.cli``, so that the figure is the package's
own import, not numpy's; ``import_samples_s`` lists them. A workload in
``TILED`` is timed at each of ``SIZES`` (240, 24,000 and 240,000
households); the others, whose inputs do not depend on the tiles, once.
"""

from __future__ import annotations

import os
import resource
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORT_PATH = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.path[:0] = IMPORT_PATH

# timed before this script imports anything else, as a fresh ``priceshock``
# process pays it; None where the command line was already imported
_loaded, _start = "priceshock.cli" in sys.modules, time.perf_counter()
import priceshock.cli  # noqa: E402,F401

IMPORT_S = None if _loaded else time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

from priceshock import scenario  # noqa: E402

STAGES = ("load_inputs", "form_prices", "rank_households", "estimate_demand_groups",
          "value_households", "assemble", "build_tables", "emit_reports")
SIZES = (1, 100, 1000)  # --label: SURVEY_TILES, the copies of the 240-household survey
TILED = ("survey_carbon",)  # the workloads whose survey gen.SURVEY_TILES sets
IMPORT_SAMPLES = 5  # --label: fresh interpreters that time the import, per size
# such an interpreter: this script's import path and numpy, then the timed import alone
IMPORT_CHILD = (f"import sys, time; sys.path[:0] = {IMPORT_PATH!r}; import numpy; "
                "start = time.perf_counter(); import priceshock.cli; "
                "print(time.perf_counter() - start)")


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


def minor_faults() -> int:
    """This process's minor page faults so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(fn, name: str, samples: dict[str, list[float]], faults: dict[str, list[int]],
           peaks: dict[str, float | None]):
    def wrapper(*args, **kwargs):
        start, faulted = time.perf_counter(), minor_faults()
        try:
            return fn(*args, **kwargs)
        finally:
            samples[name].append(time.perf_counter() - start)
            faults[name].append(minor_faults() - faulted)
            peaks.setdefault(name, vmhwm_mb())  # the warm-up run's
    return wrapper


def time_stages(config, outdir, repeat: int) -> dict:
    """{stage: {calls, best_s, median_s, first_s, minor_faults, vmhwm_mb}}
    for ``repeat`` runs of ``config`` after the warm-up run that ``first_s``
    times and ``minor_faults`` counts, under ``priceshock run``'s allocator
    policy."""
    samples: dict[str, list[float]] = {name: [] for name in (*STAGES, "run")}
    faults: dict[str, list[int]] = {name: [] for name in samples}
    peaks: dict[str, float | None] = {}
    first: dict[str, float | None] = {}
    first_faults: dict[str, int] = {}
    priceshock.cli.keep_heap()
    with ExitStack() as stack:
        for name in STAGES:
            stack.enter_context(mock.patch.object(
                scenario, name, _timed(getattr(scenario, name), name, samples, faults, peaks)))
        for rep in range(repeat + 1):  # the first run warms up and is not kept
            if rep == 1:
                for name, seconds in samples.items():
                    first[name] = sum(seconds) if seconds else None
                    first_faults[name] = sum(faults[name])
                    seconds.clear()
                    faults[name].clear()
            start, faulted = time.perf_counter(), minor_faults()
            result = scenario.run_scenario(scenario.parse_config(config))
            scenario.emit_reports(result, outdir)
            samples["run"].append(time.perf_counter() - start)
            faults["run"].append(minor_faults() - faulted)
            peaks.setdefault("run", vmhwm_mb())
            result = None  # the next run starts without this one's frame
    return {
        name: {"calls": len(seconds), "best_s": min(seconds, default=None),
               "median_s": statistics.median(seconds) if seconds else None,
               "first_s": first[name], "minor_faults": first_faults[name],
               "vmhwm_mb": peaks.get(name)}
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


def time_in_child(config: Path, repeat: int) -> dict:
    """The report of this script run on ``config`` in a fresh interpreter,
    whose memory peaks are then the run's own, not the input writer's."""
    child = subprocess.run([sys.executable, __file__, "--config", str(config),
                            "--repeat", str(repeat)],
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


def write_label(args, work: Path) -> dict:
    """Time the workload in a fresh interpreter, at each of ``SIZES`` if it
    is in ``TILED``, and write ``BENCH_<label>.json``."""
    report = {"label": args.label, "workload": args.workload, "seed": args.seed,
              "repeat": args.repeat, "sizes": []}
    # every size's inputs are written before the first child starts, so that
    # no child is timed while the files of the next size are being written
    inputs = [generate(args.workload, args.seed, tiles, work / f"inputs-{tiles}")
              for tiles in (SIZES if args.workload in TILED else (None,))]
    for config, facts in inputs:
        imports = [float(subprocess.run([sys.executable, "-c", IMPORT_CHILD], check=True,
                                        capture_output=True, text=True).stdout)
                   for _ in range(IMPORT_SAMPLES)]
        report["sizes"].append({**facts, "import_s": statistics.median(imports),
                                "import_samples_s": imports,
                                "stages": time_in_child(config, args.repeat)["stages"]})
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
    parser.add_argument("--label", help="time the workload (at each of SIZES if it is in "
                                        "TILED) and write BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.label is not None and (args.workload is None or args.tiles is not None):
        parser.error("--label needs --workload and sets the sizes itself (no --tiles)")

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if args.label is not None:
            report = write_label(args, work)
        elif args.workload:
            config, facts = generate(args.workload, args.seed, args.tiles, work / "inputs")
            child = time_in_child(config, args.repeat)
            report = {"repeat": args.repeat, "import_s": child["import_s"], **facts,
                      "stages": child["stages"]}
        else:
            report = {"repeat": args.repeat, "import_s": IMPORT_S, "config": args.config,
                      "stages": time_stages(Path(args.config), work / "out", args.repeat)}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
