"""One benchmark run in a fresh interpreter.

Usage: child.py CONFIG OUTDIR RESULT_JSON TRACE(0|1)

Times the import of ``priceshock.cli`` and one ``cli.main(["run", ...])``
call, then writes the timings, CPU seconds, peak memory, the host-speed
samples of both phases (hostspeed.py) and, when TRACE is 1, the
per-layer trace summary to RESULT_JSON. The exit code is the program's.
"""

import time

import hostspeed

hostspeed.start()
import_start = time.monotonic()
import priceshock.cli as cli  # noqa: E402  (the import is what is timed)

imported = time.monotonic()
import_ticks = hostspeed.samples(0, hostspeed.mark())

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    config, outdir, result_path, trace = argv
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    first = hostspeed.mark()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    rc = cli.main(["run", "--config", config, "--out", outdir, "--quiet"])
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    run_ticks = hostspeed.samples(first, hostspeed.mark())
    hostspeed.stop()
    result = {
        "rc": rc,
        "module_file": cli.__file__,
        "imported": imported,
        "import_s": imported - import_start,
        "run_wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "import_ticks": import_ticks,
        "run_ticks": run_ticks,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["trace_missing"] = missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
