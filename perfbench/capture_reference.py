"""Capture the reference t2-t9 tables that the warm-up run is checked against.

Usage (from the repository root): python3 perfbench/capture_reference.py

Runs the program once on the ``REF_SEED`` inputs of each reference
workload and copies its t2-t9 tables to reference/<workload>/. Capture
only at a commit whose tables are known to be right.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import gen
import run


def main() -> int:
    for workload in run.REFERENCE_WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            tmp = Path(tmp)
            gen.generate(workload, run.REF_SEED, tmp / "inputs")
            subprocess.run([sys.executable, str(run.HERE / "child.py"),
                            str(tmp / "inputs" / "config.txt"), str(tmp / "out"),
                            str(tmp / "result.json"), "0"],
                           env=run.child_env(), cwd=run.ROOT, check=True)
            dest = check.REFERENCE / workload
            dest.mkdir(parents=True, exist_ok=True)
            for t in check.TABLES:
                shutil.copyfile(tmp / "out" / f"{t}.csv", dest / f"{t}.csv")
        print(f"captured {workload} (seed {run.REF_SEED}) -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
