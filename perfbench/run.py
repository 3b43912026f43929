#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py [--host-threads K] --workload NAME --seed N \
      --seconds S --trace 0|1 [--tiny]

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally.  Build output goes to a log file, never to stdout, so the
benchmark's last stdout line stays its JSON result.  Exits non-zero without
printing a result when the build or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    env = dict(os.environ, TMPDIR=str(BUILD))  # keep compiler temp files here
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed (log: {log})\n")
                return None
    return BUILD / "perfbench"


def main():
    binary = build()
    if binary is None:
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    return subprocess.run([str(binary), *sys.argv[1:], "--out-dir", str(OUT)]).returncode


if __name__ == "__main__":
    sys.exit(main())
