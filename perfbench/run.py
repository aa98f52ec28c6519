#!/usr/bin/env python3
"""Builds the benchmark executable from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the executable under .bench_build/perfbench (later calls
rebuild incrementally); build output goes to stderr. The executable then runs
with every CBM_* variable removed from its environment, so the library's
defaults are what gets measured. Its output is passed through: the last stdout line is
the JSON result. A traced run also writes its spans as Chrome-trace JSON
under .bench_build/perfbench/traces/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "cbm_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no cbm4gnn sources next to {HERE.name}/ (expected {ROOT}/src)")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cbm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def trace_path(argv):
    ap = argparse.ArgumentParser(add_help=False)
    for name in ("--workload", "--seed", "--trace"):
        ap.add_argument(name)
    args, _ = ap.parse_known_args(argv)
    if args.trace != "1":
        return []
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]


def main():
    argv = sys.argv[1:]
    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CBM_")}
    cmd = [str(EXE), *argv, *trace_path(argv)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
