#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--trace 0|1]
                                [--save set.json] [--against set.json]

For every metric: the median of its values over the seeds and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a share
of that median. End-to-end metrics are compared with their bound from
BENCHMARK.json: a spread at or above a third of the bound is flagged "wide".
--save writes the values to a file; --against reads such a file from an
earlier set and also prints how far each median moved from that set's,
flagged "MOVED" when the move exceeds the bound. Exits 1 when any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / spec["command"][1]),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if args.save:
        args.save.write_text(json.dumps(values))
    print(f"{'metric':28} {'median':>12} {'min':>12} {'max':>12} "
          f"{'spread':>8} {'moved':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        moved = None
        if name in earlier:
            before = statistics.median(earlier[name])
            moved = (med - before) / abs(before) if before else float("inf")
        bound = bounds.get(name)
        flags = []
        if bound is not None and spread >= bound / 3:
            flags.append("wide" if spread < bound else "OVER BOUND")
        if bound is not None and moved is not None and abs(moved) > bound:
            flags.append("MOVED")
        print(f"{name:28} {med:12.6g} {min(vals):12.6g} {max(vals):12.6g} "
              f"{spread:8.2%} {'' if moved is None else f'{moved:+.2%}':>8} "
              f"{'' if bound is None else bound:>6} {' '.join(flags)}")


if __name__ == "__main__":
    main()
