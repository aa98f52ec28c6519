#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size (about a minute).

    python3 perfbench/smoke_test.py

For every workload, in both modes, checks that the run succeeds and that its
JSON result names exactly the metrics BENCHMARK.json lists for that mode,
each with its unit. Then checks that a deliberately corrupted CBM output
(--corrupt) is counted as failed and makes the run exit nonzero.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload",
           workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc


def main():
    errors = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = run(workload, trace)
            label = f"{workload} trace={trace}"
            before = len(errors)
            if code != 0 or result is None:
                errors.append(f"{label}: exit {code}\n{proc.stdout[-1500:]}"
                              f"{proc.stderr[-1500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                errors.append(f"{label}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                wrong_unit = [k for k in want if got.get(k, want[k]) != want[k]]
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"wrong unit {wrong_unit}")
            if len(errors) == before:
                print(f"ok   {label}: {len(got)} metrics, "
                      f"{result['attempted']} outputs checked")
        code, result, _ = run(workload, 0, "--corrupt")
        label = f"{workload} --corrupt"
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            errors.append(f"{label}: corruption not counted "
                          f"(exit {code}, {result and result['failed']})")
        else:
            print(f"ok   {label}: {result['failed']} of "
                  f"{result['attempted']} failed, exit {code}")
    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
