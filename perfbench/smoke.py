#!/usr/bin/env python3
"""Harness smoke test: every workload at tiny sizes, in about a minute.

    python3 perfbench/smoke.py

Runs run.py with --size smoke for each workload, untraced and traced, at
seed 0 and seed 1, and checks that each run is correct and prints exactly
the metrics BENCHMARK.json declares.  Then checks that the benchmark fails
cleanly (non-zero exit, no result line) in a directory that holds only
BENCHMARK.json and perfbench/.  Kept out of the pytest suite so tier-1 does
not slow down.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(argv, cwd):
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc.returncode, last, proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (0, 1):
            for trace in (0, 1):
                argv = [os.path.join("perfbench", "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                        "--size", "smoke"]
                code, last, proc = run(argv, ROOT)
                try:
                    result = json.loads(last)
                except ValueError:
                    result = {}
                label = f"{workload} seed={seed} trace={trace}"
                if code != 0 or not result.get("correct"):
                    failures.append(f"{label}: exit {code}\n{proc.stdout[-2000:]}"
                                    f"{proc.stderr[-2000:]}")
                elif set(result["metrics"]) != declared[trace]:
                    failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(result['metrics']) ^ declared[trace])}")
                else:
                    print(f"ok   {label}  attempted={result['attempted']}")

    bare = os.path.join(BENCH_DIR, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, last, _ = run(spec["command"][1:] + ["--workload", spec["workloads"][0]["name"],
                                                  "--seed", "0", "--seconds", "1",
                                                  "--trace", "0"], bare)
        if code == 0 or last.startswith("{"):
            failures.append(f"bare checkout: exit {code}, last line {last!r}")
        else:
            print(f"ok   bare checkout fails with exit {code}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
