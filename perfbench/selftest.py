#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark (python3 perfbench/selftest.py).

Checks that
  1. every workload runs once, traced and untraced, in seconds;
  2. every run emits every metric BENCHMARK.json names for its trace
     setting, with its unit, and no other metric;
  3. an injected wrong serve answer is counted as a failed operation;
  4. an edited edge-list digest fails the batch check.
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 60.0  # per tiny run, build excluded


def run(workload, trace, inject=None):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
    if inject:
        command += ["--inject", inject]
    began = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - began
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command[2:])} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    # The first run builds the program; time the runs after it.
    run(workloads[0], 0)
    for workload in workloads:
        for trace in (0, 1):
            result, elapsed = run(workload, trace)
            label = f"{workload} --trace {trace}"
            print(f"{label}: {elapsed:.1f} s, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            if elapsed > RUN_LIMIT_S:
                problems.append(f"{label} took {elapsed:.0f} s")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(f"{label} did not pass its output checks")
            emitted = {name: value["unit"]
                       for name, value in result["metrics"].items()}
            for name, unit in wanted[trace].items():
                if emitted.get(name) != unit:
                    problems.append(f"{label}: {name} [{unit}] not emitted "
                                    f"(got {emitted.get(name)})")
            for name in emitted.keys() - wanted[trace].keys():
                problems.append(f"{label}: {name} emitted but not in "
                                "BENCHMARK.json")

    for workload, trace, inject in (("serve-mixed", 0, "wrong-serve-answer"),
                                    ("e1-reduced", 1, "wrong-serve-answer"),
                                    ("e1-reduced", 0, "edit-digest"),
                                    ("serve-mixed", 1, "edit-digest")):
        result, _ = run(workload, trace, inject)
        caught = result["failed"] >= 1 and not result["correct"]
        print(f"{workload} --trace {trace} --inject {inject}: failed "
              f"{result['failed']} of {result['attempted']}"
              f"{'' if caught else '  <-- NOT CAUGHT'}")
        if not caught:
            problems.append(f"--inject {inject} on {workload} not counted "
                            "as a failed operation")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
