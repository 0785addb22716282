#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then, on every workload at one
Monte-Carlo repetition and the minimum number of rounds:
  - checks that every metric BENCHMARK.json declares is printed on a
    "name value unit" line with its unit, and that the JSON result line
    carries exactly the declared metrics (end-to-end with --trace 0,
    per-layer with --trace 1);
  - checks that failed_ratio is 0 and the run reports correct;
and finally runs once with --corrupt-store, which flips a byte of the
reference store copy, and checks that the run reports the failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build/run helpers)

SMALL = ["--seed", "1", "--seconds", "0", "--reps", "1", "--hits", "20"]


def run_small(binary, workload, extra):
    proc = run.run(binary, ["--workload", workload] + SMALL + extra,
                   os.path.join(run.build_dir(), "selftest-" + workload),
                   capture=True)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            printed[fields[0]] = (float(fields[1]), fields[2])
    return proc.returncode, printed, json.loads(lines[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in run.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            tag = f"{workload} --trace {trace}"
            code, printed, result = run_small(binary, workload,
                                              ["--trace", str(trace)])
            expect(code == 0 and result["correct"], f"{tag}: run is correct")
            expect(printed.get("failed_ratio") == (0.0, "1")
                   and result["failed"] == 0, f"{tag}: failed_ratio is 0")
            missing = [m["name"] for m in declared
                       if printed.get(m["name"], (0, None))[1] != m["unit"]]
            expect(not missing, f"{tag}: every metric printed with its unit"
                   + (f" (missing {missing})" if missing else ""))
            expect(sorted(result["metrics"]) == sorted(
                m["name"] for m in declared) and all(
                    result["metrics"][m["name"]]["unit"] == m["unit"]
                    for m in declared),
                   f"{tag}: result line has exactly the declared metrics")

    code, _, result = run_small(binary, "write_heavy",
                                ["--trace", "0", "--corrupt-store"])
    expect(code != 0 and not result["correct"] and result["failed"] > 0,
           "a corrupted store copy is caught as a failure")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
