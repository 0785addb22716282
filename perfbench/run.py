#!/usr/bin/env python3
"""Build and run the ulpdream end-to-end benchmark on one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 50 --trace 0

Configures and builds perfbench/ (a CMake project on top of the library
modules one directory up) in Release, under $CARGO_TARGET_DIR/perfbench
when that is set and .bench_build/perfbench otherwise, then runs the
benchmark binary in a fresh working directory there, which keeps the
run's stores and, with --trace 1, its Chrome trace. The binary prints one
"name value unit" line per metric and, as its last line, the JSON result
object; README.md describes both. Exits 2 without building when the
library sources are not next to perfbench/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "write_heavy")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Builds the benchmark binary (incrementally) and returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no ulpdream sources next to perfbench/, nothing to "
              "benchmark", file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j",
                    str(len(os.sched_getaffinity(0)))],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run(binary, args, workdir, capture=False):
    """Runs the binary with `args` in a fresh `workdir`."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return subprocess.run([binary] + args, cwd=workdir, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # benchmark before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
        proc = run(binary, ["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                   os.path.join(build_dir(), "run-" + args.workload))
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
