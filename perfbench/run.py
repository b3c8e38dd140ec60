#!/usr/bin/env python3
"""Builds and runs the Canopus benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|explore|serve --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/ (the canopus libraries from
src/ plus the harness) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 when every correctness gate
held, non-zero otherwise, when the build fails, or when the printed metric
names differ from the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def check_names(argv, last_line):
    """True when the result names exactly the metrics BENCHMARK.json lists
    for this mode (end_to_end with --trace 0, per_layer with --trace 1)."""
    spec_path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    flag = argv.index("--trace") if "--trace" in argv else -1
    traced = flag >= 0 and argv[flag + 1:flag + 2] == ["1"]
    want = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    got = list(json.loads(last_line)["metrics"])
    if got != want:
        sys.stderr.write("perfbench: metrics %s differ from BENCHMARK.json %s\n"
                         % (got, want))
        return False
    return True


def main(argv):
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    return 0 if lines and check_names(argv, lines[-1]) else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
