#!/usr/bin/env python3
"""Builds the round benchmark from source and runs one workload.

    python3 roundbench/run.py --workload oasis_convnet --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
roundbench/ (which compiles ../src) into .bench_build/roundbench, or into
$CARGO_TARGET_DIR/roundbench when that is set; later calls only re-check it.
Build output goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when the build fails or
the correctness gate does.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oasis_convnet", "shard_stream", "socket_mlp")
# One run is bounded well below the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "roundbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("roundbench: no OASIS sources next to the benchmark "
                 "(expected ../src/CMakeLists.txt)")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                sys.exit(f"roundbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "roundbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale: one federation per pass")
    args = parser.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--smoke", "1" if args.smoke else "0"]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"roundbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
