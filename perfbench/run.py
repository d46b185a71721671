#!/usr/bin/env python3
"""Builds and runs the xflow end-to-end benchmark (see README.md).

Usage, from the repository root:
    python3 perfbench/run.py --workload bert-base-train --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds the library and the benchmark with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only check the build is current. Build output goes to stderr;
the benchmark's JSON result is the last line of stdout. Traced runs write
their Chrome trace to <build dir>/traces/<workload>-seed<n>.json. The exit
code is non-zero when the build fails, an output check fails, or the run
stalls.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XFLOW_")}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--perturb", default="",
                        help="corrupt one output before its check (README)")
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    # The shipped defaults: no XFLOW_* override (autotune measure, task
    # scheduler on, fused kernels); the benchmark sets the thread count.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XFLOW_")}
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
