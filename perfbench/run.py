#!/usr/bin/env python3
"""Builds and runs loadbench, the open-loop serving and fault-sweep benchmark.

    python3 perfbench/run.py --workload edge_forecast --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the ripple sources plus the benchmark) into .bench_build/; later
runs rebuild incrementally. Artifacts are written to a scratch directory
under .bench_build/work/ and removed afterwards; each run's result, with its
context stamp, and a traced run's Chrome trace are kept in
.bench_build/results/. The last line of standard output is the result JSON.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("edge_forecast", "vision_mixed", "fault_sweep")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(jobs):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no ripple sources at {os.path.join(ROOT, 'src')}")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", str(jobs)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "loadbench")


def git_describe():
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short phases and one set-up (the smoke test)")
    args = parser.parse_args()

    nproc = max(1, len(os.sched_getaffinity(0)))
    try:
        binary = build(nproc)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    workdir = os.path.join(ROOT, ".bench_build", "work",
                           f"{args.workload}-{os.getpid()}")
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(nproc), "--workdir", workdir,
               "--results", results, "--git", git_describe(),
               "--smoke", "1" if args.smoke else "0"]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None:
        fail(f"loadbench did not finish within {RUN_TIMEOUT_S} s", 1)
    if code != 0:
        fail(f"loadbench exited with code {code}", 1)


if __name__ == "__main__":
    main()
