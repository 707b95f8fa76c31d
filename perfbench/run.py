#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench (and the repository
libraries it links) from source into .bench_build/perfbench, runs one
workload in a private directory under .bench_build/run, and relays the
benchmark's output; its last line is the JSON result. Trace runs write
their span logs to .bench_build/traces. Exits non-zero, without a result
line, when the build or the run fails. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("archive_scan", "whatif", "feed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; the log goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-fault", choices=("answer", "status"),
                        help="corrupt one served answer, or turn one reply "
                             "into an error (the benchmark's own tests)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    run_dir = os.path.join(BUILD_ROOT, "run", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--run-dir", run_dir,
           "--trace-dir", os.path.join(BUILD_ROOT, "traces"),
           "--commit", source_id()]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        log("perfbench: exited with code %d" % code)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
