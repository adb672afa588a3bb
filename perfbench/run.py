#!/usr/bin/env python3
"""Build and run one TrojanZero benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest          # correctness-gate self-test

The first call configures and builds perfbench/ (Release, which also builds
the trojanzero library from ../src) into .bench_build/; later calls only
re-check that build. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. Checkpoints and trace files go to .bench_run/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_run")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no trojanzero sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--short", action="store_true",
                    help="one op per workload (the benchmark's own tests)")
    ap.add_argument("--selftest", action="store_true",
                    help="check that every correctness gate trips")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workdir", WORKDIR, "--commit", commit(),
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.short:
        cmd.append("--short")
    if args.selftest:
        cmd.append("--selftest")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
