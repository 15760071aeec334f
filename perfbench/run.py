#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tune_fit --seed 1 --seconds 35 --trace 0

Workloads: tune_fit, tune_predict, serve_routed (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset,
relative to the repository root; span dumps and the serving workload's
temporary checkpoint directories go to .bench_out. Build output goes to
stderr; the last line of stdout is the result object. Exits non-zero,
without a result, when the build fails; exits 1 when a correctness check
fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_fit", "tune_predict", "serve_routed")
INJECTIONS = ("none", "tamper-digest", "ok-false", "short-percentile")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "pwu_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "pwu_perfbench")


def git_commit():
    """HEAD of the repository, or "none" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none"
    top, head = done.stdout.split()
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else "none"


def source_digest():
    """SHA-256 over the sources the benchmark is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", default="none", choices=INJECTIONS,
                        help="break one of the benchmark's checks on purpose")
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--inject", args.inject,
               "--out-dir", os.path.join(ROOT, ".bench_out"),
               "--commit", git_commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    # A child process (not exec): its peak RSS must not include this one's.
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
