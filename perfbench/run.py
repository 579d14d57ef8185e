#!/usr/bin/env python3
"""Builds and runs the zeroone serving benchmark (perfbench/README.md).

Usage, from the root of a zeroone checkout:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Builds zeroone_server, the perfbench binary and its checker self-test into
.bench_build (CMake, the repository's default build type), runs the
self-test, then runs perfbench. Its report goes to stdout; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to stderr. Exits non-zero, without a JSON line,
when the build, the self-test or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_read", "measure_exact", "write_mix")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the three targets; True on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "svc", "dispatch.h")):
        log(f"no zeroone sources next to {HERE}; nothing to benchmark")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "zeroone_server", "perfbench", "perfbench_checker_test"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unset"
    except OSError:
        pass
    return "unknown"


def source_stamp():
    """The git sha, or a hash of the sources when there is no repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "nogit-" + digest.hexdigest()[:12]


def run_group(argv, capture):
    """Runs argv in its own process group; kills the group on timeout."""
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                             stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log(f"{os.path.basename(argv[0])} timed out after {RUN_TIMEOUT_S} s")
        return 1, b""
    return child.returncode, out or b""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    code, out = run_group([os.path.join(BUILD, "perfbench_checker_test")],
                          capture=True)
    sys.stderr.write(out.decode(errors="replace"))
    if code != 0:
        log("checker self-test failed")
        return 1
    code, _ = run_group([
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(BUILD, "zeroone", "tools", "zeroone_server"),
        "--git-sha", source_stamp(), "--build-type", build_type(),
    ], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
