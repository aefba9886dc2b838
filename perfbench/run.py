#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload moe-single --seed 1 \
        --seconds 15 --trace 0

The first call configures perfbench/ (which compiles the simulator
from src/) into .bench_build/ and builds it; later calls rebuild only
what changed. Build output goes to stderr. The benchmark binary then
prints its report, and its last stdout line is the JSON result. With
--trace 1 the first traced cell's spans are also written to
.bench_build/spans/<workload>-seed<seed>.tsv.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("moe-single", "fleet-wide", "sessions-dense")


def build(root):
    """Configure (once) and build the benchmark; True on success."""
    build_dir = root / BUILD_DIR
    configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                 str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            return False
    return True


def source_context(root):
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        ).stdout.strip()
    except OSError:
        commit = ""
    return "%s, sources sha256 %s" % (commit or "none",
                                      digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = pathlib.Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").exists():
        print("run from the repository root", file=sys.stderr)
        return 2
    if not build(root):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [str(root / BUILD_DIR / "perfbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace]
    env = dict(os.environ, PERFBENCH_COMMIT=source_context(root))
    return subprocess.run(command, env=env, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
