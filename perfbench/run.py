#!/usr/bin/env python3
"""Builds and runs the Seabed host-measured benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ad_dashboard --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (a CMake package compiling ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use,
then runs the benchmark binary with the given arguments. Build output goes to
stderr; the binary's last stdout line is the result JSON. Exits non-zero,
without printing a result, when the library sources are missing or the build
fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cached_source_dir(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def ensure_built():
    """Returns the benchmark binary's path, building it when needed."""
    if not os.path.exists(os.path.join(ROOT, "src", "seabed", "session.h")):
        log(f"library sources not found under {ROOT}/src")
        return None
    build = build_dir()
    cached = cached_source_dir(build)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        log(f"{build} was configured for {cached}; reconfiguring")
        shutil.rmtree(build)
        cached = None
    if cached is None:
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build, "seabed_perfbench")


def main(argv):
    binary = ensure_built()
    if binary is None:
        return 1
    # Two malloc arenas: under glibc's default of many per-thread arenas, the
    # freed memory each arena retains depends on thread scheduling and moved
    # VmHWM by a quarter from run to run (see README.md, peak_rss_mb).
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
