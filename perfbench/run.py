#!/usr/bin/env python3
"""Builds the serving benchmark from the checkout's sources and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_crawl --seed 7 --seconds 15 --trace 0

The library sources (src/) and the benchmark (perfbench/) are compiled
together, Release, into .bench_build/perfbench; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Workloads and metrics are described in
perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS = BENCH_DIR / "reference_digests.txt"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(message: str, code: int) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return code


def build() -> bool:
    """Configures (once) and builds serve_bench; True on success."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main() -> int:
    if not (ROOT / "src" / "runtime" / "runtime.h").is_file():
        return fail(f"library sources not found under {ROOT / 'src'}", 2)
    if not build():
        return fail("build failed", 3)
    cmd = [str(BUILD_DIR / "serve_bench"), *sys.argv[1:],
           "--digests", str(DIGESTS)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"serve_bench ran past {RUN_TIMEOUT_S} s", 4)


if __name__ == "__main__":
    sys.exit(main())
