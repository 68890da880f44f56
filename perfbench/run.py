#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the gcc3d library from src/ plus the perfbench binary) into
.bench_build/perfbench; later calls only re-check the build.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Exits non-zero, printing no result, when the sources are
missing or the build fails; the benchmark's own exit code is passed on.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("interactive", "fleet-overload")


def source_digest():
    """Digest of the library and benchmark sources: names the build when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".cpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build():
    if not (ROOT / "src" / "render" / "tile_renderer.h").is_file():
        sys.exit("perfbench: no gcc3d sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    sys.stdout.flush()
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
