#!/usr/bin/env python3
"""Build and run the gbx benchmark for one workload.

Run from the root of a gbx checkout:

    python3 gbxbench/run.py --workload magic --seed 1 --seconds 25 --trace 0

The first call configures and builds the library and gbxbench in
$CARGO_TARGET_DIR/gbxbench (default .bench_build/gbxbench); later calls
only rebuild what changed. gbxbench runs in its own process with
GBX_THREADS pinned, and its last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Build output and server logs go to stderr. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("magic", "usps", "banana")
# Fit threads; the server adds an event loop and two predict workers and
# the client one thread, which together fill a 4-core machine.
GBX_THREADS = "2"
RUN_TIMEOUT_S = 170


def source_digest():
    """Short digest of the sources gbxbench is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "include"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "core" / "rd_gbg.h"
    ).is_file():
        sys.exit("gbxbench: no gbx sources next to %s" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "gbxbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "gbxbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "gbxbench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("gbxbench: build failed: %s" % e)
    workdir = build_dir / "run"
    workdir.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--golden", str(HERE / "golden.txt"),
           "--commit", source_digest()]
    env = dict(os.environ, GBX_THREADS=GBX_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("gbxbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("gbxbench: run exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("gbxbench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
