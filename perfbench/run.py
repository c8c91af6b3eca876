#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/DESIGN.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the hermes library and
the benchmark in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. Build output goes to
<build dir>/perfbench-build.log, so the benchmark's own result line stays
the last line of stdout.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets) -> Path:
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_root()
    build_dir = out / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                  "--target", *targets])
    binaries = [build_dir / t for t in targets]
    before = [b.stat().st_mtime_ns if b.exists() else 0 for b in binaries]
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                sys.exit(1)
    if before != [b.stat().st_mtime_ns for b in binaries]:
        # Flush the build's dirty pages now, so kernel writeback does not
        # compete with the WAL and snapshot writes of the run that follows.
        os.sync()
    return build_dir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build(["perfbench"]) / "perfbench"
    out = build_root()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(out / "scratch" / args.workload),
           "--spans-out", str(out / "spans" / f"{args.workload}.csv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
