#!/usr/bin/env python3
"""Golden gate for a deterministic paper-figure bench; runs as a
`golden_<bench>` ctest.

Runs the bench binary at its default flags in a scratch directory and
compares every `results` row of the BENCH_<name>.json it writes
(bench/bench_common.h, BenchReport) with the committed golden file:
same labels and units in the same order, and every value equal to
within 1e-12 relative. The figure benches run on the deterministic
simulator, so a row moves only when the code under it changes what it
computes; the tolerance only absorbs libm differences between
compilers. On a mismatch, every changed, missing or extra row is
printed. A change that moves the figure on purpose copies the new
`results` rows into the golden and says why.

Usage: tools/golden_check.py <golden.json> <bench-binary>
"""

import json
import math
import os
import subprocess
import sys
import tempfile

REL_TOL = 1e-12


def run_bench(binary):
    """Returns the results rows the bench writes, or exits on failure."""
    name = os.path.basename(binary)
    with tempfile.TemporaryDirectory(prefix="golden_") as scratch:
        proc = subprocess.run([binary], cwd=scratch, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit(f"golden_check: {name} exited with {proc.returncode}")
        with open(os.path.join(scratch, f"BENCH_{name}.json")) as f:
            return json.load(f)["results"]


def same_value(want, got):
    if want is None or got is None:
        return want is got
    return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    golden_path, binary = argv[1], os.path.abspath(argv[2])
    rows = run_bench(binary)
    with open(golden_path) as f:
        golden = json.load(f)["results"]
    changed = []
    for i in range(max(len(golden), len(rows))):
        want = golden[i] if i < len(golden) else None
        got = rows[i] if i < len(rows) else None
        if want is None or got is None:
            changed.append(f"  row {i}: golden {want} vs run {got}")
        elif (want["label"] != got["label"] or want["unit"] != got["unit"]
              or not same_value(want["value"], got["value"])):
            changed.append(f"  row {i}: golden {want['label']} = "
                           f"{want['value']!r} {want['unit']}, run "
                           f"{got['label']} = {got['value']!r} {got['unit']}")
    if changed:
        print(f"golden_check: {len(changed)} of {len(golden)} rows of "
              f"{golden_path} changed:")
        print("\n".join(changed))
        return 1
    print(f"golden_check: all {len(golden)} rows match {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
