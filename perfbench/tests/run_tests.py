#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/run_tests.py

Builds the benchmark, runs the helper unit tests (perfbench_test), then a
tiny-size run of every workload in both modes, checking that each declared
metric appears exactly once with its declared unit and that the output
checks ran. Finally checks that the benchmark fails cleanly in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

# Checks every workload must have run at least once.
EXPECTED_CHECKS = [
    "read_reach", "validate", "edge_bookkeeping", "vertex_ids",
    "round_validate", "round_restore", "round_balance", "round_repeat",
    "recovered_validate", "recovered_degree",
]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys {sorted(dupes)}")
    return dict(pairs)


def tiny_run(binary, workload, trace, declared):
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--tiny", "--scratch",
           str(run.build_root() / "scratch" / f"test-{workload}")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=run.ROOT)
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        errors.append(f"metric names {list(metrics)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: {got}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')}")
    detail = next(json.loads(l) for l in lines if l.startswith('{"measured_s"'))
    for check in EXPECTED_CHECKS:
        if detail["checks"].get(check, 0) < 1:
            errors.append(f"check {check} did not run")
    env = json.loads(lines[0])["env"]
    if env["pinned_cpu"] < 0:
        errors.append("process was not pinned to a CPU")
    return errors


def isolated_run_fails():
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    root = run.build_root() / "isolated"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    shutil.copytree(run.HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_hotspot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)
    shutil.rmtree(root, ignore_errors=True)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main() -> int:
    build_dir = run.build(["perfbench", "perfbench_test"])
    failures = []
    if subprocess.run([str(build_dir / "perfbench_test")]).returncode != 0:
        failures.append("perfbench_test failed")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            errors = tiny_run(build_dir / "perfbench", workload, trace, declared)
            status = "ok" if not errors else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            failures += [f"{workload} --trace {trace}: {e}" for e in errors]
    isolated_ok = isolated_run_fails()
    print("isolated checkout fails cleanly:", "ok" if isolated_ok else "FAILED")
    if not isolated_ok:
        failures.append("run.py printed a result without the repository")
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
