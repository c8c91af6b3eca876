#!/usr/bin/env python3
"""Repo lint for the hermes codebase; runs as the `repo_lint` ctest.

Checks (all over `src/`, the shipped library code):

  1. include guards: every header uses the canonical
     HERMES_<PATH>_H_ guard (``#ifndef`` / ``#define`` as the first
     preprocessor conditional).
  2. header hygiene: no ``#pragma once`` and no ``using namespace std``
     in headers.
  3. locking discipline: no raw ``std::mutex`` / ``std::condition_variable``
     (or the ``std::*lock*`` RAII helpers) outside
     src/common/thread_annotations.h — shared state must use the annotated
     Mutex/MutexLock/CondVar wrappers so clang -Wthread-safety sees it.
  4. build completeness: every ``.cc`` under src/ is listed in a
     CMakeLists.txt **by its src-relative path** (basename matches are
     not accepted: a file in the wrong directory, or a stale same-named
     entry, must not satisfy the check), so nothing silently drops out
     of the library.
  5. metrics discipline: no ad-hoc ``std::atomic`` members outside the
     metrics registry (src/common/metrics.h) and the few pre-existing
     ID/log-level atomics — counters belong in MetricsRegistry so they
     show up in MetricsSnapshot() and the BENCH_*.json reports.
  6. determinism (src/sim and src/partition only): the paper's
     evaluation is reproducible because the simulator and the
     repartitioners are deterministic, so inside those modules the lint
     bans nondeterminism sources outright — ``std::random_device``,
     ``rand()``/``srand()``, wall/steady clocks
     (``system_clock``/``steady_clock``/``high_resolution_clock``,
     ``time(nullptr)``), any ``std::unordered_*`` container (iteration
     order is implementation-defined and has already leaked into
     tie-breaks once; use sorted containers or sort before iterating),
     and pointer-keyed ``map``/``set`` (iteration order = allocation
     order). A line may carry ``// lint:allow(determinism)`` after an
     audited review to suppress, stating why.
  7. failpoint containment: ``HERMES_FAILPOINT*`` macros may appear only
     in the storage stack (src/storage/, src/graphdb/), the message
     layer's delivery boundary (src/net/), and in the registry itself
     (src/common/failpoint.{h,cc}) — fault injection is a
     storage-recovery and message-delivery tool, not a general
     control-flow mechanism.
  8. failpoints stay out of release builds: the ``HERMES_FAILPOINTS``
     CMake option must default OFF, and only sanitizer presets
     (name contains "san") may turn it ON in CMakePresets.json.
  9. durable writes go through the fd appender (src/storage/ only):
     ``std::ofstream`` / ``std::fstream`` are banned there because
     ostream flushes reach the OS page cache, not the disk — a
     "durable" path built on them silently cannot fsync. Writes go
     through storage/fd_appender.h; read-only ``std::ifstream`` (e.g.
     the WAL scanner) stays allowed.
  10. idempotency-token discipline: outside src/net/, no code may mint
     or increment a ``request_id`` — the id is the mutation's
     idempotency token and a caller-side retry loop with fresh ids
     silently reintroduces double-apply. Echoing (``reply.request_id =
     env->request_id``) and configuring ``first_request_id`` stay
     allowed; everything else routes through MessageBus::Call.

Usage: tools/lint.py [repo_root]   (exit 0 = clean, 1 = findings)
"""

import json
import re
import sys
from pathlib import Path

# Raw-synchronization tokens banned outside the annotated wrapper. The
# lock-RAII types are included: locking an annotated Mutex through
# std::unique_lock would hide the acquisition from thread-safety analysis.
RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
USING_NAMESPACE_STD_RE = re.compile(r"^\s*using\s+namespace\s+std\s*;")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")
PREPROC_COND_RE = re.compile(r"^\s*#\s*(if|ifdef|ifndef)\b")

ALLOWED_RAW_SYNC = {
    Path("src/common/thread_annotations.h"),
    # The lock-order validator cannot use the annotated Mutex it
    # instruments (it would recurse into its own hooks).
    Path("src/common/lock_order.cc"),
}

# Ad-hoc atomics hide state from the observability layer; new counters and
# gauges go through MetricsRegistry (src/common/metrics.h). The allowlist
# covers the registry itself plus the pre-existing non-metric atomics
# (ID generation, the log-level flag).
ATOMIC_RE = re.compile(r"std::atomic\b")
ALLOWED_ATOMIC = {
    Path("src/common/metrics.h"),
    Path("src/common/histogram.h"),
    Path("src/common/logging.cc"),
    Path("src/storage/id_generator.h"),
    Path("src/txn/transaction.h"),
    # The lock profiler's per-lock rows, and the Mutex slot that caches
    # each row. They keep their own name table (registering through the
    # registry would take its profiled mutex) and are merged into
    # MetricsRegistry::Snapshot().
    Path("src/common/lock_order.h"),
    Path("src/common/lock_order.cc"),
    Path("src/common/thread_annotations.h"),
}


def strip_comments(text):
    """Removes // and /* */ comments (string literals are rare enough in
    this codebase that we accept the imprecision)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def expected_guard(rel):
    return "HERMES_" + re.sub(r"[^A-Za-z0-9]", "_", str(rel.relative_to("src"))).upper() + "_"


def check_include_guard(rel, lines, findings):
    guard = expected_guard(rel)
    ifndef = None
    for line in lines:
        m = PREPROC_COND_RE.match(line)
        if m:
            ifndef = IFNDEF_RE.match(line)
            break
    if not ifndef:
        findings.append(f"{rel}: missing include guard (expected {guard})")
        return
    if ifndef.group(1) != guard:
        findings.append(
            f"{rel}: include guard {ifndef.group(1)} should be {guard}")
        return
    for line in lines:
        m = DEFINE_RE.match(line)
        if m:
            if m.group(1) != guard:
                findings.append(
                    f"{rel}: #define {m.group(1)} does not match guard {guard}")
            return
    findings.append(f"{rel}: include guard {guard} is never #defined")


def check_header_hygiene(rel, lines, findings):
    for i, line in enumerate(lines, 1):
        if PRAGMA_ONCE_RE.match(line):
            findings.append(f"{rel}:{i}: #pragma once (use HERMES_*_H_ guards)")
        if USING_NAMESPACE_STD_RE.match(line):
            findings.append(f"{rel}:{i}: 'using namespace std' in a header")


def check_raw_sync(rel, text, findings):
    if rel in ALLOWED_RAW_SYNC:
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        m = RAW_SYNC_RE.search(line)
        if m:
            findings.append(
                f"{rel}:{i}: raw std::{m.group(1)} — use the annotated "
                "Mutex/MutexLock/CondVar from common/thread_annotations.h")


# Real sleeps stall the single simulated "network" thread pool and make
# tests wall-clock-dependent. The only legitimate in-tree sleep is the
# cluster's opt-in remote-hop latency model (Options::read_hop_latency_us),
# which defaults to off and exists so the concurrency benches are
# latency-bound rather than CPU-bound.
SLEEP_RE = re.compile(r"\bsleep_(for|until)\b")
ALLOWED_SLEEP = {
    Path("src/cluster/hermes_cluster.cc"),
}


def check_real_sleeps(rel, text, findings):
    if rel in ALLOWED_SLEEP:
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        m = SLEEP_RE.search(line)
        if m:
            findings.append(
                f"{rel}:{i}: real sleep_{m.group(1)} in src/ — sleeps belong "
                "behind an Options knob (see Options::read_hop_latency_us); "
                "use the simulator clock for timing logic")


def check_adhoc_atomics(rel, text, findings):
    if rel in ALLOWED_ATOMIC:
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        if ATOMIC_RE.search(line):
            findings.append(
                f"{rel}:{i}: ad-hoc std::atomic — counters/gauges belong in "
                "MetricsRegistry (common/metrics.h) so they appear in "
                "MetricsSnapshot() and BENCH_*.json")


def check_cmake_lists_all_sources(root, findings):
    cmake_text = ""
    for cmake in (root / "src").rglob("CMakeLists.txt"):
        cmake_text += cmake.read_text(encoding="utf-8")
    listed = set(re.findall(r"[\w./-]+\.cc\b", cmake_text))
    for cc in sorted((root / "src").rglob("*.cc")):
        # Match on the src-relative path only. A bare-name fallback would
        # let a file in the wrong directory (or a stale same-named entry
        # in another module's list) pass — tests/lint_selftest.py keeps a
        # regression fixture for exactly that.
        rel_to_src = cc.relative_to(root / "src").as_posix()
        if rel_to_src not in listed:
            findings.append(
                f"src/{rel_to_src}: not listed in any src/ CMakeLists.txt "
                "(sources must be listed by src-relative path)")


# --- determinism rules (src/sim, src/partition) ---------------------------
# DESIGN.md's evaluation claims depend on the simulator and repartitioners
# being bit-reproducible; these modules may draw randomness only through
# the seeded common/rng.h generators and may never observe real time.
DETERMINISM_DIRS = ("src/sim", "src/partition")
ALLOW_DETERMINISM_MARKER = "lint:allow(determinism)"
NONDET_TOKEN_RES = [
    (re.compile(r"std::random_device\b"),
     "std::random_device — seed from options/Rng, never from entropy"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand()/srand() — use the seeded common/rng.h generators"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall/steady clock — simulated components must use SimTime"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time() — simulated components must use SimTime"),
    (re.compile(r"std::unordered_(map|set|multimap|multiset)\b"),
     "std::unordered_* — iteration order is implementation-defined and "
     "leaks into tie-breaks; use a sorted container or sort before "
     "iterating"),
    (re.compile(r"\b(map|set)\s*<[^<>,]*\*\s*[,>]"),
     "pointer-keyed map/set — iteration order follows allocation "
     "addresses; key by a stable id instead"),
]


# --- failpoint containment -------------------------------------------------
# Fault-injection sites belong at the storage stack's I/O boundaries;
# sprinkling HERMES_FAILPOINT into partitioners, the simulator, or the
# cluster layer would turn a recovery-testing tool into hidden control
# flow. The registry itself is the only file outside those layers that
# may name the macros.
FAILPOINT_TOKEN_RE = re.compile(r"\bHERMES_FAILPOINT\w*")
FAILPOINT_ALLOWED_DIRS = ("src/storage", "src/graphdb", "src/net")
FAILPOINT_ALLOWED_FILES = {
    Path("src/common/failpoint.h"),
    Path("src/common/failpoint.cc"),
}


def check_failpoint_containment(rel, text, findings):
    if rel in FAILPOINT_ALLOWED_FILES:
        return
    rel_posix = rel.as_posix()
    if any(rel_posix.startswith(d + "/") for d in FAILPOINT_ALLOWED_DIRS):
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        m = FAILPOINT_TOKEN_RE.search(line)
        if m:
            findings.append(
                f"{rel}:{i}: {m.group(0)} outside the storage stack — "
                "failpoints live in src/storage/, src/graphdb/ and "
                "src/net/ only (registry: src/common/failpoint.{h,cc})")


def check_failpoints_off_in_release(root, findings):
    """Failpoints are a sanitizer-preset-only feature: the CMake option
    must default OFF and only *san presets may flip it ON. Skips
    silently when the build files are absent (lint_selftest fixtures)."""
    cmake = root / "CMakeLists.txt"
    if cmake.is_file():
        m = re.search(r"option\s*\(\s*HERMES_FAILPOINTS\b[^)]*\)",
                      cmake.read_text(encoding="utf-8"))
        if m and not re.search(r"\bOFF\s*\)$", m.group(0)):
            findings.append(
                "CMakeLists.txt: option(HERMES_FAILPOINTS) must default "
                "OFF — failpoints never ship in default/release builds")
    presets = root / "CMakePresets.json"
    if presets.is_file():
        try:
            data = json.loads(presets.read_text(encoding="utf-8"))
        except ValueError as err:
            findings.append(f"CMakePresets.json: unparseable: {err}")
            return
        for preset in data.get("configurePresets", []):
            name = preset.get("name", "")
            value = str(preset.get("cacheVariables", {})
                        .get("HERMES_FAILPOINTS", "OFF")).upper()
            if value in ("ON", "TRUE", "1") and "san" not in name:
                findings.append(
                    f"CMakePresets.json: preset '{name}' sets "
                    "HERMES_FAILPOINTS=ON — only sanitizer presets may "
                    "compile failpoints in")


# --- storage write-path streams -------------------------------------------
# PR "the WAL never fsyncs" root cause: std::ofstream's flush() only hands
# bytes to the OS, so no ostream-based write path can implement a
# durability contract. Inside src/storage/ every write path must use the
# fd-backed appender (storage/fd_appender.h) or raw pwrite; ofstream (and
# the read/write fstream) are banned outright. std::ifstream is read-only
# and stays allowed (the WAL scanner uses it).
STORAGE_STREAM_RE = re.compile(r"std::o?fstream\b")
STORAGE_STREAM_DIR = "src/storage"


def check_storage_write_streams(rel, text, findings):
    if not rel.as_posix().startswith(STORAGE_STREAM_DIR + "/"):
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        m = STORAGE_STREAM_RE.search(line)
        if m:
            findings.append(
                f"{rel}:{i}: {m.group(0)} in src/storage/ — ostream flushes "
                "never fsync; write through storage/fd_appender.h "
                "(std::ifstream is fine for read-only scans)")


# --- idempotency-token discipline (everything outside src/net) ------------
# The exactly-once contract (DESIGN.md §12) hinges on a retry reusing the
# SAME request id: the id IS the mutation's idempotency token, and a retry
# loop that mints a fresh id per attempt silently reintroduces double-apply
# (the server dedups by (src, request_id), so a new id looks like a new
# mutation). MessageBus::Call owns minting and the retry loop. Outside
# src/net/ a request id may only be *echoed* (reply.request_id =
# env->request_id in the server) or *configured* (Options::first_request_id
# after recovery); any other assignment or increment is a finding.
REQUEST_ID_WRITE_RE = re.compile(r"(?<!first_)\brequest_id\s*=(?!=)\s*(.*)")
REQUEST_ID_BUMP_RE = re.compile(
    r"\w*request_id\w*\s*(\+\+|--|\+=|-=)|(\+\+|--)\s*\w*request_id")
REQUEST_ID_ALLOWED_DIR = "src/net"


def check_request_id_minting(rel, text, findings):
    if rel.as_posix().startswith(REQUEST_ID_ALLOWED_DIR + "/"):
        return
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        m = REQUEST_ID_WRITE_RE.search(line)
        if m and "request_id" not in m.group(1):
            findings.append(
                f"{rel}:{i}: mints a fresh request id outside src/net/ — "
                "the request id is the mutation's idempotency token and "
                "retries must reuse it; route calls through "
                "MessageBus::Call, which owns the retry loop")
            continue
        if REQUEST_ID_BUMP_RE.search(line):
            findings.append(
                f"{rel}:{i}: increments a request-id counter outside "
                "src/net/ — only MessageBus::Call mints idempotency "
                "tokens (see DESIGN.md §12)")


def check_determinism(rel, text, findings):
    rel_posix = rel.as_posix()
    if not any(rel_posix.startswith(d + "/") for d in DETERMINISM_DIRS):
        return
    raw_lines = text.splitlines()
    for i, line in enumerate(strip_comments(text).splitlines(), 1):
        if i <= len(raw_lines) and ALLOW_DETERMINISM_MARKER in raw_lines[i - 1]:
            continue
        for token_re, why in NONDET_TOKEN_RES:
            if token_re.search(line):
                findings.append(f"{rel}:{i}: nondeterminism: {why}")


def main(argv):
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    src = root / "src"
    if not src.is_dir():
        print(f"lint.py: no src/ directory under {root}", file=sys.stderr)
        return 2

    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        if path.suffix == ".h":
            check_include_guard(rel, lines, findings)
            check_header_hygiene(rel, lines, findings)
        check_raw_sync(rel, text, findings)
        check_adhoc_atomics(rel, text, findings)
        check_real_sleeps(rel, text, findings)
        check_determinism(rel, text, findings)
        check_request_id_minting(rel, text, findings)
        check_failpoint_containment(rel, text, findings)
        check_storage_write_streams(rel, text, findings)
    check_cmake_lists_all_sources(root, findings)
    check_failpoints_off_in_release(root, findings)

    if findings:
        print(f"lint.py: {len(findings)} finding(s):")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
