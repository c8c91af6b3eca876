#!/usr/bin/env python3
"""Self-test for tools/status_audit.py; runs as the `status_audit_selftest`
ctest.

Builds throwaway fixture repos in a temp directory and asserts that both
audit passes flag known-bad trees, stay quiet on known-good ones, and
honor the audit:allow suppression contract:

  * Pass A must flag a statement-level discarded Status call (also
    inside a lambda body with a trailing return type), an
    assigned-but-only-formatted status (the logged-and-ignored pattern),
    a bare (void) cast, and a Status-returning declaration without
    [[nodiscard]] — and accept a call site that branches on the status.
  * Pass B must flag an unannotated mutable field and an unannotated
    public method of a Mutex-owning class, and accept GUARDED_BY /
    EXCLUDES coverage.
  * A reasoned audit:allow(status|guard, ...) marker suppresses exactly
    its finding and is counted in the summary; a reason-less marker is
    itself a finding.

Usage: tests/status_audit_selftest.py [repo_root]  (exit 0 = all pass)
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path.cwd()
AUDIT = REPO_ROOT / "tools" / "status_audit.py"

FAILURES = []


def run_audit(root, json_path=None):
    cmd = [sys.executable, str(AUDIT), str(root)]
    if json_path:
        cmd += ["--json", str(json_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def check(name, condition, detail=""):
    if condition:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name}\n{detail}")
        FAILURES.append(name)


# One indexed [[nodiscard]] Status function every fixture calls.
API_HEADER = """\
#ifndef FIXTURE_API_H_
#define FIXTURE_API_H_
[[nodiscard]] Status Flush();
#endif  // FIXTURE_API_H_
"""


def case_clean_tree_passes():
    print("case: disciplined tree passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", """\
void Checked() {
  Status st = Flush();
  if (!st.ok()) return;
}
[[nodiscard]] Status Propagated() { return Flush(); }
""")
        code, out = run_audit(root)
        check("clean tree exits 0", code == 0, out)


def case_discarded_return_is_flagged():
    print("case: statement-level discard is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", "void F() {\n  Flush();\n}\n")
        code, out = run_audit(root)
        check("discard exits 1", code == 1, out)
        check("finding is kind [discard]", "[discard]" in out, out)
        check("finding names Flush", "Flush()" in out, out)


def case_trailing_return_lambda_body_is_audited():
    print("case: a lambda body with a trailing return type is audited")
    # `[&]() -> Status {` opens a block like `[&]() {` does: the discard
    # inside it is a statement of its own, not part of the initializer.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", """\
void F() {
  const Status st = [&]() -> Status {
    Flush();
    return Status::OK();
  }();
  if (!st.ok()) return;
}
""")
        code, out = run_audit(root)
        check("discard in a trailing-return lambda exits 1", code == 1, out)
        check("finding points into the lambda body",
              "use.cc:3:" in out and "[discard]" in out, out)


def case_swallowed_assignment_is_flagged():
    print("case: assigned-but-only-formatted status is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", """\
void F() {
  Status st = Flush();
  Log(st.ToString());
}
""")
        code, out = run_audit(root)
        check("swallow exits 1", code == 1, out)
        check("finding is kind [swallow]", "[swallow]" in out, out)
        check("finding calls out the logged-and-ignored pattern",
              "only formatted" in out, out)


def case_bare_void_cast_is_flagged():
    print("case: bare (void) cast is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", "void F() {\n  (void)Flush();\n}\n")
        code, out = run_audit(root)
        check("void cast exits 1", code == 1, out)
        check("finding is kind [void-cast]", "[void-cast]" in out, out)


def case_missing_nodiscard_is_flagged():
    print("case: Status declaration without [[nodiscard]] is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", """\
#ifndef FIXTURE_API_H_
#define FIXTURE_API_H_
Status Sync();
#endif  // FIXTURE_API_H_
""")
        code, out = run_audit(root)
        check("missing nodiscard exits 1", code == 1, out)
        check("finding is kind [nodiscard]", "[nodiscard]" in out, out)
        check("finding names Sync", "Sync()" in out, out)


def case_annotation_coverage_is_enforced():
    print("case: unguarded field and unannotated public method are flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/cache.h", """\
#ifndef FIXTURE_CACHE_H_
#define FIXTURE_CACHE_H_
class Cache {
 public:
  void Put(int k) EXCLUDES(mu_);
  int Peek() const;
 private:
  Mutex mu_;
  int hits_ GUARDED_BY(mu_) = 0;
  int entries_ = 0;
};
#endif  // FIXTURE_CACHE_H_
""")
        code, out = run_audit(root)
        check("coverage gaps exit 1", code == 1, out)
        check("unguarded field flagged",
              "[unguarded-field]" in out and "entries_" in out, out)
        check("unannotated public method flagged",
              "[unannotated-method]" in out and "Peek()" in out, out)
        check("annotated members stay quiet",
              "hits_" not in out and "Put()" not in out, out)


def case_markers_suppress_and_are_counted():
    print("case: reasoned audit:allow markers suppress and are counted")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", """\
void F() {
  // audit:allow(status, fixture exercises the suppression contract)
  Flush();
}
""")
        write(root, "src/common/cache.h", """\
#ifndef FIXTURE_CACHE_H_
#define FIXTURE_CACHE_H_
class Cache {
 private:
  Mutex mu_;
  // audit:allow(guard, fixture exercises the suppression contract)
  int entries_ = 0;
};
#endif  // FIXTURE_CACHE_H_
""")
        json_path = root / "audit.json"
        code, out = run_audit(root, json_path)
        check("suppressed tree exits 0", code == 0, out)
        summary = json.loads(json_path.read_text())
        check("summary counts the status marker",
              summary["suppressions"]["status"] == 1, json.dumps(summary))
        check("summary counts the guard marker",
              summary["suppressions"]["guard"] == 1, json.dumps(summary))
        check("summary reports zero findings",
              summary["findings_total"] == 0, json.dumps(summary))


def case_reasonless_marker_is_a_finding():
    print("case: audit:allow without a reason is itself a finding")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/common/api.h", API_HEADER)
        write(root, "src/common/use.cc", """\
void F() {
  // audit:allow(status)
  Flush();
}
""")
        code, out = run_audit(root)
        check("reason-less marker exits 1", code == 1, out)
        check("finding is kind [marker]", "[marker]" in out, out)
        check("finding demands a reason", "without a reason" in out, out)


def case_ambiguous_names_are_skipped():
    print("case: names with a non-status overload are not call-site checked")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # Append returns Status on one class and void on another; textual
        # call-site matching cannot tell receivers apart, so the gate must
        # stay quiet rather than cry wolf.
        write(root, "src/common/api.h", """\
#ifndef FIXTURE_API_H_
#define FIXTURE_API_H_
[[nodiscard]] Status Append(int x);
void Append(double y);
#endif  // FIXTURE_API_H_
""")
        write(root, "src/common/use.cc", "void F() {\n  Append(1.0);\n}\n")
        json_path = root / "audit.json"
        code, out = run_audit(root, json_path)
        check("ambiguous call site exits 0", code == 0, out)
        summary = json.loads(json_path.read_text())
        check("summary lists the skipped name",
              summary["ambiguous_names_skipped"] == ["Append"],
              json.dumps(summary))


def case_repo_itself_is_clean():
    print("case: the repo itself audits clean")
    code, out = run_audit(REPO_ROOT)
    check("repo exits 0", code == 0, out)


def main():
    for case in (case_clean_tree_passes,
                 case_discarded_return_is_flagged,
                 case_trailing_return_lambda_body_is_audited,
                 case_swallowed_assignment_is_flagged,
                 case_bare_void_cast_is_flagged,
                 case_missing_nodiscard_is_flagged,
                 case_annotation_coverage_is_enforced,
                 case_markers_suppress_and_are_counted,
                 case_reasonless_marker_is_a_finding,
                 case_ambiguous_names_are_skipped,
                 case_repo_itself_is_clean):
        case()
    if FAILURES:
        print(f"status_audit_selftest: {len(FAILURES)} case(s) FAILED: "
              f"{FAILURES}")
        return 1
    print("status_audit_selftest: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
