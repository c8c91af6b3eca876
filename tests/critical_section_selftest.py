#!/usr/bin/env python3
"""Self-test for tools/critical_section_audit.py; runs as the
`critical_section_selftest` ctest.

Builds throwaway fixture repos in a temp directory and asserts that both
audit passes flag known-bad trees, stay quiet on known-good ones, and
honor the audit:allow(blocking, ...) suppression contract:

  * Pass A must flag a declared-blocking method call (also one with
    explicit template arguments), a raw syscall, and a sleep inside a
    critical section — and accept the same work after an
    early Unlock(), outside any lock scope, or after the RAII guard's
    block closed.
  * REQUIRES(mu_) on a function (declaration or definition) makes the
    whole body a critical section, and a RAII guard inside a lambda body
    (also one with a trailing return type) opens one.
  * A condvar wait is legal for the mutex it releases but a
    foreign-condvar finding for every other held lock.
  * A condvar NotifyOne/NotifyAll inside any lock scope (RAII guard or
    REQUIRES body) is a notify-under-lock finding; the same notify after
    the guard's block closes or after an explicit Unlock() passes, and an
    audit:allow(notify, ...) marker suppresses it.
  * A reasoned marker suppresses exactly its finding and is counted in
    the --json summary (including a reason wrapped across `//` lines
    above a wrapped statement); a reason-less marker is itself a finding.
  * Pass B flags a function doing blocking work that the contract file
    does not declare, and a contract entry naming a method that no
    longer exists.

Usage: tests/critical_section_selftest.py [repo_root]  (exit 0 = all pass)
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path.cwd()
AUDIT = REPO_ROOT / "tools" / "critical_section_audit.py"

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


def contract(root, blocking=None, conditional=None, free_functions=None,
             exempt_files=None):
    write(root, "tools/blocking_calls.json", json.dumps({
        "schema": 1,
        "blocking": blocking or {},
        "conditional": conditional or {},
        "free_functions": free_functions or [],
        "exempt_files": exempt_files or [],
    }))


def check(name, condition, detail=""):
    if condition:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name}\n{detail}")
        FAILURES.append(name)


# A log class every fixture reuses: one declared-blocking method
# (Append), one mutex, one condvar.
LOG_CLASS = """\
class Log {
 public:
  [[nodiscard]] Status Stage(int x) EXCLUDES(mu_);
  [[nodiscard]] Status Flush() EXCLUDES(mu_);
 private:
  [[nodiscard]] Status CommitLocked() REQUIRES(mu_);
  mutable Mutex mu_;
  mutable Mutex side_mu_;
  CondVar cv_;
  FdAppender file_;
};
"""

CONTRACT_FD = {"FdAppender": ["Append", "Sync"]}


def case_clean_scope_passes():
    print("case: lock scope with staging only, I/O after release, passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  staged_ += x;  // pure memory work under the lock
  return Status::OK();
}
Status Log::Flush() {
  {
    MutexLock lock(&mu_);
    staged_ = 0;
  }
  return file_.Append(nullptr, 0);  // guard's block closed: off-lock
}
""")
        code, out = run_audit(root)
        check("clean scope exits 0", code == 0, out)


def case_blocking_call_under_lock_is_flagged():
    print("case: declared-blocking call under a RAII guard is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("blocking-under-lock exits 1", code == 1, out)
        check("finding names the call and the lock",
              "FdAppender::Append" in out and "mu_" in out, out)


def case_template_call_under_lock_is_flagged():
    print("case: a call with explicit template arguments is a call")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Flush", "Call"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  return Call<Reply>(0, Request{}).status();
}
""")
        code, out = run_audit(root)
        check("template call under lock exits 1", code == 1, out)
        check("finding names the templated call",
              "Log::Call" in out and "mu_" in out, out)


def case_primitives_under_lock_are_flagged():
    print("case: raw syscall and sleep under a lock are flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Flush", "Nap"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  ::fsync(fd_);
  return Status::OK();
}
Status Log::Nap() {
  MutexLock lock(&mu_);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Status::OK();
}
""")
        code, out = run_audit(root)
        check("primitives exit 1", code == 1, out)
        check("raw syscall flagged", "raw syscall" in out, out)
        check("sleep flagged", "sleep" in out, out)


def case_early_unlock_then_io_passes():
    print("case: explicit Unlock() before the I/O passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  mu_.Lock();
  staged_ = 0;
  mu_.Unlock();
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("early unlock exits 0", code == 0, out)


def case_requires_body_is_a_lock_scope():
    print("case: REQUIRES(mu_) on the declaration makes the body a scope")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["CommitLocked"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        # The out-of-line body carries no REQUIRES of its own: the scope
        # must come from the in-class declaration.
        write(root, "src/storage/log.cc", """\
Status Log::CommitLocked() {
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("REQUIRES body exits 1", code == 1, out)
        check("finding shows the REQUIRES hold",
              "[REQUIRES]" in out, out)


def case_condvar_waits():
    print("case: own-condvar wait passes, foreign-condvar wait is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Stage", "Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  while (busy_) cv_.Wait(&mu_);  // releases the only held lock: legal
  return Status::OK();
}
Status Log::Flush() {
  MutexLock side(&side_mu_);
  MutexLock lock(&mu_);
  while (busy_) cv_.Wait(&mu_);  // parks while side_mu_ stays held
  return Status::OK();
}
""")
        code, out = run_audit(root)
        check("foreign condvar exits 1", code == 1, out)
        check("only the foreign hold is flagged",
              "side_mu_" in out and out.count("[foreign-condvar]") == 1, out)


def case_notify_under_lock_is_flagged():
    print("case: notify inside a lock scope is flagged")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  staged_ += x;
  cv_.NotifyOne();  // the woken waiter blocks on mu_ at once
  return Status::OK();
}
Status Log::CommitLocked() {
  staged_ = 0;
  cv_.NotifyAll();  // REQUIRES(mu_): the whole body holds the lock
  return Status::OK();
}
""")
        code, out = run_audit(root)
        check("notify under lock exits 1", code == 1, out)
        check("both notifies flagged with the held lock",
              out.count("[notify-under-lock]") == 2 and "NotifyOne" in out
              and "NotifyAll" in out and "[REQUIRES]" in out, out)


def case_notify_after_unlock_passes():
    print("case: notify after the guard's block or an Unlock() passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  {
    MutexLock lock(&mu_);
    staged_ += x;
  }
  cv_.NotifyOne();
  return Status::OK();
}
Status Log::Publish() {
  mu_.Lock();
  staged_ = 0;
  mu_.Unlock();
  cv_.NotifyAll();
  return Status::OK();
}
""")
        code, out = run_audit(root)
        check("notify after unlock exits 0", code == 0, out)


def case_notify_marker_suppresses():
    print("case: a reasoned notify marker suppresses and is counted")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={"Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  staged_ += x;
  // audit:allow(notify, the waiter may destroy this object once it sees
  // the predicate, so the notify must precede the unlock)
  cv_.NotifyAll();
  return Status::OK();
}
Status Log::Publish() {
  MutexLock lock(&mu_);
  // audit:allow(notify)
  cv_.NotifyAll();
  return Status::OK();
}
""")
        json_path = root / "audit.json"
        code, out = run_audit(root, json_path)
        summary = json.loads(json_path.read_text())
        check("only the reason-less marker remains a finding",
              code == 1 and summary["findings_by_kind"] == {"marker": 1},
              summary)
        check("both notify markers counted and applied",
              summary["suppressions"]["notify"] == 2
              and summary["suppressions"]["blocking"] == 0
              and summary["suppressions"]["applied"] == 2, summary)


def case_markers_suppress_and_are_counted():
    print("case: reasoned markers suppress and are counted in --json")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush", "Stage"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  // audit:allow(blocking, single-line reason: close-time flush)
  return file_.Append(nullptr, 0);
}
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  // audit:allow(blocking, a reason wrapped across comment lines must
  // still suppress the wrapped statement below)
  HERMES_RETURN_NOT_OK(
      file_.Append(nullptr, 0));
  return Status::OK();
}
""")
        json_path = root / "audit.json"
        code, out = run_audit(root, json_path)
        check("suppressed tree exits 0", code == 0, out)
        summary = json.loads(json_path.read_text())
        check("both markers counted",
              summary["suppressions"]["blocking"] == 2, summary)
        check("both markers applied",
              summary["suppressions"]["applied"] == 2, summary)


def case_marker_in_lambda_body_applies():
    print("case: a marker above a wrapped statement in a lambda body applies")
    # Lambda bodies, as an initializer and as a call argument, are folded
    # into their enclosing statement; their own statements still take a
    # marker above their first line, as in a plain loop body.
    lambdas = """\
Status Log::Stage(int x) {
  MutexLock lock(&mu_);
  const Status st = [&]() -> Status {
    for (int i = 0; i < x; ++i) {
%(marker)s      HERMES_RETURN_NOT_OK(
          file_.Append(nullptr, 0));
    }
    return Status::OK();
  }();
  HERMES_RETURN_NOT_OK(st);
  return RunEach(x, [&](int i) {
%(marker)s    HERMES_RETURN_NOT_OK(
        file_.Append(nullptr, i));
    return Status::OK();
  });
}
"""
    marker = """\
    // audit:allow(blocking, the same marker and statement as in the
    // plain loop body)
"""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush", "Stage"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  for (int i = 0; i < 2; ++i) {
    // audit:allow(blocking, a plain loop body: the marker covers the
    // statement's wrapped call)
    HERMES_RETURN_NOT_OK(
        file_.Append(nullptr, 0));
  }
  return Status::OK();
}
""" + lambdas % {"marker": marker})
        json_path = root / "audit.json"
        code, out = run_audit(root, json_path)
        check("marked lambda bodies exit 0", code == 0, out)
        summary = json.loads(json_path.read_text())
        check("loop and both lambda markers applied",
              summary["suppressions"]["applied"] == 3, summary)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Stage"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", lambdas % {"marker": ""})
        code, out = run_audit(root)
        check("unmarked calls in lambda bodies are still flagged",
              code == 1 and "log.cc:6:" in out and "log.cc:13:" in out, out)


def case_trailing_return_lambda_lock_is_seen():
    print("case: a guard inside a trailing-return lambda body is a lock scope")
    # `[&]() -> Status {` opens a block, so the guard inside it is seen
    # and the blocking call under it is flagged, exactly as in the same
    # body written `[&]() {`.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Stage"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Stage(int x) {
  const Status st = [&]() -> Status {
    MutexLock lock(&mu_);
    return file_.Append(nullptr, x);
  }();
  return st;
}
""")
        code, out = run_audit(root)
        check("blocking call in a trailing-return lambda exits 1",
              code == 1, out)
        check("finding names the call and the lambda's lock",
              "log.cc:4:" in out and "FdAppender::Append" in out
              and "mu_" in out, out)


def case_reasonless_marker_is_a_finding():
    print("case: a reason-less marker is itself a finding")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking={**CONTRACT_FD, "Log": ["Flush"]})
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  // audit:allow(blocking)
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("reasonless marker exits 1", code == 1, out)
        check("marker finding emitted", "without a reason" in out, out)


def case_contract_drift_is_flagged():
    print("case: undeclared blocking work and stale entries are drift")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # Trip both directions: Flush() does blocking work but is not
        # declared, and the contract names a method nobody defines.
        contract(root, blocking=CONTRACT_FD)
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("drift exits 1", code == 1, out)
        check("drift names the undeclared function",
              "contract-drift" in out and "Log::Flush" in out, out)


def case_exempt_files_are_skipped():
    print("case: exempt_files are not audited")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contract(root, blocking=CONTRACT_FD,
                 exempt_files=["src/storage/log.cc"])
        write(root, "src/storage/log.h", LOG_CLASS)
        write(root, "src/storage/log.cc", """\
Status Log::Flush() {
  MutexLock lock(&mu_);
  return file_.Append(nullptr, 0);
}
""")
        code, out = run_audit(root)
        check("exempt file exits 0", code == 0, out)


def case_repo_itself_is_clean():
    print("case: this repository audits clean")
    json_path = Path(tempfile.mkdtemp()) / "audit.json"
    code, out = run_audit(REPO_ROOT, json_path)
    check("repo exits 0", code == 0, out)
    summary = json.loads(json_path.read_text())
    check("repo has zero unsuppressed findings",
          summary["findings_total"] == 0, summary)
    suppressions = summary["suppressions"]
    check("every repo suppression is reasoned and applied",
          suppressions["blocking"] > 0 and suppressions["applied"]
          == suppressions["blocking"] + suppressions["notify"], summary)


def main():
    for case in (case_clean_scope_passes,
                 case_blocking_call_under_lock_is_flagged,
                 case_template_call_under_lock_is_flagged,
                 case_primitives_under_lock_are_flagged,
                 case_early_unlock_then_io_passes,
                 case_requires_body_is_a_lock_scope,
                 case_condvar_waits,
                 case_notify_under_lock_is_flagged,
                 case_notify_after_unlock_passes,
                 case_notify_marker_suppresses,
                 case_markers_suppress_and_are_counted,
                 case_marker_in_lambda_body_applies,
                 case_trailing_return_lambda_lock_is_seen,
                 case_reasonless_marker_is_a_finding,
                 case_contract_drift_is_flagged,
                 case_exempt_files_are_skipped,
                 case_repo_itself_is_clean):
        case()
    if FAILURES:
        print(f"critical_section_selftest: {len(FAILURES)} failure(s): "
              f"{', '.join(FAILURES)}")
        return 1
    print("critical_section_selftest: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
