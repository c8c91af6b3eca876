#!/usr/bin/env python3
"""Blocking-call-under-lock audit; the `critical_section_audit` ctest.

PR 7 made the durable hot path fast precisely by moving every write/fsync
outside `wal.mu` and every page I/O outside the sharded cache locks.
Nothing enforced that invariant: one contributor re-introducing an
fsync-under-mutex silently erases the group-commit win. This tool makes
the no-blocking-under-lock contract machine-checked, in the same
pure-Python-over-the-tree style as status_audit.py (no LLVM, never
skips). The runtime half of the contract is the lock profiler
(common/lock_order.h, HERMES_LOCK_PROFILING): hold-time histograms in the
bench reports confirm what this tool proves statically.

Pass A — blocking calls under a lock (src/ only):
  * reconstructs critical sections per translation unit: RAII guards
    (MutexLock / ReaderMutexLock / WriterMutexLock / std::lock_guard /
    std::unique_lock / std::scoped_lock / std::shared_lock) held to the
    end of their enclosing block, explicit X.Lock()/X.LockShared() until
    the matching X.Unlock()/X.UnlockShared(), and REQUIRES /
    REQUIRES_SHARED function contracts held for the whole body;
  * flags, inside any critical section:
      - raw syscalls       ::write ::pread ::pwrite ::fsync ::fdatasync
                           ::open ::close ::ftruncate
      - stream I/O         std::cout/cerr/clog, std::{i,o,}fstream
      - std::filesystem::  operations
      - sleeps             sleep_for / sleep_until / usleep / nanosleep
      - blocking methods   declared in tools/blocking_calls.json, matched
                           by receiver type (variable declarations in the
                           file and its same-stem header), by explicit
                           Class::Method() qualification, by bare calls
                           inside the class's own methods, and — only
                           when the name is repo-wide unambiguous — by
                           untyped receivers
      - condvar waits      X.Wait(&m) / X.WaitUntil(&m, ...) / cv.wait(l)
                           are legal for the mutex they release but a
                           finding for every *other* held lock
                           (foreign-condvar: a wait parks the thread
                           while the foreign lock stays held).
      - condvar notifies   X.NotifyOne() / X.NotifyAll() while any lock
                           is held (notify-under-lock: the woken thread
                           runs only to block on the mutex its waker
                           still holds, a second thread switch per
                           wake). Publish the predicate under the lock,
                           notify after the guard's block closes.

Pass B — contract drift (src/ only): every function whose body directly
contains a blocking primitive, a condvar wait, or a call to a declared
blocking method/free function must itself be declared in
tools/blocking_calls.json ('blocking' or 'conditional'), so the call
list stays curated rather than regex-drifting. Constructors,
destructors, operators, and main() are exempt.

Suppression is explicit and audited: a Pass A finding is allowed only by
a marker on the offending line or in the comment block directly above
that line, above its statement's first line, or above the first line of
the innermost statement around it (a lambda body folded into its
enclosing statement, as an initializer or a call argument, holds
statements of its own)

    // audit:allow(blocking, <reason>)
    // audit:allow(notify, <reason>)      for notify-under-lock only

The reason is mandatory (an empty reason is itself a finding); marked
lines also do not count as Pass B evidence (a reasoned suppression says
the blocking is deliberate and contained). The tool counts markers per
kind in the --json summary so suppressions can be ratcheted down over
time.

Usage: tools/critical_section_audit.py [repo_root] [--json PATH]
       (exit 0 = zero unsuppressed findings, 1 = findings, 2 = bad tree
        or unreadable contract file)
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from status_audit import split_statements, strip_code  # noqa: E402

SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
CONTRACT_REL = Path("tools") / "blocking_calls.json"

MARKER_RE = re.compile(r"audit:allow\(\s*(\w+)\s*,?\s*([^)]*)\)")
MARKER_START_RE = re.compile(r"audit:allow\(\s*(\w+)\s*,?")

RAW_SYSCALL_RE = re.compile(
    r"(?<![\w:])::(write|pread|pwrite|fsync|fdatasync|open|close|"
    r"ftruncate)\s*\(")
STREAM_IO_RE = re.compile(r"\bstd::(cout|cerr|clog|ifstream|ofstream|fstream)\b")
FILESYSTEM_RE = re.compile(r"\bstd::filesystem::\w+")
SLEEP_RE = re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\(")

RAII_LOCK_RE = re.compile(
    r"^(?:hermes::)?"
    r"(?P<guard>MutexLock|ReaderMutexLock|WriterMutexLock|"
    r"std::lock_guard\s*<[^>]*>|std::scoped_lock(?:\s*<[^>]*>)?|"
    r"std::unique_lock\s*<[^>]*>|std::shared_lock\s*<[^>]*>)\s+"
    r"(?P<var>\w+)\s*\(\s*(?P<args>.*)\s*\)$",
    re.DOTALL)
EXPLICIT_LOCK_RE = re.compile(
    r"^(?P<expr>[\w.>\-\[\]]+?)(?:\.|->)(?P<m>Lock|LockShared|lock)\s*\(\s*\)$")
EXPLICIT_UNLOCK_RE = re.compile(
    r"^(?P<expr>[\w.>\-\[\]]+?)(?:\.|->)"
    r"(?P<m>Unlock|UnlockShared|unlock)\s*\(\s*\)$")
REQUIRES_RE = re.compile(r"\b(?:REQUIRES|REQUIRES_SHARED)\s*\(([^)]*)\)")

# A call, with or without explicit (non-nested) template arguments:
# `Call<NeighborsReply>(p, req)` is a call to `Call`.
CALL_RE = re.compile(r"(?P<prefix>(?:\w+\s*(?:\.|->|::)\s*)*)(?P<name>[\w~]+)"
                     r"\s*(?:<[^<>;{}()]*>\s*)?\(")
CPP_KEYWORDS = frozenset(
    "if while for switch return sizeof catch new delete throw "
    "static_assert alignof decltype typeid co_await co_return co_yield "
    "static_cast dynamic_cast reinterpret_cast const_cast assert "
    "defined".split())
WAIT_METHODS = frozenset(
    ("Wait", "WaitUntil", "WaitFor", "wait", "wait_until", "wait_for"))
NOTIFY_METHODS = frozenset(("NotifyOne", "NotifyAll"))
# Marker kinds this audit owns; status/guard belong to status_audit.py.
MARKER_KINDS = ("blocking", "notify")

TYPE_OPEN_RE = re.compile(r"^(?:template\s*<[^{]*>\s*)?(class|struct|union|enum)\b")


def norm_lock_expr(expr):
    """Normalizes a mutex expression for matching: strips &/*/whitespace/
    this->, unifies -> to '.'."""
    e = re.sub(r"\s+", "", expr)
    e = e.lstrip("&*")
    e = e.replace("->", ".")
    if e.startswith("this."):
        e = e[len("this."):]
    return e


def marker_reason(raw_lines, start_ln):
    """Extracts the reason of the audit:allow(<kind>, ...) marker that
    *starts* on 1-based `start_ln`, joining adjacent `//` continuation
    lines until the closing paren. Returns None for an unterminated
    marker (treated the same as a missing reason)."""
    m = MARKER_START_RE.search(raw_lines[start_ln - 1])
    rest = raw_lines[start_ln - 1][m.end():]
    parts = []
    ln = start_ln
    while True:
        if ")" in rest:
            parts.append(rest[: rest.index(")")])
            return " ".join(" ".join(parts).split())
        parts.append(rest)
        ln += 1
        if ln > len(raw_lines):
            return None
        nxt = raw_lines[ln - 1].strip()
        if not nxt.startswith("//"):
            return None
        rest = nxt[2:]


def marker_on(raw_lines, line_no, kind="blocking"):
    """Returns the reason string of an audit:allow(<kind>, ...) marker
    covering `line_no` — inline on the line itself, or in the comment
    block immediately above it (the reason may wrap across `//` lines) —
    else None."""
    if 1 <= line_no <= len(raw_lines):
        m = MARKER_START_RE.search(raw_lines[line_no - 1])
        if m and m.group(1) == kind:
            return marker_reason(raw_lines, line_no) or ""
    ln = line_no - 1
    while ln >= 1:
        stripped = raw_lines[ln - 1].strip()
        if not stripped.startswith("//"):
            break
        m = MARKER_START_RE.search(stripped)
        if m and m.group(1) == kind:
            return marker_reason(raw_lines, ln) or ""
        ln -= 1
    return None


def marked_at(raw_lines, anchors, kind="blocking"):
    """True when a marker of `kind` covers any of the 1-based `anchors`."""
    return any(marker_on(raw_lines, ln, kind) is not None
               for ln in dict.fromkeys(anchors))


def collect_markers(raw_lines, findings, rel, counts):
    """Counts this audit's markers per kind into `counts` and flags
    reason-less ones. Markers of other kinds (status/guard) belong to
    status_audit.py and are ignored."""
    for i, ln in enumerate(raw_lines, 1):
        for m in MARKER_START_RE.finditer(ln):
            kind = m.group(1)
            if kind not in MARKER_KINDS:
                continue
            counts[kind] += 1
            if not marker_reason(raw_lines, i):
                findings.append(
                    (rel, i, "marker",
                     f"audit:allow({kind}) without a reason — say why "
                     "holding the lock across this call is sound"))


def load_contract(root, findings):
    """Loads and validates tools/blocking_calls.json. Returns None on a
    hard error (missing/unparseable → exit 2)."""
    path = root / CONTRACT_REL
    if not path.is_file():
        print(f"critical_section_audit.py: missing contract file "
              f"{CONTRACT_REL}", file=sys.stderr)
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"critical_section_audit.py: cannot parse {CONTRACT_REL}: "
              f"{exc}", file=sys.stderr)
        return None
    contract = {
        "blocking": {}, "conditional": {}, "free_functions": set(),
        "exempt_files": set(),
    }
    for section in ("blocking", "conditional"):
        table = data.get(section, {})
        if not isinstance(table, dict):
            findings.append((CONTRACT_REL, 1, "contract",
                             f"'{section}' must be an object of "
                             "Class -> [methods]"))
            continue
        for cls, methods in table.items():
            if (not isinstance(methods, list)
                    or not all(isinstance(m, str) for m in methods)):
                findings.append((CONTRACT_REL, 1, "contract",
                                 f"'{section}.{cls}' must be a list of "
                                 "method names"))
                continue
            contract[section][cls] = set(methods)
    free = data.get("free_functions", [])
    if (not isinstance(free, list)
            or not all(isinstance(f, str) for f in free)):
        findings.append((CONTRACT_REL, 1, "contract",
                         "'free_functions' must be a list of names"))
    else:
        contract["free_functions"] = set(free)
    exempt = data.get("exempt_files", [])
    if (not isinstance(exempt, list)
            or not all(isinstance(f, str) for f in exempt)):
        findings.append((CONTRACT_REL, 1, "contract",
                         "'exempt_files' must be a list of paths"))
    else:
        contract["exempt_files"] = set(exempt)
    contract["classes"] = set(contract["blocking"]) | set(contract["conditional"])
    return contract


def type_scope_name(text):
    """Extracts the type name from a class/struct opener, skipping
    attribute macros (CAPABILITY(...), SCOPED_CAPABILITY, final)."""
    head = text
    for i, c in enumerate(text):
        if c == ":" and not (i + 1 < len(text) and text[i + 1] == ":") \
                and not (i > 0 and text[i - 1] == ":"):
            head = text[:i]
            break
    idents = re.findall(r"[A-Za-z_]\w*", head)
    skip = {"template", "typename", "class", "struct", "union", "enum",
            "final", "alignas", "CAPABILITY", "SCOPED_CAPABILITY", "mutex",
            "shared_mutex"}
    names = [w for w in idents if w not in skip]
    return names[-1] if names else None


def opener_function(text):
    """If a '{' opener introduces a function body, returns
    (qualifier_class_or_None, name); else None. Control-flow and lambda
    openers return None."""
    if "=" in text.split("(")[0]:
        return None  # `auto fn = [&]` and other initializers
    m = re.search(r"((?:\w+\s*::\s*)*)([\w~]+)\s*\(", text)
    if not m:
        return None
    name = m.group(2)
    if name in CPP_KEYWORDS or name in ("lambda",):
        return None
    quals = [q for q in re.findall(r"\w+", m.group(1))]
    cls = quals[-1] if quals else None
    return cls, name


def build_var_types(code, classes):
    """Maps variable names to contract class names from declarations in
    comment-stripped code: `FdAppender file_`, `WriteAheadLog* wal`,
    `std::unique_ptr<WriteAheadLog> wal_`, `Result<WriteAheadLog> wal`."""
    types = {}
    for cls in classes:
        pat = re.compile(
            r"\b" + re.escape(cls) +
            r"\b(?!\s*::)(?:\s*<[^<>]*>)?\s*(?:[*&>]\s*)*"
            r"\b(?!const\b|operator\b)(\w+)\b(?!\s*\()")
        for m in pat.finditer(code):
            types[m.group(1)] = cls
    return types


def balanced_args(text, open_idx):
    """Returns the argument substring for the '(' at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return text[open_idx + 1:]


def first_arg(args):
    """First top-level argument of a call, or ''. """
    depth = 0
    for i, c in enumerate(args):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        elif c == "," and depth == 0:
            return args[:i].strip()
    return args.strip()


class LockEntry:
    __slots__ = ("norm", "display", "var", "frame")

    def __init__(self, norm, display, var, frame):
        self.norm = norm
        self.display = display
        self.var = var      # RAII guard variable (unique_lock handoff)
        self.frame = frame  # frame index the hold belongs to


def held_display(held):
    return ", ".join(h.display for h in held)


class Auditor:
    def __init__(self, root, contract):
        self.root = root
        self.contract = contract
        self.findings = []
        self.suppressed = 0
        self.files_scanned = 0
        # (class_or_None, fn) -> list of (rel, line, what): Pass B input.
        self.evidence = {}
        # method name -> set of classes declaring it (repo-wide prescan).
        self.method_classes = {}
        # (class, method) -> REQUIRES expressions from the in-class
        # declaration, applied to out-of-line definitions whose opener
        # does not repeat the annotation.
        self.requires_map = {}
        self._cache = {}  # rel -> (raw_lines, code, stmts)

    # -- shared parsing ----------------------------------------------------

    def parsed(self, path):
        rel = path.relative_to(self.root)
        if rel not in self._cache:
            raw = path.read_text(encoding="utf-8")
            code = strip_code(raw)
            self._cache[rel] = (raw.splitlines(), code,
                               split_statements(code))
        return self._cache[rel]

    def src_files(self):
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                yield path

    # -- prescan: which classes declare each method name -------------------

    def prescan(self):
        for path in self.src_files():
            _, _, stmts = self.parsed(path)
            type_stack = []
            for st in stmts:
                if st.terminator == "{":
                    kind = self._opener_kind(st)
                    if kind == "type":
                        type_stack.append(type_scope_name(st.text))
                    else:
                        type_stack.append(None)
                    fn = opener_function(st.text)
                    if fn and fn[0]:
                        self.method_classes.setdefault(
                            fn[1], set()).add(fn[0])
                elif st.terminator == "}":
                    if type_stack:
                        type_stack.pop()
                elif st.terminator == ";":
                    cls = next((t for t in reversed(type_stack) if t), None)
                    if cls is None:
                        continue
                    m = re.search(r"([\w~]+)\s*\(", st.text)
                    if m and m.group(1) not in CPP_KEYWORDS:
                        self.method_classes.setdefault(
                            m.group(1), set()).add(cls)
                        reqs = REQUIRES_RE.findall(st.text)
                        if reqs:
                            self.requires_map.setdefault(
                                (cls, m.group(1)), []).extend(reqs)

    def _opener_kind(self, st):
        # classify_opener already ran inside split_statements; recompute
        # only the type/other distinction cheaply.
        return "type" if TYPE_OPEN_RE.match(st.text) else "other"

    def unambiguous_blocking(self, method):
        """True when every class known to declare `method` lists it as
        blocking in the contract — safe to flag on an untyped receiver."""
        declarers = self.method_classes.get(method, set())
        blocking = self.contract["blocking"]
        conditional = self.contract["conditional"]
        listed = {c for c in blocking if method in blocking[c]}
        if not listed:
            return False
        for c in declarers:
            if method in conditional.get(c, set()):
                return False  # conditional somewhere: receiver type matters
            if c not in listed:
                return False
        return True

    # -- Pass A + evidence walk --------------------------------------------

    def audit_file(self, path):
        rel = path.relative_to(self.root)
        if str(rel) in self.contract["exempt_files"]:
            return
        self.files_scanned += 1
        raw_lines, code, stmts = self.parsed(path)
        var_types = build_var_types(code, self.contract["classes"])
        header = path.with_suffix(".h")
        if path.suffix != ".h" and header.is_file():
            _, hcode, _ = self.parsed(header)
            for var, cls in build_var_types(
                    hcode, self.contract["classes"]).items():
                var_types.setdefault(var, cls)

        frames = []  # parallel to open scopes
        held = []    # LockEntry list

        for st in stmts:
            if st.terminator == "{":
                self.analyze(rel, raw_lines, st, held, frames, var_types)
                kind = self._opener_kind(st)
                frame = {"kind": kind, "type": None, "fn": None}
                if kind == "type":
                    frame["type"] = type_scope_name(st.text)
                else:
                    fn = opener_function(st.text)
                    if fn:
                        cls = fn[0] or self._enclosing_type(frames)
                        frame["fn"] = (cls, fn[1])
                frames.append(frame)
                requires = REQUIRES_RE.findall(st.text)
                if not requires and frame["fn"] and frame["fn"][0]:
                    requires = self.requires_map.get(frame["fn"], [])
                for exprs in requires:
                    for expr in exprs.split(","):
                        expr = expr.strip()
                        if expr:
                            held.append(LockEntry(
                                norm_lock_expr(expr), expr + " [REQUIRES]",
                                None, len(frames) - 1))
            elif st.terminator == "}":
                depth = len(frames) - 1
                held = [h for h in held if h.frame < depth]
                if frames:
                    frames.pop()
            else:
                text = st.text.strip()
                m = RAII_LOCK_RE.match(text)
                if m:
                    shared = "Reader" in m.group("guard") or \
                        "shared_lock" in m.group("guard")
                    for arg in self._split_args(m.group("args")):
                        expr = norm_lock_expr(arg)
                        if not expr:
                            continue
                        label = arg.strip() + (" [shared]" if shared else "")
                        held.append(LockEntry(expr, label, m.group("var"),
                                              len(frames) - 1))
                    continue
                m = EXPLICIT_LOCK_RE.match(text)
                if m:
                    expr = m.group("expr")
                    held.append(LockEntry(
                        norm_lock_expr(expr),
                        expr + ("" if m.group("m") != "LockShared"
                                else " [shared]"),
                        None, len(frames) - 1))
                    continue
                m = EXPLICIT_UNLOCK_RE.match(text)
                if m:
                    expr = norm_lock_expr(m.group("expr"))
                    for i in range(len(held) - 1, -1, -1):
                        if held[i].norm == expr:
                            del held[i]
                            break
                    continue
                self.analyze(rel, raw_lines, st, held, frames, var_types)

    def _enclosing_type(self, frames):
        for f in reversed(frames):
            if f["type"]:
                return f["type"]
        return None

    def _enclosing_fn(self, frames):
        for f in reversed(frames):
            if f["fn"]:
                return f["fn"]
        return None

    @staticmethod
    def _split_args(args):
        out, depth, cur = [], 0, []
        for c in args:
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth = max(0, depth - 1)
            if c == "," and depth == 0:
                out.append("".join(cur))
                cur = []
            else:
                cur.append(c)
        if cur:
            out.append("".join(cur))
        return out

    def report(self, rel, raw_lines, anchors, kind, message,
               marker="blocking"):
        # `anchors` (see analyze) starts with the finding's own line; a
        # marker on or above any anchor covers the finding, so the comment
        # block above a wrapped statement suppresses everything it does.
        if marked_at(raw_lines, anchors, marker):
            self.suppressed += 1
            return False
        self.findings.append((rel, anchors[0], kind, message))
        return True

    def note_evidence(self, frames, rel, line, what):
        fn = self._enclosing_fn(frames)
        if fn is None:
            return
        cls, name = fn
        if (name.startswith("~") or name.startswith("operator")
                or name == "main" or (cls is not None and name == cls)):
            return
        self.evidence.setdefault((cls, name), []).append((rel, line, what))

    def analyze(self, rel, raw_lines, st, held, frames, var_types):
        text = st.text
        if not text:
            return

        def line_of(pos):
            return st.line + text[:pos].count("\n")

        def anchors(pos):
            # The line at `pos`, the first line of the innermost statement
            # around it, and the first line of the whole statement. A
            # lambda body is folded into its enclosing statement (as an
            # initializer or a call argument), so its own statements start
            # after the last `;`, `{` or `}` before `pos`.
            start = max(text.rfind(c, 0, pos) for c in ";{}") + 1
            while start < pos and text[start].isspace():
                start += 1
            return (line_of(pos), line_of(start), st.line)

        # Blocking primitives.
        for pat, label in ((RAW_SYSCALL_RE, "raw syscall"),
                           (STREAM_IO_RE, "stream I/O"),
                           (FILESYSTEM_RE, "std::filesystem operation"),
                           (SLEEP_RE, "sleep")):
            for m in pat.finditer(text):
                line = line_of(m.start())
                at = anchors(m.start())
                marked = marked_at(raw_lines, at)
                if held:
                    self.report(
                        rel, raw_lines, at, "blocking-under-lock",
                        f"{label} `{m.group(0).strip().rstrip(chr(40)).strip()}` while holding "
                        f"{held_display(held)} — move the I/O outside the "
                        "critical section or mark "
                        "// audit:allow(blocking, <reason>)")
                if not marked:
                    self.note_evidence(frames, rel, line,
                                       f"{label} {m.group(0).strip().rstrip(chr(40)).strip()}")

        # Calls: condvar waits, contract methods, free functions.
        for m in CALL_RE.finditer(text):
            name = m.group("name")
            if name in CPP_KEYWORDS:
                continue
            prefix = re.sub(r"\s+", "", m.group("prefix"))
            line = line_of(m.start())
            at = anchors(m.start())
            marked = marked_at(raw_lines, at)
            args = balanced_args(text, m.end() - 1)

            if name in WAIT_METHODS and prefix.endswith((".", "->")):
                arg = first_arg(args)
                if arg:
                    # Condvar wait: releases the mutex it names.
                    released = norm_lock_expr(arg)
                    foreign = [h for h in held
                               if h.norm != released and h.var != arg]
                    own = [h for h in held
                           if h.norm == released or h.var == arg]
                    if foreign and own:
                        self.report(
                            rel, raw_lines, at, "foreign-condvar",
                            f"condvar wait releases `{arg}` but the thread "
                            f"also holds {held_display(foreign)} — those "
                            "locks stay held while this thread sleeps")
                    if not marked:
                        self.note_evidence(frames, rel, line,
                                           f"condvar wait ({name})")
                    continue
                # Fall through: no-arg Wait() is a submit-and-wait style
                # blocking method, matched below.

            if name in NOTIFY_METHODS and prefix.endswith((".", "->")):
                if held:
                    self.report(
                        rel, raw_lines, at, "notify-under-lock",
                        f"condvar {name} while holding "
                        f"{held_display(held)} — the woken thread blocks "
                        "on the lock its waker still holds; notify after "
                        "the guard's block closes or mark "
                        "// audit:allow(notify, <reason>)",
                        marker="notify")
                continue

            if name == "Lock" or name == "Unlock" or name == "lock" \
                    or name == "unlock":
                continue  # lock operations are tracked, not "blocking calls"

            matched = None  # "Class::method" or "free fn"
            if prefix.endswith("::"):
                cls = re.findall(r"\w+", prefix)[-1]
                if name in self.contract["blocking"].get(cls, set()):
                    matched = f"{cls}::{name}"
                elif name in self.contract["conditional"].get(cls, set()):
                    matched = "conditional"
            elif prefix.endswith((".", "->")):
                recv = re.findall(r"\w+", prefix)
                cls = var_types.get(recv[-1]) if recv else None
                if cls is not None:
                    if name in self.contract["blocking"].get(cls, set()):
                        matched = f"{cls}::{name}"
                    elif name in self.contract["conditional"].get(cls, set()):
                        matched = "conditional"
                elif self.unambiguous_blocking(name):
                    listed = sorted(
                        c for c in self.contract["blocking"]
                        if name in self.contract["blocking"][c])
                    matched = f"{listed[0]}::{name}"
            else:
                # Bare call: this class's own methods, then free functions.
                cur = self._enclosing_fn(frames)
                cls = cur[0] if cur else None
                if cls is not None and \
                        name in self.contract["blocking"].get(cls, set()):
                    matched = f"{cls}::{name}"
                elif cls is not None and \
                        name in self.contract["conditional"].get(cls, set()):
                    matched = "conditional"
                elif name in self.contract["free_functions"]:
                    matched = f"{name} (free function)"

            if matched is None or matched == "conditional":
                continue
            if held:
                self.report(
                    rel, raw_lines, at, "blocking-under-lock",
                    f"blocking call {matched} while holding "
                    f"{held_display(held)} — move it outside the critical "
                    "section or mark // audit:allow(blocking, <reason>)")
            if not marked:
                self.note_evidence(frames, rel, line, f"call to {matched}")

    # -- Pass B: contract drift --------------------------------------------

    def check_drift(self):
        blocking = self.contract["blocking"]
        conditional = self.contract["conditional"]
        free = self.contract["free_functions"]
        for (cls, name), sites in sorted(
                self.evidence.items(), key=lambda kv: str(kv[0])):
            if cls is None:
                if name in free:
                    continue
            else:
                if name in blocking.get(cls, set()) or \
                        name in conditional.get(cls, set()):
                    continue
            rel, line, what = sites[0]
            label = f"{cls}::{name}" if cls else f"{name} (free function)"
            self.findings.append(
                (rel, line, "contract-drift",
                 f"{label} performs blocking work ({what}) but is not "
                 f"declared in {CONTRACT_REL} — add it to the contract "
                 "(or to 'conditional' if it blocks only in an opt-in "
                 "mode)"))


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    json_path = None
    for i, a in enumerate(argv):
        if a == "--json" and i + 1 < len(argv):
            json_path = Path(argv[i + 1])
        elif a.startswith("--json="):
            json_path = Path(a.split("=", 1)[1])
    json_arg = {str(json_path)} if json_path else set()
    args = [a for a in args if a not in json_arg]
    root = Path(args[0]).resolve() if args else Path.cwd()
    if not (root / "src").is_dir():
        print(f"critical_section_audit.py: no src/ directory under {root}",
              file=sys.stderr)
        return 2

    findings = []
    contract = load_contract(root, findings)
    if contract is None:
        return 2

    auditor = Auditor(root, contract)
    auditor.findings = findings
    auditor.prescan()
    for path in auditor.src_files():
        auditor.audit_file(path)
    auditor.check_drift()

    marker_counts = {kind: 0 for kind in MARKER_KINDS}
    for path in auditor.src_files():
        rel = path.relative_to(root)
        raw_lines, _, _ = auditor.parsed(path)
        collect_markers(raw_lines, findings, rel, marker_counts)

    by_kind = {}
    for _, _, kind, _ in findings:
        by_kind[kind] = by_kind.get(kind, 0) + 1

    summary = {
        "schema": 1,
        "files_scanned": auditor.files_scanned,
        "contract": {
            "classes": sorted(contract["classes"]),
            "blocking_methods": sum(
                len(v) for v in contract["blocking"].values()),
            "conditional_methods": sum(
                len(v) for v in contract["conditional"].values()),
            "free_functions": sorted(contract["free_functions"]),
        },
        "findings_total": len(findings),
        "findings_by_kind": by_kind,
        "suppressions": {**marker_counts, "applied": auditor.suppressed},
        "findings": [
            {"file": str(rel), "line": line, "kind": kind, "message": msg}
            for rel, line, kind, msg in sorted(findings)
        ],
    }
    if json_path:
        json_path.write_text(json.dumps(summary, indent=2) + "\n",
                             encoding="utf-8")

    if findings:
        print(f"critical_section_audit.py: {len(findings)} finding(s):")
        for rel, line, kind, msg in sorted(findings):
            print(f"  {rel}:{line}: [{kind}] {msg}")
        print(f"summary: {json.dumps(by_kind)} "
              f"suppressions={json.dumps(marker_counts)}")
        return 1
    print(f"critical_section_audit.py: clean — {auditor.files_scanned} "
          f"files, {len(contract['classes'])} contract classes, "
          f"suppressions: blocking={marker_counts['blocking']} "
          f"notify={marker_counts['notify']} "
          f"(applied={auditor.suppressed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
