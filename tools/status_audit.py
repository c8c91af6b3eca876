#!/usr/bin/env python3
"""Error-propagation and annotation-coverage audit; the `status_audit` ctest.

Hermes never throws: every fallible operation returns Status or Result<T>
(src/common/status.h). PR 5's retryable-Unavailable contract — and the
message-passing cluster runtime behind it — only works if every one of
those returns is actually consumed and propagated. The compile-time gates
added so far (-Wthread-safety, lock-order ranks, the layering DAG) are
opt-in: a swallowed Status or an unannotated shared field simply compiles.
This tool closes the coverage gap with two whole-repo passes, in the same
pure-Python-over-the-tree style as lint.py / layering_check.py (no LLVM
needed, never skips).

Pass A — status discipline:
  * indexes every function returning Status / Result<T> across src/
    (declarations and file-local definitions),
  * requires [[nodiscard]] on each declaration that introduces such a
    function (out-of-line member definitions inherit it from the header
    and are exempt),
  * flags call sites — across src/, tests/, bench/, and examples/ —
    where the returned status is
      - discarded at statement level:       store.Flush();
      - swallowed: assigned but never branched on, propagated, or passed
        on (uses that only format it, .ToString()/.message(), do not
        count — that is the logged-and-ignored pattern),
      - suppressed with a bare cast:        (void)store.Flush();

Pass B — annotation coverage (src/ only): for every class owning an
annotated Mutex/SharedMutex (common/thread_annotations.h),
  * every mutable data member must carry GUARDED_BY / PT_GUARDED_BY
    (const members, the lock members themselves, CondVar, and pointers to
    the self-synchronized metrics types are exempt), and
  * every public non-static method must carry a lock annotation
    (EXCLUDES / REQUIRES / ACQUIRE / ... / NO_THREAD_SAFETY_ANALYSIS),
so -Wthread-safety can no longer be dodged by omission.

Suppression is explicit and audited: a finding is allowed only by a
marker comment on the offending line (or the line above)

    // audit:allow(status, <reason>)   for Pass A findings
    // audit:allow(guard, <reason>)    for Pass B findings

The reason is mandatory (an empty reason is itself a finding); the tool
counts markers and reports them in the summary so the suppression count
can be ratcheted down over time.

Usage: tools/status_audit.py [repo_root] [--json PATH]
       (exit 0 = zero unsuppressed findings, 1 = findings, 2 = bad tree)
"""

import json
import re
import sys
from pathlib import Path

# Directories whose call sites are held to the discipline. The function
# index itself is built from src/ only (the shipped library).
CALLSITE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

MARKER_RE = re.compile(r"audit:allow\(\s*(status|guard)\s*,?\s*([^)]*)\)")

# Function introducers returning Status / Result<T>. The return type and
# the name may be split across lines; template arguments may nest but
# never contain parens/braces in this codebase.
FN_RE = re.compile(
    r"(?:^|\n)[ \t]*"
    r"(?P<pre>(?:(?:\[\[nodiscard\]\]|virtual|static|inline|constexpr|"
    r"explicit|friend)[ \t\n]+)*)"
    r"(?P<ret>(?:::)?(?:hermes[ \t]*::[ \t]*)?"
    r"(?:Status|Result[ \t]*<[^;{}()]*>))[ \t\n]+"
    r"(?P<qual>(?:\w+[ \t]*::[ \t]*)*)(?P<name>\w+)[ \t]*\(")

# Any other return type in front of the same name makes the name
# ambiguous for receiver-less textual matching; such names are dropped
# from call-site checking (conservative: the gate must not cry wolf).
OTHER_FN_RE = re.compile(
    r"(?:^|\n)[ \t]*"
    r"(?:(?:\[\[nodiscard\]\]|virtual|static|inline|constexpr|explicit|"
    r"friend)[ \t\n]+)*"
    r"(?P<ret>(?:void|bool|int|float|double|auto|std::\w+|[A-Z]\w*)"
    r"(?:[ \t]*<[^;{}()]*>)?(?:[ \t]*[*&])*)[ \t\n]+"
    r"(?P<name>\w+)[ \t]*\(")

STATUS_RET_RE = re.compile(r"^(?:::)?(?:hermes\s*::\s*)?(?:Status|Result\b)")

# Keywords that disqualify a statement prefix from being a plain
# discarded call expression.
PREFIX_KEYWORDS_RE = re.compile(
    r"\b(return|co_return|co_await|if|while|for|switch|case|throw|goto|"
    r"delete|new|else|do|sizeof|using|typedef|static_assert|operator)\b")

DECL_STMT_RE = re.compile(
    r"^(?:const[ \t]+)?"
    r"(?P<type>auto|(?:::)?(?:hermes\s*::\s*)?(?:Status|Result\s*<.*>))"
    r"\s*&{0,2}\s+(?P<name>\w+)\s*(?:=\s*(?P<rhs>.*))?$",
    re.DOTALL)

TYPE_OPEN_RE = re.compile(
    r"^(?:template\s*<[^{]*>\s*)?(class|struct|union|enum)\b")
NAMESPACE_OPEN_RE = re.compile(r"^(?:inline\s+)?namespace\b")
# A lambda or function head with a trailing return type, as in
# `[&]() -> Status` or `auto F() const -> Result<int>`.
TRAILING_RETURN_RE = re.compile(
    r"\)\s*(?:(?:mutable|noexcept|const)\s*)*->\s*[\w:][\w:<>,*&\s]*$")

LOCK_ANNOTATIONS_RE = re.compile(
    r"\b(EXCLUDES|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE|"
    r"RELEASE_SHARED|TRY_ACQUIRE|ASSERT_CAPABILITY|RETURN_CAPABILITY|"
    r"NO_THREAD_SAFETY_ANALYSIS)\b")
GUARD_ANNOTATION_RE = re.compile(r"\b(GUARDED_BY|PT_GUARDED_BY)\s*\(")
MUTEX_MEMBER_RE = re.compile(
    r"^(?:mutable\s+)?(?:hermes::)?(Mutex|SharedMutex)\s+(\w+)\b")

# Types that synchronize internally; a pointer to one needs no
# PT_GUARDED_BY (the pointer itself must still be effectively const —
# set during construction/Open, before the object is shared).
SELF_SYNC_TYPES = {
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "CondVar",
    "Mutex", "SharedMutex", "ThreadPool", "FailpointRegistry",
    "TransactionManager",  # atomic id counter + internally-locked table
}

MEMBER_SKIP_RE = re.compile(
    r"^(using|typedef|friend|static|constexpr|static_assert|enum|class|"
    r"struct|union|template|public|private|protected|operator)\b")


def strip_code(text):
    """Blanks comments, string/char literals, and preprocessor lines,
    preserving length and line structure so offsets keep their line
    numbers. Attributes like [[nodiscard]] survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | pp
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            if c == "#" and (i == 0 or text[i - 1] == "\n" or
                             text[:i].rsplit("\n", 1)[-1].strip() == ""):
                state = "pp"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
            i += 1
        elif state == "pp":
            if c == "\n":
                # Continuation lines stay part of the directive.
                prev = text[i - 1] if i > 0 else ""
                if prev != "\\":
                    state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
    return "".join(out)


class Stmt:
    __slots__ = ("line", "text", "terminator", "scope_path")

    def __init__(self, line, text, terminator, scope_path):
        self.line = line
        self.text = text
        self.terminator = terminator  # ';' '{' or '}'
        self.scope_path = scope_path  # tuple of scope kinds, innermost last


BLOCK_TAIL_KEYWORDS = ("else", "do", "try", "const", "noexcept", "override",
                       "final")


def split_statements(code):
    """Splits comment-stripped code into statements with scope tracking.

    Scopes are classified as 'namespace', 'type' (class/struct/enum), or
    'block' (function bodies and control-flow blocks). Brace initializers
    (`Mutex mu_{...}`) are folded into their statement rather than opening
    a scope: a '{' only opens a block when the pending text is empty,
    ends with ')'/']', ends with a block-tail keyword, or introduces a
    type/namespace."""
    stmts = []
    scope_stack = []  # list of kinds
    cur = []
    start_line = None
    line = 1
    paren = 0
    init_brace = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
            cur.append(c)
            i += 1
            continue
        if start_line is None and not c.isspace():
            start_line = line
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        if paren > 0 or init_brace > 0:
            if c == "{":
                init_brace += 1
            elif c == "}":
                init_brace = max(0, init_brace - 1)
            cur.append(c)
            i += 1
            continue
        if c == ";":
            text = "".join(cur).strip()
            if text:
                stmts.append(Stmt(start_line or line, text, ";",
                                  tuple(scope_stack)))
            cur = []
            start_line = None
        elif c == "{":
            text = "".join(cur).strip()
            kind = classify_opener(text)
            if kind is None:
                init_brace += 1
                cur.append(c)
                i += 1
                continue
            stmts.append(Stmt(start_line or line, text, "{",
                              tuple(scope_stack)))
            scope_stack.append(kind)
            cur = []
            start_line = None
        elif c == "}":
            text = "".join(cur).strip()
            if text:
                stmts.append(Stmt(start_line or line, text, ";",
                                  tuple(scope_stack)))
            if scope_stack:
                scope_stack.pop()
            stmts.append(Stmt(line, "", "}", tuple(scope_stack)))
            cur = []
            start_line = None
        else:
            cur.append(c)
        i += 1
    return stmts


def classify_opener(text):
    """Returns the scope kind a '{' opens after `text`, or None when the
    brace is an initializer that belongs to the pending statement."""
    if NAMESPACE_OPEN_RE.match(text):
        return "namespace"
    if TYPE_OPEN_RE.match(text) and "=" not in text:
        return "type"
    if text == "" or text.endswith(")") or text.endswith("]"):
        return "block"
    if text.endswith(":") and not text.endswith("::"):
        return "block"  # case/default/goto label or access specifier
    last_word = re.search(r"(\w+)\s*$", text)
    if last_word and last_word.group(1) in BLOCK_TAIL_KEYWORDS:
        return "block"
    if text.endswith("->") or text.endswith(">"):  # trailing return type
        return "block"
    if TRAILING_RETURN_RE.search(text):
        return "block"
    return None


def line_has_marker(raw_lines, line_no, kind):
    """True when `line_no` (1-based) or the line above carries an
    audit:allow marker of `kind`."""
    for ln in (line_no, line_no - 1):
        if 1 <= ln <= len(raw_lines):
            m = MARKER_RE.search(raw_lines[ln - 1])
            if m and m.group(1) == kind:
                return True
    return False


def collect_markers(raw_lines, findings, rel):
    """Counts markers and flags reason-less ones."""
    counts = {"status": 0, "guard": 0}
    for i, ln in enumerate(raw_lines, 1):
        for m in MARKER_RE.finditer(ln):
            kind, reason = m.group(1), m.group(2).strip()
            counts[kind] += 1
            if not reason:
                findings.append(
                    (rel, i, "marker",
                     f"audit:allow({kind}) without a reason — say why the "
                     "suppression is sound"))
    return counts


# --------------------------------------------------------------------------
# Pass A: status discipline
# --------------------------------------------------------------------------

def index_status_functions(root, findings):
    """Indexes Status/Result-returning functions across src/ and enforces
    [[nodiscard]] on every introducing declaration. Returns the set of
    names usable for call-site checks (ambiguous names removed)."""
    status_names = set()
    other_names = set()
    indexed = 0
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(root)
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code = strip_code(raw)
        for m in FN_RE.finditer(code):
            name = m.group("name")
            line_no = code.count("\n", 0, m.start()) + 1
            # The match may begin at the newline before the declaration.
            decl_line = line_no + (1 if code[m.start()] == "\n" else 0)
            status_names.add(name)
            indexed += 1
            if "[[nodiscard]]" in m.group("pre"):
                continue
            if m.group("qual"):
                continue  # out-of-line member def; header decl carries it
            if line_has_marker(raw_lines, decl_line, "status"):
                continue
            findings.append(
                (rel, decl_line, "nodiscard",
                 f"{name}() returns {m.group('ret').split('<')[0].strip()} "
                 "but is not [[nodiscard]] — errors must not be silently "
                 "droppable"))
        for m in OTHER_FN_RE.finditer(code):
            if not STATUS_RET_RE.match(m.group("ret")):
                other_names.add(m.group("name"))
    ambiguous = status_names & other_names
    return status_names - ambiguous, indexed, sorted(ambiguous)


def outermost_call(stmt_text):
    """If `stmt_text` ends with a call, returns (callee, prefix) where
    prefix is everything before the callee identifier; else None."""
    s = stmt_text.rstrip()
    if not s.endswith(")"):
        return None
    depth = 0
    i = len(s) - 1
    while i >= 0:
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i <= 0:
        return None
    j = i - 1
    while j >= 0 and s[j].isspace():
        j -= 1
    k = j
    while k >= 0 and (s[k].isalnum() or s[k] == "_"):
        k -= 1
    name = s[k + 1:j + 1]
    if not name or name[0].isdigit():
        return None
    return name, s[:k + 1]


def prefix_is_object_expr(prefix):
    """True when `prefix` looks like a receiver expression (obj., ptr->,
    Class::, chained calls) rather than a construct that consumes the
    call's value or a declaration (`Status Foo(...)`). A receiver prefix
    is empty or ends with '.', '->', or '::'."""
    p = prefix.strip()
    if p and not (p.endswith(".") or p.endswith("->") or p.endswith("::")):
        return False
    if PREFIX_KEYWORDS_RE.search(prefix):
        return False
    flat = prefix.replace("->", "")
    if any(c in flat for c in "<>=?!+|~^%"):
        return False
    return re.fullmatch(r"[\w\s.:()\[\]*&,]*", flat) is not None


CONSUMING_SUFFIX_RE = re.compile(
    r"^\s*\.\s*(ToString|message)\s*\(")


class TrackedVar:
    __slots__ = ("name", "line", "depth", "consumed", "logged", "rel")

    def __init__(self, name, line, depth, rel):
        self.name = name
        self.line = line
        self.depth = depth
        self.consumed = False
        self.logged = False
        self.rel = rel


def check_call_sites(root, status_names, findings, counters):
    """Scans every statement in CALLSITE_DIRS for discarded, swallowed,
    and (void)-cast status returns."""
    for top in CALLSITE_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(root)
            raw = path.read_text(encoding="utf-8")
            raw_lines = raw.splitlines()
            code = strip_code(raw)
            stmts = split_statements(code)
            audit_file_statements(rel, raw_lines, stmts, status_names,
                                  findings, counters)


def audit_file_statements(rel, raw_lines, stmts, status_names, findings,
                          counters):
    tracked = []  # active TrackedVar, innermost-last
    depth = 0
    for st in stmts:
        if st.terminator == "}":
            depth = len(st.scope_path)
            still = []
            for v in tracked:
                if v.depth > depth:
                    finalize_var(v, findings, counters, raw_lines)
                else:
                    still.append(v)
            tracked = still
            continue
        depth = len(st.scope_path)
        text = re.sub(r"^(?:public|private|protected)\s*:\s*", "", st.text)
        in_function = bool(st.scope_path) and st.scope_path[-1] == "block"

        # Occurrences of tracked variables (any statement kind).
        for v in tracked:
            classify_occurrences(v, text)

        if st.terminator != ";":
            continue

        # (void) / static_cast<void> suppressions — either as the whole
        # statement or embedded after a control header:
        #   if (cond) (void)store.AddEdge(...);
        void_m = re.search(r"(?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>"
                           r"\s*\()\s*(.*)$", text, re.DOTALL)
        if void_m:
            body = void_m.group(1).strip()
            names_called = set(re.findall(r"(\w+)\s*\(", body))
            is_status_var = any(v.name == body.rstrip(")")
                                for v in tracked)
            if names_called & status_names or is_status_var:
                if line_has_marker(raw_lines, st.line, "status"):
                    counters["suppressed_status"] += 1
                else:
                    findings.append(
                        (rel, st.line, "void-cast",
                         "status suppressed with a bare (void) cast — "
                         "propagate it, or annotate the line with "
                         "// audit:allow(status, <reason>)"))
            continue

        # New status-variable declarations (function scope only).
        if in_function:
            dm = DECL_STMT_RE.match(text)
            if dm:
                is_status_type = dm.group("type") != "auto"
                rhs = dm.group("rhs") or ""
                rhs_calls = set(re.findall(r"(\w+)\s*\(", rhs))
                if is_status_type or (rhs_calls & status_names):
                    if is_status_type or not STATUS_RET_RE.match(rhs):
                        v = TrackedVar(dm.group("name"), st.line, depth, rel)
                        tracked.append(v)
                        continue

        # Statement-level discard of an indexed call.
        oc = outermost_call(text)
        if oc:
            name, prefix = oc
            if name in status_names and prefix_is_object_expr(prefix):
                if line_has_marker(raw_lines, st.line, "status"):
                    counters["suppressed_status"] += 1
                else:
                    findings.append(
                        (rel, st.line, "discard",
                         f"return of {name}() (Status/Result) discarded at "
                         "statement level — check it, propagate it, or "
                         "annotate with // audit:allow(status, <reason>)"))

    for v in tracked:
        finalize_var(v, findings, counters, raw_lines)


def classify_occurrences(v, text):
    for m in re.finditer(rf"\b{re.escape(v.name)}\b", text):
        after = text[m.end():]
        before = text[:m.start()]
        if CONSUMING_SUFFIX_RE.match(after):
            v.logged = True  # formatting only: logged-and-ignored
            continue
        if re.match(r"^\s*=[^=]", after) and before.strip() in ("", "(void)"):
            continue  # overwrite; still unconsumed
        if re.search(r"\(\s*void\s*\)\s*$", before):
            continue  # (void)var — the void-cast check owns this
        v.consumed = True


def finalize_var(v, findings, counters, raw_lines):
    if v.consumed:
        return
    if line_has_marker(raw_lines, v.line, "status"):
        counters["suppressed_status"] += 1
        return
    how = ("only formatted (.ToString()/.message()) — logged and ignored"
           if v.logged else "never read again")
    findings.append(
        (v.rel, v.line, "swallow",
         f"status assigned to '{v.name}' but {how}: branch on it, "
         "propagate it, or annotate with // audit:allow(status, <reason>)"))


# --------------------------------------------------------------------------
# Pass B: annotation coverage
# --------------------------------------------------------------------------

class ClassInfo:
    __slots__ = ("name", "line", "rel", "mutexes", "fields", "methods")

    def __init__(self, name, line, rel):
        self.name = name
        self.line = line
        self.rel = rel
        self.mutexes = []
        self.fields = []   # (line, name, text)
        self.methods = []  # (line, name, text, access)


def parse_classes(rel, stmts):
    """Walks the statement list, collecting member declarations for each
    class/struct scope."""
    classes = []
    stack = []  # (ClassInfo or None, access)
    for st in stmts:
        if st.terminator == "{":
            kind = None
            m = TYPE_OPEN_RE.match(st.text)
            if m and m.group(1) in ("class", "struct"):
                name_m = re.search(
                    r"\b(?:class|struct)\s+(?:\[\[\w+\]\]\s*)?(\w+)", st.text)
                if name_m:
                    info = ClassInfo(name_m.group(1), st.line, rel)
                    classes.append(info)
                    default_access = ("private" if m.group(1) == "class"
                                      else "public")
                    stack.append((info, [default_access]))
                    continue
                kind = "anon-type"
            stack.append((None, ["public"]) if kind else (None, ["public"]))
            # Non-type scopes (functions, namespaces) get a None entry so
            # depth bookkeeping stays aligned.
            if len(stack) != len(st.scope_path) + 1:
                # classify_opener and this walk can disagree transiently;
                # re-sync to the splitter's scope depth.
                while len(stack) > len(st.scope_path) + 1:
                    stack.pop()
            continue
        if st.terminator == "}":
            while len(stack) > len(st.scope_path):
                stack.pop()
            continue
        if not stack:
            continue
        owner, access_box = stack[-1]
        text = st.text
        am = re.match(r"^(public|private|protected)\s*:\s*(.*)$", text,
                      re.DOTALL)
        if am:
            access_box[0] = am.group(1)
            text = am.group(2).strip()
            if not text:
                continue
        if owner is None or not text:
            continue
        record_member(owner, st.line, text, access_box[0])
    return classes


def record_member(owner, line, text, access):
    mm = MUTEX_MEMBER_RE.match(text)
    if mm:
        owner.mutexes.append((line, mm.group(2)))
        return
    if MEMBER_SKIP_RE.match(text) or text.startswith("~"):
        return
    if re.search(r"\boperator\b", text):
        return  # operator overloads (assignment, comparison, ...)
    if "= delete" in text or "= default" in text:
        return
    probe = re.sub(r"\b(?:GUARDED_BY|PT_GUARDED_BY|ACQUIRED_BEFORE|"
                   r"ACQUIRED_AFTER)\s*\([^)]*\)", "", text)
    probe = re.sub(r"\{[^{}]*\}", "", probe)       # brace initializers
    probe = re.sub(r"=\s*[^;]*$", "", probe).strip()  # assignments/init
    call_m = re.search(r"(\w+)\s*\(", probe)
    if call_m:
        owner.methods.append((line, call_m.group(1), text, access))
        return
    name_m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", probe)
    if name_m:
        owner.fields.append((line, name_m.group(1), text))


def field_is_exempt(text):
    """Immutable members and self-synchronized types need no guard."""
    flat = " ".join(text.split())
    if MUTEX_MEMBER_RE.match(flat):
        return True
    # A const value member is immutable. A const *pointer* only freezes
    # the pointer, so it is exempt only when the pointee synchronizes
    # itself (metrics) — otherwise PT_GUARDED_BY is required.
    is_pointer = "*" in flat
    is_const = bool(re.match(r"^(?:mutable\s+)?const\b", flat)) or \
        bool(re.search(r"\*\s*const\b", flat)) or \
        (not is_pointer and re.search(r"\bconst\b", flat))
    pointee = re.match(r"^(?:mutable\s+)?(?:const\s+)?(?:hermes::)?(\w+)",
                       flat)
    if pointee and pointee.group(1) in SELF_SYNC_TYPES:
        return True
    if is_const and not is_pointer:
        return True
    if is_pointer and is_const:
        m = re.match(r"^(?:mutable\s+)?(?:const\s+)?(?:hermes::)?(\w+)", flat)
        if m and m.group(1) in SELF_SYNC_TYPES:
            return True
    return False


def check_annotation_coverage(root, findings, counters):
    classes_seen = 0
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(root)
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code = strip_code(raw)
        for info in parse_classes(rel, split_statements(code)):
            if not info.mutexes:
                continue
            classes_seen += 1
            for line, name, text in info.fields:
                if GUARD_ANNOTATION_RE.search(text):
                    continue
                if field_is_exempt(text):
                    continue
                if line_has_marker(raw_lines, line, "guard"):
                    counters["suppressed_guard"] += 1
                    continue
                findings.append(
                    (rel, line, "unguarded-field",
                     f"{info.name}::{name} is a mutable member of a "
                     "Mutex-owning class without GUARDED_BY/PT_GUARDED_BY "
                     "— annotate it, or mark "
                     "// audit:allow(guard, <reason>)"))
            for line, name, text, access in info.methods:
                if access != "public":
                    continue
                if name == info.name:  # constructor
                    continue
                if re.match(r"^(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+)?"
                            r"static\b", text):
                    continue
                if LOCK_ANNOTATIONS_RE.search(text):
                    continue
                if line_has_marker(raw_lines, line, "guard"):
                    counters["suppressed_guard"] += 1
                    continue
                findings.append(
                    (rel, line, "unannotated-method",
                     f"{info.name}::{name}() is public in a Mutex-owning "
                     "class but carries no lock annotation (EXCLUDES/"
                     "REQUIRES/...) — annotate it, or mark "
                     "// audit:allow(guard, <reason>)"))
    return classes_seen


# --------------------------------------------------------------------------

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
        print(f"status_audit.py: no src/ directory under {root}",
              file=sys.stderr)
        return 2

    findings = []
    counters = {"suppressed_status": 0, "suppressed_guard": 0}

    status_names, indexed, ambiguous = index_status_functions(root, findings)
    check_call_sites(root, status_names, findings, counters)
    classes_seen = check_annotation_coverage(root, findings, counters)

    marker_counts = {"status": 0, "guard": 0}
    for top in CALLSITE_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(root)
            c = collect_markers(path.read_text(encoding="utf-8").splitlines(),
                                findings, rel)
            marker_counts["status"] += c["status"]
            marker_counts["guard"] += c["guard"]

    by_kind = {}
    for _, _, kind, _ in findings:
        by_kind[kind] = by_kind.get(kind, 0) + 1

    summary = {
        "schema": 1,
        "functions_indexed": indexed,
        "callsite_names": len(status_names),
        "ambiguous_names_skipped": ambiguous,
        "mutex_owning_classes": classes_seen,
        "findings_total": len(findings),
        "findings_by_kind": by_kind,
        "suppressions": marker_counts,
        "findings": [
            {"file": str(rel), "line": line, "kind": kind, "message": msg}
            for rel, line, kind, msg in sorted(findings)
        ],
    }
    if json_path:
        json_path.write_text(json.dumps(summary, indent=2) + "\n",
                             encoding="utf-8")

    if findings:
        print(f"status_audit.py: {len(findings)} finding(s):")
        for rel, line, kind, msg in sorted(findings):
            print(f"  {rel}:{line}: [{kind}] {msg}")
        print(f"summary: {json.dumps(summary['findings_by_kind'])} "
              f"suppressions={json.dumps(marker_counts)}")
        return 1
    print(f"status_audit.py: clean — {indexed} status-returning functions, "
          f"{classes_seen} mutex-owning classes, "
          f"suppressions: status={marker_counts['status']} "
          f"guard={marker_counts['guard']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
