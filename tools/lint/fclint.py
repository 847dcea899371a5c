#!/usr/bin/env python3
"""fclint: repo-specific lint rules the generic toolchain cannot express.

Checks (all on src/**.h / src/**.cc, comments and string literals stripped
before matching so documentation never trips a rule):

  raw-primitive   Every mutex in src/ must be the annotated fc:: wrapper
                  from common/thread_annotations.h -- raw std::mutex,
                  std::shared_mutex, std::condition_variable and the std
                  lock holders are banned outside that one header. This is
                  what keeps the clang thread-safety analysis sound: a raw
                  primitive is invisible to it.

  signal-safe     Regions marked `// fclint: signal-safe-begin` ..
                  `// fclint: signal-safe-end` run inside a fatal signal
                  handler. Allocation, stdio, std::string construction,
                  logging, and blocking lock acquisition are banned
                  (try-lock probes are fine -- that is how the handler
                  reads shared tables without deadlocking).

  hot-path        Regions marked `// fclint: hot-path-begin(<name>)` ..
                  `// fclint: hot-path-end` are per-query / per-event fast
                  paths. Allocation expressions, string building, logging,
                  and lock acquisition are banned.

  markers         Marker pairs must balance, and the regions the repo has
                  committed to keeping fast/safe (REQUIRED_REGIONS) must
                  still exist -- deleting a marker to silence the lint is
                  itself a violation.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

  tools/lint/fclint.py [--root DIR]       lint the tree
  tools/lint/fclint.py --self-test        run against the seeded fixtures
"""

import argparse
import os
import re
import sys

# The one file allowed to name raw primitives: it wraps them.
WRAPPER_HEADER = os.path.join("src", "common", "thread_annotations.h")

# Regions that must exist somewhere under src/ (name -> human reason).
REQUIRED_REGIONS = {
    "signal-safe": "the crash handler postmortem path",
    "hot-path:event_journal_record": "EventJournal::Record",
    "hot-path:counter_increment": "Counter::Increment",
    "hot-path:histogram_record": "Histogram::Record",
    "hot-path:branch_kernel": "the branch-and-bound inner loop",
    "hot-path:support_peel": "the support peels' per-pop loop (PeelEdges)",
    "hot-path:masked_coloring": "the masked greedy coloring loop",
    "hot-path:masked_orientation_rows": "the masked orientation row build",
}

RAW_PRIMITIVES = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)

# Banned in BOTH region kinds: allocation and logging.
ALLOC_TOKENS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "new-expression"),
    (re.compile(r"\bnew\s*\("), "placement/new-expression"),
    (re.compile(r"\b(malloc|calloc|realloc|strdup)\s*\("), "malloc-family"),
    (re.compile(r"\bmake_(unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(r"\bstd\s*::\s*(string|to_string|vector|map|deque)\s*[<({]"),
     "allocating std container/string construction"),
    (re.compile(r"\bFC_LOG\b"), "FC_LOG"),
]

# Blocking lock acquisition (try-lock probes are allowed: they cannot block).
LOCK_TOKENS = [
    (re.compile(r"\bfc\s*::\s*(Mutex|Shared|Reader|Writer)\w*Lock\b"),
     "scoped lock acquisition"),
    (re.compile(r"(?<!Try)\.\s*Lock\s*\("), "blocking Lock()"),
    (re.compile(r"\.\s*ReaderLock\s*\("), "blocking ReaderLock()"),
    (re.compile(r"\.\s*Wait(For|Until)?\s*\("), "condition wait"),
]

# Additionally banned inside signal handlers: stdio and friends.
SIGNAL_TOKENS = [
    (re.compile(r"\b(printf|fprintf|snprintf|sprintf|puts|fputs|fopen|"
                r"fwrite|fflush)\s*\("), "stdio"),
    (re.compile(r"\bstd\s*::\s*(cout|cerr)\b"), "iostream"),
]

MARKER = re.compile(
    r"//\s*fclint:\s*(signal-safe-begin|signal-safe-end|"
    r"hot-path-begin\(([A-Za-z0-9_]+)\)|hot-path-end)\s*$"
)


def strip_comments_and_strings(line):
    """Removes // comments, /* */ on one line, and string/char literal
    bodies so documentation and message text never trip a rule. Block
    comments spanning lines are handled by the caller."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end < 0:
                out.append("\x01")  # signal: block comment continues
                return "".join(out)
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []  # (path, line, rule, message)
        self.regions_seen = set()

    def add(self, path, line, rule, message):
        self.violations.append((path, line, rule, message))

    def lint_file(self, relpath, text):
        lines = text.split("\n")
        region = None  # None | "signal" | ("hot", name)
        region_open_line = 0
        in_block_comment = False
        is_wrapper = relpath.replace(os.sep, "/") == WRAPPER_HEADER.replace(
            os.sep, "/")

        for lineno, raw in enumerate(lines, 1):
            m = MARKER.search(raw.strip()) if "fclint:" in raw else None
            if m:
                kind = m.group(1)
                if kind == "signal-safe-begin":
                    if region is not None:
                        self.add(relpath, lineno, "markers",
                                 "nested fclint region")
                    region, region_open_line = "signal", lineno
                    self.regions_seen.add("signal-safe")
                elif kind.startswith("hot-path-begin"):
                    if region is not None:
                        self.add(relpath, lineno, "markers",
                                 "nested fclint region")
                    region, region_open_line = ("hot", m.group(2)), lineno
                    self.regions_seen.add("hot-path:" + m.group(2))
                elif kind == "signal-safe-end":
                    if region != "signal":
                        self.add(relpath, lineno, "markers",
                                 "signal-safe-end without matching begin")
                    region = None
                else:  # hot-path-end
                    if not (isinstance(region, tuple) and region[0] == "hot"):
                        self.add(relpath, lineno, "markers",
                                 "hot-path-end without matching begin")
                    region = None
                continue

            if in_block_comment:
                end = raw.find("*/")
                if end < 0:
                    continue
                raw = raw[end + 2:]
                in_block_comment = False
            code = strip_comments_and_strings(raw)
            if code.endswith("\x01"):
                in_block_comment = True
                code = code[:-1]
            if not code.strip():
                continue

            if not is_wrapper:
                m2 = RAW_PRIMITIVES.search(code)
                if m2:
                    self.add(relpath, lineno, "raw-primitive",
                             f"raw std::{m2.group(1)} -- use the annotated "
                             "fc:: wrapper from common/thread_annotations.h")

            if region is None:
                continue
            checks = list(ALLOC_TOKENS) + list(LOCK_TOKENS)
            if region == "signal":
                checks += SIGNAL_TOKENS
            label = ("signal-safe" if region == "signal"
                     else f"hot-path({region[1]})")
            for pattern, what in checks:
                if pattern.search(code):
                    self.add(relpath, lineno, label,
                             f"{what} inside {label} region")

        if region is not None:
            self.add(relpath, region_open_line, "markers",
                     "fclint region never closed")

    def lint_tree(self, subdir="src"):
        base = os.path.join(self.root, subdir)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, self.root)
                with open(path, encoding="utf-8", errors="replace") as f:
                    self.lint_file(rel, f.read())
        for region, why in REQUIRED_REGIONS.items():
            if region not in self.regions_seen:
                self.add(subdir, 0, "markers",
                         f"required fclint region '{region}' ({why}) is "
                         "missing -- markers may not be deleted")


def run_lint(root):
    linter = Linter(root)
    linter.lint_tree()
    for path, line, rule, message in linter.violations:
        print(f"{path}:{line}: [{rule}] {message}")
    if linter.violations:
        print(f"fclint: {len(linter.violations)} violation(s)")
        return 1
    print("fclint: clean")
    return 0


def self_test(root):
    """Each fixture under tools/lint/fixtures/ seeds exactly the violations
    named in its `// expect: rule` comment lines; the linter must report
    every expected rule in that file and nothing in the clean fixture."""
    fixtures = os.path.join(root, "tools", "lint", "fixtures")
    failures = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith((".h", ".cc")):
            continue
        path = os.path.join(fixtures, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        expected = set(re.findall(r"^// expect:\s*(\S+)", text, re.M))
        linter = Linter(root)
        # Required-region checks only apply to the real tree, not fixtures.
        linter.lint_file(name, text)
        got = {rule for (_p, _l, rule, _m) in linter.violations}
        # Collapse hot-path(name) -> hot-path for fixture matching.
        got_kinds = {re.sub(r"\(.*\)", "", rule) for rule in got}
        missing = expected - got_kinds
        unexpected = got_kinds - expected
        if missing or unexpected:
            failures += 1
            print(f"SELF-TEST FAIL {name}: expected {sorted(expected)}, "
                  f"got {sorted(got_kinds)}")
            for v in linter.violations:
                print(f"  reported: {v[0]}:{v[1]}: [{v[2]}] {v[3]}")
        else:
            print(f"self-test ok: {name} ({sorted(got_kinds) or 'clean'})")
    if failures:
        print(f"fclint --self-test: {failures} fixture(s) failed")
        return 1
    print("fclint --self-test: all fixtures behave")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the linter against the seeded fixtures")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.self_test:
        return self_test(root)
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
