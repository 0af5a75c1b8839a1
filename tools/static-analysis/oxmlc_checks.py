#!/usr/bin/env python3
"""oxmlc repo-invariant static checks (standalone runner).

This runner is the one enforced implementation of the custom oxmlc-* checks.
It needs nothing beyond python3 (the CI toolchain is gcc-only) and works off a
comment/string-stripped view of every translation unit.

Checks
------
  oxmlc-no-ambient-rng
      All randomness flows through util::Rng (counter-based, seeded, stream-
      splittable) so every Monte-Carlo result is reproducible from one seed.
      Ambient engines (std::mt19937, std::random_device, rand()/srand(),
      <random> includes) are flagged everywhere except the sanctioned
      implementation files (SANCTIONED_RNG).

  oxmlc-fp-contract-tu
      The PackScalar and PackAvx SIMD instantiations are pinned bitwise
      identical by tests. OXMLC_NATIVE builds enable -ffp-contract=fast
      globally, which would let the compiler fuse a*b+c into FMA in one
      instantiation only. Every .cpp that instantiates a Pack template must
      therefore appear in a set_source_files_properties(...
      COMPILE_OPTIONS "-ffp-contract=off") list in its CMakeLists.txt.

  oxmlc-unordered-result-iteration
      Range-for over a std::unordered_{map,set,multimap,multiset} iterates in
      hash order, which varies across libstdc++ versions and seeds — results,
      reports and JSON built that way are nondeterministic. Unordered
      containers are fine for lookup; iterate a sorted view instead.

  oxmlc-metrics-literal
      Metric names must be grep-able: the first argument of every
      .counter()/.gauge()/.timer()/.histogram() call must be a string
      literal. Indexed families use the sanctioned Registry overload
      counter("family.stem", index, ".suffix") whose prefix/suffix are again
      literals.

  oxmlc-one-literal-reader
      Every number read from text goes through util/parse, so signs, ranges
      and non-finite values are decided once. std::sto*, strto* and ato* are
      flagged everywhere but tests/ and SANCTIONED_PARSE (the reader itself
      and util/table.cpp's alignment probe, which reads no input).

Suppression
-----------
  // oxmlc-nolint(check-name)            this line
  // oxmlc-nolint-next-line(check-name)  the following line
A bare `oxmlc-nolint` (no argument) suppresses every check on that line.

Usage
-----
  oxmlc_checks.py [--root REPO] [files...]   lint the repo (or given files)
  oxmlc_checks.py --self-test                run the violation corpus under
                                             tools/static-analysis/corpus/
  oxmlc_checks.py --list-checks              print check names and exit

Exit status: 0 clean, 1 violations found, 2 usage/environment error.
"""

import argparse
import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# Files allowed to touch <random> directly: the reproducible-RNG facade and
# the MC runner that seeds per-trial streams from it.
SANCTIONED_RNG = {
    "src/util/rng.hpp",
    "src/util/rng.cpp",
    "src/mc/runner.hpp",
    "src/mc/runner.cpp",
}

SANCTIONED_PARSE = {"src/util/parse.cpp", "src/util/table.cpp"}

SOURCE_DIRS = ["src", "tests", "tools", "bench", "examples"]
SOURCE_EXTS = (".cpp", ".hpp", ".h")


class Violation:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line  # 1-based
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.check}: {self.message}"


def scrub(text):
    """Blanks comments and string/char literals, preserving line structure.

    Newlines inside block comments and raw strings survive so that offsets
    computed on the scrubbed text map to the same line numbers in the raw
    file.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                out.append('R""')
                out.append("".join(ch if ch == "\n" else " " for ch in text[i + 3 : j]))
                i = j
            else:
                out.append(c)
                i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            # Keep the quotes so "first argument is a literal" stays checkable.
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def suppressed(raw_lines, line, check):
    def matches(src):
        for m in re.finditer(r"oxmlc-nolint(?:-next-line)?(?:\(([^)]*)\))?", src):
            names = [s.strip() for s in (m.group(1) or "").split(",") if s.strip()]
            if not names or check in names:
                return True
        return False

    this_line = raw_lines[line - 1] if line - 1 < len(raw_lines) else ""
    prev_line = raw_lines[line - 2] if line - 2 >= 0 else ""
    if "oxmlc-nolint-next-line" in prev_line and matches(prev_line):
        return True
    if "oxmlc-nolint" in this_line and "next-line" not in this_line and matches(this_line):
        return True
    return False


# --- oxmlc-no-ambient-rng ---------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
                r"random_device|knuth_b|ranlux\w+)\b"),
     "ambient random engine; use util::Rng (seeded, reproducible) instead"),
    (re.compile(r"(?<![\w.>])s?rand\s*\("),
     "C rand()/srand() is process-global state; use util::Rng instead"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> may only be included by the util::Rng implementation"),
]


def check_no_ambient_rng(path, rel, raw, scrubbed, ctx):
    if rel.replace(os.sep, "/") in SANCTIONED_RNG:
        return []
    found = []
    for pattern, why in RNG_PATTERNS:
        for m in pattern.finditer(scrubbed):
            found.append(Violation(rel, line_of(scrubbed, m.start()),
                                   "oxmlc-no-ambient-rng",
                                   f"'{m.group(0).strip()}': {why}"))
    return found


# --- oxmlc-fp-contract-tu ---------------------------------------------------

PACK_REF = re.compile(r"\bPack(?:Scalar|Avx)\b")
FP_PROP = re.compile(
    r"set_source_files_properties\s*\(([^)]*?)PROPERTIES\s+COMPILE_OPTIONS\s*"
    r"\"[^\"]*-ffp-contract=off[^\"]*\"", re.S)


def fp_contract_exempt_tus(root):
    """TUs covered by an -ffp-contract=off source property, repo-relative."""
    exempt = set()
    for cmake in glob.glob(os.path.join(root, "**", "CMakeLists.txt"), recursive=True):
        cmake_dir = os.path.dirname(os.path.relpath(cmake, root))
        with open(cmake, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for m in FP_PROP.finditer(text):
            for token in m.group(1).split():
                if token.endswith(".cpp"):
                    exempt.add(os.path.normpath(os.path.join(cmake_dir, token))
                               .replace(os.sep, "/"))
    return exempt


def check_fp_contract_tu(path, rel, raw, scrubbed, ctx):
    if not rel.endswith(".cpp"):  # headers are not translation units
        return []
    m = PACK_REF.search(scrubbed)
    if not m:
        return []
    if rel.replace(os.sep, "/") in ctx["fp_exempt"]:
        return []
    cmake = os.path.join(os.path.dirname(rel), "CMakeLists.txt")
    return [Violation(
        rel, line_of(scrubbed, m.start()), "oxmlc-fp-contract-tu",
        f"TU instantiates '{m.group(0)}' but is not in a set_source_files_properties("
        f"... COMPILE_OPTIONS \"-ffp-contract=off\") list; under OXMLC_NATIVE the "
        f"compiler may fuse FMAs in one instantiation only and break the bitwise "
        f"PackScalar==PackAvx contract (add it in {cmake})")]


# --- oxmlc-unordered-result-iteration ---------------------------------------

UNORDERED_DECL = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"(\w+)\s*[;={(]")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*(?:this\s*->\s*)?(\w+)\s*\)")


def check_unordered_result_iteration(path, rel, raw, scrubbed, ctx):
    unordered = set(UNORDERED_DECL.findall(scrubbed))
    if not unordered:
        return []
    found = []
    for m in RANGE_FOR.finditer(scrubbed):
        if m.group(1) in unordered:
            found.append(Violation(
                rel, line_of(scrubbed, m.start()),
                "oxmlc-unordered-result-iteration",
                f"range-for over unordered container '{m.group(1)}' visits elements "
                f"in hash order — nondeterministic across libstdc++ versions; iterate "
                f"a sorted copy of the keys instead"))
    return found


# --- oxmlc-metrics-literal ---------------------------------------------------

METRIC_CALL = re.compile(r"[\w)\]]\s*(?:\.|->)\s*(counter|gauge|timer|histogram)\s*\(")


def check_metrics_literal(path, rel, raw, scrubbed, ctx):
    found = []
    for m in METRIC_CALL.finditer(scrubbed):
        arg = m.end()
        while arg < len(scrubbed) and scrubbed[arg] in " \t\n":
            arg += 1
        if arg >= len(scrubbed) or scrubbed[arg] in ')"':
            continue  # literal first argument (or no argument: not a name call)
        found.append(Violation(
            rel, line_of(scrubbed, m.start()), "oxmlc-metrics-literal",
            f"first argument of .{m.group(1)}() must be a string literal so the "
            f"metric name is grep-able; for indexed counter families use the "
            f"sanctioned Registry overload counter(\"family.stem\", index, \".suffix\")"))
    return found


# --- oxmlc-one-literal-reader -----------------------------------------------

C_NUMBER_READER = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*)?"
    r"(sto(?:i|l|ll|ul|ull|f|d|ld)|strto(?:f|d|ld|l|ll|ul|ull|imax|umax)|"
    r"ato(?:i|l|ll|f))\s*\(")


def check_one_literal_reader(path, rel, raw, scrubbed, ctx):
    rel = rel.replace(os.sep, "/")
    if rel in SANCTIONED_PARSE or rel.startswith("tests/"):
        return []
    return [Violation(
        rel, line_of(scrubbed, m.start()), "oxmlc-one-literal-reader",
        f"'{m.group(1)}' reads a number outside util/parse; use util::parse_unsigned, "
        f"parse_real or parse_si so the sign, range and finite rules stay in one place")
        for m in C_NUMBER_READER.finditer(scrubbed)]


CHECKS = {
    "oxmlc-no-ambient-rng": check_no_ambient_rng,
    "oxmlc-fp-contract-tu": check_fp_contract_tu,
    "oxmlc-unordered-result-iteration": check_unordered_result_iteration,
    "oxmlc-metrics-literal": check_metrics_literal,
    "oxmlc-one-literal-reader": check_one_literal_reader,
}


def lint_file(root, path, ctx):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    scrubbed = scrub(raw)
    raw_lines = raw.splitlines()
    found = []
    for check in CHECKS.values():
        for v in check(path, rel, raw, scrubbed, ctx):
            if not suppressed(raw_lines, v.line, v.check):
                found.append(v)
    return found


def repo_sources(root):
    files = []
    for d in SOURCE_DIRS:
        base = os.path.join(root, d)
        for ext in SOURCE_EXTS:
            files.extend(glob.glob(os.path.join(base, "**", "*" + ext), recursive=True))
    # The violation corpus is violations on purpose.
    return sorted(f for f in files if os.sep + "corpus" + os.sep not in f)


def run_repo(root, files):
    ctx = {"fp_exempt": fp_contract_exempt_tus(root)}
    violations = []
    for path in files:
        violations.extend(lint_file(root, path, ctx))
    for v in violations:
        print(v)
    if violations:
        print(f"oxmlc_checks: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"oxmlc_checks: OK ({len(files)} files clean)")
    return 0


def expected_checks(path):
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.search(r"(?://|\*|#)\s*expect:\s*(.*)", line)
            if m:
                names = m.group(1).split()
                return set() if names == ["clean"] else set(names)
    raise RuntimeError(f"{path}: no 'expect: check-name...|clean' header")


def self_test():
    if not os.path.isdir(CORPUS):
        print(f"oxmlc_checks: corpus not found at {CORPUS}", file=sys.stderr)
        return 2
    ctx = {"fp_exempt": fp_contract_exempt_tus(CORPUS)}
    fixtures = sorted(
        glob.glob(os.path.join(CORPUS, "**", "*.cpp"), recursive=True))
    if len(fixtures) < 2 * len(CHECKS):  # a bad and a clean twin per check
        print(f"oxmlc_checks: corpus too small ({len(fixtures)} fixtures)",
              file=sys.stderr)
        return 2
    failures = []
    fired = set()
    for path in fixtures:
        rel = os.path.relpath(path, CORPUS)
        want = expected_checks(path)
        got = {v.check for v in lint_file(CORPUS, path, ctx)}
        if got != want:
            failures.append(f"{rel}: expected {sorted(want) or 'clean'}, "
                            f"got {sorted(got) or 'clean'}")
        else:
            fired |= got
            print(f"ok ({'+'.join(sorted(want)) or 'clean'})  {rel}")
    missing = set(CHECKS) - fired
    if missing:
        failures.append(f"corpus never fires: {sorted(missing)}")
    if failures:
        print(f"\noxmlc_checks --self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"oxmlc_checks --self-test: OK ({len(fixtures)} fixtures, "
          f"all {len(CHECKS)} checks fired)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO, help="repository root")
    parser.add_argument("--self-test", action="store_true",
                        help="run the violation corpus")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("files", nargs="*", help="lint only these files")
    args = parser.parse_args()

    if args.list_checks:
        print("\n".join(CHECKS))
        return 0
    if args.self_test:
        return self_test()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"oxmlc_checks: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    files = [os.path.abspath(f) for f in args.files] or repo_sources(root)
    return run_repo(root, files)


if __name__ == "__main__":
    sys.exit(main())
