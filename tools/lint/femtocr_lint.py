#!/usr/bin/env python3
"""femtocr_lint — project-specific lint rules clang-tidy cannot express.

Scans the library sources (``src/``) and enforces:

  layer-dag     #include edges must follow the layer DAG
                util -> {spectrum, phy, video} -> net -> core -> sim
                (a lower layer must never include a higher one; siblings
                may not include each other unless the DAG links them).
  no-raw-rand   no rand()/srand()/drand48()/random() in library code —
                randomness flows through util/rng.h so runs stay seedable
                and reproducible.
  no-raw-thread no std::thread/std::jthread/std::async/pthread_create and
                no <thread>/<future> includes outside src/util/parallel.* —
                all fan-out goes through util::parallel_for so replication
                results stay bitwise deterministic for any thread count.
  no-stdio      no std::cout / std::cerr / printf-family output in library
                code — use util/log.h (the sink in util/log.cpp carries a
                file-level suppression).
  no-float-eq   no == / != against floating-point literals — use
                util::near() from util/mathx.h or an explicit tolerance.
  no-raw-chrono-clock
                no raw std::chrono clock reads (steady_clock::now(),
                system_clock::now(), high_resolution_clock) outside
                src/util/timer.* — wall time flows through
                util::monotonic_now_ns() / util::Stopwatch so nothing
                nondeterministic can leak onto stdout unnoticed.
  pragma-once   every header uses `#pragma once` (and not an
                #ifndef/#define include guard), consistently with the rest
                of the tree.
  no-unordered-iteration
                no std::unordered_{map,set,multimap,multiset} in library
                code — hash-order iteration is a determinism hazard (the
                bitwise-identical-across-thread-counts contract dies the
                first time someone loops over one); use std::map/std::set
                or a sorted vector. The libclang tier
                (femtocr_ast_lint.py) checks actual iteration; this regex
                tier conservatively bans the containers outright.
  no-implicit-db-lin
                no raw `double` parameters with a unit-suffixed name
                (*_db, *_lin) — a declared raw double is the hole an
                unconverted value flows through across TUs. Take
                util::Db / util::LinearGain from util/units.h instead so
                the mix-up is a compile error. The libclang tier
                additionally flags suffix-mismatched arguments at call
                sites.
  no-unannotated-mutex
                no raw std::mutex (or recursive/timed/shared variants)
                outside util/thread_annotations.h — use the annotated
                util::Mutex wrapper so clang's -Wthread-safety analysis
                (the CI thread-safety job) can see every lock. The
                libclang tier narrows this to mutex *members lacking
                FEMTOCR_GUARDED_BY users*; the regex tier bans the raw
                type wholesale.
  no-hot-loop-alloc
                ADVISORY (printed, never fails the run): flags
                std::vector construction inside translation units tagged
                `femtocr:inner-loop-tu` — those TUs hold the per-slot
                solve hot paths, which draw their working vectors from the
                core/scratch.h arena instead of allocating per call (see
                docs/DEVELOPING.md, "Performance model & scratch-arena
                rules"). A fresh vector there is usually an accidental
                per-iteration allocation; bind a scratch field by
                reference or extend SlotScratch.

Suppressions:
  trailing   `// lint-allow: <rule>`        — silences <rule> on that line
  file-wide  `// lint-allow-file: <rule>`   — anywhere in the first 30
                                              lines; silences <rule> for
                                              the whole file

Exit status: 0 when clean, 1 when violations were found (they are printed
as `path:line: [rule] message`), 2 on usage errors.

`--self-test` runs the rules against the seeded violation fixtures under
tools/lint/fixtures/ and verifies every rule both fires where it must and
honours suppressions; CI registers this alongside the tree-wide run.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

# Allowed include edges: layer -> set of layers it may include from.
# Mirrors target_link_libraries in src/CMakeLists.txt (transitively closed).
LAYER_DAG = {
    "util": {"util"},
    "spectrum": {"spectrum", "util"},
    "phy": {"phy", "util"},
    "video": {"video", "util"},
    "net": {"net", "phy", "util"},
    "core": {"core", "spectrum", "phy", "video", "net", "util"},
    "sim": {"sim", "core", "spectrum", "phy", "video", "net", "util"},
}

RULES = (
    "layer-dag",
    "no-raw-rand",
    "no-raw-thread",
    "no-stdio",
    "no-float-eq",
    "no-raw-chrono-clock",
    "pragma-once",
    "no-unordered-iteration",
    "no-implicit-db-lin",
    "no-unannotated-mutex",
    "no-hot-loop-alloc",
)

# Advisory rules are printed but never flip the exit status: the hot-loop
# allocation check is a heuristic (it cannot see whether the construction
# is outside every loop), so it nudges rather than gates.
ADVISORY_RULES = frozenset({"no-hot-loop-alloc"})

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
# The optional std:: / :: prefix is matched explicitly (rather than letting
# a `:` lookbehind reject it) so qualified calls like std::printf or ::rand
# cannot evade the rule; the lookbehind still rejects other qualifiers
# (my::random, obj.rand) and identifier suffixes (strand).
RAND_RE = re.compile(r"(?<![\w:.])(?:std::|::)?(?:s?rand|drand48|random)\s*\(")
# Raw threading: spawn/async primitives and their headers. std::this_thread
# does not match (the literal "thread" must follow "std::" directly); the
# include form is matched on the raw line shape, not inside strings.
THREAD_RE = re.compile(
    r"(?<![\w:.])(?:(?:std::|::)?pthread_create\b|std::(?:jthread|thread|async)\b)"
    r"|^\s*#\s*include\s+<(?:thread|future)>"
)
STDIO_RE = re.compile(
    r"std::(?:cout|cerr)|(?<![\w:.])(?:std::|::)?(?:f?printf|puts)\s*\("
)
# A float literal (1.0, .5, 1e-9, 1.5e+3) adjacent to == or !=, either side.
FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)"
FLOAT_EQ_RE = re.compile(
    rf"[=!]=\s*{FLOAT_LIT}(?![\w.])|(?<![\w.]){FLOAT_LIT}\s*[=!]="
)
# Raw clock reads: any ::now() on the std::chrono clocks, and any mention
# of high_resolution_clock (whose use the tree bans outright). Qualified or
# not — `using namespace std::chrono` would otherwise evade the rule.
CHRONO_CLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock)\s*::\s*now\s*\(|high_resolution_clock"
)
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+_H_?\b")
# TU tag marking a per-slot solve hot path (first 30 lines, comment form).
INNER_LOOP_TAG_RE = re.compile(r"femtocr:inner-loop-tu")
# std::vector object construction: the element type, then a declarator or a
# brace/paren/assignment initializer. References (`std::vector<T>&`) do not
# match — binding a scratch field by reference is exactly the sanctioned
# pattern. Nested template arguments are handled by backtracking over the
# non-`&` run before the closing `>`.
HOT_ALLOC_RE = re.compile(r"std::vector\s*<[^&;]*>\s+\w+\s*[({;=]")
# Hash containers: iteration order is implementation-defined, which breaks
# the bitwise-determinism contract the moment anyone loops over one.
UNORDERED_RE = re.compile(r"std::unordered_(?:multi)?(?:map|set)\b")
# A raw double parameter whose name claims a unit (snr_db, gain_lin): the
# declaration is where an unconverted value slips through; such parameters
# take util::Db / util::LinearGain instead.
DB_LIN_PARAM_RE = re.compile(r"\bdouble\s+\w+_(?:db|lin)\b")
# Raw standard mutexes carry no capability attributes, so clang's
# -Wthread-safety analysis cannot see their locks.
MUTEX_RE = re.compile(r"(?<![\w:])std::(?:recursive_|timed_|shared_)?mutex\b")
ALLOW_LINE_RE = re.compile(r"//\s*lint-allow:\s*([\w,\- ]+)")
ALLOW_FILE_RE = re.compile(r"//\s*lint-allow-file:\s*([\w,\- ]+)")
COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_code(line: str) -> str:
    """Code content of a line: string literals blanked, // comment dropped.

    Block comments are not tracked; the rules target code-shaped tokens
    (calls, operators) that do not survive string/comment stripping in
    practice in this tree.
    """
    line = STRING_RE.sub('""', line)
    return COMMENT_RE.sub("", line)


class Violation:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def allowed_rules(match_text: str) -> set[str]:
    return {r.strip() for r in match_text.split(",") if r.strip()}


def lint_file(path: Path, layer: str | None) -> list[Violation]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return [Violation(path, 0, "io", f"unreadable: {e}")]
    lines = text.splitlines()

    file_allow: set[str] = set()
    inner_loop_tu = False
    for line in lines[:30]:
        m = ALLOW_FILE_RE.search(line)
        if m:
            file_allow |= allowed_rules(m.group(1))
        if INNER_LOOP_TAG_RE.search(line):
            inner_loop_tu = True

    out: list[Violation] = []

    # The replication engine is the one place allowed to own raw threads.
    thread_exempt = path.parent.name == "util" and path.name in (
        "parallel.h",
        "parallel.cpp",
    )
    # util/timer.* is the one sanctioned raw-clock site; every other file,
    # the span layer in util/trace.* included, reads time through
    # util::monotonic_now_ns() / util::Stopwatch.
    clock_exempt = path.parent.name == "util" and path.name in (
        "timer.h",
        "timer.cpp",
    )
    # The annotated Mutex wrapper itself owns the one raw std::mutex.
    mutex_exempt = (
        path.parent.name == "util" and path.name == "thread_annotations.h"
    )

    def report(lineno: int, rule: str, msg: str, raw: str) -> None:
        if rule in file_allow:
            return
        m = ALLOW_LINE_RE.search(raw)
        if m and rule in allowed_rules(m.group(1)):
            return
        out.append(Violation(path, lineno, rule, msg))

    for i, raw in enumerate(lines, start=1):
        code = strip_code(raw)

        m = INCLUDE_RE.match(raw)
        if m and layer is not None:
            target = m.group(1).split("/")[0]
            if target in LAYER_DAG and target not in LAYER_DAG[layer]:
                report(
                    i,
                    "layer-dag",
                    f'layer "{layer}" must not include "{m.group(1)}" '
                    f"(allowed: {', '.join(sorted(LAYER_DAG[layer]))})",
                    raw,
                )

        if THREAD_RE.search(code) and not thread_exempt:
            report(
                i,
                "no-raw-thread",
                "raw threading primitive in library code — fan out through "
                "util/parallel.h (parallel_for keeps results bitwise "
                "deterministic for any thread count)",
                raw,
            )

        if RAND_RE.search(code):
            report(
                i,
                "no-raw-rand",
                "raw C randomness in library code — use util/rng.h "
                "(seedable, splittable)",
                raw,
            )

        if STDIO_RE.search(code):
            report(
                i,
                "no-stdio",
                "direct console output in library code — use util/log.h",
                raw,
            )

        if FLOAT_EQ_RE.search(code):
            report(
                i,
                "no-float-eq",
                "floating-point == / != against a literal — use "
                "util::near() or an explicit tolerance",
                raw,
            )

        if UNORDERED_RE.search(code):
            report(
                i,
                "no-unordered-iteration",
                "hash container in library code — iteration order is "
                "implementation-defined and breaks bitwise determinism; "
                "use std::map/std::set or a sorted vector",
                raw,
            )

        if DB_LIN_PARAM_RE.search(code):
            report(
                i,
                "no-implicit-db-lin",
                "raw double parameter with a unit-suffixed name — take "
                "util::Db / util::LinearGain from util/units.h so a "
                "dB/linear mix-up cannot compile",
                raw,
            )

        if MUTEX_RE.search(code) and not mutex_exempt:
            report(
                i,
                "no-unannotated-mutex",
                "raw standard mutex in library code — use the annotated "
                "util::Mutex from util/thread_annotations.h so clang's "
                "-Wthread-safety analysis sees the lock",
                raw,
            )

        if inner_loop_tu and HOT_ALLOC_RE.search(code):
            report(
                i,
                "no-hot-loop-alloc",
                "std::vector constructed in an inner-loop-tagged TU — "
                "draw working vectors from the core/scratch.h arena "
                "(bind a SlotScratch field by reference) so the hot "
                "paths stay allocation-free",
                raw,
            )

        if CHRONO_CLOCK_RE.search(code) and not clock_exempt:
            report(
                i,
                "no-raw-chrono-clock",
                "raw std::chrono clock read in library code — use "
                "util::monotonic_now_ns() / util::Stopwatch from "
                "util/timer.h (the tree's single definition of wall time)",
                raw,
            )

    if path.suffix == ".h":
        has_pragma = any(l.strip() == "#pragma once" for l in lines)
        guard_line = next(
            (i for i, l in enumerate(lines, start=1) if GUARD_RE.match(l)), None
        )
        if not has_pragma:
            report(
                1,
                "pragma-once",
                "header lacks `#pragma once` (project headers use it "
                "uniformly instead of include guards)",
                lines[0] if lines else "",
            )
        if guard_line is not None:
            report(
                guard_line,
                "pragma-once",
                "#ifndef-style include guard — this tree standardizes on "
                "`#pragma once`",
                lines[guard_line - 1],
            )

    return out


def iter_sources(src_root: Path):
    for path in sorted(src_root.rglob("*")):
        if path.suffix in (".h", ".cpp") and path.is_file():
            rel = path.relative_to(src_root)
            layer = rel.parts[0] if len(rel.parts) > 1 else None
            if layer is not None and layer not in LAYER_DAG:
                layer = None
            yield path, layer


def run_lint(src_root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for path, layer in iter_sources(src_root):
        violations.extend(lint_file(path, layer))
    return violations


def self_test(fixture_src: Path) -> int:
    """Lints the seeded fixtures and checks each rule fires exactly where
    intended — including that suppression comments are honoured."""
    violations = run_lint(fixture_src)
    got = Counter(
        (v.path.relative_to(fixture_src).as_posix(), v.rule) for v in violations
    )
    # Exact counts, so each seeded line — including the qualified
    # std::printf / ::rand forms — is individually pinned.
    expected = Counter(
        {
            ("util/bad_layer.h", "layer-dag"): 1,
            ("phy/bad_io.cpp", "no-stdio"): 3,
            ("phy/bad_io.cpp", "no-raw-rand"): 2,
            ("core/bad_float.cpp", "no-float-eq"): 1,
            ("core/bad_thread.cpp", "no-raw-thread"): 4,
            ("video/bad_guard.h", "pragma-once"): 2,
            # util/timer.cpp (the sanctioned raw-clock site) is seeded with
            # a steady_clock::now() and must stay at zero via the exemption.
            ("sim/bad_clock.cpp", "no-raw-chrono-clock"): 3,
            # util/trace.cpp (the span layer) is seeded the same way and
            # fires: the exemption covers util/timer.* only.
            ("util/trace.cpp", "no-raw-chrono-clock"): 1,
            # Tagged inner-loop TU: two seeded constructions fire, the
            # reference binding and the lint-allow'd line stay silent.
            ("core/bad_hot_alloc.cpp", "no-hot-loop-alloc"): 2,
            ("core/bad_unordered.cpp", "no-unordered-iteration"): 2,
            ("phy/bad_db_param.h", "no-implicit-db-lin"): 2,
            ("phy/bad_db_param.cpp", "no-implicit-db-lin"): 1,
            # util/ placement proves the exemption is pinned to
            # thread_annotations.h itself, not the whole util layer.
            ("util/bad_mutex.cpp", "no-unannotated-mutex"): 2,
        }
    )
    ok = True
    for key in sorted(set(expected) | set(got)):
        if got[key] != expected[key]:
            print(
                f"self-test: {key}: expected {expected[key]} violation(s), "
                f"got {got[key]}"
            )
            ok = False
    suppressed = [
        v
        for v in violations
        if v.path.name == "suppressed.cpp" or v.path.name == "suppressed_file.cpp"
    ]
    for v in suppressed:
        print(f"self-test: suppression not honoured: {v}")
        ok = False
    print("self-test: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[2],
        help="repository root (default: two levels above this script)",
    )
    parser.add_argument(
        "--src",
        type=Path,
        default=None,
        help="source tree to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint the seeded fixtures and verify each rule fires",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "fixtures" / "src")

    src_root = args.src if args.src is not None else args.root / "src"
    if not src_root.is_dir():
        print(f"femtocr_lint: no such source tree: {src_root}", file=sys.stderr)
        return 2

    violations = run_lint(src_root)
    hard = [v for v in violations if v.rule not in ADVISORY_RULES]
    advisory = [v for v in violations if v.rule in ADVISORY_RULES]
    for v in hard:
        print(v)
    for v in advisory:
        print(f"{v} (advisory)")
    if hard:
        print(f"femtocr_lint: {len(hard)} violation(s)")
        return 1
    if advisory:
        print(
            f"femtocr_lint: clean ({src_root}), "
            f"{len(advisory)} advisory note(s)"
        )
    else:
        print(f"femtocr_lint: clean ({src_root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
