#!/usr/bin/env python3
"""metrics_report — validate and diff --metrics-out JSON dumps.

The femtocr binaries dump their metrics registry as one JSON document
(schema: docs/OBSERVABILITY.md):

    {"manifest":   {seed, threads, scheme, build_type, metrics_enabled,
                    git_sha, hostname, started_at, cli},
     "counters":   {"layer.component.metric": int, ...},
     "histograms": {"name": {count, sum, min, max,
                             buckets: [{lo, hi, count}, ...]}, ...},
     "timers_ns":  {"name": {count, total_ns, max_ns,
                             buckets: [{lo, hi, count}, ...]}, ...}}

The provenance fields (git_sha, hostname, started_at) and timer buckets are
required by --check but optional in every other mode, so older dumps (the
committed BENCH_baseline.json) keep working unmodified.

Modes:
  metrics_report.py --check FILE
      Validate FILE against the schema. Exit 0 when valid, 1 otherwise
      (problems printed one per line). CI's bench-smoke job gates on this.
  metrics_report.py --top-timers FILE [--limit N]
      Render the top-N timers by total time as an ASCII table
      (+---+ box style, matching util/table's print()).
  metrics_report.py BASELINE CANDIDATE
      Diff two dumps: counters and timers side by side with absolute and
      relative deltas, again as an ASCII table; a timer's delta carries
      its unit (e.g. `-48.960 ms (-28.7%)`). Counters present in only one
      file show a `-` on the missing side.
  metrics_report.py --gate BASELINE CANDIDATE [--timer NAME] [--tolerance F]
      Perf-regression gate (CI perf job). Fails (exit 1) when
      (a) any deterministic work counter (prefixes: core., bench.stress.)
      differs from the committed baseline — algorithmic regressions show
      up here as iteration/evaluation count drift, independent of machine
      speed — or (b) the gated timer's total, divided by the total of the
      reference timer bench.stress.reference (a fixed kernel that calls no
      library code, timed beside every solve), exceeds the baseline's
      ratio by more than --tolerance (default 0.15, i.e. +15%), or either
      dump lacks one of the two timers. The ratio measures the program,
      not the host: a host uniformly slower than the baseline's slows both
      timers alike. The default timer is bench.stress.slot_solve, the
      per-slot solve wall clock of bench/stress_scale. Regenerate the
      baseline with tools/regen_baseline.sh (Release build, 3 runs merged
      by --merge-min).
  metrics_report.py --merge-min OUT IN1 IN2 [IN3 ...]
      Merge repeated runs of the same bench into one dump that keeps the
      minimum wall clock per timer (the standard best-of-N noise filter
      for a shared CI runner). Counters and timer counts must be bitwise
      identical across the inputs — the benches are deterministic, so any
      drift between repeats means the runs were not equivalent and the
      merge fails (exit 1). Manifest and histograms are taken from IN1.

Exit status: 0 on success/valid, 1 on invalid input, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MANIFEST_KEYS = ("seed", "threads", "scheme", "build_type", "cli")

# Provenance fields stamped by util::make_metrics_manifest. Required by
# --check (fresh dumps always carry them); optional everywhere else so the
# tool keeps reading dumps from before the fields existed (notably the
# committed BENCH_baseline.json).
PROVENANCE_KEYS = ("git_sha", "hostname", "started_at")


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as f:
        return json.load(f)


def check_schema(doc, require_provenance: bool = False) -> list[str]:
    """Returns a list of problems; empty means the document is valid."""
    problems: list[str] = []

    def expect(cond: bool, msg: str) -> bool:
        if not cond:
            problems.append(msg)
        return cond

    if not expect(isinstance(doc, dict), "top level is not a JSON object"):
        return problems
    for section in ("manifest", "counters", "histograms", "timers_ns"):
        expect(isinstance(doc.get(section), dict),
               f"missing or non-object section: {section}")
    if problems:
        return problems

    manifest = doc["manifest"]
    for key in MANIFEST_KEYS:
        expect(key in manifest, f"manifest missing key: {key}")
    if "seed" in manifest:
        expect(isinstance(manifest["seed"], int) and manifest["seed"] >= 0,
               "manifest.seed is not a nonnegative integer")
    if "threads" in manifest:
        expect(isinstance(manifest["threads"], int) and manifest["threads"] >= 0,
               "manifest.threads is not a nonnegative integer")
    for key in ("scheme", "build_type", "cli"):
        if key in manifest:
            expect(isinstance(manifest[key], str),
                   f"manifest.{key} is not a string")
    for key in PROVENANCE_KEYS:
        if require_provenance:
            expect(key in manifest, f"manifest missing provenance key: {key}")
        if key in manifest:
            expect(isinstance(manifest[key], str) and manifest[key],
                   f"manifest.{key} is not a nonempty string")

    for name, value in doc["counters"].items():
        expect(isinstance(value, int) and value >= 0,
               f"counter {name}: value is not a nonnegative integer")

    for name, h in doc["histograms"].items():
        if not expect(isinstance(h, dict), f"histogram {name}: not an object"):
            continue
        for key in ("count", "sum", "min", "max", "buckets"):
            expect(key in h, f"histogram {name}: missing key {key}")
        if isinstance(h.get("count"), int):
            bucket_total = 0
            for i, b in enumerate(h.get("buckets") or []):
                if not expect(isinstance(b, dict),
                              f"histogram {name}: bucket {i} not an object"):
                    continue
                for key in ("lo", "hi", "count"):
                    expect(key in b,
                           f"histogram {name}: bucket {i} missing {key}")
                if isinstance(b.get("count"), int):
                    expect(b["count"] > 0,
                           f"histogram {name}: bucket {i} has zero count "
                           "(only nonzero buckets are exported)")
                    bucket_total += b["count"]
            expect(bucket_total == h["count"],
                   f"histogram {name}: bucket counts sum to {bucket_total}, "
                   f"expected count={h['count']}")

    for name, t in doc["timers_ns"].items():
        if not expect(isinstance(t, dict), f"timer {name}: not an object"):
            continue
        for key in ("count", "total_ns", "max_ns"):
            expect(isinstance(t.get(key), int) and t.get(key, -1) >= 0,
                   f"timer {name}: {key} is not a nonnegative integer")
        if all(isinstance(t.get(k), int) for k in ("count", "total_ns",
                                                   "max_ns")):
            expect(t["max_ns"] <= t["total_ns"] or t["count"] <= 1,
                   f"timer {name}: max_ns exceeds total_ns")
        # Log-spaced duration buckets (optional: dumps from before the field
        # existed lack it). Same shape and invariants as histogram buckets.
        if "buckets" in t:
            if not expect(isinstance(t["buckets"], list),
                          f"timer {name}: buckets is not an array"):
                continue
            bucket_total = 0
            for i, b in enumerate(t["buckets"]):
                if not expect(isinstance(b, dict),
                              f"timer {name}: bucket {i} not an object"):
                    continue
                for key in ("lo", "hi", "count"):
                    expect(key in b, f"timer {name}: bucket {i} missing {key}")
                if isinstance(b.get("count"), int):
                    expect(b["count"] > 0,
                           f"timer {name}: bucket {i} has zero count "
                           "(only nonzero buckets are exported)")
                    bucket_total += b["count"]
            if isinstance(t.get("count"), int):
                expect(bucket_total == t["count"],
                       f"timer {name}: bucket counts sum to {bucket_total}, "
                       f"expected count={t['count']}")

    return problems


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """util/table's print() box style: +---+ rules, left-aligned cells."""
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    rule = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    def line(cells: list[str]) -> str:
        return "|" + "|".join(
            f" {cell:<{w}} " for cell, w in zip(cells, widths)) + "|"
    out = [rule, line(headers), rule]
    out += [line(row) for row in rows]
    out.append(rule)
    return "\n".join(out)


def fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.3f} us"
    return f"{ns} ns"


def bucket_percentile(buckets: list[dict], q: float) -> str | None:
    """Percentile estimate from log-spaced duration buckets, formatted.

    Walks the cumulative counts to the bucket holding the q-quantile and
    returns that bucket's geometric midpoint — the natural representative
    of a log-spaced bin. The overflow bucket has no upper edge
    (`"hi": null`), so a quantile landing there reads `>= lo`. Returns None
    for empty bucket lists.
    """
    total = sum(b["count"] for b in buckets)
    if total == 0:
        return None
    target = q * total
    ordered = sorted(buckets, key=lambda b: b["lo"])
    seen = 0
    for b in ordered:
        seen += b["count"]
        if seen >= target:
            break
    lo, hi = b["lo"], b["hi"]
    if hi is None:
        return ">= " + fmt_ns(int(lo))
    if lo > 0 and hi > 0:
        return fmt_ns(int((lo * hi) ** 0.5))
    return fmt_ns(int(hi / 2))


def top_timers(doc: dict, limit: int) -> str:
    timers = sorted(doc["timers_ns"].items(),
                    key=lambda kv: kv[1]["total_ns"], reverse=True)
    rows = []
    for name, t in timers[:limit]:
        mean = t["total_ns"] / t["count"] if t["count"] else 0
        pcts = []
        for q in (0.50, 0.90, 0.99):
            p = bucket_percentile(t.get("buckets") or [], q)
            pcts.append("-" if p is None else p)
        rows.append([name, str(t["count"]), fmt_ns(t["total_ns"]),
                     fmt_ns(int(mean))] + pcts + [fmt_ns(t["max_ns"])])
    return render_table(
        ["Timer", "Count", "Total", "Mean", "p50", "p90", "p99", "Max"], rows)


def fmt_delta(base: int | None, cand: int | None, unit=None) -> str:
    """cand - base with its relative change; `unit` (e.g. fmt_ns) formats
    the delta's magnitude, else it prints as a signed integer."""
    if base is None or cand is None:
        return "-"
    delta = cand - base
    if unit is None:
        text = f"{delta:+d}"
    else:
        text = ("-" if delta < 0 else "+") + unit(abs(delta))
    if base == 0:
        return text
    return f"{text} ({100.0 * delta / base:+.1f}%)"


def diff(base: dict, cand: dict) -> str:
    out = []

    names = sorted(set(base["counters"]) | set(cand["counters"]))
    rows = []
    for name in names:
        b = base["counters"].get(name)
        c = cand["counters"].get(name)
        rows.append([name,
                     "-" if b is None else str(b),
                     "-" if c is None else str(c),
                     fmt_delta(b, c)])
    if rows:
        out.append("Counters")
        out.append(render_table(["Counter", "Baseline", "Candidate", "Delta"],
                                rows))

    names = sorted(set(base["timers_ns"]) | set(cand["timers_ns"]))
    rows = []
    for name in names:
        b = base["timers_ns"].get(name)
        c = cand["timers_ns"].get(name)
        rows.append([name,
                     "-" if b is None else fmt_ns(b["total_ns"]),
                     "-" if c is None else fmt_ns(c["total_ns"]),
                     fmt_delta(None if b is None else b["total_ns"],
                               None if c is None else c["total_ns"],
                               fmt_ns)])
    if rows:
        out.append("")
        out.append("Timers (total)")
        out.append(render_table(["Timer", "Baseline", "Candidate", "Delta"],
                                rows))

    return "\n".join(out)


def merge_min(docs: list[dict]) -> tuple[dict | None, list[str]]:
    """Best-of-N merge: min wall clock per timer, counters pinned equal.

    Returns (merged, problems); merged is None when problems is nonempty.
    """
    problems: list[str] = []
    first = docs[0]

    for i, doc in enumerate(docs[1:], start=2):
        if set(doc["counters"]) != set(first["counters"]):
            problems.append(f"run {i}: counter name set differs from run 1")
            continue
        for name, value in first["counters"].items():
            if doc["counters"][name] != value:
                problems.append(
                    f"run {i}: counter {name}: {doc['counters'][name]} != "
                    f"{value} in run 1 (deterministic runs must agree)")

    for i, doc in enumerate(docs[1:], start=2):
        if set(doc["timers_ns"]) != set(first["timers_ns"]):
            problems.append(f"run {i}: timer name set differs from run 1")
            continue
        for name, t in first["timers_ns"].items():
            if doc["timers_ns"][name]["count"] != t["count"]:
                problems.append(
                    f"run {i}: timer {name}: count "
                    f"{doc['timers_ns'][name]['count']} != {t['count']} in "
                    "run 1 (deterministic runs must agree)")
    if problems:
        return None, problems

    merged = {
        "manifest": first["manifest"],
        "counters": first["counters"],
        "histograms": first["histograms"],
        "timers_ns": {
            name: {
                "count": t["count"],
                "total_ns": min(d["timers_ns"][name]["total_ns"]
                                for d in docs),
                "max_ns": min(d["timers_ns"][name]["max_ns"] for d in docs),
                # Duration buckets from run 1: counts are pinned equal across
                # runs, so any run's distribution is representative.
                **({"buckets": t["buckets"]} if "buckets" in t else {}),
            }
            for name, t in first["timers_ns"].items()
        },
    }
    return merged, problems


GATE_COUNTER_PREFIXES = ("core.", "bench.stress.")

# The gated timer is divided by this one: bench/stress_scale times a fixed
# kernel that calls no library code beside every solve, so the ratio of the
# two does not depend on how fast the host ran that day.
REFERENCE_TIMER = "bench.stress.reference"


def gate(base: dict, cand: dict, timer_name: str,
         tolerance: float) -> list[str]:
    """Returns a list of gate failures; empty means the candidate passes."""
    problems: list[str] = []

    # Deterministic work counters must match the baseline exactly: the
    # solvers are bit-deterministic for any thread count, so any drift in
    # iteration/evaluation counts is a behavior change, which must come
    # with a deliberate baseline regeneration.
    names = sorted(set(base["counters"]) | set(cand["counters"]))
    for name in names:
        if not name.startswith(GATE_COUNTER_PREFIXES):
            continue
        b = base["counters"].get(name)
        c = cand["counters"].get(name)
        if b != c:
            problems.append(
                f"counter {name}: baseline {b} != candidate {c} "
                "(deterministic work drifted; if intended, regenerate "
                "BENCH_baseline.json)")

    totals = {}
    for side, doc in (("baseline", base), ("candidate", cand)):
        for name in (timer_name, REFERENCE_TIMER):
            t = doc["timers_ns"].get(name)
            if t is None:
                problems.append(f"timer {name}: missing from {side}")
            elif t["total_ns"] == 0:
                problems.append(f"timer {name}: zero total in {side}")
            else:
                totals[side, name] = t["total_ns"]
    if len(totals) < 4:
        return problems

    def ratio(side: str) -> tuple[float, str]:
        work = totals[side, timer_name]
        ref = totals[side, REFERENCE_TIMER]
        return work / ref, f"{work / ref:.3f} ({fmt_ns(work)} / {fmt_ns(ref)})"

    b_ratio, b_text = ratio("baseline")
    c_ratio, c_text = ratio("candidate")
    detail = (f"{timer_name} / {REFERENCE_TIMER}: candidate {c_text} vs "
              f"baseline {b_text}, {100.0 * (c_ratio / b_ratio - 1.0):+.1f}% "
              f"(tolerance +{100.0 * tolerance:.0f}%)")
    if c_ratio > b_ratio * (1.0 + tolerance):
        problems.append(detail)
    else:
        print(f"gate: {detail}")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="one file for --check/--top-timers, two to diff")
    parser.add_argument("--check", action="store_true",
                        help="validate the schema and exit 0/1")
    parser.add_argument("--top-timers", action="store_true",
                        help="print the top timers by total time")
    parser.add_argument("--limit", type=int, default=10,
                        help="row cap for --top-timers (default 10)")
    parser.add_argument("--gate", action="store_true",
                        help="perf-regression gate: BASELINE CANDIDATE")
    parser.add_argument("--merge-min", action="store_true",
                        help="merge repeated runs: OUT IN1 IN2 [IN3 ...]")
    parser.add_argument("--timer", default="bench.stress.slot_solve",
                        help="timer gated by --gate "
                             "(default: bench.stress.slot_solve)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative wall-clock regression for "
                             "--gate (default 0.15)")
    args = parser.parse_args(argv)

    if args.merge_min:
        # OUT is written, not read — peel it off before the shared load.
        if len(args.files) < 3:
            parser.error("--merge-min takes OUT IN1 IN2 [IN3 ...]")
        out_path, in_paths = args.files[0], args.files[1:]
        try:
            docs = [load(p) for p in in_paths]
        except (OSError, json.JSONDecodeError) as e:
            print(f"metrics_report: {e}", file=sys.stderr)
            return 1
        for path, doc in zip(in_paths, docs):
            bad = check_schema(doc)
            if bad:
                print(f"metrics_report: {path} invalid: {bad[0]}",
                      file=sys.stderr)
                return 1
        merged, problems = merge_min(docs)
        for p in problems:
            print(f"merge-min: FAIL: {p}")
        if merged is None:
            return 1
        with out_path.open("w", encoding="utf-8") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
        gated = merged["timers_ns"].get("bench.stress.slot_solve")
        detail = (f", bench.stress.slot_solve min "
                  f"{fmt_ns(gated['total_ns'])}" if gated else "")
        print(f"merge-min: wrote {out_path} "
              f"({len(docs)} runs{detail})")
        return 0

    try:
        docs = [load(p) for p in args.files]
    except (OSError, json.JSONDecodeError) as e:
        print(f"metrics_report: {e}", file=sys.stderr)
        return 1

    if args.check:
        if len(docs) != 1:
            parser.error("--check takes exactly one file")
        problems = check_schema(docs[0], require_provenance=True)
        for p in problems:
            print(f"{args.files[0]}: {p}")
        if problems:
            print(f"metrics_report: INVALID ({len(problems)} problem(s))")
            return 1
        print(f"metrics_report: valid ({args.files[0]})")
        return 0

    if args.top_timers:
        if len(docs) != 1:
            parser.error("--top-timers takes exactly one file")
        bad = check_schema(docs[0])
        if bad:
            print(f"metrics_report: invalid input: {bad[0]}", file=sys.stderr)
            return 1
        print(top_timers(docs[0], args.limit))
        return 0

    if args.gate:
        if len(docs) != 2:
            parser.error("--gate takes exactly two files: BASELINE CANDIDATE")
        for path, doc in zip(args.files, docs):
            bad = check_schema(doc)
            if bad:
                print(f"metrics_report: {path} invalid: {bad[0]}",
                      file=sys.stderr)
                return 1
        problems = gate(docs[0], docs[1], args.timer, args.tolerance)
        for p in problems:
            print(f"gate: FAIL: {p}")
        if problems:
            return 1
        print("gate: PASS")
        return 0

    if len(docs) != 2:
        parser.error("diff mode takes exactly two files "
                     "(or use --check / --top-timers)")
    for path, doc in zip(args.files, docs):
        bad = check_schema(doc)
        if bad:
            print(f"metrics_report: {path} invalid: {bad[0]}", file=sys.stderr)
            return 1
    print(diff(docs[0], docs[1]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. `metrics_report.py a b | head`
        sys.exit(0)
