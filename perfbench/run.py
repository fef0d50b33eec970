#!/usr/bin/env python3
"""femtocr benchmark command: builds the driver, runs one workload, checks
its outputs and prints every metric.

    python3 perfbench/run.py --workload fig6a --seed 1 --seconds 25 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the library sources plus driver.cpp, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Workloads: fig6a, fig4b, city, churn (see
perfbench/README.md), or all of them in turn with --workload all.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. The exit code is nonzero
when any output check failed or nothing could be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as git would leave it
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

WORKLOADS = ("fig6a", "fig4b", "city", "churn")

#: The reference kernel's nominal time. The driver times a fixed kernel
#: (about 1 ms of work that calls no library code) around every window unit
#: and set-up, and inside units every 25 ms where the workload allows; each
#: end-to-end time is multiplied by REFERENCE_NS over the kernel's mean time
#: around it. Times therefore read as wall time on a host where the kernel
#: takes exactly 1 ms, and the host's drifting speed divides out
#: (perfbench/README.md, "Noise").
REFERENCE_NS = 1_000_000

#: Threads each workload runs on (the driver sets them; city is the only
#: parallel one).
THREADS = {"fig6a": 1, "fig4b": 1, "city": 4, "churn": 1}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build(root: str) -> str:
    """Configures (once) and builds the driver; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=850)
    return os.path.join(build_dir, "femtocr_perfbench")


def ms_per_slot(ns: float, slots: int) -> float:
    return ns / 1e6 / slots


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def slots_per_s(out: dict, scales: list[float] | None) -> float:
    """Trimmed mean over the window's units (a sweep replication, a GOP of
    city slots, an engine run) of each unit's slots per second, the unit's
    time scaled by its host-speed factor (scales=None: wall time)."""
    scales = scales or [1.0] * len(out["unit_ns"])
    return ledger.trimmed_mean(
        s / (ns * k) * 1e9
        for s, ns, k in zip(out["unit_slots"], out["unit_ns"], scales))


def decision_percentiles(out: dict, decisions, scales) -> dict:
    """{pct: Percentile in microseconds} for p50/p90/p99.

    Per window unit (a sweep replication, an engine run), trimmed mean
    over units when every unit can report the percentile on its own; pooled
    over the window otherwise (city, whose unit is one GOP of ten slots).
    On churn sim::Engine runs its own scheme, so the per-run nearest-rank
    folds it reports stand in for the samples; a run's fold covers its
    non-idle slots. `decisions` are already scaled; the folds are scaled
    here by `scales` (None: wall time).
    """
    result = {}
    for i, pct in enumerate((50, 90, 99)):
        if out["run_folds"]:
            folds = out["run_folds"]
            ks = scales or [1.0] * len(folds)
            per_run = out["decision_samples"] // len(folds)
            p = ledger.Percentile(
                ledger.trimmed_mean(f[i] * k for f, k in zip(folds, ks)),
                out["decision_samples"],
                per_run - ledger.nearest_rank(per_run, pct))
        else:
            p = ledger.unit_percentile(decisions, out["unit_decisions"], pct)
        result[pct] = ledger.Percentile(p.value / 1e3, p.samples, p.beyond)
    return result


def setup_seconds(v: dict, scaled: bool = True) -> float:
    """The median over the run's set-ups of each one's time, scaled by the
    reference kernel's figure around it (scaled=False: wall time)."""
    return statistics.median(
        x * (REFERENCE_NS / v["setup_ref_ns." + k[len("setup_s."):]]
             if scaled else 1.0)
        for k, x in v.items() if k.startswith("setup_s."))


def end_to_end(out: dict, decisions, scales,
               wall_decisions) -> tuple[dict, list[str]]:
    v = out["values"]
    pcts = decision_percentiles(out, decisions, scales)
    metrics = {
        "setup_s": (setup_seconds(v), "s"),
        "slots_per_s": (slots_per_s(out, scales), "1/s"),
        "decision_p50_us": (pcts[50].value, "us"),
        "decision_p90_us": (pcts[90].value, "us"),
        "mean_psnr_db": (v["mean_psnr_db"], "dB"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [f"decision_p{pct}_us samples={p.samples} beyond={p.beyond}"
             + ("" if p.reportable else " (too few beyond: not reportable)")
             for pct, p in pcts.items()]
    notes.append(f"decision_p99_us = {pcts[99].value:.4f}")
    wall = decision_percentiles(out, wall_decisions, None)
    notes.append(
        f"wall clock, unscaled: setup_s = {setup_seconds(v, False):.6f} "
        f"slots_per_s = {slots_per_s(out, None):.3f} "
        f"decision_p50_us = {wall[50].value:.4f} "
        f"decision_p90_us = {wall[90].value:.4f}")
    notes.append("reference kernel: median "
                 f"{statistics.median(out['unit_ref_ns']) / 1e6:.4f} ms over "
                 f"{len(out['unit_ref_ns'])} units (nominal "
                 f"{REFERENCE_NS / 1e6:g} ms)")
    for key in ("mean_objective", "admitted_ratio"):
        if key in v:
            notes.append(f"{key} = {v[key]:.6f}")
    notes.append(f"failed_ratio = {ratio(out['failed'], out['attempted'])}"
                 f" ({out['failed']}/{out['attempted']})")
    notes.append(f"window_s = {v['window_s']:.3f} "
                 f"units = {len(out['unit_decisions'])}")
    # The workload's size as generated (city.fbs, churn.peak_sessions, ...).
    notes += [f"{k} = {x:g}" for k, x in sorted(v.items())
              if k.split(".")[0] in WORKLOADS]
    return metrics, notes


def per_layer(workload: str, out: dict, decisions,
              scales) -> tuple[dict, list[str]]:
    v = out["values"]
    regs = {k: ledger.parse_registry(d) for k, d in out["registry"].items()}
    quanta = sorted(k for k in regs if k.startswith("quantum."))
    passes = [ledger.delta(regs[b], regs[a])
              for a, b in zip(quanta, quanta[1:])]
    q = passes[0]
    w = ledger.delta(regs["window.1"], regs["window.0"])
    exact, inexact = ledger.exact_repeats(passes)
    spans = {k: s["total_ns"] for k, s in out["spans"].items()}
    replays = out["spans"].get("replay", {}).get("count", 0)
    slots = out["slots"]
    window_ns = v["window_s"] * 1e9

    if workload == "city":
        run_ns = window_ns
        decision_ns = spans["allocate"] + spans["replay"]
        decision_work_ns = spans["component.busy"]
    elif workload == "churn":
        run_ns = spans["run"]
        decision_ns = decision_work_ns = w.timer("sim.slot.allocate").total_ns
    else:
        run_ns = spans["run"]
        decision_ns = decision_work_ns = spans["allocate"]

    wf_ns = w.timer("core.waterfill.solve").total_ns
    greedy_ns = w.timer("core.greedy.allocate").total_ns
    wf_in_greedy = wf_ns - spans.get("component.edgeless_waterfill", 0)
    spectrum_ns = w.timer("spectrum.observe_slot").total_ns
    deliver_ns = w.timer("sim.slot.deliver").total_ns
    evaluations = q.counter("core.waterfill.evaluations")
    level_solves = q.counter("core.waterfill.level_solves")
    allocations = q.counter("core.greedy.allocations")
    candidate_evals = q.counter("core.greedy.candidate_evals")
    probes = 0
    if workload == "churn":
        probes = (q.counter("sim.engine.arrivals")
                  - q.counter("sim.engine.rejected.capacity"))
    traced_p50 = decision_percentiles(out, decisions, scales)[50].value

    m = {
        "ledger.decisions": (v["ledger.decisions"], "count"),
        "ledger.exact_counters": (len(exact), "count"),
        "ledger.inexact_counters": (len(inexact), "count"),
        "sim.run.busy_ms": (ms_per_slot(run_ns, slots), "ms/slot"),
        "sim.decision.busy_ms": (ms_per_slot(decision_ns, slots), "ms/slot"),
        "core.waterfill.solves": (q.counter("core.waterfill.solves"),
                                  "count"),
        "core.waterfill.evaluations": (evaluations, "count"),
        "core.waterfill.level_solves": (level_solves, "count"),
        "core.waterfill.breakpoint.events": (
            q.counter("core.waterfill.breakpoint.events"), "count"),
        "core.waterfill.bisect_fallback": (
            q.counter("core.waterfill.breakpoint.bisect_fallback"), "count"),
        "core.waterfill.levels_per_trial": (ratio(level_solves, evaluations),
                                            "ratio"),
        "core.waterfill.busy_ms": (ms_per_slot(wf_ns, slots), "ms/slot"),
        "core.waterfill.decision_share": (ratio(wf_ns, decision_work_ns),
                                          "ratio"),
        "core.greedy.allocations": (allocations, "count"),
        "core.greedy.candidate_evals": (candidate_evals, "count"),
        "core.greedy.evals_per_allocation": (
            ratio(candidate_evals, allocations), "ratio"),
        "core.greedy.self_ms": (
            ms_per_slot(max(0, greedy_ns - wf_in_greedy), slots)
            if greedy_ns else 0.0, "ms/slot"),
        "core.greedy.useful_ratio": (
            ratio(v.get("replay.greedy_rounds", 0),
                  w.counter("core.greedy.candidate_evals")), "ratio"),
        "core.shard.components_per_slot": (
            ratio(v.get("replay.components", 0), replays), "count"),
        "core.shard.max_component_size": (
            v.get("replay.max_component_size", 0), "count"),
        "core.shard.overhead_ms": (
            ratio((spans.get("shard.decompose", 0)
                   + spans.get("shard.fold", 0)) / 1e6, replays), "ms/slot"),
        "core.shard.critical_path_share": (
            ratio(spans.get("component.critical", 0), spans.get("replay", 0)),
            "ratio"),
        "util.parallel.efficiency": (
            ratio(spans.get("component.busy", 0),
                  THREADS[workload] * spans.get("replay", 0)), "ratio"),
        "spectrum.observe_slot.calls": (
            q.timer("spectrum.observe_slot").count, "count"),
        "spectrum.observe_slot.busy_ms": (ms_per_slot(spectrum_ns, slots),
                                          "ms/slot"),
        "spectrum.run_share": (ratio(spectrum_ns, run_ns), "ratio"),
        "spectrum.sensing.reports": (q.counter("spectrum.sensing.reports"),
                                     "count"),
        "sim.slot.deliver.busy_ms": (ms_per_slot(deliver_ns, slots),
                                     "ms/slot"),
        "sim.slot.unattributed_ms": (
            ms_per_slot(run_ns - spectrum_ns - decision_ns - deliver_ns,
                        slots), "ms/slot"),
        "net.topology.updates": (
            sum(q.counter("net.graph.incremental." + k)
                for k in ("user_adds", "user_removes", "user_moves")),
            "count"),
        "net.graph.edges_changed": (
            q.counter("net.graph.incremental.edges_added")
            + q.counter("net.graph.incremental.edges_removed"), "count"),
        "core.qos.probes": (probes, "count"),
        "core.qos.admit_ratio": (
            ratio(q.counter("sim.engine.admitted"), probes), "ratio"),
        "core.slotcache.builds": (q.counter("core.slotcache.builds"),
                                  "count"),
        "core.slotcache.busy_ms": (
            ms_per_slot(w.timer("core.slotcache.build").total_ns, slots),
            "ms/slot"),
        "trace.slots_per_s": (slots_per_s(out, scales), "1/s"),
        "trace.decision_p50_us": (traced_p50, "us"),
    }
    notes = [f"ledger quantum: {int(v['ledger.slots'])} slots, "
             f"{len(passes)} passes"
             + (" (the third on 1 thread)" if len(passes) > 2 else ""),
             "counts repeated exactly: " + (", ".join(exact) or "none"),
             "counts that did not repeat: " + (", ".join(inexact) or "none"),
             "window timers (calls, total ms, p50/p90 per call from the "
             "log2 buckets):"]
    top = sorted(w.timers.items(), key=lambda kv: -kv[1].total_ns)[:8]
    for name, t in top:
        if t.count:
            notes.append(
                f"  {name:28s} {t.count:10d} {t.total_ns / 1e6:12.3f} ms "
                f"p50~{ledger.bucket_percentile(t, 50):.0f} ns "
                f"p90~{ledger.bucket_percentile(t, 90):.0f} ns")
    return m, notes


def run_workload(driver: str, workload: str, args) -> dict | None:
    """Runs the driver on one workload and prints its table; returns the
    result object, or None when the driver did not finish."""
    out_dir = os.path.join(os.path.dirname(driver), "runs")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir,
                            f"{workload}-{args.seed}-{args.trace}.json")
    cmd = [driver, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out_path}"]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=args.seconds + 120)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: driver failed: {e}")
        return None
    with open(out_path) as f:
        out = json.load(f)
    wall_decisions = ledger.read_decisions(out_path + ".decisions")
    scales = ledger.unit_scales(out["unit_ref_ns"], REFERENCE_NS)
    decisions = (wall_decisions if out["run_folds"] else ledger.scale_units(
        wall_decisions, out["unit_decisions"], scales))

    if args.trace:
        metrics, notes = per_layer(workload, out, decisions, scales)
    else:
        metrics, notes = end_to_end(out, decisions, scales, wall_decisions)
    print(f"# femtocr perfbench: workload={workload} seed={args.seed} "
          f"trace={args.trace} threads={THREADS[workload]} "
          f"slots={out['slots']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    for note in notes:
        print(f"# {note}")
    for failure in out["failures"]:
        print(f"# FAILED: {failure}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the femtocr repository root "
            "(no src/CMakeLists.txt here)")
        return 2
    try:
        driver = build(root)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    if args.workload != "all":
        result = run_workload(driver, args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload in turn; metric names gain a "<workload>." prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(driver, workload, args)
        if result is None:
            return 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
