"""Readers for what the benchmark driver writes.

Two kinds of input:

* Metrics-registry dumps (the JSON util::write_metrics_json emits). Layer
  figures are deltas between two dumps. The overflow bucket's upper edge
  is exported as ``"hi": null``, and timer totals routinely exceed 2^32 ns;
  both are handled here (buckets are compared by their lower edge, totals
  are Python integers).
* Samples of per-slot decision latency, summarised by nearest-rank
  percentiles that carry their sample count and the number of samples
  beyond them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


@dataclass
class Timer:
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    #: bucket lower edge -> (upper edge, count); the overflow bucket's
    #: upper edge is math.inf.
    buckets: dict[float, tuple[float, int]] = field(default_factory=dict)


@dataclass
class Registry:
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, Timer] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def timer(self, name: str) -> Timer:
        return self.timers.get(name, Timer())


def _edge(value) -> float:
    """A bucket edge from the dump; null (the overflow bucket) is +inf."""
    return math.inf if value is None else float(value)


def parse_registry(doc: dict) -> Registry:
    reg = Registry()
    for name, value in doc.get("counters", {}).items():
        reg.counters[name] = int(value)
    for name, t in doc.get("timers_ns", {}).items():
        reg.timers[name] = Timer(
            count=int(t["count"]),
            total_ns=int(t["total_ns"]),
            max_ns=int(t["max_ns"]),
            buckets={_edge(b["lo"]): (_edge(b["hi"]), int(b["count"]))
                     for b in t.get("buckets") or []})
    return reg


def delta(after: Registry, before: Registry) -> Registry:
    """What happened between two dumps of one process's registry."""
    out = Registry()
    for name, value in after.counters.items():
        out.counters[name] = value - before.counter(name)
    for name, t in after.timers.items():
        b = before.timer(name)
        buckets = {}
        for lo, (hi, count) in t.buckets.items():
            n = count - b.buckets.get(lo, (hi, 0))[1]
            if n:
                buckets[lo] = (hi, n)
        # max_ns is a running maximum; it cannot be differenced.
        out.timers[name] = Timer(t.count - b.count, t.total_ns - b.total_ns,
                                 t.max_ns, buckets)
    return out


def bucket_percentile(timer: Timer, pct: int) -> float | None:
    """The pct-th percentile of a timer's log2 buckets: the geometric
    midpoint of the bucket holding it, the bucket's lower edge for the
    unbounded overflow bucket, None for an empty timer."""
    total = sum(count for _, count in timer.buckets.values())
    if total == 0:
        return None
    rank = nearest_rank(total, pct)
    seen = 0
    for lo in sorted(timer.buckets):
        hi, count = timer.buckets[lo]
        seen += count
        if seen >= rank:
            if math.isinf(hi):
                return lo
            return math.sqrt(lo * hi) if lo > 0 else hi / 2
    raise AssertionError("unreachable: rank <= total")


def exact_repeats(passes: list[Registry]) -> tuple[list[str], list[str]]:
    """Splits the counters and timer call counts that were nonzero in some
    pass into those equal in every pass and those that are not."""
    def counts(reg: Registry) -> dict[str, int]:
        out = dict(reg.counters)
        for name, t in reg.timers.items():
            out[name + ".count"] = t.count
        return out

    tables = [counts(p) for p in passes]
    names = sorted({n for t in tables for n, v in t.items() if v})
    exact = [n for n in names if len({t.get(n, 0) for t in tables}) == 1]
    inexact = [n for n in names if n not in exact]
    return exact, inexact


def nearest_rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile (integer pct, so the
    rank never suffers a float rounding): ceil(pct * n / 100), at least 1."""
    return max(1, (pct * n + 99) // 100)


@dataclass
class Percentile:
    value: float
    samples: int
    beyond: int  #: samples strictly after the percentile's rank

    @property
    def reportable(self) -> bool:
        return self.beyond >= MIN_BEYOND


def percentile(sorted_samples, pct: int) -> Percentile:
    """Nearest-rank percentile of already sorted samples."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("no samples")
    rank = nearest_rank(n, pct)
    return Percentile(float(sorted_samples[rank - 1]), n, n - rank)


#: Share of the per-unit figures trimmed from each end before averaging.
TRIM = 0.2


def trimmed_mean(values) -> float:
    """The mean of per-unit figures without the lowest and highest TRIM of
    them: a burst of host interference, or a unit whose random inputs are
    unusually heavy, moves it little, and it keeps more of the sample than
    the median does."""
    values = sorted(values)
    if not values:
        raise ValueError("no values")
    k = int(len(values) * TRIM)
    kept = values[k:len(values) - k]
    return math.fsum(kept) / len(kept)


def unit_percentile(samples, unit_counts: list[int], pct: int) -> Percentile:
    """The pct-th percentile of samples recorded unit by unit (consecutive
    runs of unit_counts[i] samples each).

    When every unit holds enough samples to report the percentile on its
    own, the result is the trimmed mean over units of each unit's
    nearest-rank value, and ``beyond`` is the smallest per-unit count beyond
    it. Otherwise the samples are pooled.
    """
    if sum(unit_counts) != len(samples):
        raise ValueError("unit counts do not cover the samples")
    per_unit = []
    start = 0
    for count in unit_counts:
        if count:
            per_unit.append(
                percentile(sorted(samples[start:start + count]), pct))
        start += count
    if per_unit and all(p.reportable for p in per_unit):
        return Percentile(trimmed_mean(p.value for p in per_unit),
                          len(samples), min(p.beyond for p in per_unit))
    return percentile(sorted(samples), pct)


def unit_scales(ref_ns, nominal_ns: float) -> list[float]:
    """Host-speed factors per window unit: nominal_ns over the reference
    kernel's figure for the unit. A time multiplied by its factor reads as
    it would on a host where the kernel takes nominal_ns."""
    return [nominal_ns / r for r in ref_ns]


def scale_units(samples, unit_counts: list[int], scales: list[float]):
    """Samples recorded unit by unit, each multiplied by its unit's factor."""
    if sum(unit_counts) != len(samples) or len(scales) != len(unit_counts):
        raise ValueError("unit counts do not cover the samples")
    out = array("d")
    start = 0
    for count, scale in zip(unit_counts, scales):
        out.extend(x * scale for x in samples[start:start + count])
        start += count
    return out


def read_decisions(path: str) -> array:
    """The driver's binary file of int64 decision latencies (ns), in the
    order they were recorded."""
    samples = array("q")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return samples
