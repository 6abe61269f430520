"""Arithmetic of the benchmark: percentiles, spreads, span self times.

Kept apart from the workloads so `test_stats.py` can check it without
building or running anything.
"""

import bisect
import math
import statistics


def quantile_index(n, q):
    """Nearest-rank index of quantile `q` (0 < q <= 1) in `n` sorted samples.

    The p-th percentile is the smallest sample with at least p% of the
    samples at or below it: rank ceil(q * n), index rank - 1.
    """
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    # Round before ceil so q * n that is an integer in exact arithmetic
    # (0.99 * 100) does not step up a rank through float error.
    return max(0, math.ceil(round(q * n, 9)) - 1)


def percentile(samples, q):
    """Nearest-rank quantile `q` of `samples`."""
    ordered = sorted(samples)
    return ordered[quantile_index(len(ordered), q)]


def median(samples):
    return statistics.median(samples)


def spread(values):
    """Interquartile distance as a share of the median.

    Quartiles as `statistics.quantiles(values, n=4)` gives them (the
    exclusive method); zero for fewer than two values.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def net_share(samples, t, ncpu):
    """Share of the machine's CPU time this guest kept around time `t`.

    `samples` are `(time, stolen_s)` pairs in time order, `stolen_s` the
    cumulative steal counter summed over `ncpu` CPUs. The window is the
    pair of samples around `t` (the first or last window outside them).
    Clamped to [0.1, 1]: a window the hypervisor took whole says nothing.
    """
    if len(samples) < 2:
        return 1.0
    i = bisect.bisect_right([s[0] for s in samples], t)
    i = min(max(i, 1), len(samples) - 1)
    (t0, s0), (t1, s1) = samples[i - 1], samples[i]
    if t1 <= t0:
        return 1.0
    return min(1.0, max(0.1, 1.0 - (s1 - s0) / (ncpu * (t1 - t0))))


def union_length(intervals):
    """Total length covered by `(start, end)` intervals, overlaps merged."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span.

    `spans` is a list of dicts with `start`, `end` and `parent` (index of
    the parent span, or -1 for a root).
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children[i]
        ]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out.append(max(0.0, (s["end"] - s["start"]) - covered))
    return out


def self_time_by_name(spans):
    """Sum of self times per span name."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def coverage(spans, wall_s):
    """Share of `wall_s` attributed to spans, and the unattributed rest.

    Returns `(coverage, unattributed_s)`; the sum of self times equals the
    union of the root spans, so coverage never exceeds 1 for spans that
    stay inside the traced wall.
    """
    attributed = sum(self_times(spans))
    return attributed / wall_s, max(0.0, wall_s - attributed)


# Stamp fields that identify the machine, toolchain and settings. The
# commit and source digest are recorded too, but differ by design between
# a parent and a change.
MACHINE_KEYS = (
    "cpu_model", "nproc", "workers_available", "bdc_workers", "batch_lanes", "rustc", "profile",
)


def stamp_differences(a, b, keys):
    """The `keys` on which two environment stamps disagree.

    Results may be compared only when this is empty: a row from another
    machine, toolchain or worker setting does not count.
    """
    return [k for k in keys if a.get(k) != b.get(k)]
