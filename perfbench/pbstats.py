"""Statistics and result-line helpers shared by perfbench/run.py.

One percentile rule is used everywhere in the benchmark: nearest rank. The
p-th percentile of n sorted samples is the sample at 1-based rank
ceil(p/100 * n). A tail percentile is only *reportable* when at least
MIN_BEYOND samples lie strictly beyond that rank; otherwise it is a
relabelled maximum and the report says so instead of printing a number.
"""

import json
import math

MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of the p-th percentile (0 < p <= 100) of n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return max(1, min(n, math.ceil(p / 100.0 * n - 1e-9)))


def percentile(values, p):
    """Nearest-rank percentile of an unsorted sequence."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p, n):
    """Samples lying strictly beyond the p-th percentile's rank."""
    return n - rank(p, n)


def reportable(p, n):
    """Whether the p-th percentile of n samples has enough samples beyond it.

    The median is always reportable once there is a sample."""
    if n < 1:
        return False
    return p <= 50 or beyond(p, n) >= MIN_BEYOND


def tail_text(values, p, scale=1.0):
    """Human text for a tail percentile: the value with its sample count, or
    why it is not reported."""
    n = len(values)
    if not reportable(p, n):
        return "n/a (n={}, needs {} beyond p{:g})".format(n, MIN_BEYOND, p)
    return "{:.3f} (n={})".format(percentile(values, p) * scale, n)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values):
    return percentile(values, 50)


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line.

    metrics maps a name to (value, unit). Values keep every digit: json
    writes Python floats with repr, which round-trips the double."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("attempted and failed must be whole numbers")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    out = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("metric {} is not finite".format(name))
        out[name] = {"value": value, "unit": unit}
    return json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": out},
        separators=(", ", ": "),
    )
