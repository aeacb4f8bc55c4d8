"""Order statistics the benchmark reports, in plain Python.

The parent process aggregates child results with these, so it never has
to import numpy (and can therefore never pin BLAS threads too late).
"""

from __future__ import annotations

import math

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide: "the highest percentile that has at
#: least ten samples beyond it").
MIN_SAMPLES_BEYOND = 10


class UndersizedSample(ValueError):
    """A round was too small for the tail percentile it was asked for."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(values, q: float = 95.0) -> float:
    """``percentile`` that refuses a sample with a too-thin tail."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise UndersizedSample(
            f"p{q:g} of {len(values)} samples leaves {beyond:g} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}")
    return percentile(values, q)


def quietest(values, better: str) -> float:
    """The round the machine disturbed least.

    Rounds replay the same requests, so what differs between them is the
    machine, and interference only ever makes a time longer or a rate
    lower: the quietest round is the smallest time (``better="lower"``)
    or the largest rate (``better="higher"``).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return min(values) if better == "lower" else max(values)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    mid = median(values)
    if mid == 0:
        return 0.0
    return (percentile(values, 75.0) - percentile(values, 25.0)) / abs(mid)
