"""Percentile and sample-count rules shared by every workload.

Percentiles are nearest-rank: the p-th percentile of ``n`` samples is
the ``ceil(p/100 * n)``-th smallest, so it is always a measured value.
A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, it would rest on a handful of
outliers.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Percentiles considered for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990
    rather than letting float rounding push it to 9991."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; raises on an empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank p-th one."""
    return n - _rank(n, p)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest candidate percentile that keeps ``min_beyond``
    samples beyond it, or None when even the median does not."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= min_beyond:
            return p
    return None


def median(samples: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even n)."""
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def p50(samples: Sequence[float], default: float = 0.0) -> float:
    """Nearest-rank median, or ``default`` for an empty sample (a layer
    a workload does not exercise)."""
    return percentile(samples, 50) if samples else default


def latencies_with_failures(
    completed: Iterable[float], failed_ages: Iterable[float]
) -> List[float]:
    """Latency samples where each failed operation counts as missing the
    tail: it enters with the time it had waited when the run ended,
    which is never shorter than any latency it could have had."""
    return [*completed, *failed_ages]


def wait_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def schedule(n: int, rate: float, start: float) -> List[float]:
    """Due times of ``n`` open-loop operations at ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + i / rate for i in range(n)]


def run_open_loop(
    dues: Sequence[float], execute, threads: int = 2
) -> List[tuple]:
    """Run operation ``i`` at ``dues[i]`` whatever the earlier ones are
    doing, on up to ``threads`` threads (the caller's thread included).

    Returns one ``(value, lateness, finished)`` per operation, where
    ``value`` is ``execute(i)`` (or the exception it raised) and
    ``lateness`` is how long after its due time the operation started.
    """
    import threading

    results: List[tuple] = [None] * len(dues)  # type: ignore[list-item]
    cursor = [0]
    lock = threading.Lock()

    def drive() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(dues):
                return
            wait_until(dues[i])
            lateness = time.perf_counter() - dues[i]
            try:
                value = execute(i)
            except Exception as exc:  # noqa: BLE001 — a failed op, not a crash
                value = exc
            results[i] = (value, lateness, time.perf_counter())

    helpers = [
        threading.Thread(target=drive, name=f"open-loop-{k}")
        for k in range(threads - 1)
    ]
    for helper in helpers:
        helper.start()
    try:
        drive()
    finally:
        for helper in helpers:
            helper.join()
    return results


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
