"""Shared stopwatch for the ratio gates of the ``test_perf_*`` modules."""

from __future__ import annotations

import gc
import math
import time


def interleaved_best_of(runs: int, func_a, func_b):
    """Best-of timings with A/B runs interleaved.

    Alternating the contenders decorrelates the comparison from slow
    machine-load drift (e.g. a parallel test process spinning up
    mid-measurement), which a sequential best-of cannot.  The collector
    is paused for the stopwatch only: a full-suite run leaves a large
    live heap behind, and a gen-2 collection landing inside a measured
    region skews a sub-second A/B comparison.
    """
    best_a = best_b = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            start = time.perf_counter()
            func_a()
            best_a = min(best_a, time.perf_counter() - start)
            start = time.perf_counter()
            func_b()
            best_b = min(best_b, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best_a, best_b


def _process_seconds(func) -> float:
    # Start every sample from a collected heap: garbage left by the
    # previous sample (the collector is paused while timing) would
    # otherwise grow the heap and charge its page faults to whichever
    # side happens to touch fresh memory.
    gc.collect()
    start = time.process_time()
    func()
    return time.process_time() - start


def paired_process_time_ratios(blocks: int, func_base, func_test):
    """``test / base`` CPU-time ratios of interleaved ABBA blocks.

    Each block times base, test, test, base back to back with
    :func:`time.process_time`, so time the process spends descheduled
    (other processes on a loaded machine) is charged to neither side,
    and its ratio is the test total over the base total.  Each side
    runs once first and once second, so an advantage of either
    position, or a drift in machine speed across the block, cancels
    within the ratio instead of splitting the ratios into a high and a
    low group.  The collector is paused while timing; the heap that
    exists beforehand is frozen so the collections between samples
    only scan what the samples allocated.
    """
    ratios = []
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _ in range(blocks):
            base = _process_seconds(func_base)
            test = _process_seconds(func_test)
            test += _process_seconds(func_test)
            base += _process_seconds(func_base)
            ratios.append(test / base)
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    return ratios


def median_upper_bound(values, confidence: float = 0.95) -> float:
    """Distribution-free one-sided upper confidence bound of the median.

    The ``k``-th smallest of ``n`` samples lies at or above the true
    median unless at least ``k`` samples fall below it, which happens
    with probability ``P(Binomial(n, 1/2) >= k)``; the bound is the
    smallest order statistic for which that probability is at most
    ``1 - confidence``.
    """
    ordered = sorted(values)
    count = len(ordered)
    below = 0.0
    for index, value in enumerate(ordered):
        below += math.comb(count, index) / 2 ** count
        if below >= confidence:
            return value
    return ordered[-1]
