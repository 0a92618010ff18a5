"""The speed probe: a fixed piece of interpreter work that tracks how
fast the machine runs at the moment.

The machine this benchmark was built on is a shared one.  For stretches
of seconds to minutes it runs the same code up to twice as slowly, and
whole runs fall into such stretches, so that five runs of one workload
spread by 0.15-0.30 (interquartile range over the median) on wall-clock
times.  The probe, timed between operations, follows these stretches.
Timed metrics are therefore reported at the reference speed: each
round's times are scaled by ``REFERENCE_S`` over the median probe of
that round (``factor``).  The wall-clock figures are reported beside
them.

The probe does what the evaluator does most: it builds small sets,
frozensets, tuples and a dict and combines them.  Over the rounds of
runs of each workload, the logarithm of the round time rose by 0.86-1.11
times that of the probe's median (correlation 0.69-0.96).  A probe that
allocates nothing (dict and set lookups on objects built at import)
tracked the ``sweep`` rounds as closely, but only 0.72 times as steeply,
so scaling by it would overcorrect.  The collector is off while the probe runs, so the size of
the program's heap cannot set when a collection falls into it: in a
fresh interpreter, after ``import celab`` and after each of three rounds
of ``oracle``, the probe's time stayed within 5% of the first, and its
ratio to the allocation-free probe's within 3%.  It runs
twice and times the second pass, so the caches the last operation left
cold are warm again.
"""

from __future__ import annotations

import gc
import statistics
import time

# the probe's time on the reference machine (2 vCPUs, Python 3.11.7);
# a figure at the reference speed is the wall-clock figure of a machine
# on which the probe takes this long
REFERENCE_S = 0.0005


def _work() -> int:
    total = 0
    for rep in range(6):
        s = set()
        for i in range(400):
            s.add((i * 7919 + rep) % 1021)
        fs = frozenset(s)
        other = frozenset(range(rep, 1021, 3))
        total += len(fs | other) + len(fs & other)
        d = {}
        for i in range(200):
            d[(i, rep)] = i
        total += len(d)
    return total


def probe() -> float:
    """Seconds one warm pass of the probe work takes."""
    clock = time.perf_counter
    gc.disable()
    try:
        _work()
        t0 = clock()
        _work()
        return clock() - t0
    finally:
        gc.enable()


def factor(probes) -> float:
    """The scale from wall-clock time to time at the reference speed."""
    return REFERENCE_S / statistics.median(probes)
