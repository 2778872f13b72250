"""Host-speed reference for the untraced runs.

On a 2-vCPU VM (Intel Xeon at 2.1 GHz) the host's speed changes from
minute to minute: a fixed pure-Python loop timed in 25-second windows ran
from 30 to 50 loops per second, and ten raw runs of one workload spread by
more than the benchmark's 25% bounds.  So an untraced run spends a
quarter of its time on a fixed reference unit that uses no ``seqmanip``
code: a SIGALRM timer runs it for ``SLICE_S`` every ``PERIOD_S``, in the
middle of whatever the workload is doing.  ``clock`` leaves those slices
out, and ``factor`` scales every timing to a host that runs the reference
unit ``REFERENCE_RATE`` times per second:

    reported time = workload time * measured reference rate / REFERENCE_RATE

A change to the package moves the workload time and not the reference rate,
so it moves the reported time by the same share.  Slices are held back
while a subprocess runs (``held``), so that none overlaps a timed child.
"""

from __future__ import annotations

import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.2
SLICE_S = 0.05
REFERENCE_RATE = 1000.0

_ITEMS = list(range(64))
_units = 0
_seconds = 0.0


def reference_unit() -> tuple[Fraction, int]:
    """Fraction sums, tuple keys, dict updates and ``list.index``: the kinds of
    operation the package's DP and oracles spend their time on."""
    total = Fraction(0)
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(300):
        total += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 11, i % 3)
        counts[key] = counts.get(key, 0) + _ITEMS.index(i % 64)
    return total, len(counts)


def _slice(_signum, _frame) -> None:
    """Run the reference unit for ``SLICE_S`` and count it."""
    global _units, _seconds
    # The collector would make the reference pay for the workload's heap.
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    end = start + SLICE_S
    units = 0
    while True:
        reference_unit()
        units += 1
        now = perf_counter()
        if now >= end:
            break
    if collecting:
        gc.enable()
    _units += units
    _seconds += now - start


def start() -> None:
    # A cold first slice runs at about half speed; warm it up uncounted.
    for _ in range(50):
        reference_unit()
    signal.signal(signal.SIGALRM, _slice)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def clock() -> float:
    """``perf_counter`` minus the time spent in reference slices so far."""
    while True:
        before = _seconds
        now = perf_counter()
        if _seconds == before:
            return now - before


def factor() -> float:
    """Measured reference rate / ``REFERENCE_RATE``; 1.0 before any slice."""
    return _units / _seconds / REFERENCE_RATE if _seconds else 1.0


@contextlib.contextmanager
def held():
    """Defer reference slices while a subprocess runs."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
