"""Fixed reference jobs that measure how fast the host runs right now.

The host's speed drifts by tens of percent, in bursts of seconds and in
spells longer than a run.  workloads.py times a reference job before and
after every timed part of the work, in the same interpreter, and run.py
scales a part's wall time by the job's nominal time / (the mean of those
two timings); child.py times run() right after `import cubicode` to
scale setup_s.  run() mixes an interpreted integer loop, row reduction
over F_3 with small numpy row operations, and numpy gathers from an int8
table larger than the L2 cache: the work of verify-fast and sss-m2 and
of the import.  run_streaming() is numpy gathers and arithmetic over
arrays of a few hundred kB, the work of the m = 3 enumeration; how fast
run() goes does not tell how fast that goes.  Both are frozen here, so
that they never change with the code under test.
"""

from __future__ import annotations

import time

import numpy as np

# about each job's time in the fastest spells of a 2-core cloud VM; scaled
# times read as seconds at that speed
REFERENCE_S = 0.013
STREAMING_S = 0.013


def _scattered(count: int, bound: int) -> np.ndarray:
    """count indices below bound in a fixed scattered order, built in place."""
    index = np.arange(count, dtype=np.uint32)
    index *= np.uint32(2654435761)
    index %= np.uint32(bound)
    return index.view(np.int32)


# fixed pseudo-random inputs, made without numpy.random so that the job
# adds little to the peak resident set size the benchmark reports
_MATRIX = (np.arange(6 * 40, dtype=np.int64) * 2654435761 >> 7).reshape(6, 40) % 3
_TABLE = np.zeros(1 << 21, dtype=np.int8)
_TABLE[1::3], _TABLE[2::3] = 1, 2
_INDEX = _scattered(1 << 18, 1 << 21)
_SMALL_TABLE = (np.arange(729) % 3).astype(np.int8)
_SMALL_INDEX = _scattered(1 << 19, 729)


def _row_reduce(mat: np.ndarray) -> np.ndarray:
    a = np.array(mat, dtype=np.int64) % 3
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = next((i for i in range(r, rows) if a[i, c] % 3), None)
        if sel is None:
            continue
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, 3)) % 3
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % 3
        r += 1
    return a


def run() -> float:
    """Wall time of one run of the reference job."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(40):
        _row_reduce(_MATRIX)
    for _ in range(4):
        acc += int(_TABLE[_INDEX].sum())
    elapsed = time.perf_counter() - start
    if acc < 0:
        raise AssertionError("unreachable: keeps the loop's result alive")
    return elapsed


def run_streaming() -> float:
    """Wall time of one run of the streaming job: numpy gathers from a small
    table and arithmetic over arrays of a few hundred kB, the kind of work
    of the m = 3 enumeration kernel."""
    start = time.perf_counter()
    acc = 0
    for _ in range(3):
        acc += int(((_SMALL_TABLE[_SMALL_INDEX] + _SMALL_TABLE[_SMALL_INDEX[::-1]]) % 3).sum())
    elapsed = time.perf_counter() - start
    if acc < 0:
        raise AssertionError("unreachable: keeps the result alive")
    return elapsed
