"""A fixed reference kernel that gauges how fast the host is running.

On a small shared host the same code runs up to 1.6 times slower at some
moments than at others, in CPU time as well as in wall time, because of
what its neighbours run; the host flips between such states within a
fraction of a second. A time taken alone then moves with the host as much
as with the program. The timed loop therefore runs this kernel right
before the first op and right after every op, so that each op lies between
two kernel runs, and scales the op's CPU time to a host on which the
kernel takes REFERENCE_MS:

    scaled time = op CPU time * REFERENCE_MS / mean of the two kernel times

Each timed kernel call follows an untimed one, so that its data is in
cache whatever the op before it touched; otherwise an op that used less
memory would make the next kernel run faster, and so read slower itself.

The kernel never calls qmeasure. It does the kinds of work a qmeasure op
is made of, with fixed inputs: building and parsing JSON text, small
complex eigendecompositions and products, and a pure-Python loop. A change
to the library cannot change it, so a slower library reads slower.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_MS = 1.0   # the kernel's CPU time on the reference host, about
                     # that of a busy 2-vCPU shared x86-64 host

_rng = np.random.default_rng(0)
_a = _rng.normal(size=(27, 27)) + 1j * _rng.normal(size=(27, 27))
_MATRIX = _a + _a.conj().T
_DOC = {f"k{i}": [i * 0.5, i, "x" * (i % 7)] for i in range(50)}


def kernel() -> None:
    json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
    for _ in range(2):
        np.linalg.eigh(_MATRIX)
        _MATRIX @ _MATRIX
    sum(i * i for i in range(2500))


def time_kernel() -> float:
    """CPU seconds one kernel call takes now, its data already in cache."""
    kernel()
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def scale_to_reference(op_s, kernel_s, paired=True):
    """Op times scaled to the reference host. kernel_s[k] and kernel_s[k + 1]
    are the kernel times right before and right after op k, in the op's unit.

    Paired, each op is scaled by the two kernel runs that flank it. That
    holds only when the op ran on the thread that ran the kernel; an op in
    a child process may run on another CPU, so unpaired, every op is scaled
    by the median kernel time of the run.
    """
    if len(kernel_s) != len(op_s) + 1:
        raise ValueError(f"{len(kernel_s)} kernel times for {len(op_s)} ops")
    if not paired:
        median = statistics.median(kernel_s)
        return [t * REFERENCE_MS / (1000 * median) for t in op_s]
    return [t * REFERENCE_MS / (500 * (before + after))
            for t, before, after in zip(op_s, kernel_s, kernel_s[1:])]
