"""Host-speed calibration: how fast this host runs a fixed kernel now.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes, in CPU time as much as in wall time.  A run's times
are therefore reported in *reference seconds*: the measured seconds
times ``REF_S`` ÷ the time this module's fixed kernel takes when it is
timed right before and right after the measured work.  On a host on
which the kernel takes ``REF_S`` a reference second is a second.

The kernel does not use the library, so no change to the library moves
it.  It mixes the work the workloads do: sorting, pickling and merging
Python tuples, dict building and probing, and a numpy sort.  Its inputs
are fixed and do not depend on the workload seed.
"""

from __future__ import annotations

import heapq
import pickle
import statistics
from operator import itemgetter
from time import perf_counter

import numpy as np

#: The kernel's time on the reference host, in seconds.
REF_S = 0.015
#: Kernel timings per measurement; the median is taken.
SAMPLES = 7

_rng = np.random.default_rng(20240601)
_ROWS = list(zip(_rng.integers(0, 10**9, 8192).tolist(),
                 _rng.integers(0, 10**9, 8192).tolist()))
_KEYS = _rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                      size=1 << 17, dtype=np.int64)
_BLOCK = 1024


def _kernel() -> float:
    start = perf_counter()
    key = itemgetter(0)
    blocks = [sorted(_ROWS[i:i + _BLOCK], key=key)
              for i in range(0, len(_ROWS), _BLOCK)]
    decoded = [pickle.loads(pickle.dumps(block)) for block in blocks]
    index = {row[0]: row for row in heapq.merge(*decoded, key=key)}
    sum(1 for row in _ROWS if row[0] in index)
    np.sort(_KEYS)
    return perf_counter() - start


def kernel_seconds() -> float:
    """The median of ``SAMPLES`` timings of the kernel, in seconds."""
    return statistics.median(_kernel() for _ in range(SAMPLES))
