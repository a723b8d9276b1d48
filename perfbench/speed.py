"""The host's current speed, from fixed probe loops.

On a shared host the CPU's speed drifts by tens of percent over seconds
to minutes, as other tenants come and go, and a benchmark run lasts about
half a minute, so raw wall times mostly measure the host.  run.py times
a probe next to every command and scales the command's latency by the
probe's reference time over its current time, which reports the latency
the command would have had at the host's reference speed.

Interpreter-bound code and NumPy's array kernels do not slow together: on
a slow host a pure-Python loop can take 1.7 times as long while the 2^k
enumerator's matrix products barely slow, and at other times both slow
alike.  So there are two probes, and each command names the one that
matches the work it does (workloads.Command.speed):

  python  dict updates, integer arithmetic and a sort, the work of the
          reduction, the greedy rounding, the DP, the search and fileio;
  numpy   one chunk of the enumerator's kernel: a 2^15 x 20 bit matrix
          built from an index range, times a 20 x 16 matrix, row maxima
          and argmin.
"""

from __future__ import annotations

import functools
import statistics
import time


def _python_loop() -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += (i * 7) % 13
    sorted(table.values())


@functools.cache
def _numpy_operands():
    # Imported here, so that set-up, timed with the python probe, still
    # pays for importing NumPy.
    import numpy as np

    delta = np.random.default_rng(0).integers(-20, 20, size=(20, 16)).astype(np.float64)
    return np, delta, np.arange(19, -1, -1, dtype=np.int64)


def _numpy_chunk() -> None:
    np, delta, shifts = _numpy_operands()
    idx = np.arange(1 << 15, dtype=np.int64)
    bits = ((idx[:, None] >> shifts) & 1).astype(np.float64)
    int(np.argmin((bits @ delta).max(axis=1)))


# Each probe with its time on a 2-core Xeon (Python 3.11, one BLAS thread)
# in the host's fast periods: scaled times are seconds at that speed.
PROBES = {"python": (_python_loop, 0.0025), "numpy": (_numpy_chunk, 0.0065)}


def probe(kind: str) -> float:
    """Best of two timings of the probe of this kind."""
    loop = PROBES[kind][0]
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(latency: float, kind: str, probes: list[float]) -> float:
    """latency at the reference speed, given probes of this kind taken
    around it."""
    return latency * PROBES[kind][1] / statistics.median(probes)
