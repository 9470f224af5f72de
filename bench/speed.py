"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of the same Python code swings by up to 1.8x
over periods of seconds.  This was measured with a fixed pure-Python loop on
a 2-vCPU, 2.1 GHz VM: wall and CPU time moved together, so the cause is
contention on the host, not descheduling.  Across 15-second runs, raw
median op latency spread by 24-33% from run to run.

A phase therefore runs ``calibrate`` every CAL_PERIOD_S between ops.  Each
op's wall time is scaled by REF_NS / (mean of the calibration just before
and just after it).  That gives the op's time at the reference speed: the
speed at which ``calibrate`` takes REF_NS.  The loop touches no qstream code,
so a change to qstream moves the scaled figures exactly as much as it moves
wall time.  It uses the interpreter features qstream leans on: Fraction
arithmetic, small tuples and dict lookups.

Imports, the bulk of ``setup_s``, are file reads, unmarshalling and
extension loading.  Their speed swings too, by up to 40% between spells of
minutes, but this loop does not track it (correlation 0.23 over 12 fresh
interpreters).  The time of a fresh interpreter that imports numpy does:
with one such reference run just before and one just after each set-up
sample, their mean correlated 0.72-0.77 with the set-up time, and scaling
by it cut the CV of set-up samples from 0.16 to 0.11 (about 70 samples each
on ``mc`` and ``frontier``).  So the import part of each set-up sample is
scaled by IMPORT_REF_S / (that mean).  numpy is a fixed dependency, so
qstream cannot move the reference, and a change to qstream's imports moves
the scaled figure by the same share as wall time.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

REF_NS = 400_000  # about the calibration time on the 2-vCPU VM named above
CAL_PERIOD_S = 0.02
IMPORT_REF_S = 0.2  # about the import reference time on that VM


def import_reference(cwd) -> float:
    """Seconds a fresh interpreter that imports numpy takes right now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return perf_counter() - t0


def calibrate() -> int:
    """Nanoseconds one pass of the fixed reference loop takes right now."""
    t0 = perf_counter_ns()
    acc = Fraction(0)
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(150):
        key = (i, i & 7, i >> 3)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i, 7)
    return perf_counter_ns() - t0


def scaled(latencies_ns: list[int], cal_at: list[int], cal_ns: list[int]) -> list[float]:
    """Scale each latency by the calibrations around it.

    ``cal_at[k]`` is the number of ops done when calibration k ran.  The op
    with index j lies between the last calibration with cal_at <= j and the
    one after it; the final calibration runs after the last op.
    """
    out = []
    k = 0
    for j, lat in enumerate(latencies_ns):
        while k + 1 < len(cal_at) and cal_at[k + 1] <= j:
            k += 1
        around = (cal_ns[k] + cal_ns[min(k + 1, len(cal_ns) - 1)]) / 2
        out.append(lat * REF_NS / around)
    return out
