"""Statistics, memory and run-context helpers shared by the workloads."""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import statistics
import sys
import time
from statistics import median
from typing import Dict, List, Sequence

#: Duration of one :func:`calibration_slice` on the reference machine
#: (a quiet 2-vCPU x86-64 VM, CPython 3.11).  A constant of the
#: benchmark: normalised metrics are expressed at this machine speed.
CAL_REF_S = 0.002
#: Slices per :func:`calibration_slices` sample.
CAL_SLICES = 5


class Failures:
    """Outputs attempted and outputs that failed the correctness gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(what)


def calibration_slice(clock=time.perf_counter) -> float:
    """Time a fixed interpreter-bound loop (calls, list bisect and insert,
    dict updates: the operations the tracker's Python paths are made of)."""
    started = clock()
    keys: List[int] = []
    counts: Dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 10007
        keys.insert(bisect.bisect_left(keys, key), key)
        counts[key] = counts.get(key, 0) + 1
        if len(keys) > 256:
            del keys[:128]
    return clock() - started


def calibration_slices() -> List[float]:
    return [calibration_slice() for _ in range(CAL_SLICES)]


def speed_factor(slices: Sequence[float],
                 reference: float = CAL_REF_S) -> float:
    """How much slower than the reference machine the slices ran.

    The host under the benchmark drifts in speed by tens of percent
    within seconds.  Dividing a time measured next to the slices by this
    factor, or multiplying a rate by it, expresses the result at the
    reference machine speed."""
    return statistics.median(slices) / reference


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="ascii") as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_context(root: str, workload: str, seed: int, trace: bool) -> Dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "platform": sys.platform,
    }
