"""Host-side measurement: the speed probe, CPU time and peak memory."""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Iterable, Sequence

#: Iterations of the host-speed probe loop (2-3 ms of pure Python here).
CALIBRATION_LOOP = 30_000
#: The probe's time on a nominal host, about its median on the 2-core
#: host the benchmark was built on.  Timings are reported at this
#: speed: scaled by ``REFERENCE_MS`` over the probe's mean time while
#: they were taken (see :func:`speed_scale`).
REFERENCE_MS = 2.5
#: Op time between two probes of a round.
PROBE_EVERY_S = 0.05
#: Probes before and after each timed set-up.
SETUP_PROBES = 4


def calibrate_ms() -> float:
    """Wall milliseconds of a fixed pure-Python loop: the host's speed
    right now, so a slow host can be told apart from a slow change."""
    started = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_LOOP):
        total += index * index % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError(total)
    return elapsed * 1e3


def speed_scale(probes_ms: Sequence[float]) -> float:
    """The factor that brings timings taken while ``probes_ms`` were
    measured to the nominal host's speed.

    The shared host's speed drifts by a third over minutes, in wall
    and CPU time alike, and a run cannot outlast the drift.  The probe
    is pure Python outside the program, so it slows with the host but
    not with a change to the program, and interleaved with the work it
    cancels the drift (see README.md, "Host-speed scaling").
    """
    return REFERENCE_MS / (sum(probes_ms) / len(probes_ms))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def process_cpu_s(pids: Iterable[int]) -> Dict[int, float]:
    """User+system CPU seconds of other processes, from ``/proc``."""
    ticks = _clock_ticks()
    seconds: Dict[int, float] = {}
    for pid in pids:
        try:
            with open("/proc/%d/stat" % pid) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command: state is [0]; utime, stime are [11], [12].
        seconds[pid] = (int(fields[11]) + int(fields[12])) / ticks
    return seconds


def reset_peak_rss(pids: Iterable[int] = ()) -> None:
    """Restart the peak-resident-set marks (VmHWM) of this process and
    ``pids`` at their current resident sets, so the next reading covers
    only what runs after this call."""
    for pid in ["self"] + list(pids):
        try:
            with open("/proc/%s/clear_refs" % pid, "w") as handle:
                handle.write("5")
        except FileNotFoundError:
            if pid == "self":
                raise
            # A worker that exited has no mark to reset.


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident set (VmHWM) of this process plus ``pids``, in MB,
    since the last :func:`reset_peak_rss`."""
    total_kb = 0
    for pid in ["self"] + list(pids):
        try:
            with open("/proc/%s/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            if pid == "self":
                raise
    return total_kb / 1024.0


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)
