"""Process, machine and statistics helpers shared by every workload.

Everything here reads ``/proc`` (Linux) or the standard library; nothing
imports ``repro``, so ``run.py`` can use these before the program under
test is importable.
"""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds :func:`calibration_s` takes on the reference host (a 2-core
#: x86-64 VM at its unloaded speed).  Offline metrics are reported at this
#: speed: a shared host's speed drifts by up to 2x between runs, and the
#: calibration loop slows down with it.
REFERENCE_CALIBRATION_S = 0.003

_CALIBRATION_MASK = (1 << 192) - 1


def calibration_s():
    """Seconds for a fixed chain of big-int steps: this host's speed right now.

    Interpreted big-int arithmetic slows down with the host as the
    program's batched calls do; over run-sized windows it left a third of
    the spread a SHA-256 loop left in the B-163 batch time.
    """
    started = time.perf_counter()
    value = 0x123456789ABCDEF
    for _ in range(12000):
        value = (value * 0x9E3779B97F4A7C15 ^ (value >> 7)) & _CALIBRATION_MASK
    return time.perf_counter() - started


def slowdown(samples):
    """How much slower than the reference host the calibration samples ran."""
    return quantile(samples, 0.5) / REFERENCE_CALIBRATION_S


def quantile(values, q):
    """Linear-interpolated ``q``-quantile (0 ≤ q ≤ 1) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return quantile(values, 0.5)


def _status_kb(pid, key):
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def peak_rss_mb(pids):
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pid):
    """User + system CPU seconds consumed so far by one process."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # After the command name: state is field 0, utime 11, stime 12.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def child_pids(pid):
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    children = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            children += [int(token) for token in (task / "children").read_text().split()]
        except OSError:
            continue
    return sorted(set(children))


def machine_record(root):
    """``nproc``, the carry-less multiply CPU flags and the git commit."""
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count() or 1,
        "pclmulqdq": "pclmulqdq" in flags,
        "vpclmulqdq": "vpclmulqdq" in flags,
        "git_commit": commit,
    }
