"""Host diagnostics printed beside every run, so a slow host can be told
apart from a slow program: CPU placement, CPU seconds, steal time and a
fixed calibration loop."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def usable_cpus() -> list[int]:
    """Two CPUs this process may run on (one twice if that is all);
    passes alternate between them."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if len(cpus) >= 2 else cpus * 2


def pin(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` (0 = this one) to ``cpu``."""
    task_dir = Path(f"/proc/{pid or os.getpid()}/task")
    for task in task_dir.iterdir():
        try:
            os.sched_setaffinity(int(task.name), {cpu})
        except (ProcessLookupError, PermissionError):
            pass   # the thread ended, or the platform forbids pinning


def cpu_seconds(pid: int = 0) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    fields = Path(f"/proc/{pid or os.getpid()}/stat").read_text()
    fields = fields.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def last_cpu(pid: int = 0) -> int:
    """CPU the process last ran on."""
    fields = Path(f"/proc/{pid or os.getpid()}/stat").read_text()
    return int(fields.rsplit(")", 1)[1].split()[36])


def cpu_ticks() -> dict[str, list[int]]:
    """Per-CPU jiffy counters from /proc/stat."""
    out = {}
    for line in Path("/proc/stat").read_text().splitlines():
        if line.startswith("cpu"):
            name, *values = line.split()
            out[name] = [int(v) for v in values]
    return out


def steal_share(before: dict, after: dict, cpus) -> dict[str, float]:
    """Share of each used CPU's time stolen by the hypervisor."""
    out = {}
    for name in ["cpu"] + [f"cpu{c}" for c in sorted(set(cpus))]:
        if name not in before or name not in after:
            continue
        delta = [a - b for a, b in zip(after[name], before[name])]
        total = sum(delta[:8])
        out[name] = round(delta[7] / total, 4) if total else 0.0
    return out


def calibration_ms() -> float:
    """Wall time of a fixed mixed Python + numpy loop (median of 3)."""
    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(20):
            np.sort(data)
        times.append((time.perf_counter() - t0) * 1e3)
    return round(sorted(times)[1], 3)
