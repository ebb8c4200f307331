"""CPU and memory of one process together with every process it started.

A wall-clock gain that burns more CPU elsewhere — busy-polling fleet
workers, an oversubscribed process pool — must show up, so CPU is summed
over the measuring process (``RUSAGE_SELF``), its reaped descendants
(``RUSAGE_CHILDREN``) and its live descendants (``/proc/<pid>/stat``).
A live descendant's reading moves into ``RUSAGE_CHILDREN`` when it is
reaped, so the sum stays continuous across a worker's exit.
"""

from __future__ import annotations

import os
import resource
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[bytes] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""

    try:
        data = Path(f"/proc/{pid}/stat").read_bytes()
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces or
    # parentheses; everything after its closing parenthesis is fixed.
    return data[data.rindex(b")") + 2 :].split()


def descendants() -> list[int]:
    """Process ids of every live descendant of this process."""

    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return found


def _live_cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime: the process and its own reaped children.
    return sum(int(value) for value in fields[11:15]) / _CLOCK_TICKS


def cpu_seconds() -> float:
    """User+system CPU seconds of this process tree so far."""

    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_live_cpu_seconds(pid) for pid in descendants())
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime + live


def _live_peak_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb() -> float:
    """The larger of this process's and its largest descendant's peak RSS."""

    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        *(_live_peak_kb(pid) for pid in descendants()),
    )
    return kilobytes / 1024.0
