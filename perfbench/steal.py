"""Hypervisor steal on the benchmark's processor.

On a shared virtual machine the host runs other guests on this guest's
processors; /proc/stat counts that time as steal, per processor.  ``run.py``
pins the benchmark's processes to one processor, so the steal on that
processor during an op is time the op waited for the host, not time it
worked.  The timing metrics subtract it.  Where the process is not pinned to
one processor, or /proc/stat is missing, steal reads as 0.
"""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def pin():
    """Pin this process, and the children it starts, to the highest-numbered
    processor it may use."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def seconds():
    """Cumulative steal (s) of the one processor this process is pinned to."""
    try:
        cpus = os.sched_getaffinity(0)
        if len(cpus) != 1:
            return 0.0
        name = "cpu%d" % next(iter(cpus))
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == name:
                    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except (AttributeError, OSError):
        pass
    return 0.0
