"""The CPU cores this process may run on."""

from __future__ import annotations

import os


def usable_cores() -> "tuple[int, ...]":
    """Sorted ids of the cores this process may run on.

    On Linux this is the process's affinity mask, so a run pinned with
    ``taskset -c 0`` sees one core whatever the host has; elsewhere it
    is every core the OS reports.
    """
    if hasattr(os, "sched_getaffinity"):
        return tuple(sorted(os.sched_getaffinity(0)))
    return tuple(range(os.cpu_count() or 1))
