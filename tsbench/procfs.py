"""CPU time and resident memory of a process tree, read from /proc."""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> "list[str] | None":
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces; the fields resume after ")".
    return text.rsplit(")", 1)[1].split()


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children.get(pid, ()))
    return pids


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of the live tree under ``root``."""
    total = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def rss_mb(pid: int) -> float:
    """Resident set size of one process, MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_rss_mb(root: int) -> float:
    return sum(rss_mb(pid) for pid in tree_pids(root))
