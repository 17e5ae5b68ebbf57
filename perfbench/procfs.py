"""Process-tree readings from ``/proc``: peak RSS, CPU time, shm segments."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "cpu_seconds",
    "living",
    "peak_rss_mb",
    "process_tree",
    "ring_segments",
    "shard_workers",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(path: str) -> list[str]:
    """Fields of a ``stat`` file after the command name (state first)."""
    text = Path(path).read_text()
    return text[text.rfind(")") + 2 :].split()


def process_tree(root_pid: int) -> dict[int, int]:
    """``{pid: parent pid}`` for ``root_pid`` and all its descendants."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(f"/proc/{entry}/stat")[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
    tree = {root_pid: parents.get(root_pid, 0)}
    frontier = [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree[pid] = ppid
                frontier.append(pid)
    return tree


def living(pids: list[int]) -> list[int]:
    """The ``pids`` that still run (a zombie has ended)."""
    alive = []
    for pid in pids:
        try:
            state = _stat_fields(f"/proc/{pid}/stat")[0]
        except (OSError, IndexError):
            continue
        if state not in ("Z", "X"):
            alive.append(pid)
    return alive


def cpu_seconds(pid: int, tid: int | None = None) -> float:
    """User + system CPU seconds of a process (or one of its threads)."""
    path = f"/proc/{pid}/stat" if tid is None else f"/proc/{pid}/task/{tid}/stat"
    fields = _stat_fields(path)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MB.

    Pages shared between processes (a forked worker's copy-on-write
    image) count once per process, so this is an upper bound on the
    tree's peak.
    """
    total_kb = 0
    for pid in pids:
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return ""
    return raw.replace(b"\0", b" ").decode(errors="replace")


def shard_workers(tree: dict[int, int]) -> list[int]:
    """Shard worker pids: the children of the server's forkserver."""
    forkservers = {pid for pid in tree if "forkserver" in _cmdline(pid)}
    return sorted(pid for pid, ppid in tree.items() if ppid in forkservers)


def ring_segments() -> set[str]:
    """Shared-memory ring segments (``repro-ring-*``) present in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-ring-")}
    except OSError:
        return set()
