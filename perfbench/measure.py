"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Sequence

import numpy as np


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


def ladder_slo(phases, limit_ms: float) -> tuple[float, list[dict]]:
    """Highest rate meeting the p99 limit with no growing backlog.

    ``phases`` holds ``(rate, [(due, done, ok), ...])`` per load phase.
    A rate fails on any failed request, a p99 over the limit, or a
    backlog: the last response arriving more than the limit after the
    last due time.  Returns the throughput achieved at the highest
    passing rate (0.0 when none passes) and one row per phase.
    """
    best, rows = 0.0, []
    for rate, requests in phases:
        dues = [due for due, _, _ in requests]
        dones = [done for _, done, _ in requests]
        lat = [(done - due) * 1e3 for due, done, _ in requests]
        backlog_ms = (max(dones) - max(dues)) * 1e3
        ok = (all(good for _, _, good in requests)
              and pct(lat, 99) <= limit_ms and backlog_ms <= limit_ms)
        achieved = len(requests) / (max(dones) - min(dues))
        rows.append({"rate": rate, "requests": len(requests),
                     "p50_ms": pct(lat, 50), "p99_ms": pct(lat, 99),
                     "achieved": achieved, "meets_limit": ok})
        if ok:
            best = max(best, achieved)
    return best, rows


def clear_distance_cache() -> None:
    """Empty the program's process-wide distance memo.

    Index builds memoize distances by series content, so a second build
    of the same corpus in one process reuses the first one's work.  Each
    timed set-up starts from an empty memo, as in a fresh process.
    """
    from repro.distance.cache import get_default_cache

    cache = get_default_cache()
    if cache is not None:
        cache.clear()


def count_evals(call, items) -> list[int]:
    """Exact distance evaluations of ``call(item)`` for each item, read
    from the program's own ``distance.pairs_computed`` counter."""
    from repro import observability

    registry = observability.registry()
    observability.configure(enabled=True)
    try:
        counts = []
        for item in items:
            before = registry.value("distance.pairs_computed", 0)
            call(item)
            counts.append(registry.value("distance.pairs_computed", 0)
                          - before)
    finally:
        observability.configure(enabled=False)
    return counts


def proc_status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field in kB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def environment(root: str) -> dict:
    """What every result records about the machine and the code."""
    from repro.parallel import usable_cpus

    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_digest": source_digest(os.path.join(root, "src")),
    }


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources (path + bytes).

    Identifies the code under test where no git metadata exists, as in
    an exported checkout.
    """
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def process_cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids`` (from
    ``/proc/<pid>/stat``; a process that has exited counts 0).

    Time the hypervisor steals from the machine is not charged to a
    process, so this measures the program's work, not the host's load.
    """
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / tick


def cpu_ticks() -> list[int]:
    """Aggregate ``/proc/stat`` CPU ticks (user ... steal); [] if absent."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from the machine between
    two :func:`cpu_ticks` readings (noise from co-tenants)."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else None
