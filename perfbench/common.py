"""Shared pieces of the benchmark: the data shape, an independent
consistency oracle, summary statistics, and the result stamp."""

from __future__ import annotations

import os
import platform
import statistics
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence

SCHEMA = ("A", "B", "C")
FDS = "A -> B; B -> C"
#: Δ as (lhs column, rhs column) pairs, for the oracle below.
FD_COLUMNS = ((0, 1), (1, 2))
CLUSTER_SIZE = 16
CONFLICT_VALUES = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def clusters_for(n: int) -> int:
    return n // 167


def generate_rows(n: int, seed: int) -> List[tuple]:
    """The workload table as plain value tuples (ids are 1..n in order)."""
    from repro.datagen.synthetic import clustered_conflicts_table

    table = clustered_conflicts_table(
        SCHEMA, n, clusters=clusters_for(n), cluster_size=CLUSTER_SIZE,
        conflict_values=CONFLICT_VALUES, seed=seed,
    )
    return list(table.rows().values())


def optimal_distance(n: int) -> float:
    """The known optimum of a generated table: each cluster keeps its
    largest rhs group (⌈16/3⌉ = 6 tuples) and deletes the other 10, and
    the filler groups are consistent."""
    keep = -(-CLUSTER_SIZE // CONFLICT_VALUES)
    return float(clusters_for(n) * (CLUSTER_SIZE - keep))


def violations(rows: Iterable[Sequence]) -> int:
    """Pairs of rows (counted once per later row) violating Δ, computed
    without any of the program's code."""
    rows = list(rows)
    bad = 0
    for lhs, rhs in FD_COLUMNS:
        get_l, get_r = itemgetter(lhs), itemgetter(rhs)
        seen: Dict[object, object] = {}
        for row in rows:
            if seen.setdefault(get_l(row), get_r(row)) != get_r(row):
                bad += 1
    return bad


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pin_cpus() -> Optional[Dict[str, int]]:
    """Give the program one CPU and this process another.

    Run-to-run spread on a small virtual machine comes mostly from
    threads and processes migrating between CPUs, so the program (or the
    daemon with its pool worker) is pinned to the last CPU this process
    may use and the load generator to the first.  Returns the layout,
    or ``None`` with fewer than two CPUs, where nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {"program": cpus[-1], "load_generator": cpus[0]}


def filesystem_of(path: str) -> str:
    """The filesystem type holding *path*, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def stamp(workload: str, seed: int, seconds: int, trace: bool,
          **extra) -> Dict[str, object]:
    from repro.core import kernel

    out: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": kernel.enabled(),
    }
    out.update(extra)
    return out
