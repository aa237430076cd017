"""PR-9 — what crash-safe state buys.

**Warm recovery ≥ 2× vs cold replay on an 8-tenant daemon.**  A
crash-safe daemon's snapshot persists the *solution cache* alongside
the sessions, so restarting from a snapshot costs session restores
plus cache hits — while a stateless daemon's crash forces every client
to resubmit its whole workload and re-solve it.  Recovery (restart +
one repair per tenant) must beat the cold replay by ≥ 2×, with
per-tenant results byte-identical across the original run, the
recovered daemon, and the cold replay.

Results land in ``BENCH_faults.json``; the recovery ``speedup`` rides
the CI >30 % regression gate.
"""

import time

from repro.io.tables import table_to_csv
from repro.server import ServerConfig, SessionManager

from conftest import print_table, record_bench

SCHEMA = ("A", "B", "C")

CLUSTERS = 6
CLUSTER_SIZE = 40
BATCHES = 4

RECOVERY_TENANTS = 8    # the warm daemon the recovery gate restarts


def _cluster_batches():
    """CLUSTERS independent conflict clusters (distinct value spaces →
    independent components) delivered over BATCHES appends — the same
    workload shape as the daemon throughput bench, so numbers are
    comparable across BENCH files."""
    import random

    rows = []
    for c in range(CLUSTERS):
        rng = random.Random(100 + c)
        for _ in range(CLUSTER_SIZE):
            rows.append((
                f"a{c}.{rng.randrange(4)}",
                f"b{c}.{rng.randrange(8)}",
                f"x{c}.{rng.randrange(3)}",
            ))
    per = (len(rows) + BATCHES - 1) // BATCHES
    return [rows[i : i + per] for i in range(0, len(rows), per)]


def test_recovery_beats_cold_replay_2x(benchmark):
    """The crash-safe state gate: restarting a warm 8-tenant daemon
    from its snapshot (sessions + solution cache) must be ≥ 2× faster
    than the stateless alternative — every client resubmitting and the
    daemon re-solving the whole workload."""
    import tempfile

    batches = _cluster_batches()

    def _drive_workload(manager):
        """The 8 tenants' full client scripts: open, append the
        batches, repair.  What clients replay against a stateless
        daemon after a crash."""
        outputs = []
        for t in range(RECOVERY_TENANTS):
            tenant = f"tenant-{t}"
            manager.open(
                tenant, "s",
                {"schema": list(SCHEMA), "fds": "A -> B; B -> C"},
            )
            entry = manager.entry(tenant, "s")
            for batch in batches:
                manager.run_op(
                    entry, "append",
                    {"rows": [list(r) for r in batch], "repair": False},
                )
            manager.run_op(entry, "repair", {})
            outputs.append(table_to_csv(entry.live.last_result.cleaned))
        return outputs

    with tempfile.TemporaryDirectory() as warm_dir, \
            tempfile.TemporaryDirectory() as cold_dir:
        # Untimed setup: the warm daemon serves the workload, then
        # shuts down cleanly — the final compaction snapshots the 8
        # sessions *and* the shared solution cache.
        manager = SessionManager(ServerConfig(workers=0, state_dir=warm_dir))
        original = _drive_workload(manager)
        manager.shutdown()

        # Warm arm: restart from the snapshot + one repair per tenant.
        start = time.perf_counter()
        recovered = SessionManager(
            ServerConfig(workers=0, state_dir=warm_dir)
        )
        warm_out = []
        for t in range(RECOVERY_TENANTS):
            entry = recovered.entry(f"tenant-{t}", "s")
            recovered.run_op(entry, "repair", {})
            warm_out.append(table_to_csv(entry.live.last_result.cleaned))
        warm_s = time.perf_counter() - start
        stats = recovered.stats()
        recovered.shutdown()

        # Cold arm: a fresh stateless-equivalent daemon, every client
        # replaying its whole script.
        start = time.perf_counter()
        cold = SessionManager(ServerConfig(workers=0, state_dir=cold_dir))
        cold_out = _drive_workload(cold)
        cold_s = time.perf_counter() - start
        cold.shutdown()

    # Exactness first: recovery and cold replay must both reproduce the
    # original run byte-for-byte.
    assert warm_out == original
    assert cold_out == original
    # The mechanism: all sessions came back from the snapshot with no
    # journal tail to replay, and the recovered repairs were cache hits.
    assert stats["recovered_sessions"] == RECOVERY_TENANTS
    assert stats["replayed_ops"] == 0
    assert stats["cache_hits"] >= RECOVERY_TENANTS * CLUSTERS

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    speedup = cold_s / warm_s
    print_table(
        "PR-9 — snapshot recovery vs cold replay "
        f"({RECOVERY_TENANTS} tenants × {CLUSTERS} components, hard Δ)",
        ("arm", "total", "per tenant"),
        [
            ("cold replay (stateless crash)", f"{cold_s * 1e3:.0f} ms",
             f"{cold_s / RECOVERY_TENANTS * 1e3:.1f} ms"),
            ("snapshot recovery + repair", f"{warm_s * 1e3:.0f} ms",
             f"{warm_s / RECOVERY_TENANTS * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.1f}×", "gate ≥ 2×"),
        ],
    )
    record_bench(
        "BENCH_faults.json",
        "recovery-vs-cold-replay-8x",
        warm_s,
        cold_replay_s=round(cold_s, 6),
        speedup=round(speedup, 2),
        tenants=RECOVERY_TENANTS,
        recovered_sessions=stats["recovered_sessions"],
        cache_hits=stats["cache_hits"],
    )
    # The acceptance gate.
    assert speedup >= 2.0
