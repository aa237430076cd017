"""PR-10 — what pooled execution buys, and what failover costs.

Two gates for the supervised worker pool (``--parallel``); a "shard" is
one pool worker, and the names below are kept so the recorded series
stays continuous:

1. **Scale-out ≥ 1.5× on 2 shards** (multi-core hosts).  The same
   hard-Δ component portfolio solved serially vs routed round-robin
   over two pool workers.  Components are independent and solvers
   pure, so the only question is whether the pool's costs (pickled
   solve messages, each carrying its component's rows) stay small
   enough for the parallelism to show.  On single-core hosts parallel
   efficiency is unmeasurable — the gate degrades to bounding the
   *sharding tax*: the sharded run must stay within 1.6× serial plus a
   small absolute epsilon.  The measured speedup is recorded either
   way, with the core count, so the CI trajectory stays honest.

2. **Failover overhead ≤ 25 % under one mid-run kill.**  A/B two
   sharded arms on fresh fleets: fault-free vs a deterministic
   ``worker.recv`` kill that murders worker 0 the moment its first
   solve arrives (generation-matched, so the respawned replacement
   lives).  Detection, transparent re-dispatch of the in-flight solve,
   and the respawn must all fit in 25 % of the
   fault-free wall time (plus an absolute epsilon for the replacement
   worker's fixed start cost).  Results stay byte-identical to the
   serial oracle in every arm — failover is re-derivation, never
   re-interpretation.

Results land in ``BENCH_shards.json``; both headline numbers ride the
CI >30 % regression gate.
"""

import os
import time

import pytest

from repro.core.fd import FDSet
from repro.core.table import Table
from repro.faults import FaultPlan, FaultRule
from repro.pipeline import clean
from repro.exec import PersistentWorkerPool

from conftest import measure_best, print_table, record_bench

SCHEMA = ("A", "B", "C")

#: Hard Δ: the conflict clusters below solve via exact branch & bound —
#: real per-component work, so both gates measure the RPC layer against
#: realistic solving, not bookkeeping.
HARD = FDSet("A -> B; B -> C")

CLUSTERS = 6
#: Sized so every cluster stays under the exact-solver threshold: ~3 s
#: of genuine branch & bound serially, which is what makes a ≤ 25 %
#: failover budget a real constraint (a respawned worker's fixed
#: start cost must amortise against actual solve time).
CLUSTER_SIZE = 120

SHARDS = 2
CORES = os.cpu_count() or 1


def _conflict_table():
    """CLUSTERS independent conflict clusters (distinct value spaces →
    independent components), weights varied so minimum repairs are
    unique enough that byte-identity is a real assertion."""
    import random

    rows, weights = {}, {}
    tid = 0
    for c in range(CLUSTERS):
        rng = random.Random(100 + c)
        for _ in range(CLUSTER_SIZE):
            rows[tid] = (
                f"a{c}.{rng.randrange(4)}",
                f"b{c}.{rng.randrange(8)}",
                f"x{c}.{rng.randrange(3)}",
            )
            weights[tid] = 1.0 + (tid % 3)
            tid += 1
    return Table(SCHEMA, rows, weights)


def _started_executor(**kwargs):
    ex = PersistentWorkerPool(SHARDS, **kwargs)
    if not ex.start():
        ex.close()
        pytest.skip("platform cannot start pool workers")
    return ex


def test_scale_out_on_two_shards(benchmark):
    """Serial vs 2-shard execution of the identical portfolio.  The
    speedup gate applies only where the host can actually run the
    shards concurrently; single-core hosts gate the sharding tax."""
    table = _conflict_table()

    serial_result, serial_s, serial_runs = measure_best(
        lambda: clean(table, HARD), repeats=3, warmup=1
    )

    ex = _started_executor()
    try:
        # Fleet spawn stays untimed — it is a one-off; the arms differ
        # in where (and how concurrently) the components solve.
        shard_result, shard_s, shard_runs = measure_best(
            lambda: clean(table, HARD, executor=ex), repeats=3, warmup=1
        )
        stats = ex.supervision_stats()
    finally:
        ex.close()

    # Byte-identity first: routing may move work, never answers.
    assert shard_result.cleaned.to_string() == serial_result.cleaned.to_string()
    # And the work really went to the workers, fault-free.
    assert stats["rpcs"] > 0
    assert stats["worker_deaths"] == 0
    assert stats["degraded_local"] == 0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    speedup = serial_s / shard_s
    gated = CORES >= SHARDS
    print_table(
        f"PR-10 — scale-out on {SHARDS} shards "
        f"({CLUSTERS} hard components, {CORES} cores)",
        ("arm", "best", "runs"),
        [
            ("serial", f"{serial_s * 1e3:.0f} ms",
             " ".join(f"{t * 1e3:.0f}" for t in serial_runs)),
            (f"{SHARDS} shards", f"{shard_s * 1e3:.0f} ms",
             " ".join(f"{t * 1e3:.0f}" for t in shard_runs)),
            ("speedup", f"{speedup:.2f}×",
             "gate ≥ 1.5×" if gated else "tax gate ≤ 1.6× (1 core)"),
        ],
    )
    record_bench(
        "BENCH_shards.json",
        "scale-out-2-shards",
        shard_s,
        runs_s=shard_runs,
        serial_s=round(serial_s, 6),
        speedup=round(speedup, 2),
        cores=CORES,
        speedup_gated=gated,
        rpcs=stats["rpcs"],
    )
    if gated:
        # The acceptance gate: ≥ 1.5× on 2 shards where cores permit.
        assert speedup >= 1.5
    else:
        # Single core: no parallelism exists to measure — bound the
        # sharding tax instead (50 ms epsilon for scheduler jitter).
        assert shard_s <= serial_s * 1.6 + 0.05


def test_failover_overhead_under_25_percent(benchmark):
    """One deterministic mid-run shard kill vs fault-free, fresh fleets
    per timed run so the generation-0 kill fires every time."""
    table = _conflict_table()
    oracle = clean(table, HARD).cleaned.to_string()

    def _arm(make_plan, repeats=3):
        times = []
        stats = None
        for _ in range(repeats):
            ex = _started_executor(
                faults=make_plan(), backoff_s=0.01
            )
            try:
                start = time.perf_counter()
                result = clean(table, HARD, executor=ex)
                times.append(time.perf_counter() - start)
                stats = ex.supervision_stats()
            finally:
                ex.close()
            assert result.cleaned.to_string() == oracle
        return min(times), times, stats

    # Kill worker 0 on its 1st message, its first solve request —
    # maximally inconvenient (in-flight work re-dispatches) without
    # double-counting solve time in the arm.
    def _kill_plan():
        return FaultPlan([
            FaultRule("worker.recv", "kill", at=1,
                      match={"worker": 0, "generation": 0}),
        ])

    plain_s, plain_runs, plain_stats = _arm(lambda: FaultPlan([]))
    kill_s, kill_runs, kill_stats = _arm(_kill_plan)

    # The kill really fired, and the fleet really healed, every run.
    assert plain_stats["worker_deaths"] == 0
    assert kill_stats["worker_deaths"] >= 1
    assert kill_stats["respawns"] >= 1
    assert kill_stats["retries"] >= 1
    assert kill_stats["degraded_local"] == 0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    overhead = kill_s / plain_s - 1.0
    print_table(
        "PR-10 — failover overhead, one mid-run shard kill "
        f"({SHARDS} shards, {CLUSTERS} hard components)",
        ("arm", "best", "runs"),
        [
            ("fault-free", f"{plain_s * 1e3:.0f} ms",
             " ".join(f"{t * 1e3:.0f}" for t in plain_runs)),
            ("one shard killed mid-run", f"{kill_s * 1e3:.0f} ms",
             " ".join(f"{t * 1e3:.0f}" for t in kill_runs)),
            ("overhead", f"{overhead * 100:+.1f} %", "gate ≤ +25 %"),
        ],
    )
    record_bench(
        "BENCH_shards.json",
        "failover-one-kill-mid-run",
        kill_s,
        runs_s=kill_runs,
        fault_free_s=round(plain_s, 6),
        overhead_pct=round(overhead * 100, 2),
        worker_deaths=kill_stats["worker_deaths"],
        respawns=kill_stats["respawns"],
        retries=kill_stats["retries"],
    )
    # The acceptance gate: detection + re-dispatch + respawn
    # within 25 %, plus 200 ms for the replacement worker's fixed
    # start cost (absolute, so small hosts are not gated on it).
    assert kill_s <= plain_s * 1.25 + 0.2
