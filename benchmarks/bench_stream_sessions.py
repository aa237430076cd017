"""PR-3 — streaming repair sessions vs from-scratch cleaning.

A long-lived repair service sees a tuple stream, not a batch: each append
usually touches one conflict component (often none).  The
:class:`repro.session.RepairSession` exploits that — incremental
``ConflictIndex.insert``, component reuse, and a content-addressed
per-component repair cache — so a single-tuple append re-solves only the
component it lands in.

Acceptance gate (ISSUE 3): on the clustered 10k workload, incremental
re-repair after single-tuple appends must be **≥ 5×** faster than
running ``pipeline.clean`` from scratch per append, with byte-identical
results.  ISSUE 5 adds the incremental-CSR gate: patching the kernel
view per delta must beat invalidating and rebuilding it per delta (the
other way to keep the array fast paths live mid-stream).  Results land
in ``BENCH_stream.json``.  The 300k gate: a colliding single-tuple
append and its repair on the 300k clustered table must beat a
from-scratch ``clean`` by **≥ 15×** (a repair costs O(touched components
+ deleted ids), while the per-delta snapshot copy is still O(|T|)).
"""

import statistics
import time

from repro.core.fd import FDSet
from repro.core.table import Table
from repro.datagen.synthetic import clustered_conflicts_table
from repro.io.tables import table_to_csv
from repro.pipeline import clean
from repro.session import RepairSession

from conftest import print_table, record_bench

SCHEMA = ("A", "B", "C")

#: The PR-2 clustered acceptance workload: 120 conflict clusters of 25
#: tuples in a 10k table, marriage Δ (tractable, so every component is
#: solved optimally and byte-identity covers the OptSRepair path).
MARRIAGE = FDSet("A -> B; B -> A; B -> C")

APPENDS = 12  # single-tuple appends per run; alternating dirty/clean


def _workload():
    return clustered_conflicts_table(
        SCHEMA, 10_000, clusters=120, cluster_size=25,
        filler_group_size=100, seed=7,
    )


def _append_row(i: int):
    """Even steps collide into an existing cluster; odd steps add a
    conflict-free tuple — the common case a streaming service sees."""
    if i % 2 == 0:
        cluster = (i * 7) % 120
        return (f"a{cluster}", f"b{cluster}.new{i}", f"x{cluster}")
    return (f"fresh{i}", f"g{i}", f"y{i}")


def test_stream_single_tuple_appends_5x(benchmark):
    """The ISSUE-3 gate: ≥ 5× on append-heavy streaming, results
    byte-identical to from-scratch cleaning at every step."""
    table = _workload()
    session = RepairSession(table, MARRIAGE)
    session.repair()  # the session's one-time warm-up solve

    # Warm-up (untimed) on both arms before the timed loop, so neither
    # side pays first-touch costs (imports, allocator warm-up) inside
    # the gate.  The gate itself is a ratio of sums over APPENDS
    # appends — 30 samples per arm — which is what keeps it stable
    # where a single-shot median would flake.
    ids_before = set(session.table.ids())
    session.append([_append_row(10**6)])
    fresh_warm = Table(SCHEMA, session.table.rows(), session.table.weights())
    clean(fresh_warm, MARRIAGE)
    session.delete(list(set(session.table.ids()) - ids_before))
    # Drop garbage left behind by earlier bench files before timing: a
    # large stale heap makes gen-2 collections land inside the timed
    # appends, and the fine-grained incremental arm absorbs them far
    # worse than the coarse scratch arm does.
    import gc

    gc.collect()

    incremental_s = 0.0
    scratch_s = 0.0
    rows_so_far = []
    for i in range(APPENDS):
        row = _append_row(i)
        rows_so_far.append(row)
        start = time.perf_counter()
        result = session.append([row])
        incremental_s += time.perf_counter() - start

        # From-scratch baseline: a fresh table object (cold caches), as a
        # batch service re-invoked per append would see it.  Construction
        # happens outside the timer on both sides.
        fresh = Table(SCHEMA, session.table.rows(), session.table.weights())
        start = time.perf_counter()
        expected = clean(fresh, MARRIAGE)
        scratch_s += time.perf_counter() - start

        assert result.cleaned == expected.cleaned
        assert result.distance == expected.distance
        assert result.method == expected.method
        assert result.report == expected.report
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)

    benchmark.pedantic(
        session.append, args=([("a0", "b0.bench", "x0")],),
        rounds=1, iterations=1,
    )

    speedup = scratch_s / incremental_s
    per_append_inc = incremental_s / APPENDS
    per_append_scratch = scratch_s / APPENDS
    print_table(
        "PR-3 — streaming session vs from-scratch (clustered 10k, marriage Δ)",
        ("path", "per append", "total"),
        [
            ("session (incremental)", f"{per_append_inc * 1e3:.1f} ms",
             f"{incremental_s * 1e3:.0f} ms"),
            ("from-scratch clean", f"{per_append_scratch * 1e3:.1f} ms",
             f"{scratch_s * 1e3:.0f} ms"),
            ("speedup", f"{speedup:.1f}×", ""),
        ],
    )
    record_bench(
        "BENCH_stream.json",
        "stream-append-clustered-10k",
        per_append_inc,
        scratch_per_append_s=round(per_append_scratch, 6),
        speedup=round(speedup, 2),
        appends=APPENDS,
        cache_hits=session.stats.cache_hits,
        cache_misses=session.stats.cache_misses,
    )
    # The acceptance gate, with the measured margin well above it.
    assert speedup >= 5.0


def test_stream_consistent_appends_solve_nothing(benchmark):
    """A conflict-free append must be served entirely from the component
    cache — zero solver invocations, every component a hit."""
    table = _workload()
    session = RepairSession(table, MARRIAGE)
    session.repair()
    misses_before = session.stats.cache_misses

    start = time.perf_counter()
    for i in range(10):
        session.append([(f"quiet{i}", f"q{i}", f"z{i}")])
    elapsed = time.perf_counter() - start

    assert session.stats.cache_misses == misses_before
    assert session.stats.cache_hits >= 10 * 120
    benchmark.pedantic(
        session.append, args=([("quiet-b", "qb", "zb")],),
        rounds=1, iterations=1,
    )
    record_bench(
        "BENCH_stream.json",
        "stream-consistent-append-10k",
        elapsed / 10,
        appends=10,
    )


def test_stream_incremental_csr_vs_rebuild(benchmark):
    """ISSUE-5 gate: keeping the kernel view live by *patching* it per
    delta (tombstones + overflow adjacency) must beat the alternative
    way of keeping the array fast paths — invalidating the snapshot and
    rebuilding the CSR arrays per delta — with identical results, and
    the session must never fall back to a dropped view.  The kernel is
    the index's only adjacency, so the rebuild arm compacts it in place
    (:meth:`ConflictIndex.refresh_kernel`)."""
    incremental = RepairSession(_workload(), MARRIAGE)
    incremental.repair()
    rebuild = RepairSession(_workload(), MARRIAGE)
    rebuild.repair()
    import gc

    gc.collect()

    incremental_s = 0.0
    rebuild_s = 0.0
    for i in range(APPENDS):
        row = _append_row(i)

        start = time.perf_counter()
        result_inc = incremental.append([row])
        incremental_s += time.perf_counter() - start
        kern = incremental.index._kernel
        assert kern is not None  # patched or compacted, never dropped
        assert kern.live_count == len(incremental.index)

        start = time.perf_counter()
        rebuild.append([row], repair=False)
        rebuild.index.refresh_kernel()        # rebuild the arrays per delta
        result_reb = rebuild.repair()
        rebuild_s += time.perf_counter() - start

        assert result_inc.cleaned == result_reb.cleaned
        assert result_inc.report == result_reb.report

    benchmark.pedantic(
        incremental.append, args=([("a1", "b1.bench", "x1")],),
        rounds=1, iterations=1,
    )
    speedup = rebuild_s / incremental_s
    print_table(
        "ISSUE-5 — incremental CSR (patch per delta) vs snapshot rebuild "
        "(clustered 10k, marriage Δ)",
        ("path", "per append", "total"),
        [
            ("patch (tombstones+overflow)",
             f"{incremental_s / APPENDS * 1e3:.1f} ms",
             f"{incremental_s * 1e3:.0f} ms"),
            ("invalidate + rebuild CSR",
             f"{rebuild_s / APPENDS * 1e3:.1f} ms",
             f"{rebuild_s * 1e3:.0f} ms"),
            ("speedup", f"{speedup:.1f}×", ""),
        ],
    )
    record_bench(
        "BENCH_stream.json",
        "stream-incremental-csr-10k",
        incremental_s / APPENDS,
        rebuild_per_append_s=round(rebuild_s / APPENDS, 6),
        speedup=round(speedup, 2),
        appends=APPENDS,
    )
    assert speedup >= 1.4


def test_stream_deletes_match_scratch(benchmark):
    """Deletes ride the same incremental path: remove is O(degree + |Δ|)
    and untouched components stay cached."""
    table = _workload()
    session = RepairSession(table, MARRIAGE)
    session.repair()

    victims = [tid for tid in list(table.ids())[:2000] if tid % 97 == 0][:8]
    incremental_s = 0.0
    for tid in victims:
        start = time.perf_counter()
        result = session.delete([tid])
        incremental_s += time.perf_counter() - start
    fresh = Table(SCHEMA, session.table.rows(), session.table.weights())
    expected = clean(fresh, MARRIAGE)
    assert result.cleaned == expected.cleaned
    assert result.method == expected.method
    assert result.report == expected.report

    benchmark.pedantic(session.repair, rounds=1, iterations=1)
    record_bench(
        "BENCH_stream.json",
        "stream-delete-clustered-10k",
        incremental_s / len(victims),
        deletes=len(victims),
    )


#: The 300k streaming workload of ROADMAP's scaling table: 16-tuple
#: conflict clusters, one per 167 rows, under an APX-complete Δ.
HARD = FDSet("A -> B; B -> C")

DELTAS_300K = 15  # colliding single-tuple appends per size


def _append_repair_p50(size: int):
    """Open a session on the clustered table of *size* rows, repair it
    once, then time DELTAS_300K single-tuple appends, each colliding with
    a conflict cluster and followed by its repair.  Returns the session,
    the last result and the median seconds per append + repair."""
    clusters = size // 167
    table = clustered_conflicts_table(
        SCHEMA, size, clusters=clusters, cluster_size=16, seed=1
    )
    session = RepairSession(table, HARD)
    session.repair()
    del table
    import gc

    gc.collect()
    times = []
    for i in range(DELTAS_300K):
        cluster = (i * 7919) % clusters
        row = (f"a{cluster}", f"b{cluster}.new{i}", f"x{cluster}")
        start = time.perf_counter()
        result = session.append([row])
        times.append(time.perf_counter() - start)
    return session, result, statistics.median(times)


def test_stream_append_clustered_300k(benchmark):
    """A single-tuple append and its repair at 300k rows must beat a
    from-scratch ``clean`` of the same table by ≥ 15×, with the final
    result byte-identical to that ``clean`` (checked outside the
    timers).  The append + repair p50 at 30k is recorded beside it, so
    the entry shows how the per-delta cost scales with |T|."""
    _session, _result, p50_30k = _append_repair_p50(30_000)
    del _session, _result
    session, result, p50_300k = _append_repair_p50(300_000)

    benchmark.pedantic(session.repair, rounds=1, iterations=1)
    fresh_rows, fresh_weights = session.table.rows(), session.table.weights()
    del session
    scratch_s = []
    for _ in range(3):
        fresh = expected = None  # one 300k table and index at a time
        fresh = Table(SCHEMA, fresh_rows, fresh_weights)
        start = time.perf_counter()
        expected = clean(fresh, HARD)
        scratch_s.append(time.perf_counter() - start)
    scratch = min(scratch_s)

    assert result.cleaned == expected.cleaned
    assert result.distance == expected.distance
    assert result.method == expected.method
    assert result.report == expected.report
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)

    speedup = scratch / p50_300k
    print_table(
        "Streaming append + repair vs from-scratch clean "
        "(clustered, A -> B; B -> C)",
        ("rows", "append + repair p50", "from-scratch clean"),
        [
            ("30k", f"{p50_30k * 1e3:.1f} ms", ""),
            ("300k", f"{p50_300k * 1e3:.1f} ms", f"{scratch * 1e3:.0f} ms"),
            ("speedup at 300k", f"{speedup:.1f}×", ""),
        ],
    )
    record_bench(
        "BENCH_stream.json",
        "stream-append-clustered-300k",
        p50_300k,
        p50_30k_ms=round(p50_30k * 1e3, 2),
        p50_300k_ms=round(p50_300k * 1e3, 2),
        scratch_clean_s=round(scratch, 4),
        speedup=round(speedup, 2),
        appends=DELTAS_300K,
    )
    assert speedup >= 15.0
