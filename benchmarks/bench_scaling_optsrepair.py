"""E6 — Theorem 3.2: ``OptSRepair`` terminates in polynomial time.

Paper claims reproduced: the algorithm's runtime grows polynomially with
|T| on every simplification path (common lhs, consensus, lhs marriage and
the chain composition).  We measure a size sweep and assert near-linear
empirical scaling (doubling |T| must not blow up the per-tuple cost), in
contrast to the exponential-in-the-worst-case exact baseline on hard FD
sets.
"""

import time
from contextlib import closing

import pytest

from repro.core.fd import FDSet
from repro.core.srepair import opt_s_repair
from repro.datagen.synthetic import clustered_conflicts_table, planted_violations_table

from conftest import measure_best, print_table, record_bench

FAMILIES = {
    "chain (common lhs+consensus)": FDSet("A -> B; A B -> C"),
    "marriage": FDSet("A -> B; B -> A; B -> C"),
    "consensus": FDSet("-> A; B -> C"),
}

SIZES = (100, 200, 400, 800)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scaling_polynomial(benchmark, family):
    fds = FAMILIES[family]
    tables = {
        n: planted_violations_table(
            ("A", "B", "C"), fds, n, corruption=0.1, domain=5, seed=n
        )
        for n in SIZES
    }

    benchmark(opt_s_repair, fds, tables[SIZES[-1]])

    rows = []
    per_tuple = []
    size_times = {}
    for n in SIZES:
        start = time.perf_counter()
        opt_s_repair(fds, tables[n])
        elapsed = time.perf_counter() - start
        per_tuple.append(elapsed / n)
        size_times[str(n)] = round(elapsed, 6)
        rows.append((n, f"{elapsed * 1e3:.2f} ms", f"{elapsed / n * 1e6:.2f} µs"))
    print_table(
        f"E6 / Theorem 3.2 — OptSRepair scaling ({family})",
        ("|T|", "time", "time / tuple"),
        rows,
    )
    record_bench(
        "BENCH_scaling.json",
        f"optsrepair-sweep/{family}",
        size_times[str(SIZES[-1])],  # the |T| = 800 point the sweep tracks
        sizes=size_times,
    )
    # Polynomial (near-linear) shape: per-tuple cost must not explode.
    # Allow generous noise; an exponential algorithm would exceed this by
    # orders of magnitude over an 8× size range.
    assert per_tuple[-1] <= per_tuple[0] * 30


def test_production_scale_smoke(benchmark):
    """20 000 tuples: OptSRepair solves in well under a second, and the
    polynomial assessment brackets (here: certifies) the optimal cost."""
    from repro.pipeline import assess

    fds = FAMILIES["chain (common lhs+consensus)"]
    table = planted_violations_table(
        ("A", "B", "C"), fds, 20_000, corruption=0.05, domain=30, seed=7
    )
    repair = benchmark.pedantic(opt_s_repair, args=(fds, table), rounds=1, iterations=1)
    optimum = table.dist_sub(repair)
    report = assess(table, fds)
    print_table(
        "E6 — production-scale smoke (20k tuples)",
        ("|T|", "optimal cost", "assessment bracket", "tight?"),
        [
            (
                len(table),
                f"{optimum:g}",
                f"[{report.lower_bound:g}, {report.upper_bound:g}]",
                report.bracket_is_tight,
            )
        ],
    )
    assert report.lower_bound <= optimum <= report.upper_bound


CLUSTERED_CONFIGS = {
    # Tractable chain Δ: the win is skipping the 25k consistent filler
    # tuples (they never enter a solver) plus parallel per-cluster
    # OptSRepair.
    "clustered-chain-30k": dict(
        fds=FDSet("A -> B; A B -> C"),
        size=30_000,
        clusters=200,
        cluster_size=25,
        filler_group_size=40,
        # ~2.2× even on one core (where parallelism is pure overhead);
        # gated at 1.5 to absorb CI noise — the ≥2× acceptance gate is
        # the marriage configuration below, which holds by an order of
        # magnitude.
        min_speedup=1.5,
        global_runs=3,
    ),
    # Marriage Δ: MarriageRep's bipartite matching is cubic in the number
    # of distinct lhs values, so the global path pays a huge Hungarian
    # over every filler value while each cluster's matching is tiny —
    # decomposition shrinks the *algorithm*, not just the data.
    "clustered-marriage-10k": dict(
        fds=FDSet("A -> B; B -> A; B -> C"),
        size=10_000,
        clusters=120,
        cluster_size=25,
        filler_group_size=100,
        min_speedup=2.0,
        global_runs=1,  # the global path is painfully slow; one run suffices
    ),
}


@pytest.mark.parametrize("config", sorted(CLUSTERED_CONFIGS))
def test_clustered_components_parallel_speedup(benchmark, config):
    """PR-2 acceptance — the decomposition layer on clustered conflicts.

    End-to-end ``pipeline.clean`` (index build included on both sides):
    the PR-1 global path (``decomposed=False``, one solver over the whole
    table) versus the decomposed portfolio with ``--parallel 4``.  Both
    must return the same repair distance; the decomposed path must be at
    least ``min_speedup`` × faster, and the best-of-5 times are recorded
    in ``BENCH_scaling.json``.
    """
    from repro.exec import PersistentWorkerPool
    from repro.pipeline import clean

    spec = CLUSTERED_CONFIGS[config]
    fds = spec["fds"]

    def clean_on_four_workers(table):
        # The pool is built and closed inside the timed call, so worker
        # start, shipping, solving and teardown are all measured.
        with closing(PersistentWorkerPool(4)) as pool:
            return clean(table, fds, executor=pool)

    def fresh():
        # A fresh table per run: both paths pay a cold conflict-index
        # build, as a first-contact cleaning call would.
        return clustered_conflicts_table(
            ("A", "B", "C"),
            spec["size"],
            clusters=spec["clusters"],
            cluster_size=spec["cluster_size"],
            filler_group_size=spec["filler_group_size"],
            seed=7,
        )

    # Warm-up + best-of-5 (measure_best): the former 3-run medians moved
    # ~60% between CI runs — two slow runs out of three shift a median
    # wholesale — which made this speedup gate flake.  The slow global
    # arm keeps its configured repeat count (one marriage run is ~3 s)
    # with no warm-up; taking its best run is the conservative direction
    # for the ratio.
    global_result, global_best, global_runs = measure_best(
        lambda: clean(fresh(), fds, decomposed=False),
        repeats=spec["global_runs"], warmup=0,
    )
    serial_result, serial_best, _ = measure_best(lambda: clean(fresh(), fds))
    parallel_result, parallel_best, parallel_runs = measure_best(
        lambda: clean_on_four_workers(fresh())
    )
    benchmark.pedantic(
        clean_on_four_workers, args=(fresh(),), rounds=1, iterations=1
    )

    speedup = global_best / parallel_best
    print_table(
        f"PR-2 — clustered conflicts, decomposed vs global ({config})",
        ("path", "best", "distance", "optimal"),
        [
            ("global (PR-1)", f"{global_best * 1e3:.0f} ms",
             f"{global_result.distance:g}", global_result.optimal),
            ("decomposed serial", f"{serial_best * 1e3:.0f} ms",
             f"{serial_result.distance:g}", serial_result.optimal),
            ("decomposed --parallel 4", f"{parallel_best * 1e3:.0f} ms",
             f"{parallel_result.distance:g}", parallel_result.optimal),
        ],
    )
    record_bench(
        "BENCH_scaling.json",
        config,
        parallel_best,
        runs_s=parallel_runs,
        global_best_s=round(global_best, 6),
        serial_best_s=round(serial_best, 6),
        speedup=round(speedup, 2),
        components=spec["clusters"],
        distance=parallel_result.distance,
    )
    assert parallel_result.distance == global_result.distance
    assert parallel_result.distance == serial_result.distance
    assert speedup >= spec["min_speedup"]


def test_conflict_index_reuse(benchmark):
    """The conflict substrate is built once per ``(table, Δ)`` and shared:
    assessment, the 2-approximation, and any batched entry point all read
    the same cached ConflictIndex.  Benchmarks the warm path and checks
    cache identity plus cross-entry-point consistency."""
    import time

    from repro.core.approx import approx_s_repair
    from repro.pipeline import assess as assess_fn

    fds = FAMILIES["marriage"]
    table = planted_violations_table(
        ("A", "B", "C"), fds, 5_000, corruption=0.08, domain=20, seed=11
    )

    start = time.perf_counter()
    index = table.conflict_index(fds)
    cold = time.perf_counter() - start

    assert table.conflict_index(fds) is index  # cached, not rebuilt

    report = benchmark(assess_fn, table, fds)
    approx = approx_s_repair(table, fds, index=index)
    print_table(
        "E6 — ConflictIndex reuse (5k tuples)",
        ("cold build", "conflicts", "approx distance ≤ upper bound"),
        [
            (
                f"{cold * 1e3:.1f} ms",
                index.num_edges,
                f"{approx.distance:g} ≤ {report.upper_bound:g}",
            )
        ],
    )
    assert report.conflict_count == index.num_edges
    assert approx.distance <= report.upper_bound + 1e-9
