"""ISSUE-4/ISSUE-5 gates — the columnar kernel vs the dict reference.

Acceptance gates, all measured best-of-5 after a warm-up run
(:func:`conftest.measure_best`), with the dict reference paths forced
via ``kernel.disabled()`` / ``use_kernel=False`` as the comparison arm
(the CLI's ``--no-kernel``):

* **Exact component solves ≤ 64** (clustered-marriage-10k component
  mix): the memoised bitset branch & bound must be ≥ 3× faster than the
  graph-copying reference over the full component mix, and return the
  identical covers (ISSUE-4).
* **Exact component solves 65–128** (caterpillar mix): the multi-word
  :class:`~repro.core.kernel.BitsetVC` must be ≥ 3× faster than the
  graph reference on components past the machine-word boundary, with
  identical covers (ISSUE-5).
* **Array-native approximation tier** (clustered-marriage-10k): the
  BYE + maximalisation and greedy lazy-heap loops on flat arrays must
  be ≥ 2× faster than the dict loops, byte-identical repairs (ISSUE-5).
* **Index build + assess** (clustered-chain-30k): the columnar
  conflict-index build plus the decomposed assessment must be ≥ 2×
  faster end-to-end than the dict build + assessment, and produce the
  identical report (ISSUE-4).

* **Index build scaling** (clustered 30k → 300k, chain Δ
  ``A → B; B → C``): the kernel index build at 300k rows must cost at
  most :data:`BUILD_SCALING_BOUND` times the build at 30k — linear
  work plus the GC and cache effects of a 10× larger heap.  Per-tuple
  containers show up here first, as GC work that grows with the heap.

Results land in ``BENCH_kernel.json`` next to the other bench suites;
the committed baselines double as the CI regression reference (the
workflow fails on a > 30% drop of any gated ``speedup``).  For context,
the committed ``BENCH_scaling.json`` medians for the same workloads
(which *include* per-component solving on the then-dict paths) are the
PR-2/PR-3 baselines these numbers improve on.
"""

import random

import pytest

from repro.core import kernel
from repro.core.approx import approx_s_repair, greedy_s_repair
from repro.core.conflict_index import ConflictIndex
from repro.core.decompose import decompose
from repro.core.exact import exact_cover_of_index
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.datagen.synthetic import clustered_conflicts_table
from repro.graphs.vertex_cover import exact_min_weight_vertex_cover
from repro.pipeline import assess

from conftest import measure_best, print_table, record_bench

CHAIN = FDSet("A -> B; A B -> C")
ROADMAP_CHAIN = FDSet("A -> B; B -> C")

#: Ceiling on build(300k) / build(30k) for the kernel index build.
BUILD_SCALING_BOUND = 20.0
MARRIAGE = FDSet("A -> B; B -> A; B -> C")


def _chain_30k():
    return clustered_conflicts_table(
        ("A", "B", "C"), 30_000, clusters=200, cluster_size=25,
        filler_group_size=40, seed=7,
    )


def _marriage_10k(weighted=False):
    return clustered_conflicts_table(
        ("A", "B", "C"), 10_000, clusters=120, cluster_size=25,
        filler_group_size=100, seed=7, weighted=weighted,
    )


def _caterpillar_65_128(clusters=24, seed=3):
    """*clusters* connected conflict components of 65–128 tuples each —
    chained 3-cliques under the marriage Δ, the multi-word workload the
    ISSUE-5 exact gate runs on."""
    rng = random.Random(seed)
    rows = {}
    tid = 0
    for c in range(clusters):
        n = 65 + (c * 9) % 64
        for j in range(n):
            rows[tid] = (f"a{c}.{j // 3}", f"b{c}.{(j + 1) // 3}", f"x{c}")
            tid += 1
    weights = {i: rng.choice([1.0, 2.0, 0.5, 3.0]) for i in rows}
    return Table(("A", "B", "C"), rows, weights)


def test_bitmask_exact_3x_on_marriage_component_mix(benchmark):
    """Gate 1: ≥ 3× on the exact solves of the clustered-marriage-10k
    component mix, identical covers."""
    table = _marriage_10k()
    components = decompose(table, MARRIAGE).components
    assert len(components) == 120

    def solve_kernel():
        return [exact_cover_of_index(c.index) for c in components]

    def solve_reference():
        out = []
        for c in components:
            cover = exact_min_weight_vertex_cover(c.index.graph())
            out.append([tid for tid in c.index.ids() if tid in cover])
        return out

    kernel_covers, kernel_s, kernel_runs = measure_best(solve_kernel)
    reference_covers, reference_s, _ = measure_best(solve_reference)
    benchmark.pedantic(solve_kernel, rounds=1, iterations=1)

    speedup = reference_s / kernel_s
    print_table(
        "ISSUE-4 — exact component solves, bitmask kernel vs Graph B&B "
        "(marriage-10k mix)",
        ("path", "best of 5", "components", "identical covers"),
        [
            ("bitmask kernel", f"{kernel_s * 1e3:.1f} ms", len(components),
             kernel_covers == reference_covers),
            ("Graph branch & bound", f"{reference_s * 1e3:.1f} ms",
             len(components), ""),
            ("speedup", f"{speedup:.1f}×", "", ""),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "exact-components-marriage-10k",
        kernel_s,
        runs_s=kernel_runs,
        reference_best_s=round(reference_s, 6),
        speedup=round(speedup, 2),
        components=len(components),
    )
    assert kernel_covers == reference_covers
    assert speedup >= 3.0


def test_multiword_exact_3x_on_65_128_mix(benchmark):
    """ISSUE-5 gate (a): ≥ 3× on exact solves of 65–128-vertex
    components — multi-word bitset territory — identical covers."""
    table = _caterpillar_65_128()
    components = decompose(table, MARRIAGE).components
    sizes = sorted(c.size for c in components)
    assert sizes[0] >= 65 and sizes[-1] <= 128 and len(components) == 24

    def solve_kernel():
        return [exact_cover_of_index(c.index) for c in components]

    def solve_reference():
        out = []
        for c in components:
            cover = exact_min_weight_vertex_cover(c.index.graph())
            out.append([tid for tid in c.index.ids() if tid in cover])
        return out

    kernel_covers, kernel_s, kernel_runs = measure_best(solve_kernel)
    reference_covers, reference_s, _ = measure_best(solve_reference)
    benchmark.pedantic(solve_kernel, rounds=1, iterations=1)

    speedup = reference_s / kernel_s
    print_table(
        "ISSUE-5 — exact solves past 64 vertices, BitsetVC vs Graph B&B "
        "(65–128-tuple caterpillar mix)",
        ("path", "best of 5", "components", "identical covers"),
        [
            ("multi-word BitsetVC", f"{kernel_s * 1e3:.1f} ms",
             len(components), kernel_covers == reference_covers),
            ("Graph branch & bound", f"{reference_s * 1e3:.1f} ms",
             len(components), ""),
            ("speedup", f"{speedup:.1f}×", "", ""),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "exact-components-65-128",
        kernel_s,
        runs_s=kernel_runs,
        reference_best_s=round(reference_s, 6),
        speedup=round(speedup, 2),
        components=len(components),
        largest=sizes[-1],
    )
    assert kernel_covers == reference_covers
    assert speedup >= 3.0


def test_array_approx_loops_2x_on_marriage_10k(benchmark):
    """ISSUE-5 gate (b): ≥ 2× on the approximation tier — BYE +
    maximalisation and the greedy lazy-heap loop — byte-identical
    repairs on the array paths and the dict reference."""
    table = _marriage_10k(weighted=True)
    kernel_index = table.conflict_index(MARRIAGE)
    assert kernel_index._kernel is not None
    dict_table = Table(table.schema, table.rows(), table.weights())
    dict_index = ConflictIndex(dict_table, MARRIAGE, use_kernel=False)

    def arm(tab, index):
        def run():
            return (
                approx_s_repair(tab, MARRIAGE, index=index),
                greedy_s_repair(tab, MARRIAGE, index=index),
            )
        return run

    kernel_res, kernel_s, kernel_runs = measure_best(arm(table, kernel_index))
    dict_res, dict_s, _ = measure_best(arm(dict_table, dict_index))
    benchmark.pedantic(arm(table, kernel_index), rounds=1, iterations=1)

    identical = (
        kernel_res[0].repair == dict_res[0].repair
        and kernel_res[1].repair == dict_res[1].repair
        and kernel_res[0].distance == dict_res[0].distance
        and kernel_res[1].distance == dict_res[1].distance
    )
    speedup = dict_s / kernel_s
    print_table(
        "ISSUE-5 — approximation tier (BYE+MIS, greedy heap), arrays vs "
        "dicts (marriage-10k)",
        ("path", "best of 5", "identical repairs"),
        [
            ("flat arrays", f"{kernel_s * 1e3:.1f} ms", identical),
            ("dict reference", f"{dict_s * 1e3:.1f} ms", ""),
            ("speedup", f"{speedup:.1f}×", ""),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "approx-greedy-marriage-10k",
        kernel_s,
        runs_s=kernel_runs,
        reference_best_s=round(dict_s, 6),
        speedup=round(speedup, 2),
    )
    assert identical
    assert speedup >= 2.0


def test_kernel_build_and_assess_2x_on_chain_30k(benchmark):
    """Gate 2: ≥ 2× on cold index build + decomposed assess, chain-30k,
    identical report.

    Each timed run starts from a fresh table (cold caches): the measured
    quantity is exactly what a first-contact ``fdrepair assess`` pays.
    Tables are pre-built outside the timers.
    """
    runs = 6  # 1 warm-up + 5 timed, per arm

    def arm(use_kernel):
        tables = iter([_chain_30k() for _ in range(runs)])

        def run():
            table = next(tables)
            if use_kernel:
                return assess(table, CHAIN)
            with kernel.disabled():
                return assess(table, CHAIN)

        return run

    kernel_report, kernel_s, kernel_runs = measure_best(arm(True))
    dict_report, dict_s, _ = measure_best(arm(False))
    benchmark.pedantic(arm(True), rounds=1, iterations=1)

    speedup = dict_s / kernel_s
    print_table(
        "ISSUE-4 — cold index build + assess, kernel vs dict (chain-30k)",
        ("path", "best of 5", "bracket", "identical report"),
        [
            ("columnar kernel", f"{kernel_s * 1e3:.0f} ms",
             f"[{kernel_report.lower_bound:g}, {kernel_report.upper_bound:g}]",
             kernel_report == dict_report),
            ("dict reference", f"{dict_s * 1e3:.0f} ms",
             f"[{dict_report.lower_bound:g}, {dict_report.upper_bound:g}]", ""),
            ("speedup", f"{speedup:.1f}×", "", ""),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "build-assess-chain-30k",
        kernel_s,
        runs_s=kernel_runs,
        reference_best_s=round(dict_s, 6),
        speedup=round(speedup, 2),
        components=kernel_report.component_count,
    )
    assert kernel_report == dict_report
    assert speedup >= 2.0


def test_bye_and_components_fast_paths_identical(benchmark):
    """The array fast paths (CSR components, CSR/bitmask BYE) answer
    exactly like the dict reference on the full 30k index."""
    from repro.graphs.vertex_cover import bar_yehuda_even

    table = _chain_30k()
    index = table.conflict_index(CHAIN)
    assert index._kernel is not None

    fast_components, fast_s, _ = measure_best(index.components, repeats=3)
    fast_cover = bar_yehuda_even(index)

    from repro.core.conflict_index import ConflictIndex

    dict_index = ConflictIndex(_chain_30k(), CHAIN, use_kernel=False)
    slow_components, slow_s, _ = measure_best(dict_index.components, repeats=3)
    slow_cover = bar_yehuda_even(dict_index)

    benchmark.pedantic(index.components, rounds=1, iterations=1)
    print_table(
        "ISSUE-4 — components()/BYE array fast paths (chain-30k)",
        ("path", "components best-of-3", "components", "BYE cover size"),
        [
            ("CSR arrays", f"{fast_s * 1e3:.1f} ms", len(fast_components),
             len(fast_cover)),
            ("dict sweep", f"{slow_s * 1e3:.1f} ms", len(slow_components),
             len(slow_cover)),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "components-csr-chain-30k",
        fast_s,
        dict_s=round(slow_s, 6),
    )
    assert fast_components == slow_components
    assert fast_cover == slow_cover


def _roadmap_clustered(n):
    """The scaling workload of the roadmap's layer table."""
    return clustered_conflicts_table(
        ("A", "B", "C"), n, clusters=n // 167, cluster_size=16, seed=1
    )


def test_index_build_scaling_30k_300k(benchmark):
    """Gate: the kernel index build scales near-linearly from 30k to
    300k rows (best of 5 each, one run, tables built outside the
    timers)."""
    times = {}
    edges = {}
    for n in (30_000, 300_000):
        table = _roadmap_clustered(n)
        index, times[n], _ = measure_best(
            lambda: ConflictIndex(table, ROADMAP_CHAIN, use_kernel=True)
        )
        edges[n] = index.num_edges
        del index, table
    ratio = times[300_000] / times[30_000]
    small = _roadmap_clustered(30_000)
    benchmark.pedantic(
        lambda: ConflictIndex(small, ROADMAP_CHAIN, use_kernel=True),
        rounds=1, iterations=1,
    )
    print_table(
        "Kernel index build scaling (clustered, A -> B; B -> C)",
        ("rows", "best of 5", "conflict edges"),
        [
            ("30k", f"{times[30_000] * 1e3:.0f} ms", edges[30_000]),
            ("300k", f"{times[300_000] * 1e3:.0f} ms", edges[300_000]),
            ("ratio", f"{ratio:.1f}×", ""),
        ],
    )
    record_bench(
        "BENCH_kernel.json",
        "index-build-scaling-30k-300k",
        times[300_000],
        build_30k_s=round(times[30_000], 6),
        ratio=round(ratio, 2),
        bound=BUILD_SCALING_BOUND,
    )
    assert ratio <= BUILD_SCALING_BOUND
