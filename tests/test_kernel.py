"""The interned columnar kernel (:mod:`repro.core.kernel`).

Three contracts are pinned here:

1. **Codec round-trip** — ``TableCodec.encode`` followed by
   ``decode_table`` reproduces any table exactly, including duplicate
   rows, weights, and identity-equal ``FreshValue`` cells.
2. **Bitmask mirror** — the single-word branch & bound returns the
   *identical* cover (not merely one of equal weight) as the graph-based
   reference ``exact_min_weight_vertex_cover`` on arbitrary graphs of at
   most 64 vertices.
3. **Byte-identity of the kernel paths** — a kernel-backed pipeline run
   (index build, decomposition, portfolio solves, report) equals the
   dict reference run (``kernel.disabled()`` / ``--no-kernel``) across
   guarantee modes and both repair strategies, on random tables.
"""

import random
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.conflict_index import ConflictIndex
from repro.core.exact import exact_cover_of_index
from repro.core.fd import FDSet
from repro.core.table import FreshValue, Table
from repro.exec import PersistentWorkerPool
from repro.graphs.graph import Graph
from repro.graphs.vertex_cover import (
    bar_yehuda_even,
    exact_min_weight_vertex_cover,
    maximalize_independent_set,
)
from repro.pipeline import assess, clean

FD_SETS = (
    FDSet("A -> B"),
    FDSet("A -> B; A B -> C"),
    FDSet("A -> B; B -> A; B -> C"),
    FDSet("A -> B; B -> C"),
    FDSet("A B -> C; C -> A"),
)

SCHEMA = ("A", "B", "C")


def _random_table(rng: random.Random, size: int, with_fresh: bool = True) -> Table:
    """A random table with duplicate rows, mixed weights, and (optionally)
    shared FreshValue cells — the encoder's worst case."""
    fresh_pool = [FreshValue(f"f{i}") for i in range(3)] if with_fresh else []
    values = ["v0", "v1", "v2", 7, ("t", 1), *fresh_pool]
    rows = {}
    weights = {}
    for i in range(size):
        if i and rng.random() < 0.2:
            # Exact duplicate of an earlier row, under a fresh id.
            rows[f"t{i}"] = rows[f"t{rng.randrange(i)}"]
        else:
            rows[f"t{i}"] = tuple(rng.choice(values) for _ in SCHEMA)
        weights[f"t{i}"] = rng.choice([1.0, 0.5, 2.25, 3.0])
    return Table(SCHEMA, rows, weights)


# ---------------------------------------------------------------------------
# 1. Codec round-trip
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_round_trip(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    size = data.draw(st.integers(min_value=0, max_value=25))
    table = _random_table(rng, size)
    codec = kernel.TableCodec.encode(table)
    decoded = codec.decode_table(name=table.name)
    assert decoded == table
    # Identity, not just equality, for every cell: FreshValue equality is
    # identity, so the decoder must return the original objects.
    for i, tid in enumerate(codec.ids):
        assert all(a is b for a, b in zip(codec.decode_row(i), table[tid]))
    # Codes are dense and first-seen ordered per column.
    for j, decoder in enumerate(codec.decoders):
        seen = []
        for row in table.rows().values():
            if row[j] not in seen:
                seen.append(row[j])
        assert decoder == seen


def test_codec_stays_live_under_append():
    table = Table(SCHEMA, {1: ("a", "b", "c")})
    codec = kernel.TableCodec.encode(table)
    codec.append_row(2, ("a", "new", "c"), 2.0)
    assert codec.coded_row(2) == (0, 1, 0)
    assert codec.decode_row(1) == ("a", "new", "c")
    assert codec.weights[1] == 2.0


# ---------------------------------------------------------------------------
# 2. Bitmask branch & bound mirrors the graph reference
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_bitmask_cover_identical_to_reference(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(min_value=0, max_value=24))
    p = data.draw(st.sampled_from((0.05, 0.2, 0.45, 0.8)))
    nodes = [f"n{i}" for i in range(n)]
    weights = {v: rng.choice([1.0, 0.5, 2.0, 3.25]) for v in nodes}
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    graph = Graph.from_edges(edges, nodes=nodes, weights=weights)
    reference = exact_min_weight_vertex_cover(graph)

    position = {v: i for i, v in enumerate(nodes)}
    masks = [0] * n
    for u, v in edges:
        masks[position[u]] |= 1 << position[v]
        masks[position[v]] |= 1 << position[u]
    cover_mask = kernel.bitmask_vertex_cover(
        [weights[v] for v in nodes], masks, [str(v) for v in nodes]
    )
    cover = {nodes[i] for i in kernel._bits_ascending(cover_mask)}
    # Identical cover — the strong form; equal weight follows.
    assert cover == reference
    assert graph.is_vertex_cover(cover)


def test_bitmask_rejects_oversized_components():
    n = kernel.MAX_BITMASK_VERTICES + 1
    with pytest.raises(ValueError, match=str(n)):
        kernel.bitmask_vertex_cover([1.0] * n, [0] * n, ["x"] * n)


def test_bitmask_solves_past_64_vertices():
    """A 50-edge perfect matching on 100 vertices — squarely in
    multi-word territory: optimum takes the lighter endpoint per edge."""
    n = 100
    weights = [1.0 if i % 2 else 3.0 for i in range(n)]
    masks = [0] * n
    for i in range(0, n, 2):
        masks[i] |= 1 << (i + 1)
        masks[i + 1] |= 1 << i
    cover_mask = kernel.bitmask_vertex_cover(
        weights, masks, [str(i) for i in range(n)]
    )
    assert sum(weights[i] for i in kernel._bits_ascending(cover_mask)) == 50.0


def test_bitmask_at_the_64_vertex_boundary():
    """A 32-edge perfect matching on exactly 64 vertices: optimum takes
    the lighter endpoint of every edge."""
    n = 64
    weights = [1.0 if i % 2 else 3.0 for i in range(n)]
    masks = [0] * n
    for i in range(0, n, 2):
        masks[i] |= 1 << (i + 1)
        masks[i + 1] |= 1 << i
    cover_mask = kernel.bitmask_vertex_cover(
        weights, masks, [str(i) for i in range(n)]
    )
    assert sum(weights[i] for i in kernel._bits_ascending(cover_mask)) == 32.0


def _sparse_component(rng: random.Random, n: int):
    """A connected sparse weighted graph on *n* vertices: a short-range
    chain plus a handful of chords — enough branching to exercise the
    solver, sparse enough that the branch & bound stays fast at 200
    vertices.  Edges come back in canonical ascending order, so the
    reference ``Graph`` and the bitset masks see the same sequence."""
    nodes = [f"n{i}" for i in range(n)]
    weights = {v: rng.choice([1.0, 0.5, 2.0, 3.25]) for v in nodes}
    edge_set = set()
    for i in range(1, n):
        edge_set.add((rng.randrange(max(0, i - 4), i), i))
    for _ in range(n // 3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            edge_set.add((min(i, j), max(i, j)))
    edges = [(nodes[i], nodes[j]) for i, j in sorted(edge_set)]
    return nodes, weights, edges


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_multiword_cover_identical_to_reference_65_to_200(data):
    """The multi-word territory of the ISSUE-5 tentpole: components of
    65–200 vertices solved by :class:`BitsetVC` return the *identical*
    cover as the graph-based reference."""
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(min_value=65, max_value=200))
    nodes, weights, edges = _sparse_component(rng, n)
    graph = Graph.from_edges(edges, nodes=nodes, weights=weights)
    reference = exact_min_weight_vertex_cover(graph)

    position = {v: i for i, v in enumerate(nodes)}
    masks = [0] * n
    for u, v in edges:
        masks[position[u]] |= 1 << position[v]
        masks[position[v]] |= 1 << position[u]
    cover_mask = kernel.BitsetVC(
        [weights[v] for v in nodes], masks, [str(v) for v in nodes]
    ).solve()
    cover = {nodes[i] for i in kernel._bits_ascending(cover_mask)}
    assert cover == reference
    assert graph.is_vertex_cover(cover)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_multiword_exact_cover_of_index_matches_reference(data):
    """End-to-end through the portfolio dispatch: a conflict component
    past 64 tuples goes through ``exact_cover_of_index``'s bitset path
    and matches the graph reference run on the same live index."""
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(min_value=65, max_value=140))
    rows = {i: (f"a{i // 3}", f"b{(i + 1) // 3}", "x") for i in range(n)}
    weights = {i: rng.choice([1.0, 2.0, 0.5]) for i in rows}
    fds = FDSet("A -> B; B -> A")
    table = Table(SCHEMA, rows, weights)
    index = ConflictIndex(table, fds, use_kernel=True)
    kept = exact_cover_of_index(index, node_limit=2000)
    reference = exact_min_weight_vertex_cover(index.graph())
    assert kept == [tid for tid in index.ids() if tid in reference]


# ---------------------------------------------------------------------------
# 3. Kernel-built index ≡ dict-built index
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_index_equals_dict_index(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    table = _random_table(rng, data.draw(st.integers(0, 25)), with_fresh=False)
    kernel_index = ConflictIndex(table, fds, use_kernel=True)
    dict_index = ConflictIndex(table, fds, use_kernel=False)
    assert kernel_index.num_edges == dict_index.num_edges
    assert kernel_index.edges() == dict_index.edges()
    assert kernel_index.components() == dict_index.components()
    assert kernel_index.consistent_ids() == dict_index.consistent_ids()
    assert kernel_index.conflicting_tuples() == dict_index.conflicting_tuples()
    assert sorted(map(repr, kernel_index.violating_pairs())) == sorted(
        map(repr, dict_index.violating_pairs())
    )
    assert list(kernel_index.violating_pairs()) == list(dict_index.violating_pairs())
    assert kernel_index.matching_lower_bound() == dict_index.matching_lower_bound()
    assert bar_yehuda_even(kernel_index) == bar_yehuda_even(dict_index)
    assert exact_cover_of_index(kernel_index) == exact_cover_of_index(dict_index)


def test_csr_arrays_shape_and_degree():
    table = Table(
        ("A", "B"),
        {1: ("x", "1"), 2: ("x", "2"), 3: ("x", "3"), 4: ("y", "1")},
    )
    index = ConflictIndex(table, FDSet("A -> B"), use_kernel=True)
    kern = index._kernel
    assert kern is not None
    assert kern.num_edges == 3  # triangle among rows 0, 1, 2
    assert kern.degree == [2, 2, 2, 0]
    assert kern.indptr == [0, 2, 4, 6, 6]
    assert len(kern.indices) == 6
    assert kern.weights[:4] == [1.0, 1.0, 1.0, 1.0]


def test_mutation_patches_csr_and_keeps_codec():
    table = Table(("A", "B"), {1: ("x", "1"), 2: ("x", "2")})
    index = ConflictIndex(table, FDSet("A -> B"), use_kernel=True)
    assert index._kernel is not None
    index.insert(3, ("x", "3"))
    assert index._kernel is not None  # the view is patched, not dropped
    assert index._kernel.patched
    assert index._codec is not None  # codes stay live
    assert index._codec.coded_row(3) == (0, 2)
    index.remove(1)
    # Array paths still serve everything correctly after mutation.
    assert index._kernel is not None
    assert index.components() == [[2, 3]]
    assert index._kernel.live_edges == index.num_edges == 1


# ---------------------------------------------------------------------------
# 4. Byte-identity of kernel vs dict pipeline runs
# ---------------------------------------------------------------------------

def _canonical_cells(result, original):
    """Changed cells with FreshValues canonicalised by first occurrence.

    Fresh nulls are identity-equal and their *labels* may come from a
    process-global counter (the U-repair global-fallback path), so two
    equal repairs computed in sequence carry different labels.  What is
    observable — and what byte-identity can mean for fresh values — is
    the equality *pattern*: rank each distinct null by first occurrence
    in (deterministic) changed-cell order and compare the ranks.
    """
    out = {}
    ranks = {}
    for cell in result.cleaned.changed_cells(original):
        value = result.cleaned.value(*cell)
        if isinstance(value, FreshValue):
            value = f"⊥#{ranks.setdefault(value, len(ranks))}"
        out[cell] = value
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_clean_byte_identical_with_and_without_kernel(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    strategy = data.draw(st.sampled_from(("deletions", "updates")))
    # "optimal" U-repairs may legitimately raise (and are worst-case
    # exponential) on the hard side of the dichotomy — identically so on
    # both arms, but there is nothing kernel-specific to compare there.
    guarantees = (
        ("best", "optimal", "fast") if strategy == "deletions"
        else ("best", "fast")
    )
    guarantee = data.draw(st.sampled_from(guarantees))
    size = data.draw(st.integers(0, 18))
    rows = {
        i: tuple(f"v{rng.randrange(3)}" for _ in SCHEMA) for i in range(size)
    }
    weights = {i: rng.choice([1.0, 2.0, 0.5]) for i in rows}

    with_kernel = clean(
        Table(SCHEMA, rows, weights), fds, strategy=strategy, guarantee=guarantee
    )
    with kernel.disabled():
        without = clean(
            Table(SCHEMA, rows, weights), fds, strategy=strategy,
            guarantee=guarantee,
        )

    original = Table(SCHEMA, rows, weights)
    assert with_kernel.distance == without.distance
    assert with_kernel.report == without.report
    assert with_kernel.method == without.method
    assert with_kernel.method_counts == without.method_counts
    if strategy == "deletions":
        assert with_kernel.cleaned == without.cleaned
    else:
        assert _canonical_cells(with_kernel, original) == _canonical_cells(
            without, original
        )


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_assess_byte_identical_with_and_without_kernel(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    decomposed = data.draw(st.booleans())
    size = data.draw(st.integers(0, 20))
    rows = {
        i: tuple(f"v{rng.randrange(3)}" for _ in SCHEMA) for i in range(size)
    }
    weights = {i: rng.choice([1.0, 2.0, 0.5]) for i in rows}
    with_kernel = assess(Table(SCHEMA, rows, weights), fds, decomposed=decomposed)
    with kernel.disabled():
        without = assess(Table(SCHEMA, rows, weights), fds, decomposed=decomposed)
    assert with_kernel == without


def test_parallel_coded_shipping_byte_identical():
    """Components solved on the worker pool from a kernel-backed index:
    kept ids (and hence the merged repair and its report) match the
    serial solve."""
    rng = random.Random(5)
    rows = {}
    for cluster in range(6):
        for k in range(8):
            rows[cluster * 8 + k] = (f"a{cluster}", f"b{rng.randrange(3)}", f"c{cluster}")
    table = Table(SCHEMA, rows)
    table2 = Table(SCHEMA, dict(rows))
    fds = FDSet("A -> B")
    serial = clean(table, fds)
    with closing(PersistentWorkerPool(2)) as pool:
        parallel = clean(table2, fds, executor=pool)
    assert serial.cleaned == parallel.cleaned
    assert serial.distance == parallel.distance
    assert serial.report == parallel.report


# ---------------------------------------------------------------------------
# 5. The wall-clock escape hatch (exact_budget_s)
# ---------------------------------------------------------------------------

def _budget_probe_graph(n=40, seed=4):
    """A component whose branch & bound genuinely branches (so a zero
    budget is observed) — random-ish marriage tangle."""
    rng = random.Random(seed)
    rows = {i: (f"a{rng.randrange(8)}", f"b{rng.randrange(8)}", "x")
            for i in range(n)}
    weights = {i: rng.choice([1.0, 2.0, 0.5]) for i in rows}
    return Table(SCHEMA, rows, weights)


def test_exact_budget_raises_in_both_solvers(monkeypatch):
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    fds = FDSet("A -> B; B -> A")
    table = _budget_probe_graph()
    index = ConflictIndex(table, fds, use_kernel=True)
    with pytest.raises(kernel.ExactBudgetExceeded):
        exact_cover_of_index(index, budget_s=0.0)
    with pytest.raises(kernel.ExactBudgetExceeded):
        exact_min_weight_vertex_cover(index.graph(), budget_s=0.0)
    # No budget → both still solve, identically.
    kept = exact_cover_of_index(index)
    reference = exact_min_weight_vertex_cover(index.graph())
    assert kept == [tid for tid in index.ids() if tid in reference]


def test_assess_budget_falls_back_to_polynomial_bracket(monkeypatch):
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    fds = FDSet("A -> B; B -> A")
    table = _budget_probe_graph()
    free = assess(table, fds)
    budgeted = assess(Table(SCHEMA, table.rows(), table.weights()), fds,
                      exact_budget_s=0.0)
    # The polynomial bracket still brackets the certified optimum…
    assert budgeted.lower_bound <= free.lower_bound
    assert budgeted.upper_bound >= free.upper_bound
    # …but no component is certified exactly any more.
    assert free.exact_components >= 1
    assert budgeted.exact_components < free.exact_components
    assert not budgeted.bracket_is_tight


def test_clean_budget_reports_approx_fallback(monkeypatch):
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    # APX-complete Δ: the portfolio plans "exact" (not the dichotomy
    # recursion) for the under-threshold component, so the budget
    # fallback is observable in the method mix.
    fds = FDSet("A -> B; B -> C")
    table = _budget_probe_graph()
    free = clean(table, fds)
    budgeted = clean(Table(SCHEMA, table.rows(), table.weights()), fds,
                     exact_budget_s=0.0)
    assert free.optimal and free.method_counts == {"exact": free.component_count}
    # The fallback is visible, not silent: the method mix, optimality
    # flag, and ratio bound all say "approximated".
    assert budgeted.method_counts.get("approx", 0) >= 1
    assert not budgeted.optimal
    assert budgeted.ratio_bound == 2.0
    assert budgeted.distance >= free.distance


def test_clean_budget_on_global_path(monkeypatch):
    """decomposed=False honours the budget too: guarantee='best' falls
    back to the 2-approximation, guarantee='optimal' fails loudly."""
    from repro.core.exact import ExactBudgetExceeded
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    fds = FDSet("A -> B; B -> C")
    table = _budget_probe_graph()
    fallback = clean(table, fds, decomposed=False, exact_budget_s=0.0)
    assert not fallback.optimal
    assert fallback.ratio_bound == 2.0
    with pytest.raises(ExactBudgetExceeded):
        clean(Table(SCHEMA, table.rows(), table.weights()), fds,
              decomposed=False, guarantee="optimal", exact_budget_s=0.0)


# ---------------------------------------------------------------------------
# 6. Incremental CSR: mutation patches the view, never serves stale state
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_incremental_csr_equals_dict_under_interleaved_mutations(data):
    """After any interleaving of inserts and removes, the patched kernel
    view answers every read — components (both the index route and the
    patched CSR sweep itself), edges, BYE, greedy, maximalisation,
    matching bound — identically to a dict-built index fed the same
    deltas."""
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    table = _random_table(rng, data.draw(st.integers(2, 22)), with_fresh=False)
    kernel_index = ConflictIndex(table, fds, use_kernel=True)
    dict_table = Table(SCHEMA, table.rows(), table.weights())
    dict_index = ConflictIndex(dict_table, fds, use_kernel=False)
    rows_now = table.rows()
    weights_now = table.weights()
    live = list(kernel_index.ids())
    next_id = 10_000
    for _ in range(data.draw(st.integers(1, 14))):
        if live and rng.random() < 0.45:
            victim = live.pop(rng.randrange(len(live)))
            kernel_index.remove(victim)
            dict_index.remove(victim)
            del rows_now[victim]
            del weights_now[victim]
        else:
            row = tuple(f"v{rng.randrange(3)}" for _ in SCHEMA)
            weight = rng.choice([1.0, 2.0])
            kernel_index.insert(next_id, row, weight)
            dict_index.insert(next_id, row, weight)
            rows_now[next_id] = row
            weights_now[next_id] = weight
            live.append(next_id)
            next_id += 1
    assert kernel_index.components() == dict_index.components()
    assert kernel_index.edges() == dict_index.edges()
    assert kernel_index.num_edges == dict_index.num_edges
    assert bar_yehuda_even(kernel_index) == bar_yehuda_even(dict_index)
    assert kernel_index.matching_lower_bound() == dict_index.matching_lower_bound()
    kern = kernel_index._kernel
    assert kern is not None  # patched or compacted — never dropped
    assert kern.live_edges == kernel_index.num_edges
    if kern.patched:
        # A direct array sweep of a patched view refuses loudly (the
        # index's live sweep is the patched components path)…
        with pytest.raises(RuntimeError, match="patched"):
            kernel.components_csr(kern)
    else:
        # …while a compacted (rebuilt) view serves it directly.
        ids = kern.codec.ids
        assert [
            [ids[i] for i in members]
            for members in kernel.components_csr(kern)
        ] == dict_index.components()
    survivors = kernel_index.kernel_greedy_survivors()
    if survivors is not None and live:
        from repro.core.approx import greedy_s_repair

        snapshot = Table(SCHEMA, rows_now, weights_now)
        with kernel.disabled():
            reference = greedy_s_repair(snapshot, fds)
        kernel_repair = maximalize_independent_set(kernel_index, survivors)
        assert kernel_repair == set(reference.repair.ids())


def test_compaction_rebuilds_the_view():
    rng = random.Random(9)
    rows = {i: (f"a{i % 40}", f"b{rng.randrange(3)}", "x") for i in range(400)}
    table = Table(SCHEMA, rows)
    index = ConflictIndex(table, FDSet("A -> B"), use_kernel=True)
    for tid in range(0, 300):
        index.remove(tid)
    kern = index._kernel
    assert kern is not None
    # 300 removals is far past the churn bound: the view was compacted
    # back to plain CSR over the live rows at least once, resetting the
    # since-build churn counters.
    assert kern.removed_count + kern.appended_count < 64
    dict_index = ConflictIndex(
        table.subset(range(300, 400)), FDSet("A -> B"), use_kernel=False
    )
    assert index.components() == dict_index.components()
    assert bar_yehuda_even(index) == bar_yehuda_even(dict_index)


def _index_state(index):
    """Everything a consumer can read off an index, in comparable form
    (the violating pairs as a multiset: group iteration order depends on
    mutation history)."""
    graph = index.graph()
    return (
        index.ids(),
        {tid: index.neighbors(tid) for tid in index.ids()},
        {tid: index.degree(tid) for tid in index.ids()},
        index.num_edges,
        index.edges(),
        index.components(),
        index.consistent_ids(),
        index.conflicting_tuples(),
        index.conflicting_count,
        sorted(
            (tuple(sorted(map(repr, (t1, t2)))), str(fd))
            for t1, t2, fd in index.violating_pairs()
        ),
        (graph.nodes(), [graph.weight(t) for t in graph.nodes()], graph.edges()),
    )


def _apply_deltas(rng, indexes, live, dead, next_id, steps):
    """*steps* random deltas, fed identically to every index in
    *indexes*: removals, appends of new rows (new values included, so
    alphabets grow), and re-inserts of previously removed ids."""
    for _ in range(steps):
        roll = rng.random()
        if live and roll < 0.4:
            victim = live.pop(rng.randrange(len(live)))
            for index in indexes:
                index.remove(victim)
            dead.append(victim)
        else:
            if dead and roll < 0.6:
                tid = dead.pop(rng.randrange(len(dead)))
            else:
                tid = next_id
                next_id += 1
            row = tuple(f"v{rng.randrange(5)}" for _ in SCHEMA)
            weight = rng.choice([1.0, 2.0, 0.5])
            for index in indexes:
                index.insert(tid, row, weight)
            live.append(tid)
    return next_id


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_kernel_index_tracks_dict_index_under_deltas(data):
    """The kernel arrays are the index's only adjacency: after any
    interleaving of inserts, removals and re-inserts of removed ids —
    across at least one compaction — every read agrees with a dict-built
    index fed the same deltas, and so do copies mutated independently
    and an explicit refresh."""
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    table = _random_table(rng, data.draw(st.integers(0, 20)), with_fresh=False)
    kernel_index = ConflictIndex(table, fds, use_kernel=True)
    dict_index = ConflictIndex(table, fds, use_kernel=False)
    assert _index_state(kernel_index) == _index_state(dict_index)
    live = list(table.ids())
    dead = []
    steps = data.draw(st.integers(70, 110))
    next_id = _apply_deltas(
        rng, (kernel_index, dict_index), live, dead, 10_000, steps
    )
    kern = kernel_index._kernel
    # More churn than one build absorbs: the view was compacted.
    assert kern.removed_count + kern.appended_count < steps
    assert _index_state(kernel_index) == _index_state(dict_index)
    assert kernel_index._adj is None and kernel_index._buckets is None

    before = _index_state(kernel_index)
    kernel_copy = kernel_index.copy()
    dict_copy = dict_index.copy()
    _apply_deltas(
        rng, (kernel_copy, dict_copy), list(live), list(dead), next_id,
        data.draw(st.integers(1, 20)),
    )
    assert _index_state(kernel_copy) == _index_state(dict_copy)
    assert _index_state(kernel_index) == before

    assert kernel_index.refresh_kernel()
    assert not kernel_index._kernel.patched
    assert _index_state(kernel_index) == before


def test_multi_column_lhs_keys_survive_alphabet_growth():
    """Appended rows whose values grow a column's alphabet key into the
    same lhs groups as a from-scratch build.  Under a mixed radix taken
    from the current alphabet sizes, ("a0", "b2") would key like the
    built ("a1", "b0") group once B's alphabet grew to three values."""
    fds = FDSet("A B -> C")
    rows = {
        1: ("a0", "b0", "c0"),
        2: ("a1", "b0", "c0"),
        3: ("a0", "b1", "c0"),
        4: ("a1", "b1", "c1"),
    }
    table = Table(SCHEMA, rows)
    index = ConflictIndex(table, fds, use_kernel=True)
    appended = {
        5: ("a0", "b2", "c1"),
        6: ("a2", "b0", "c2"),
        7: ("a0", "b2", "c2"),
        8: ("a1", "b0", "c3"),
        9: ("a2", "b3", "c0"),
    }
    for tid, row in appended.items():
        index.insert(tid, row)
    rebuilt = Table(SCHEMA, {**rows, **appended})
    for reference in (
        ConflictIndex(rebuilt, fds, use_kernel=True),
        ConflictIndex(rebuilt, fds, use_kernel=False),
    ):
        assert _index_state(index) == _index_state(reference)
    assert index.edges() == [(2, 8), (5, 7)]


def test_kernel_index_build_allocates_no_per_tuple_containers():
    """A kernel-built index holds no per-tuple container: building one
    over 20k rows creates fewer than |T|/4 GC-tracked objects.  The
    count is deterministic (GC off, so nothing is collected mid-build)."""
    import gc

    from repro.datagen.synthetic import clustered_conflicts_table

    table = clustered_conflicts_table(
        SCHEMA, 20_000, clusters=120, cluster_size=16, seed=1
    )
    fds = FDSet("A -> B; B -> C")
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        index = ConflictIndex(table, fds, use_kernel=True)
        created = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert index.num_edges > 0
    assert created < len(table) // 4


# ---------------------------------------------------------------------------
# 7. Array-native approximation loops ≡ Graph reference
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_greedy_and_approx_byte_identical_with_and_without_kernel(data):
    """The approximation tier — BYE + maximalisation and the greedy
    lazy-heap loop — returns byte-identical repairs on the array paths
    and the dict reference, including tables whose conflict graph
    exceeds 64 tuples (multi-word masks) and prebuilt mutated indexes."""
    from repro.core.approx import approx_s_repair, greedy_s_repair

    rng = random.Random(data.draw(st.integers(0, 10_000)))
    fds = data.draw(st.sampled_from(FD_SETS))
    size = data.draw(st.integers(0, 90))
    rows = {
        i: tuple(f"v{rng.randrange(4)}" for _ in SCHEMA) for i in range(size)
    }
    weights = {i: rng.choice([1.0, 2.0, 0.5]) for i in rows}

    kernel_greedy = greedy_s_repair(Table(SCHEMA, rows, weights), fds)
    kernel_approx = approx_s_repair(Table(SCHEMA, rows, weights), fds)
    with kernel.disabled():
        dict_greedy = greedy_s_repair(Table(SCHEMA, rows, weights), fds)
        dict_approx = approx_s_repair(Table(SCHEMA, rows, weights), fds)
    assert kernel_greedy.repair == dict_greedy.repair
    assert kernel_greedy.distance == dict_greedy.distance
    assert kernel_approx.repair == dict_approx.repair
    assert kernel_approx.distance == dict_approx.distance


def test_maximalize_fast_path_matches_reference_on_mask_view():
    """A projected component index (mask view, no CSR) grows an
    independent set exactly like the Graph reference."""
    rng = random.Random(2)
    rows = {i: (f"a{i % 5}", f"b{rng.randrange(3)}", "x") for i in range(60)}
    weights = {i: rng.choice([1.0, 2.0, 3.0]) for i in rows}
    table = Table(SCHEMA, rows, weights)
    fds = FDSet("A -> B")
    from repro.core.decompose import decompose

    for component in decompose(table, fds).components:
        cover = bar_yehuda_even(component.index)
        independent = {tid for tid in component.table.ids() if tid not in cover}
        fast = maximalize_independent_set(component.index, independent)
        grown = set(independent)
        for v in sorted(
            (v for v in component.index.nodes() if v not in grown),
            key=lambda v: (-component.index.weight(v), str(v)),
        ):
            if not (component.index.neighbors(v) & grown):
                grown.add(v)
        assert fast == grown


# ---------------------------------------------------------------------------
# 8. The global switch and the CLI flag
# ---------------------------------------------------------------------------

def test_disabled_context_restores_flag():
    assert kernel.enabled()
    with kernel.disabled():
        assert not kernel.enabled()
        with kernel.disabled():
            assert not kernel.enabled()
        assert not kernel.enabled()
    assert kernel.enabled()


def test_cli_no_kernel_flag(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.io.tables import table_to_csv

    table = Table(SCHEMA, {1: ("a", "b", "c"), 2: ("a", "x", "c")})
    csv_path = tmp_path / "t.csv"
    table_to_csv(table, str(csv_path))

    assert main(["assess", str(csv_path), "A -> B"]) == 0
    with_kernel = capsys.readouterr().out
    # The flag must actually flip the global switch before any build.
    monkeypatch.setattr(kernel, "_ENABLED", True)
    assert main(["assess", str(csv_path), "A -> B", "--no-kernel"]) == 0
    without = capsys.readouterr().out
    assert not kernel.enabled()
    monkeypatch.setattr(kernel, "_ENABLED", True)
    assert with_kernel == without


def test_cli_exact_budget_flag(tmp_path, capsys):
    """--exact-budget threads end-to-end on assess and the repair
    commands; a generous budget changes nothing."""
    from repro.cli import main
    from repro.io.tables import table_to_csv

    table = Table(SCHEMA, {1: ("a", "b", "c"), 2: ("a", "x", "c")})
    csv_path = tmp_path / "t.csv"
    table_to_csv(table, str(csv_path))

    assert main(["assess", str(csv_path), "A -> B"]) == 0
    free = capsys.readouterr().out
    assert main(["assess", str(csv_path), "A -> B", "--exact-budget", "60"]) == 0
    assert capsys.readouterr().out == free
    assert main(["s-repair", str(csv_path), "A -> B",
                 "--exact-budget", "60", "--portfolio"]) == 0
    assert "(optimal)" in capsys.readouterr().out
