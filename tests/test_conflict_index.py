"""The ConflictIndex engine: incremental maintenance vs naive rebuild.

The load-bearing invariant: after ANY sequence of tuple removals, the
live index must be indistinguishable from an index built from scratch on
the corresponding sub-table — same edges, same degrees, same buckets'
verdict, same matching lower bound.  Property tests drive randomized
tables and removal orders through both paths and compare.

Equivalence tests then pin the contract the repair entry points rely on:
passing a prebuilt index never changes a repair result.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approx_s_repair, approx_u_repair, greedy_s_repair
from repro.core.conflict_index import ConflictIndex
from repro.core.exact import exact_s_repair
from repro.core.fd import FDSet
from repro.core.srepair import optimal_s_repair
from repro.core.table import Table
from repro.core.urepair import u_repair
from repro.core.violations import (
    conflict_graph,
    conflicting_ids,
    satisfies,
    violating_pairs,
)
from repro.pipeline import assess, clean
from repro.testing import random_small_table

FD_SETS = [
    FDSet("A -> B"),
    FDSet("A -> B; A B -> C"),
    FDSet("A -> B; B -> C"),
    FDSet("A -> B; B -> A; B -> C"),
    FDSet("-> A; B -> C"),
    FDSet("A B -> C"),
]

SCHEMA = ("A", "B", "C")


def _edge_set(index):
    return {frozenset(pair) for pair in index.edges()}


def _tables():
    value = st.integers(min_value=0, max_value=2)
    row = st.tuples(value, value, value)
    weight = st.sampled_from((1.0, 1.0, 2.0, 3.0))
    return st.lists(st.tuples(row, weight), min_size=0, max_size=10).map(
        lambda pairs: Table.from_rows(
            SCHEMA, [p[0] for p in pairs], [p[1] for p in pairs]
        )
    )


# ---------------------------------------------------------------------------
# Construction: the index agrees with the streaming violation detector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fds", FD_SETS, ids=str)
def test_index_matches_streaming_pairs(fds):
    rng = random.Random(42)
    for size in (0, 1, 5, 20, 60):
        table = random_small_table(rng, SCHEMA, size, domain=3, weighted=True)
        index = ConflictIndex(table, fds)
        streamed = {
            frozenset((t1, t2)) for t1, t2, _ in violating_pairs(table, fds)
        }
        assert _edge_set(index) == streamed
        assert index.num_edges == len(streamed)
        assert index.is_consistent() == (not streamed)
        assert index.total_weight() == pytest.approx(table.total_weight())


@pytest.mark.parametrize("fds", FD_SETS, ids=str)
def test_index_graph_equals_conflict_graph(fds):
    rng = random.Random(7)
    table = random_small_table(rng, SCHEMA, 30, domain=3)
    index = ConflictIndex(table, fds)
    graph = conflict_graph(table, fds)
    assert set(graph.nodes()) == set(index.ids())
    assert {frozenset(e) for e in graph.edges()} == _edge_set(index)
    for tid in index.ids():
        assert graph.weight(tid) == index.weight(tid)
        assert graph.degree(tid) == index.degree(tid)


# ---------------------------------------------------------------------------
# The tentpole property: incremental removal ≡ from-scratch rebuild
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(table=_tables(), data=st.data())
def test_incremental_removal_matches_rebuild(table, data):
    fds = data.draw(st.sampled_from(FD_SETS))
    live = ConflictIndex(table, fds)
    remaining = list(table.ids())
    order = data.draw(st.permutations(remaining))
    for tid in order:
        live.remove(tid)
        remaining.remove(tid)
        rebuilt = ConflictIndex(table.subset(remaining), fds)
        assert set(live.ids()) == set(remaining)
        assert _edge_set(live) == _edge_set(rebuilt)
        assert live.num_edges == rebuilt.num_edges
        assert live.is_consistent() == rebuilt.is_consistent()
        for t in remaining:
            assert live.degree(t) == rebuilt.degree(t)
            assert live.neighbors(t) == rebuilt.neighbors(t)


@settings(max_examples=40, deadline=None)
@given(table=_tables(), data=st.data())
def test_incremental_bucket_pairs_match_rebuild(table, data):
    """The per-FD buckets themselves stay exact under removal (not just
    the adjacency): the violating-pairs multiset served from the live
    buckets equals a fresh index's."""
    fds = data.draw(st.sampled_from(FD_SETS))
    live = ConflictIndex(table, fds)
    ids = list(table.ids())
    to_remove = data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    for tid in to_remove:
        live.remove(tid)
    kept = [tid for tid in ids if tid not in set(to_remove)]
    rebuilt = ConflictIndex(table.subset(kept), fds)
    live_pairs = sorted(
        (tuple(sorted(map(str, (t1, t2)))), str(fd))
        for t1, t2, fd in live.violating_pairs()
    )
    rebuilt_pairs = sorted(
        (tuple(sorted(map(str, (t1, t2)))), str(fd))
        for t1, t2, fd in rebuilt.violating_pairs()
    )
    assert live_pairs == rebuilt_pairs
    assert live.matching_lower_bound() == pytest.approx(
        rebuilt.matching_lower_bound()
    )


def test_remove_unknown_raises():
    table = Table.from_rows(SCHEMA, [(1, 2, 3)])
    index = ConflictIndex(table, FD_SETS[0])
    index.remove(1)
    with pytest.raises(KeyError):
        index.remove(1)
    with pytest.raises(KeyError):
        index.remove("nope")


def test_removed_weight_bookkeeping():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 1, 2)], weights=[2.0, 3.0])
    index = ConflictIndex(table, FDSet("A -> C")).copy()
    assert index.removed_weight == 0.0
    index.remove(2)
    assert index.removed_weight == 3.0
    assert index.is_consistent()


def test_copy_isolates_mutation():
    rng = random.Random(3)
    table = random_small_table(rng, SCHEMA, 25, domain=2)
    fds = FDSet("A -> B; B -> C")
    pristine = table.conflict_index(fds)
    before_edges = _edge_set(pristine)
    working = pristine.copy()
    for tid in list(working.ids())[:10]:
        working.remove(tid)
    assert _edge_set(pristine) == before_edges
    assert len(pristine) == len(table)
    # The cache hands back the same pristine object every time.
    assert table.conflict_index(fds) is pristine


# ---------------------------------------------------------------------------
# Insert: the symmetric counterpart (the streaming-session substrate)
# ---------------------------------------------------------------------------

def _observable_state(index):
    """Everything a consumer can see: live ids, canonical edges, degrees,
    weights, bucket-served violating pairs, matching bound."""
    return (
        index.ids(),
        index.edges(),
        {tid: index.degree(tid) for tid in index.ids()},
        {tid: index.weight(tid) for tid in index.ids()},
        sorted(
            (tuple(sorted(map(str, (t1, t2)))), str(fd))
            for t1, t2, fd in index.violating_pairs()
        ),
        index.matching_lower_bound(),
    )


@settings(max_examples=40, deadline=None)
@given(table=_tables(), data=st.data())
def test_insert_then_remove_is_identity(table, data):
    """Inserting a fresh tuple and removing it again leaves no observable
    trace — the mutation algebra's unit law."""
    fds = data.draw(st.sampled_from(FD_SETS))
    index = ConflictIndex(table, fds)
    before = _observable_state(index)
    row = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
    weight = data.draw(st.sampled_from((1.0, 2.0)))
    index.insert("fresh", row, weight)
    index.remove("fresh")
    assert _observable_state(index) == before


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_interleaved_inserts_deletes_match_rebuild(data):
    """Any interleaving of inserts and deletes yields an index observably
    equal to a from-scratch build on the corresponding table (deleted
    tuples gone, inserted tuples appended at the end)."""
    fds = data.draw(st.sampled_from(FD_SETS))
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    start_rows = data.draw(st.lists(row_st, min_size=0, max_size=6))
    table = Table.from_rows(SCHEMA, start_rows)
    live = ConflictIndex(table, fds)
    # The shadow model: (tid, row, weight) in current table order.
    shadow = [(tid, table[tid], table.weight(tid)) for tid in table.ids()]
    next_id = len(shadow) + 1
    for _step in range(data.draw(st.integers(min_value=1, max_value=8))):
        if shadow and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from([tid for tid, _r, _w in shadow]))
            live.remove(victim)
            shadow = [entry for entry in shadow if entry[0] != victim]
        else:
            row = data.draw(row_st)
            weight = data.draw(st.sampled_from((1.0, 3.0)))
            live.insert(next_id, row, weight)
            shadow.append((next_id, row, weight))
            next_id += 1
        rebuilt = ConflictIndex(
            Table(
                SCHEMA,
                {tid: row for tid, row, _w in shadow},
                {tid: w for tid, _r, w in shadow},
            ),
            fds,
        )
        assert _observable_state(live) == _observable_state(rebuilt)
        assert live.num_edges == rebuilt.num_edges
        assert live.components() == rebuilt.components()
        assert live.consistent_ids() == rebuilt.consistent_ids()
        assert live.conflicting_tuples() == rebuilt.conflicting_tuples()


def test_insert_validation():
    table = Table.from_rows(SCHEMA, [(1, 1, 1)])
    index = ConflictIndex(table, FDSet("A -> B"))
    with pytest.raises(ValueError, match="already live"):
        index.insert(1, (2, 2, 2))
    with pytest.raises(ValueError, match="arity"):
        index.insert(2, (1, 2))
    with pytest.raises(ValueError, match="non-positive"):
        index.insert(2, (1, 2, 3), 0.0)
    # Failed inserts leave no trace.
    assert index.ids() == (1,)
    assert index.insert(2, (1, 2, 3), 2.0) == 1
    assert index.num_edges == 1


@pytest.mark.parametrize("use_kernel", [True, False])
def test_insert_rejects_bad_rows_before_any_mutation(use_kernel):
    """An unhashable value or a NaN/inf weight fails ``insert`` before
    the id is registered or the codec interns a column, so the index
    stays usable and equal to a from-scratch build."""
    from repro.core import kernel

    with contextlib.nullcontext() if use_kernel else kernel.disabled():
        table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 1)])
        index = ConflictIndex(table, FDSet("A -> B; B -> C"))
        with pytest.raises(ValueError, match="unhashable"):
            index.insert(3, (1, [2], 3))
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="weight"):
                index.insert(3, (1, 3, 3), bad)
        assert index.ids() == (1, 2)
        index.insert(3, (1, 3, 3))
        rebuilt = ConflictIndex(
            Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 1), (1, 3, 3)]),
            FDSet("A -> B; B -> C"),
        )
        assert index.components() == rebuilt.components()
        assert index.num_edges == rebuilt.num_edges


def test_insert_into_copy_does_not_leak_positions():
    """Copies share the position map copy-on-write: re-inserting an id
    the original still positions must not disturb the original's
    canonical edge order."""
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2), (2, 2, 2)])
    fds = FDSet("A -> B")
    original = ConflictIndex(table, fds)
    edges_before = original.edges()
    working = original.copy()
    working.remove(1)
    working.insert(1, (2, 9, 9), 1.0)  # re-positioned at the end
    assert original.edges() == edges_before
    rebuilt = ConflictIndex(
        Table(SCHEMA, {2: (1, 2, 2), 3: (2, 2, 2), 1: (2, 9, 9)}), fds
    )
    assert working.edges() == rebuilt.edges()


def test_projection_buckets_are_lazy():
    """project() defers bucket construction; adjacency-only consumers
    never pay for it, and bucket readers see exact state on demand."""
    rng = random.Random(11)
    table = random_small_table(rng, SCHEMA, 40, domain=2)
    fds = FDSet("A -> B; B -> C")
    index = table.conflict_index(fds)
    components = index.components()
    assert components
    ids = components[0]
    subtable = table.subset(ids)
    projected = index.project(subtable, set(ids))
    assert projected._buckets is None  # still lazy
    assert projected.num_edges > 0    # adjacency fully live
    rebuilt = ConflictIndex(subtable, fds)
    assert _edge_set(projected) == _edge_set(rebuilt)
    # First bucket read materialises; content equals a fresh build.
    live_pairs = sorted(
        (tuple(sorted(map(str, (t1, t2)))), str(fd))
        for t1, t2, fd in projected.violating_pairs()
    )
    rebuilt_pairs = sorted(
        (tuple(sorted(map(str, (t1, t2)))), str(fd))
        for t1, t2, fd in rebuilt.violating_pairs()
    )
    assert live_pairs == rebuilt_pairs
    assert projected._buckets is not None


def test_lazy_projection_tracks_removals_before_materialisation():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2), (1, 3, 3)])
    fds = FDSet("A -> B")
    index = table.conflict_index(fds)
    ids = index.components()[0]
    projected = index.project(table.subset(ids), set(ids))
    projected.remove(ids[0])
    # Buckets materialise from the post-removal live set.
    assert sorted(
        {t1, t2} == {ids[1], ids[2]}
        for t1, t2, _fd in projected.violating_pairs()
    )
    survivors = [tid for tid in ids if tid != ids[0]]
    rebuilt = ConflictIndex(table.subset(survivors), fds)
    assert _edge_set(projected) == _edge_set(rebuilt)


def test_reanchor_validates_live_set():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B")
    index = ConflictIndex(table, fds)
    other = Table.from_rows(SCHEMA, [(1, 1, 1)])
    with pytest.raises(ValueError, match="live tuples"):
        index.reanchor(other)
    snapshot = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    index.reanchor(snapshot)
    index.ensure_for(fds, snapshot)  # identity check now passes


# ---------------------------------------------------------------------------
# Equivalence: prebuilt index never changes any repair result
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fds", FD_SETS, ids=str)
def test_repairs_identical_with_and_without_prebuilt_index(fds):
    rng = random.Random(2018)
    for size in (0, 8, 30):
        table = random_small_table(rng, SCHEMA, size, domain=3, weighted=True)
        index = ConflictIndex(table, fds)

        plain = approx_s_repair(table, fds)
        indexed = approx_s_repair(table, fds, index=index)
        assert plain.repair == indexed.repair
        assert plain.distance == indexed.distance

        plain_opt = optimal_s_repair(table, fds)
        indexed_opt = optimal_s_repair(table, fds, index=index)
        assert plain_opt.distance == indexed_opt.distance
        assert plain_opt.repair == indexed_opt.repair

        assert exact_s_repair(table, fds) == exact_s_repair(
            table, fds, index=index
        )


@pytest.mark.parametrize("fds", FD_SETS[:4], ids=str)
def test_u_repairs_identical_with_and_without_prebuilt_index(fds):
    rng = random.Random(99)
    table = random_small_table(rng, SCHEMA, 8, domain=2, weighted=True)
    index = ConflictIndex(table, fds)
    plain = u_repair(table, fds)
    indexed = u_repair(table, fds, index=index)
    # Fresh labelled nulls compare by identity, so the update tables of
    # two runs are never ``==``; the changed cells and cost must agree.
    assert sorted(plain.update.changed_cells(table)) == sorted(
        indexed.update.changed_cells(table)
    )
    assert plain.distance == indexed.distance
    approx_plain = approx_u_repair(table, fds)
    approx_indexed = approx_u_repair(table, fds, index=index)
    assert approx_plain.distance == approx_indexed.distance


def test_u_repair_short_circuits_consistent_table():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (2, 2, 2)])
    fds = FDSet("A -> B; B -> C")
    index = ConflictIndex(table, fds)
    result = u_repair(table, fds, index=index)
    assert result.optimal and result.distance == 0.0
    assert result.update == table


def test_consistent_table_guarantee_independent_of_index():
    """The reported guarantee must not depend on whether an index was
    supplied: a consistent table is optimal/ratio-1 on every path."""
    table = Table.from_rows(("A", "B"), [("a", "1"), ("b", "2")])
    fds = FDSet("A -> B")
    index = ConflictIndex(table, fds)
    for result in (
        u_repair(table, fds),
        u_repair(table, fds, index=index),
        approx_u_repair(table, fds),
        approx_u_repair(table, fds, index=index),
    ):
        assert result.optimal
        assert result.ratio_bound == 1.0
        assert result.distance == 0.0


def test_pipeline_shares_one_index():
    rng = random.Random(5)
    table = random_small_table(rng, SCHEMA, 40, domain=3)
    fds = FDSet("A -> B; B -> C")
    index = table.conflict_index(fds)
    report = assess(table, fds)
    assert report.conflict_count == index.num_edges
    outcome = clean(table, fds, strategy="deletions", guarantee="fast", index=index)
    assert satisfies(outcome.cleaned, fds)
    assert report.lower_bound <= outcome.distance <= report.upper_bound or (
        not outcome.optimal
    )


# ---------------------------------------------------------------------------
# The incremental consumer: greedy deletion over a live index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fds", FD_SETS, ids=str)
def test_greedy_s_repair_is_consistent_and_maximal(fds):
    rng = random.Random(13)
    for size in (0, 10, 50):
        table = random_small_table(rng, SCHEMA, size, domain=3, weighted=True)
        result = greedy_s_repair(table, fds)
        assert satisfies(result.repair, fds)
        # Maximality: no deleted tuple can be added back consistently.
        kept = set(result.repair.ids())
        index = table.conflict_index(fds)
        for tid in table.ids():
            if tid not in kept:
                assert index.neighbors(tid) & kept, (
                    f"deleted tuple {tid} conflicts with nothing kept"
                )


def test_mismatched_prebuilt_index_is_rejected():
    """An index built for a different Δ must raise, not silently produce
    a wrong repair (easy to hit when batching several FD sets)."""
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B; B -> C")
    wrong = table.conflict_index(FDSet("A -> C"))
    with pytest.raises(ValueError, match="built for"):
        approx_s_repair(table, fds, index=wrong)
    with pytest.raises(ValueError, match="built for"):
        u_repair(table, fds, index=wrong)
    with pytest.raises(ValueError, match="built for"):
        assess(table, fds, index=wrong)
    # Order-insensitive: a reordered-but-equal Δ is accepted.
    reordered = FDSet("B -> C; A -> B")
    index = table.conflict_index(fds)
    assert approx_s_repair(table, reordered, index=index).distance >= 0


def test_index_from_different_table_is_rejected():
    """An index built from another table object (even an equal-content
    copy) must raise instead of silently repairing the wrong conflicts."""
    rows = [(1, 1, 1), (1, 2, 2)]
    fds = FDSet("A -> B")
    table_a = Table.from_rows(SCHEMA, rows)
    table_b = Table.from_rows(SCHEMA, rows)
    index_a = table_a.conflict_index(fds)
    with pytest.raises(ValueError, match="different table"):
        approx_s_repair(table_b, fds, index=index_a)
    with pytest.raises(ValueError, match="different table"):
        assess(table_b, fds, index=index_a)
    # A copy of the index still pairs with its own source table.
    assert approx_s_repair(table_a, fds, index=index_a.copy()).distance == 1.0


def test_one_off_calls_do_not_populate_cache():
    """conflicting_ids/conflict_graph build transient indexes; caching
    is an explicit opt-in via table.conflict_index()."""
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B")
    assert conflicting_ids(table, fds) == [(1, 2)]
    assert conflict_graph(table, fds).num_edges() == 1
    assert table.cached_conflict_index(fds) is None
    # Once opted in, the same cached index serves subsequent calls.
    index = table.conflict_index(fds)
    assert table.cached_conflict_index(fds) is index
    assert conflicting_ids(table, fds) == [(1, 2)]


def test_clear_derived_cache():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B")
    index = table.conflict_index(fds)
    table.group_by(("A",))
    table.clear_derived_cache()
    assert table.cached_conflict_index(fds) is None
    rebuilt = table.conflict_index(fds)
    assert rebuilt is not index
    assert rebuilt.num_edges == index.num_edges


def test_greedy_s_repair_mixed_unorderable_ids():
    """Ids of mixed types with colliding str() must not reach the heap's
    tuple comparison (1 vs '1' is unorderable in Python)."""
    table = Table(("A", "B"), {1: ("a", "b"), "1": ("a", "c")})
    fds = FDSet("A -> B")
    result = greedy_s_repair(table, fds)
    assert satisfies(result.repair, fds)
    assert len(result.repair) == 1


def test_conflicting_ids_deduplicates_multi_fd_pairs():
    # Both FDs are violated by the same pair; the pair must appear once.
    table = Table.from_rows(("A", "B", "C"), [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B; A -> C")
    assert conflicting_ids(table, fds) == [(1, 2)]
    index = table.conflict_index(fds)
    assert index.num_edges == 1
    # … but violating_pairs reports it once per violated FD.
    assert len(list(index.violating_pairs())) == 2
