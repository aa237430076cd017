"""Streaming repair sessions: incremental ≡ from-scratch, always.

The session's load-bearing contract: after ANY sequence of appends and
deletes, :meth:`RepairSession.repair` returns a result byte-identical to
``pipeline.clean`` run from scratch on an equivalent fresh table — same
cleaned tuples, distance, dirtiness report, and portfolio label.
Property tests drive random delta sequences through both paths and
compare, including the serialised CSV form.

The supporting machinery is pinned alongside: the content-addressed
component cache (hits on untouched components, correct re-solves after
eviction), the warm worker pool (results identical to serial, graceful
degradation), and the CLI ``stream`` subcommand.
"""

import json
import random
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.core.violations import satisfies
from repro.datagen.synthetic import clustered_conflicts_table
from repro.exec import PersistentWorkerPool
from repro.io.tables import table_to_csv
from repro.pipeline import clean
from repro.session import RepairSession, SolutionCache
from repro.testing import random_small_table

SCHEMA = ("A", "B", "C")

FD_SETS = [
    FDSet("A -> B"),                 # tractable (common lhs)
    FDSet("A -> B; B -> C"),         # APX-complete
    FDSet("A -> B; B -> A; B -> C"),  # tractable (marriage)
    FDSet("A B -> C"),               # tractable
]


def _fresh_equivalent(session):
    """A brand-new Table holding the session's current content — its own
    object identity and empty caches, so ``clean`` runs fully from
    scratch."""
    return Table(SCHEMA, session.table.rows(), session.table.weights())


def _assert_identical(result, expected):
    assert result.cleaned == expected.cleaned
    assert result.distance == expected.distance
    assert result.method == expected.method
    assert result.method_counts == expected.method_counts
    assert result.component_count == expected.component_count
    assert result.optimal == expected.optimal
    assert result.ratio_bound == expected.ratio_bound
    assert result.report == expected.report
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)


# ---------------------------------------------------------------------------
# The tentpole property: session ≡ from-scratch clean under any deltas
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_session_matches_clean_after_any_delta_sequence(data):
    fds = data.draw(st.sampled_from(FD_SETS))
    guarantee = data.draw(st.sampled_from(("best", "fast")))
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    start = data.draw(st.lists(st.tuples(row_st, st.sampled_from((1.0, 2.0))),
                               min_size=0, max_size=8))
    table = Table.from_rows(SCHEMA, [r for r, _w in start],
                            [w for _r, w in start])
    session = RepairSession(table, fds, guarantee=guarantee)
    _assert_identical(
        session.repair(),
        clean(_fresh_equivalent(session), fds, guarantee=guarantee),
    )
    for _step in range(data.draw(st.integers(min_value=1, max_value=5))):
        live = list(session.table.ids())
        if live and data.draw(st.booleans()):
            victims = data.draw(
                st.lists(st.sampled_from(live), min_size=1,
                         max_size=min(3, len(live)), unique=True)
            )
            result = session.delete(victims)
        else:
            rows = data.draw(st.lists(row_st, min_size=1, max_size=3))
            weights = data.draw(
                st.lists(st.sampled_from((1.0, 2.0, 3.0)),
                         min_size=len(rows), max_size=len(rows))
            )
            result = session.append(rows, weights=weights)
        _assert_identical(
            result, clean(_fresh_equivalent(session), fds, guarantee=guarantee)
        )
        assert satisfies(result.cleaned, fds)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_session_matches_clean_with_custom_threshold(data):
    """exact_threshold reroutes the portfolio identically on both paths."""
    fds = FDSet("A -> B; B -> C")  # APX-complete: threshold matters
    threshold = data.draw(st.sampled_from((0, 2, 5)))
    rng = random.Random(data.draw(st.integers(0, 1000)))
    table = random_small_table(rng, SCHEMA, 20, domain=2, weighted=True)
    session = RepairSession(table, fds, exact_threshold=threshold)
    session.append([(0, 1, 2), (0, 2, 1)])
    result = session.repair()
    expected = clean(_fresh_equivalent(session), fds, exact_threshold=threshold)
    _assert_identical(result, expected)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_session_keeps_kernel_array_paths_across_deltas(data):
    """The ISSUE-5 streaming contract: the session's kernel view is
    *patched* by every append/delete, never dropped — so the array fast
    paths stay active for the whole stream — while results remain
    byte-identical to from-scratch cleaning."""
    fds = data.draw(st.sampled_from(FD_SETS))
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    start = data.draw(st.lists(row_st, min_size=1, max_size=8))
    table = Table.from_rows(SCHEMA, start)
    session = RepairSession(table, fds)
    assert session.index._kernel is not None
    session.repair()
    for _step in range(data.draw(st.integers(min_value=1, max_value=6))):
        live = list(session.table.ids())
        if live and data.draw(st.booleans()):
            result = session.delete([data.draw(st.sampled_from(live))])
        else:
            result = session.append([data.draw(row_st)])
        # Never dropped, never out of sync (compaction may swap in a
        # fresh view object; that still counts as live).
        kern = session.index._kernel
        assert kern is not None
        assert kern.live_count == len(session.index)
        assert kern.live_edges == session.index.num_edges
        _assert_identical(result, clean(_fresh_equivalent(session), fds))


def test_session_exact_budget_knob(monkeypatch):
    """With a zero budget (and the check interval pinned to every node),
    exact components fall back to the 2-approximation — visibly, in the
    method mix — and the fallback is sticky via the component cache."""
    from repro.core import kernel
    from repro.graphs import vertex_cover as vc

    monkeypatch.setattr(kernel, "_BUDGET_CHECK_INTERVAL", 1)
    monkeypatch.setattr(vc, "_BUDGET_CHECK_INTERVAL", 1)
    rng = random.Random(6)
    rows = [(f"a{rng.randrange(6)}", f"b{rng.randrange(6)}", "x")
            for _ in range(30)]
    table = Table.from_rows(SCHEMA, rows)
    fds = FDSet("A -> B; B -> C")  # APX-complete: portfolio plans "exact"
    session = RepairSession(table, fds, exact_budget_s=0.0)
    result = session.repair()
    assert result.method_counts.get("approx", 0) >= 1
    assert not result.optimal
    # A consistent append re-serves the fallback from cache, no re-solve.
    misses = session.stats.cache_misses
    again = session.append([("quiet", "quiet", "quiet")])
    assert session.stats.cache_misses == misses
    assert again.method_counts == result.method_counts
    assert satisfies(again.cleaned, fds)


# ---------------------------------------------------------------------------
# The component cache
# ---------------------------------------------------------------------------

def test_untouched_components_hit_the_cache():
    # Two independent conflict clusters plus consistent filler.
    rows = [
        ("a1", "x", "p"), ("a1", "y", "p"),   # cluster 1
        ("a2", "x", "q"), ("a2", "y", "q"),   # cluster 2
        ("f", "f", "f"),
    ]
    table = Table.from_rows(SCHEMA, rows)
    fds = FDSet("A -> B")
    session = RepairSession(table, fds)
    session.repair()
    assert session.stats.cache_misses == 2
    # A consistent append touches no cluster: all hits, no solves.
    session.append([("zzz", "zzz", "zzz")])
    assert session.stats.cache_misses == 2
    assert session.stats.cache_hits == 2
    # An append into cluster 1 re-solves exactly that component.
    session.append([("a1", "z", "p")])
    assert session.stats.cache_misses == 3
    assert session.stats.cache_hits == 3


def test_cache_is_bounded_by_default():
    """Long-lived streams must not grow the cache without bound: the
    default cap evicts LRU entries (superseded content is never
    invalidated eagerly, so unbounded retention would be O(stream))."""
    session = RepairSession(Table(SCHEMA, {}), FDSet("A -> B"))
    assert session.solutions.max_entries == 10_000
    small = RepairSession(Table(SCHEMA, {}), FDSet("A -> B"),
                          solutions=SolutionCache(2))
    for i in range(6):
        small.append([("a", f"x{i}", "p")])
    assert small.cache_size() <= 2


def test_cache_eviction_keeps_results_correct():
    rng = random.Random(5)
    table = random_small_table(rng, SCHEMA, 30, domain=2, weighted=True)
    fds = FDSet("A -> B; B -> C")
    session = RepairSession(table, fds, solutions=SolutionCache(1))
    for rounds in range(3):
        result = session.append([(rounds, rounds + 1, rounds + 2)])
        _assert_identical(result, clean(_fresh_equivalent(session), fds))
    assert session.cache_size() <= 1


def test_clear_cache_forces_resolve():
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    session = RepairSession(table, FDSet("A -> B"))
    first = session.repair()
    session.clear_cache()
    assert session.cache_size() == 0
    again = session.repair()
    _assert_identical(again, first)
    assert session.stats.cache_misses == 2  # both repairs solved


def test_delete_then_reappend_row_reuses_content_addressing():
    """The cache is content-addressed: restoring a component's exact
    content (same ids, rows, weights) serves the old solution."""
    rows = {1: ("a", "x", "p"), 2: ("a", "y", "p")}
    table = Table(SCHEMA, rows)
    fds = FDSet("A -> B")
    session = RepairSession(table, fds)
    session.repair()
    misses = session.stats.cache_misses
    session.delete([2])
    session.append([("a", "y", "p")], ids=[2])
    assert session.stats.cache_misses == misses  # same component content
    _assert_identical(session.repair(), clean(_fresh_equivalent(session), fds))


# ---------------------------------------------------------------------------
# Session API edges
# ---------------------------------------------------------------------------

def test_append_validation_leaves_state_untouched():
    table = Table.from_rows(SCHEMA, [(1, 1, 1)])
    session = RepairSession(table, FDSet("A -> B"))
    with pytest.raises(ValueError, match="already live"):
        session.append([(2, 2, 2)], ids=[1])
    with pytest.raises(ValueError, match="different lengths"):
        session.append([(2, 2, 2)], weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="missing attribute"):
        session.append([{"A": 1, "B": 2}])
    assert len(session) == 1


def test_append_is_atomic_on_mid_batch_failure():
    """A bad row after valid ones must leave no trace: validation runs
    for the whole batch before the first mutation, so the session stays
    usable and consistent with from-scratch cleaning."""
    table = Table.from_rows(SCHEMA, [(1, 1, 1), (1, 2, 2)])
    fds = FDSet("A -> B")
    session = RepairSession(table, fds)
    with pytest.raises(ValueError, match="arity"):
        session.append([(5, 5, 5), (9, 9)])          # second row bad
    with pytest.raises(ValueError, match="non-positive"):
        session.append([(5, 5, 5), (6, 6, 6)], weights=[1.0, 0.0])
    assert len(session) == 2
    assert len(session.index) == 2
    _assert_identical(session.repair(), clean(_fresh_equivalent(session), fds))


@pytest.mark.parametrize("use_kernel", [True, False])
def test_unhashable_value_leaves_session_usable(use_kernel):
    """An append carrying an unhashable JSON value (a nested list) is
    rejected before the first mutation, on the kernel and the dict index
    alike: later appends, deletes and repairs work, and the next repair
    is byte-identical to ``clean``."""
    import contextlib

    from repro.core import kernel
    from repro.protocol import ProtocolError, apply_session_op

    fds = FDSet("A -> B")
    with contextlib.nullcontext() if use_kernel else kernel.disabled():
        session = RepairSession(
            Table(SCHEMA, {1: ("a", "x", "p"), 2: ("a", "y", "p")}), fds
        )
        session.repair()
        with pytest.raises(ProtocolError, match="unhashable"):
            apply_session_op(
                session, "append", {"rows": [["a", ["y"], "p"]]}
            )
        with pytest.raises(ProtocolError, match="unhashable"):
            apply_session_op(
                session, "append",
                {"rows": [["b", "z", "q"], ["a", {"k": 1}, "p"]]},
            )
        assert len(session) == len(session.index) == 2
        apply_session_op(session, "append", {"rows": [["a", "z", "p"]]})
        apply_session_op(session, "delete", {"ids": [1]})
        _assert_identical(
            session.repair(), clean(_fresh_equivalent(session), fds)
        )


@pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                    -float("inf")])
def test_non_finite_weights_rejected(weight):
    session = RepairSession(Table(SCHEMA, {}), FDSet("A -> B"))
    with pytest.raises(ValueError, match="weight"):
        session.append([("a", "x", "p")], weights=[weight])
    with pytest.raises(ValueError, match="weight"):
        Table(SCHEMA, {1: ("a", "x", "p")}, {1: weight})
    assert len(session) == 0
    session.append([("a", "x", "p")], weights=[2.0])
    assert session.repair().distance == 0.0


def test_cli_stream_rejects_nan_weight(tmp_path, capsys):
    """Python's ``json`` parses a bare ``NaN``; the stream rejects the
    batch and keeps the session alive."""
    batches = tmp_path / "ops.jsonl"
    batches.write_text(
        '{"op": "append", "rows": [["a", "x", "p"]], "weights": [NaN]}\n'
        '{"op": "append", "rows": [["a", "y", "p"]], "weights": [2]}\n',
        encoding="utf-8",
    )
    code = cli_main(["stream", "A -> B", str(batches), "--schema", "A,B,C"])
    captured = capsys.readouterr()
    assert code == 1
    assert "batch 1: non-finite weight nan" in captured.err
    assert "deleted weight: 0" in captured.out


def _v1_fixture(name):
    import os
    import pickle

    path = os.path.join(os.path.dirname(__file__), "data", "v1", name)
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _without_retired(options):
    """*options* without the retired ones: the per-solve cap,
    ``parallel``, ``max_cache_entries`` and ``pool_timeout``."""
    return {k: v for k, v in options.items()
            if k in ("guarantee", "exact_threshold", "exact_budget_s",
                     "unit_cost_s", "node_limit")}


#: The state fields a restore must bring back unchanged.
_STATE_FIELDS = ("rows", "weights", "used_ids", "next_auto_id", "options",
                 "stats")


def test_v1_state_restores_with_its_cache():
    """A session state in the version-1 format (private cache keyed
    without the scope, written by the previous release) restores: rows,
    ids, the next auto id, options and stats come back identical, and
    the cache entries are carried over under this session's scope, so
    the first repair is all hits."""
    old = _v1_fixture("session_state.pkl")
    assert old["version"] == 1 and old["solutions"]
    session = RepairSession.restore(old)
    new = session.export_state()
    assert new["version"] == 3
    # The retired options (the per-solve cap is None here) are dropped.
    expected = {**old, "options": _without_retired(old["options"])}
    assert "per_component_budget_s" in old["options"]
    assert "parallel" in old["options"]
    for field in _STATE_FIELDS:
        assert new[field] == expected[field], field
    assert session.dropped_cache_entries == 0
    assert list(new["rows"]) == list(old["rows"])
    assert session.cache_size() == len(old["solutions"])
    result = session.repair()
    assert session.stats.cache_misses == old["stats"]["cache_misses"]
    options = old["options"]
    _assert_identical(result, clean(
        _fresh_equivalent(session), old["fds"],
        exact_threshold=options["exact_threshold"],
        exact_budget_s=options["exact_budget_s"],
    ))
    # Onto a shared cache the entries are carried over too.
    shared = SolutionCache()
    RepairSession.restore(old, solutions=shared)
    assert len(shared) == len(old["solutions"])


def test_reappended_id_with_new_content_invalidates_reuse():
    """Deleting an id and re-appending it with *different* content must
    not serve the stale component — even when the ids-tuple of the
    component comes out identical (regression: the reuse map was keyed
    on member ids only)."""
    fds = FDSet("A -> B")
    table = Table(SCHEMA, {1: ("a", "x", "p"), 2: ("a", "y", "p")})
    session = RepairSession(table, fds)
    session.repair()
    session.delete([2], repair=False)
    session.append([("a", "z", "q")], ids=[2], weights=[5.0], repair=False)
    result = session.repair()
    _assert_identical(result, clean(_fresh_equivalent(session), fds))
    assert result.distance == 1.0  # the light tuple goes, not the heavy one


# ---------------------------------------------------------------------------
# The live-component store: deltas re-sweep only what they touch
# ---------------------------------------------------------------------------

def _kernel_mode(use_kernel):
    import contextlib

    from repro.core import kernel

    return contextlib.nullcontext() if use_kernel else kernel.disabled()


@pytest.mark.parametrize("use_kernel", [True, False])
def test_component_sweeps_visit_only_touched_rows(use_kernel, monkeypatch):
    """After construction the session sweeps only the components a
    delta touched: a status reading right after a repair visits no row
    at all, a single-tuple append into one cluster visits at most that
    cluster plus the new tuple, and a delete at most its survivors."""
    from repro.core import kernel
    from repro.core.conflict_index import ConflictIndex
    from repro.datagen.synthetic import clustered_conflicts_table

    fds = FDSet("A -> B; B -> C")
    cluster_size = 16
    with _kernel_mode(use_kernel):
        table = clustered_conflicts_table(
            SCHEMA, size=3000, clusters=18, cluster_size=cluster_size, seed=1
        )
        session = RepairSession(table, fds)
        assert (session.index._kernel is not None) == use_kernel
        visited = []
        if use_kernel:
            sweep = kernel.components_csr

            def counting_sweep(*args, **kwargs):
                out = sweep(*args, **kwargs)
                visited.append(sum(map(len, out)))
                return out

            monkeypatch.setattr(kernel, "components_csr", counting_sweep)
        else:
            components = ConflictIndex.components

            def counting_components(index, *args, **kwargs):
                out = components(index, *args, **kwargs)
                if index is session.index:
                    visited.append(sum(map(len, out)))
                return out

            monkeypatch.setattr(ConflictIndex, "components",
                                counting_components)
        session.repair()
        assert sum(visited) == 0
        session.status()
        assert sum(visited) == 0
        cluster = [tid for tid, row in table.rows().items() if row[0] == "a3"]
        assert len(cluster) == cluster_size
        result = session.append([("a3", "b3.new", "x3")])
        assert 0 < sum(visited) <= cluster_size + 1
        visited.clear()
        session.status()
        assert sum(visited) == 0
        _assert_identical(result, clean(_fresh_equivalent(session), fds))
        # A delete re-sweeps the survivors of its own component only.
        visited.clear()
        result = session.delete(cluster[:1])
        assert 0 < sum(visited) <= cluster_size
        _assert_identical(result, clean(_fresh_equivalent(session), fds))
        # A restored session sweeps once, while it is built.
        restored = RepairSession.restore(session.export_state())
        visited.clear()
        _assert_identical(restored.repair(), result)
        restored.status()
        assert sum(visited) == 0


def _status_fields(session):
    fields = session.status().as_dict()
    del fields["repairs"], fields["cache_entries"]
    return fields


@pytest.mark.parametrize("use_kernel", [True, False])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_status_matches_fresh_session_after_any_delta_sequence(
    use_kernel, data
):
    """After any appends and deletes — including ids deleted and then
    re-appended with new rows and weights, and reads interleaved or
    deferred — ``status()`` equals that of a session built fresh on an
    equivalent table, field for field and float for float."""
    fds = data.draw(st.sampled_from(FD_SETS))
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    weight_st = st.sampled_from((1.0, 0.5, 2.0, 3.25))
    with _kernel_mode(use_kernel):
        start = data.draw(st.lists(st.tuples(row_st, weight_st), max_size=8))
        table = Table.from_rows(SCHEMA, [r for r, _w in start],
                                [w for _r, w in start])
        session = RepairSession(table, fds)
        for _step in range(data.draw(st.integers(min_value=1, max_value=6))):
            live = list(session.table.ids())
            kind = data.draw(st.sampled_from(("append", "delete", "recycle")))
            repair = data.draw(st.booleans())
            if kind != "append" and live:
                victims = data.draw(
                    st.lists(st.sampled_from(live), min_size=1,
                             max_size=min(3, len(live)), unique=True)
                )
                session.delete(victims, repair=repair)
                if kind == "recycle":
                    rows = data.draw(st.lists(row_st, min_size=len(victims),
                                              max_size=len(victims)))
                    weights = data.draw(st.lists(
                        weight_st, min_size=len(victims),
                        max_size=len(victims)))
                    session.append(rows, weights=weights, ids=victims,
                                   repair=repair)
            else:
                rows = data.draw(st.lists(row_st, min_size=1, max_size=3))
                weights = data.draw(st.lists(weight_st, min_size=len(rows),
                                             max_size=len(rows)))
                session.append(rows, weights=weights, repair=repair)
            if data.draw(st.booleans()):
                fresh = RepairSession(_fresh_equivalent(session), fds)
                assert _status_fields(session) == _status_fields(fresh)
        fresh = RepairSession(_fresh_equivalent(session), fds)
        assert _status_fields(session) == _status_fields(fresh)


@pytest.mark.parametrize("use_kernel", [True, False])
def test_single_delta_repair_is_local(use_kernel, monkeypatch):
    """After the first repair, a single-tuple append into one cluster
    is repaired by looking the cache up only for the records it dropped
    (never once per component), and no table larger than a component is
    built — by the repair or by the daemon's reply — until the repaired
    table is read."""
    from repro import protocol
    from repro.core import table as table_module
    from repro.datagen.synthetic import clustered_conflicts_table

    fds = FDSet("A -> B; B -> C")
    cluster_size = 16
    with _kernel_mode(use_kernel):
        table = clustered_conflicts_table(
            SCHEMA, size=3000, clusters=18, cluster_size=cluster_size, seed=1
        )
        session = RepairSession(table, fds)
        assert session.repair().component_count == 18

        gets = []
        cache_get = SolutionCache.get

        def counting_get(cache, key):
            gets.append(key)
            return cache_get(cache, key)

        built = []
        from_trusted = Table._from_trusted.__func__
        init = Table.__init__
        deferred_build = table_module._DeferredTable.__getattr__

        def recording_from_trusted(cls, schema, rows, *args):
            built.append(len(rows))
            return from_trusted(cls, schema, rows, *args)

        def recording_init(self, schema, rows, *args, **kwargs):
            built.append(len(rows))
            init(self, schema, rows, *args, **kwargs)

        def recording_build(self, name):
            value = deferred_build(self, name)
            built.append(len(value))
            return value

        monkeypatch.setattr(SolutionCache, "get", counting_get)
        monkeypatch.setattr(Table, "_from_trusted",
                            classmethod(recording_from_trusted))
        monkeypatch.setattr(Table, "__init__", recording_init)
        monkeypatch.setattr(table_module._DeferredTable, "__getattr__",
                            recording_build)

        records = list(session._store.values())
        session.append([("a3", "b3.new", "x3")], repair=False)
        live = list(session._store.values())
        dropped = sum(1 for r in records if all(r is not s for s in live))
        assert dropped == 1
        built.clear()
        result = session.repair()
        assert 0 < len(gets) <= dropped
        assert 0 < max(built) <= cluster_size + 1
        protocol.result_summary(result)
        assert max(built) <= cluster_size + 1
        # Reading the repaired table builds it, once.
        built.clear()
        kept = len(result.cleaned)
        assert built == [kept] and len(result.cleaned.ids()) == kept
        monkeypatch.undo()
        _assert_identical(result, clean(_fresh_equivalent(session), fds))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_float_weights_keep_distance_and_session_exact(data):
    """With arbitrary positive float weights — where the order of a
    float sum shows — the session still equals ``clean`` field for
    field, every path's distance is exactly ``dist_sub`` of its repaired
    table, and a repaired table built on first read behaves like an
    eagerly built one under ``==``, ``hash``, pickling and CSV export."""
    import pickle

    fds = data.draw(st.sampled_from(FD_SETS))
    value = st.integers(min_value=0, max_value=2)
    row_st = st.tuples(value, value, value)
    weight_st = st.floats(min_value=0.01, max_value=100)
    start = data.draw(st.lists(st.tuples(row_st, weight_st), max_size=10))
    session = RepairSession(
        Table.from_rows(SCHEMA, [r for r, _w in start], [w for _r, w in start]),
        fds,
    )
    result = session.repair()
    for _step in range(data.draw(st.integers(min_value=0, max_value=4))):
        live = list(session.table.ids())
        if live and data.draw(st.booleans()):
            result = session.delete(
                [data.draw(st.sampled_from(live))]
            )
        else:
            rows = data.draw(st.lists(row_st, min_size=1, max_size=3))
            weights = data.draw(st.lists(weight_st, min_size=len(rows),
                                         max_size=len(rows)))
            result = session.append(rows, weights=weights)
    fresh = _fresh_equivalent(session)
    expected = clean(fresh, fds)
    _assert_identical(result, expected)
    assert result.distance == session.table.dist_sub(result.cleaned)
    assert expected.distance == fresh.dist_sub(expected.cleaned)
    undecomposed = clean(_fresh_equivalent(session), fds, decomposed=False)
    assert undecomposed.distance == fresh.dist_sub(undecomposed.cleaned)

    eager = Table(SCHEMA, expected.cleaned.rows(), expected.cleaned.weights())

    def deferred():
        return clean(fresh, fds).cleaned

    assert deferred() == eager and eager == deferred()
    assert hash(deferred()) == hash(eager)
    restored = pickle.loads(pickle.dumps(deferred()))
    assert type(restored) is Table and restored == eager
    assert table_to_csv(deferred()) == table_to_csv(eager)


def test_delete_validation():
    table = Table.from_rows(SCHEMA, [(1, 1, 1)])
    session = RepairSession(table, FDSet("A -> B"))
    with pytest.raises(KeyError, match="unknown"):
        session.delete([99])
    with pytest.raises(ValueError, match="duplicate"):
        session.delete([1, 1])
    assert len(session) == 1


def test_append_mappings_and_auto_ids():
    session = RepairSession(Table(SCHEMA, {}), FDSet("A -> B"))
    result = session.append(
        [{"A": "a", "B": "x", "C": "p"}, {"A": "a", "B": "y", "C": "p"}]
    )
    assert sorted(session.table.ids()) == [1, 2]
    assert result.distance == 1.0
    # Auto ids never collide with explicit ones.
    session.append([("q", "q", "q")], ids=[3])
    session.append([("r", "r", "r")])
    assert sorted(session.table.ids()) == [1, 2, 3, 4]


def test_append_without_repair_defers_solving():
    session = RepairSession(Table(SCHEMA, {}), FDSet("A -> B"))
    assert session.append([("a", "x", "p")], repair=False) is None
    assert session.append([("a", "y", "p")], repair=False) is None
    assert session.stats.repairs == 0
    result = session.repair()
    assert result.distance == 1.0
    _assert_identical(result, clean(_fresh_equivalent(session), FDSet("A -> B")))


def test_updates_strategy_is_rejected():
    with pytest.raises(ValueError, match="guarantee"):
        RepairSession(Table(SCHEMA, {}), FDSet("A -> B"), guarantee="nope")


def test_session_repr_and_context_manager():
    with RepairSession(Table.from_rows(SCHEMA, [(1, 1, 1)]), FDSet("A -> B")) as s:
        assert "RepairSession" in repr(s)
        assert len(s) == 1


# ---------------------------------------------------------------------------
# The persistent worker pool
# ---------------------------------------------------------------------------

def _pool_available():
    pool = PersistentWorkerPool(1)
    try:
        return pool.start()
    finally:
        pool.close()


def test_pool_solves_match_serial():
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    rng = random.Random(77)
    table = random_small_table(rng, SCHEMA, 60, domain=3, weighted=True)
    fds = FDSet("A -> B; B -> C")
    serial = RepairSession(table, fds)
    pool = PersistentWorkerPool(2)
    pooled = RepairSession(table, fds, pool=pool)
    try:
        # Where a component was solved leaves no trace: every step is
        # byte-identical to the serial session, label included.
        _assert_identical(pooled.repair(), serial.repair())
        for row in [(0, 1, 2), (1, 1, 1), (2, 0, 1)]:
            _assert_identical(pooled.append([row]), serial.append([row]))
        _assert_identical(pooled.delete([1]), serial.delete([1]))
        assert pooled.stats.pool_solves > 0
        # And to the batch path, serial or on its own pool.
        _assert_identical(
            pooled.repair(), clean(_fresh_equivalent(pooled), fds)
        )
        with closing(PersistentWorkerPool(2)) as batch:
            _assert_identical(
                pooled.repair(),
                clean(_fresh_equivalent(pooled), fds, executor=batch),
            )
    finally:
        pooled.close()
        pool.close()


def test_pool_failure_falls_back_to_serial():
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    rng = random.Random(3)
    table = random_small_table(rng, SCHEMA, 40, domain=2, weighted=True)
    fds = FDSet("A -> B; B -> C")
    pool = PersistentWorkerPool(2)
    session = RepairSession(table, fds, pool=pool)
    try:
        session.repair()
        # Kill the pool behind the session's back; the next repair must
        # fall back to in-process solving with identical results.
        pool.close()
        session.append([(9, 9, 9), (9, 8, 8)])
        result = session.repair()
        with closing(PersistentWorkerPool(2)) as batch:
            _assert_identical(
                result, clean(_fresh_equivalent(session), fds, executor=batch)
            )
    finally:
        session.close()
        pool.close()


def test_pool_broadcast_and_solve_roundtrip():
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    fds = FDSet("A -> B")
    with PersistentWorkerPool(2) as pool:
        table = Table(SCHEMA, {1: ("a", "x", "p"), 2: ("a", "y", "p"),
                               3: ("b", "z", "q")}, {1: 1.0, 2: 2.0, 3: 1.0})
        [(kept, effective, secs)] = pool.solve(
            [(table.subset((1, 2)), "exact", None)], fds=fds, key="k"
        )
        assert secs >= 0.0
        assert kept == (2,)  # heavier tuple wins
        assert effective == "exact"
        table = Table(SCHEMA, {1: ("a", "x", "p"), 4: ("a", "w", "p")},
                      {1: 1.0, 4: 5.0})
        [(kept, effective, _secs)] = pool.solve(
            [(table, "exact", None)], fds=fds, key="k"
        )
        assert kept == (4,)
        assert effective == "exact"
    assert not pool.alive


def _pool_traffic(size):
    """Messages a one-worker pool receives over one session's life: the
    open and first repair, a non-colliding append and a delete without
    repair, and a colliding append with its repair."""
    import repro.exec as exec_mod

    new_id = 10**6
    sent = []
    send = exec_mod._QueueSlot.send

    def recording(self, message):
        sent.append(message)
        return send(self, message)

    table = clustered_conflicts_table(SCHEMA, size, clusters=size // 30,
                                      cluster_size=16, seed=1)
    fds = FDSet("A -> B; B -> C")

    def traffic(step):
        start = len(sent)
        step()
        return sent[start:]

    with pytest.MonkeyPatch.context() as patch, \
            closing(PersistentWorkerPool(1)) as pool:
        patch.setattr(exec_mod._QueueSlot, "send", recording)
        session = RepairSession(table, fds, pool=pool)
        opened = traffic(session.repair)
        appended = traffic(lambda: session.append([("fresh", "b", "c")],
                                                  repair=False))
        deleted = traffic(lambda: session.delete([next(iter(table.ids()))],
                                                 repair=False))
        session.repair()
        clash = next(row for row in table.rows().values()
                     if row[0].startswith("a"))
        collided = traffic(lambda: session.append(
            [(clash[0], "b-new", "c-new")], ids=[new_id]))
        [touched] = [ids for ids in session.index.components()
                     if new_id in ids]
        session.close()
    assert opened and {m[0] for m in opened} == {"solve"}
    assert [m[0] for m in collided] == ["solve"]
    solve = collided[0]
    assert list(solve[6]) == touched  # the rows, in component order
    assert list(solve[7]) == touched  # the weights
    return len(appended), len(deleted), len(collided)


def test_session_deltas_send_the_pool_nothing():
    """Deltas ship nothing to the pool, and a miss ships exactly its
    component: the same message counts at 300 rows and at 3000."""
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    small = _pool_traffic(300)
    large = _pool_traffic(3000)
    assert small == large == (0, 0, 1)


# ---------------------------------------------------------------------------
# CLI: fdrepair stream
# ---------------------------------------------------------------------------

def test_cli_stream_roundtrip(tmp_path, capsys):
    batches = tmp_path / "ops.jsonl"
    batches.write_text(
        "\n".join(
            [
                json.dumps({"op": "append",
                            "rows": [["a", "x", "p"], ["a", "y", "p"]],
                            "weights": [2, 1]}),
                json.dumps({"op": "append",
                            "rows": [{"A": "b", "B": "z", "C": "q"}]}),
                json.dumps({"op": "delete", "ids": [3]}),
                json.dumps({"op": "repair"}),
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "repaired.csv"
    code = cli_main([
        "stream", "A -> B", str(batches),
        "--schema", "A,B,C", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "batch 4: repair" in text
    assert "cache" in text
    assert out.read_text(encoding="utf-8").startswith("id,A,B,C,weight")


def test_cli_stream_initial_table(tmp_path, capsys):
    csv_path = tmp_path / "start.csv"
    csv_path.write_text(
        "id,A,B,C,weight\n1,a,x,p,2.0\n2,a,y,p,1.0\n", encoding="utf-8"
    )
    batches = tmp_path / "ops.jsonl"
    batches.write_text(
        json.dumps({"op": "append", "rows": [["a", "z", "p"]]}) + "\n",
        encoding="utf-8",
    )
    code = cli_main([
        "stream", "A -> B", str(batches),
        "--table", str(csv_path), "--exact-threshold", "10",
    ])
    assert code == 0
    assert "deleted weight: 2" in capsys.readouterr().out


def test_cli_stream_rejects_bad_input(tmp_path, capsys):
    batches = tmp_path / "ops.jsonl"
    batches.write_text('{"op": "mystery"}\n', encoding="utf-8")
    code = cli_main(["stream", "A -> B", str(batches), "--schema", "A,B,C"])
    assert code == 1
    assert "unknown op" in capsys.readouterr().err
    assert cli_main(["stream", "A -> B", str(batches)]) == 2
    # Structurally malformed payloads diagnose instead of tracebacking.
    batches.write_text('{"op": "append", "rows": 5}\n', encoding="utf-8")
    code = cli_main(["stream", "A -> B", str(batches), "--schema", "A,B,C"])
    assert code == 1
    assert "batch 1" in capsys.readouterr().err
    # A missing batches file diagnoses up front instead of tracebacking.
    code = cli_main([
        "stream", "A -> B", str(tmp_path / "nope.jsonl"), "--schema", "A,B,C",
    ])
    assert code == 2
    assert "cannot read batches file" in capsys.readouterr().err


def test_cli_exact_threshold_repair(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(
        "id,A,B,C,weight\n1,a,x,p,1.0\n2,a,y,p,1.0\n3,b,y,q,1.0\n",
        encoding="utf-8",
    )
    code = cli_main([
        "s-repair", str(csv_path), "A -> B; B -> C",
        "--exact-threshold", "0", "--portfolio",
    ])
    assert code == 0
    text = capsys.readouterr().out
    # Threshold 0 pushes every hard-Δ component to the approximation.
    assert "bar-yehuda-even" in text or "approx" in text
