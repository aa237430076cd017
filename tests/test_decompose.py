"""Tests for the conflict-graph decomposition and execution layers.

The load-bearing invariant: repairing per connected component of the
conflict graph — any method, any guarantee, serial or parallel — is
indistinguishable (in distance, and for deterministic methods in the
repair itself) from repairing the whole table at once, while conflict-free
tuples are carried through verbatim without entering any solver.
"""

import dataclasses
import random
from contextlib import closing

import pytest

from repro.core.decompose import (
    EXACT_COMPONENT_THRESHOLD,
    ComponentPlan,
    decompose,
    plan_s_method,
)
from repro.core.approx import approx_s_repair, greedy_s_repair
from repro.core.exact import exact_s_repair
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.core.urepair import u_repair
from repro.core.violations import satisfies
from repro.datagen.synthetic import clustered_conflicts_table
from repro.exec import (
    PersistentWorkerPool,
    assemble_s_result,
    solve_components,
)
from repro.io.tables import table_to_csv
from repro.pipeline import _ComponentSolve, clean
from repro.testing import random_small_table

HARD = FDSet("A -> B; B -> C")
TRACTABLE = FDSet("A -> B; A B -> C")
MARRIAGE = FDSet("A -> B; B -> A; B -> C")


def clustered(n=120, clusters=6, cluster_size=8, seed=0, **kwargs):
    return clustered_conflicts_table(
        ("A", "B", "C"), n, clusters=clusters, cluster_size=cluster_size,
        seed=seed, **kwargs
    )


def forced(table, fds, method, executor=None):
    """The per-component S-repair with one *method* forced on every
    component, solved in process or on *executor*."""
    decomp = decompose(table, fds)
    plans = [ComponentPlan(method)] * decomp.component_count
    kept_lists, methods = solve_components(decomp, plans, executor=executor)
    return assemble_s_result(
        decomp, [_ComponentSolve(k, m) for k, m in zip(kept_lists, methods)]
    )


class TestDecompose:
    def test_components_partition_conflicting_tuples(self):
        table = clustered()
        decomp = decompose(table, HARD)
        assert decomp.component_count == 6
        assert decomp.largest_component == 8
        seen = set(decomp.consistent_ids)
        for component in decomp.components:
            assert not seen & set(component.ids)
            seen.update(component.ids)
        assert seen == set(table.ids())

    def test_components_are_conflict_closed(self):
        table = clustered(seed=3)
        decomp = decompose(table, HARD)
        for component in decomp.components:
            members = set(component.ids)
            for tid in component.ids:
                assert decomp.index.neighbors(tid) <= members

    def test_consistent_tuples_have_no_conflicts(self):
        table = clustered(seed=1)
        decomp = decompose(table, HARD)
        for tid in decomp.consistent_ids:
            assert not decomp.index.neighbors(tid)

    def test_consistent_table_decomposes_to_nothing(self):
        table = Table.from_rows(("A", "B"), [("a", "b"), ("c", "d")])
        decomp = decompose(table, FDSet("A -> B"))
        assert decomp.component_count == 0
        assert decomp.consistent_ids == table.ids()

    def test_projected_subindex_equals_rebuild(self):
        table = clustered(seed=5)
        decomp = decompose(table, HARD)
        for component in decomp.components:
            fresh = component.table.subset(list(component.table.ids()))
            rebuilt = fresh.conflict_index(HARD)
            assert component.index.num_edges == rebuilt.num_edges
            assert component.index.edges() == rebuilt.edges()
            assert component.index.ids() == rebuilt.ids()

    def test_subindex_seeded_into_subtable_cache(self):
        table = clustered(seed=5)
        decomp = decompose(table, HARD)
        component = decomp.components[0]
        assert component.table.conflict_index(HARD) is component.index

    def test_merge_kept_preserves_table_order(self):
        table = clustered(seed=2)
        decomp = decompose(table, HARD)
        solves = [_ComponentSolve(c.ids, "exact") for c in decomp.components]
        merged = assemble_s_result(decomp, solves).repair
        assert merged.ids() == table.ids()
        # Dropping ids keeps the survivors in table order.
        solves = [_ComponentSolve(c.ids[1:], "exact")
                  for c in decomp.components]
        dropped = {c.ids[0] for c in decomp.components}
        merged = assemble_s_result(decomp, solves).repair
        assert merged.ids() == tuple(
            tid for tid in table.ids() if tid not in dropped
        )


class TestPortfolioPolicy:
    def test_tractable_always_dichotomy(self):
        assert plan_s_method(10, True, "best") == "dichotomy"
        assert plan_s_method(10_000, True, "best") == "dichotomy"

    def test_hard_small_exact_large_approx(self):
        assert plan_s_method(EXACT_COMPONENT_THRESHOLD, False, "best") == "exact"
        assert plan_s_method(EXACT_COMPONENT_THRESHOLD + 1, False, "best") == "approx"

    def test_optimal_forces_exact(self):
        assert plan_s_method(10_000, False, "optimal") == "exact"

    def test_fast_forces_approx(self):
        assert plan_s_method(2, True, "fast") == "approx"


class TestDecomposedSRepairEquivalence:
    @pytest.mark.parametrize("fds", (HARD, TRACTABLE, MARRIAGE))
    def test_exact_distance_matches_global(self, fds):
        table = clustered(seed=4)
        global_repair = exact_s_repair(table, fds, node_limit=5000)
        decomposed = forced(table, fds, "exact").repair
        assert table.dist_sub(decomposed) == table.dist_sub(global_repair)
        assert satisfies(decomposed, fds)

    @pytest.mark.parametrize("fds", (HARD, TRACTABLE))
    def test_approx_repair_identical_to_global(self, fds):
        # BYE payments and maximalisation are component-local, so the
        # decomposed approximation is not merely as good — it is the
        # *same* repair.
        table = clustered(seed=6)
        assert (
            forced(table, fds, "approx").repair
            == approx_s_repair(table, fds).repair
        )

    def test_greedy_repair_identical_to_global(self):
        table = clustered(seed=7)
        assert (
            forced(table, HARD, "greedy").repair
            == greedy_s_repair(table, HARD).repair
        )

    def test_random_tables_all_guarantees(self, rng):
        for trial in range(8):
            table = random_small_table(
                rng, ("A", "B", "C"), 14, domain=2, weighted=True
            )
            for fds in (HARD, TRACTABLE):
                optimum = table.dist_sub(exact_s_repair(table, fds))
                for guarantee in ("best", "optimal", "fast"):
                    dec = clean(table, fds, guarantee=guarantee)
                    glob = clean(table, fds, guarantee=guarantee, decomposed=False)
                    assert satisfies(dec.cleaned, fds)
                    if guarantee in ("best", "optimal"):
                        # Small components ⇒ the portfolio solves
                        # everything exactly, matching the global optimum.
                        assert dec.distance == optimum
                        assert dec.optimal and dec.ratio_bound == 1.0
                    assert dec.distance <= glob.distance + 1e-9
                    assert dec.distance <= dec.ratio_bound * optimum + 1e-9

    def test_random_tables_updates(self, rng):
        for trial in range(6):
            table = random_small_table(rng, ("A", "B", "C"), 10, domain=2)
            for fds in (TRACTABLE, FDSet("A -> B")):
                dec = clean(table, fds, strategy="updates")
                glob = u_repair(table, fds)
                assert satisfies(dec.cleaned, fds)
                assert dec.cleaned.is_update_of(table)
                assert dec.distance == glob.distance
                assert dec.optimal == glob.optimal

    def test_instance_specific_ratio_on_hard_fds(self):
        """An APX-complete Δ whose conflicts form small components is
        solved exactly — the decomposed path certifies ratio 1.0 where
        the global heuristic settled for the 2-approximation."""
        table = clustered(n=200, clusters=5, cluster_size=10, seed=9)
        result = clean(table, HARD, guarantee="best")
        assert result.optimal and result.ratio_bound == 1.0
        assert result.method_counts == {"exact": 5}
        legacy = clean(table, HARD, guarantee="best", decomposed=False)
        assert not legacy.optimal and legacy.ratio_bound == 2.0
        assert result.distance <= legacy.distance


def assert_same_result(result, expected):
    """*result* equals *expected* on every :class:`CleaningResult` field;
    the cleaned tables are compared by their CSV form, since the fresh
    nulls of two U-repairs are distinct objects."""
    for field in dataclasses.fields(result):
        if field.name != "cleaned":
            assert (getattr(result, field.name)
                    == getattr(expected, field.name)), field.name
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)
    if result.strategy == "deletions":
        assert result.cleaned == expected.cleaned


class TestSerialParallelIdentical:
    def test_s_repair_byte_identical(self):
        table = clustered(seed=8)
        serial = clean(table, HARD, guarantee="optimal")
        with closing(PersistentWorkerPool(4)) as pool:
            parallel = clean(table, HARD, guarantee="optimal", executor=pool)
        assert serial.cleaned == parallel.cleaned
        assert table_to_csv(serial.cleaned) == table_to_csv(parallel.cleaned)
        assert serial.distance == parallel.distance

    @pytest.mark.parametrize("method", ("exact", "approx", "greedy"))
    def test_forced_method_byte_identical(self, method):
        table = clustered(seed=8)
        serial = forced(table, HARD, method)
        with closing(PersistentWorkerPool(4)) as pool:
            parallel = forced(table, HARD, method, executor=pool)
        assert table_to_csv(serial.repair) == table_to_csv(parallel.repair)
        assert serial.distance == parallel.distance

    def test_u_repair_byte_identical_serialisation(self):
        # Fresh labelled nulls are relabelled per component in
        # deterministic changed-cell order, so even the serialised form
        # is identical however the components were scheduled.
        table = clustered(seed=10)
        serial = clean(table, HARD, strategy="updates")
        with closing(PersistentWorkerPool(4)) as pool:
            parallel = clean(table, HARD, strategy="updates", executor=pool)
        assert serial.distance == parallel.distance
        assert table_to_csv(serial.cleaned) == table_to_csv(parallel.cleaned)

    def test_clean_parallel_matches_serial(self):
        table = clustered(seed=11)
        with closing(PersistentWorkerPool(4)) as pool:
            for strategy in ("deletions", "updates"):
                for guarantee in ("best", "fast", "optimal"):
                    serial = clean(table, HARD, strategy=strategy,
                                   guarantee=guarantee)
                    parallel = clean(table, HARD, strategy=strategy,
                                     guarantee=guarantee, executor=pool)
                    assert serial.distance == parallel.distance
                    assert table_to_csv(serial.cleaned) == table_to_csv(
                        parallel.cleaned
                    )
                    assert serial.report == parallel.report
                    assert serial.method == parallel.method


def _counting_spawns(monkeypatch):
    """Count the worker processes every pool spawns from here on."""
    spawned = []
    spawn = PersistentWorkerPool._spawn

    def counting(self, worker, generation):
        spawned.append((worker, generation))
        return spawn(self, worker, generation)

    monkeypatch.setattr(PersistentWorkerPool, "_spawn", counting)
    return spawned


class TestHandedPool:
    """``clean`` solves on the pool it is handed and never stops it; a
    pool not yet running is started only for two components or more."""

    @pytest.mark.parametrize("strategy", ("deletions", "updates"))
    def test_one_component_leaves_an_unstarted_pool_unstarted(
        self, strategy, monkeypatch
    ):
        table = clustered(n=30, clusters=1, cluster_size=8, seed=3)
        spawned = _counting_spawns(monkeypatch)
        with closing(PersistentWorkerPool(2)) as pool:
            result = clean(table, HARD, strategy=strategy, executor=pool)
            assert not pool.alive
        assert spawned == []
        assert result.component_count == 1
        assert_same_result(result, clean(table, HARD, strategy=strategy))

    @pytest.mark.parametrize("strategy", ("deletions", "updates"))
    def test_many_components_start_the_pool_once(self, strategy,
                                                 monkeypatch):
        table = clustered(seed=8)
        spawned = _counting_spawns(monkeypatch)
        with closing(PersistentWorkerPool(2)) as pool:
            result = clean(table, HARD, strategy=strategy, executor=pool)
            if not spawned:
                pytest.skip("platform cannot start pool workers")
            assert pool.alive and pool.supervision_stats()["rpcs"] > 0
        assert spawned == [(0, 0), (1, 0)]
        assert result.component_count == 6
        assert_same_result(result, clean(table, HARD, strategy=strategy))


class TestExecLayer:
    def test_table_pickle_drops_cache(self):
        import pickle

        table = clustered(n=30, clusters=2, cluster_size=5, seed=12)
        table.conflict_index(HARD)  # unpicklable cache entry
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert clone.ids() == table.ids()
        assert clone.conflict_index(HARD).num_edges == table.conflict_index(HARD).num_edges
