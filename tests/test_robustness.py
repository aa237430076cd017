"""Robustness tests: malformed inputs, unusual values, failure injection.

A production-quality library must fail loudly and precisely on bad
inputs and behave correctly on unusual-but-legal ones (unicode attribute
names, mixed value types, huge weights, single-column schemas).
"""

import math

import pytest

from repro.core.dichotomy import classify
from repro.core.fd import FD, FDSet, parse_fd_set
from repro.core.srepair import opt_s_repair
from repro.core.table import FreshValue, Table
from repro.core.urepair import u_repair
from repro.core.violations import satisfies
from repro.io.tables import table_from_csv
from repro.pipeline import assess, clean


class TestMalformedFDStrings:
    @pytest.mark.parametrize(
        "text", ["A B C", "A ->", "->", "A - > B", "A => B"]
    )
    def test_bad_fd_rejected(self, text):
        with pytest.raises(ValueError):
            FD.parse(text)

    def test_empty_segments_ignored(self):
        fds = parse_fd_set("A -> B; ; ;B -> C;")
        assert len(fds) == 2

    def test_whitespace_only_is_empty(self):
        assert len(parse_fd_set("  ")) == 0


class TestUnusualButLegalInputs:
    def test_unicode_attribute_names(self):
        fds = FDSet("Stadt -> Postleitzahl")
        table = Table.from_rows(
            ("Stadt", "Postleitzahl"),
            [("München", "80331"), ("München", "80333")],
        )
        repair = opt_s_repair(fds, table)
        assert satisfies(repair, fds)
        assert len(repair) == 1

    def test_mixed_value_types_in_column(self):
        # Equality across types is well-defined in Python; 1 != "1".
        fds = FDSet("A -> B")
        table = Table.from_rows(("A", "B"), [(1, "x"), ("1", "y"), (1, "z")])
        repair = opt_s_repair(fds, table)
        assert satisfies(repair, fds)
        assert len(repair) == 2  # ("1", y) never conflicts with (1, ·)

    def test_none_as_value(self):
        fds = FDSet("A -> B")
        table = Table.from_rows(("A", "B"), [(None, 1), (None, 2)])
        repair = opt_s_repair(fds, table)
        assert len(repair) == 1

    def test_huge_and_tiny_weights(self):
        fds = FDSet("A -> B")
        table = Table.from_rows(
            ("A", "B"), [("a", 1), ("a", 2)], weights=[1e12, 1e-9]
        )
        repair = opt_s_repair(fds, table)
        assert list(repair.ids()) == [1]  # keep the heavy tuple

    def test_single_column_schema(self):
        fds = FDSet("-> A")
        table = Table.from_rows(("A",), [("x",), ("y",), ("x",)])
        result = u_repair(table, fds)
        assert result.optimal and result.distance == 1.0

    def test_fresh_values_in_input_table(self):
        """Labelled nulls may already appear in the input (e.g. the
        output of a previous repair is re-repaired)."""
        null = FreshValue()
        fds = FDSet("A -> B")
        table = Table.from_rows(("A", "B"), [(null, 1), (null, 2), ("a", 1)])
        repair = opt_s_repair(fds, table)
        assert satisfies(repair, fds)
        assert len(repair) == 2

    def test_wide_schema(self):
        schema = tuple(f"C{i}" for i in range(30))
        fds = FDSet("C0 -> C29")
        rows = [tuple(f"v{i % 3}" for i in range(30)) for _ in range(5)]
        table = Table.from_rows(schema, rows)
        assert satisfies(table, fds)
        assert assess(table, fds).consistent

    def test_idempotent_repair(self):
        """Repairing a repair changes nothing."""
        from repro.datagen.office import office_fds, office_table

        first = opt_s_repair(office_fds(), office_table())
        second = opt_s_repair(office_fds(), first)
        assert first == second

    def test_re_repairing_an_update_is_free(self):
        from repro.datagen.office import office_fds, office_table

        result = u_repair(office_table(), office_fds())
        again = u_repair(result.update, office_fds())
        assert again.distance == 0.0


class TestMalformedCsv:
    def test_missing_weight_column(self):
        with pytest.raises(ValueError):
            table_from_csv("x", text="id,A\n1,foo\n")

    def test_missing_id_column(self):
        with pytest.raises(ValueError):
            table_from_csv("x", text="A,weight\nfoo,1\n")

    def test_non_numeric_weight(self):
        with pytest.raises(ValueError):
            table_from_csv("x", text="id,A,weight\n1,foo,heavy\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            table_from_csv("x", text="id,A,weight\n1,foo,0\n")

    def test_blank_lines_tolerated(self):
        table = table_from_csv("x", text="id,A,weight\n1,foo,1\n\n2,bar,2\n")
        assert len(table) == 2


class TestPipelineEdgeCases:
    def test_empty_table(self):
        report = assess(Table(("A", "B"), {}), FDSet("A -> B"))
        assert report.consistent and report.bracket_is_tight

    def test_trivial_fd_set(self):
        from repro.datagen.office import office_table

        result = clean(office_table(), FDSet())
        assert result.distance == 0.0 and result.optimal

    def test_all_tuples_identical(self):
        fds = FDSet("A -> B; B -> A; -> A")
        table = Table.from_rows(("A", "B"), [("x", 1)] * 6)
        report = assess(table, fds)
        assert report.consistent
        result = clean(table, fds, strategy="updates")
        assert result.distance == 0.0

    def test_every_tuple_conflicts(self):
        fds = FDSet("-> A")
        table = Table.from_rows(("A",), [(f"v{i}",) for i in range(6)])
        report = assess(table, fds)
        assert report.conflicting_tuples == 6
        result = clean(table, fds)
        assert result.distance == 5.0  # keep exactly one


# ---------------------------------------------------------------------------
# Chaos identity: worker kills + daemon restarts never change results
# ---------------------------------------------------------------------------

def _chaos_workload(seed, batches=3, rows_per_batch=5):
    """Deterministic mixed append/delete script from one seed."""
    import random

    rng = random.Random(seed)
    script = []
    live = []
    next_id = 1
    for _ in range(batches):
        rows = [
            [rng.choice("ab"), rng.choice("xy"), rng.choice("pq")]
            for _ in range(rows_per_batch)
        ]
        ids = list(range(next_id, next_id + len(rows)))
        next_id += len(rows)
        live.extend(ids)
        batch = [("append", {"rows": rows, "ids": ids})]
        if len(live) > 6 and rng.random() < 0.6:
            victims = rng.sample(live, 2)
            for v in victims:
                live.remove(v)
            batch.append(("delete", {"ids": victims, "repair": False}))
        batch.append(("repair", {}))
        script.append(batch)
    return script


def test_chaos_identity_under_worker_kills_and_daemon_restarts(tmp_path):
    """The tentpole acceptance property, end to end: a pooled daemon
    whose workers are killed mid-run
    (``repro.faults``) and whose process is hard-restarted between
    batches (crash-safe journal recovery) acknowledges op for op exactly
    what an isolated serial session computes — fault tolerance is
    invisible in the results.

    Hypothesis drives the chaos coordinates (workload seed, which solve
    kills which worker, where the restarts land); every failing example
    replays deterministically because the faults are plan-driven, not
    scheduler races.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from repro.core.table import Table as _Table
    from repro.faults import FaultPlan
    from repro.protocol import apply_session_op
    from repro.server import ServerConfig, SessionManager
    from repro.session import RepairSession
    from repro.exec import PersistentWorkerPool

    probe = PersistentWorkerPool(1)
    try:
        if not probe.start():
            pytest.skip("pool workers unavailable")
    finally:
        probe.close()

    fds_text = "A -> B"
    state_root = [0]

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        kill_solve=st.integers(1, 5),
        restarts=st.sets(st.integers(0, 2), max_size=2),
    )
    def run(seed, kill_solve, restarts):
        script = _chaos_workload(seed)

        # Oracle: one isolated serial session, no pool, no faults.
        oracle = RepairSession(
            _Table(("A", "B", "C"), {}), FDSet(fds_text)
        )
        expected = [
            apply_session_op(oracle, op, dict(payload))
            for batch in script
            for op, payload in batch
        ]

        spec = [{"site": "worker.solve", "action": "kill",
                 "at": kill_solve,
                 "match": {"worker": 0, "generation": 0}}]
        state_root[0] += 1
        state = str(tmp_path / f"state-{state_root[0]}")

        def fresh_manager():
            return SessionManager(
                ServerConfig(state_dir=state, workers=2),
                faults=FaultPlan.from_spec(spec),
            )

        manager = fresh_manager()
        manager.open(
            "t", "s", {"schema": ["A", "B", "C"], "fds": fds_text}
        )
        got = []
        try:
            for bi, batch in enumerate(script):
                if bi in restarts and bi > 0:
                    # Hard crash: abandon the journal mid-stream
                    # (the pool is closed only to reap subprocesses),
                    # then recover on the same state dir.
                    if manager._pool is not None:
                        manager._pool.close()
                    manager = fresh_manager()
                entry = manager.entry("t", "s")
                for op, payload in batch:
                    got.append(manager.run_op(entry, op, dict(payload)))
        finally:
            manager.shutdown()
        assert got == expected
        oracle.close()

    run()
