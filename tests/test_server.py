"""The multi-tenant repair daemon: protocol, manager, and server.

The daemon's load-bearing contract extends the session's: every
``(tenant, session)`` stream served concurrently over one shared worker
pool and one shared solution cache yields repairs byte-identical to an
isolated :class:`~repro.session.RepairSession` replaying the same
deltas alone.  Admission control, LRU eviction + rehydration, and the
solver-free ``status`` bracket are pinned alongside, plus the pool
lifecycle regressions this PR fixes (a dead worker fails fast; shutdown
drains queues and repeated ``close()`` never blocks).
"""

import asyncio
import json
import pickle
import random
import time
from contextlib import closing

import pytest

from repro.core.decompose import DEFAULT_NODE_LIMIT
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.exec import PersistentWorkerPool
from repro.io.tables import table_to_csv
from repro.pipeline import clean
from repro.protocol import (
    ProtocolError,
    Request,
    apply_session_op,
    decode_line,
    encode,
    result_summary,
)
from repro.server import (
    MAX_LINE_BYTES,
    RepairServer,
    ServerConfig,
    SessionManager,
)
from repro.session import RepairSession, SolutionCache
from repro.testing import random_small_table

SCHEMA = ("A", "B", "C")

#: The session options a restored state keeps.
RESTORED_OPTIONS = ("guarantee", "exact_threshold", "exact_budget_s",
                    "unit_cost_s", "node_limit")


def _pool_available():
    pool = PersistentWorkerPool(1)
    try:
        return pool.start()
    finally:
        pool.close()


def _table(rows, weights=None):
    return Table.from_rows(SCHEMA, rows, weights=weights)


def _assert_identical(result, expected):
    assert result.cleaned == expected.cleaned
    assert result.distance == expected.distance
    assert result.method == expected.method
    assert result.report == expected.report
    assert table_to_csv(result.cleaned) == table_to_csv(expected.cleaned)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_decode_rejects_bad_json_and_non_objects(self):
        with pytest.raises(ProtocolError):
            decode_line("not json")
        with pytest.raises(ProtocolError):
            decode_line("[1, 2]")
        assert decode_line('{"op": "ping"}') == {"op": "ping"}

    def test_request_envelope_validation(self):
        with pytest.raises(ProtocolError, match="missing op"):
            Request({})
        with pytest.raises(ProtocolError, match="unknown op"):
            Request({"op": "mystery"})
        with pytest.raises(ProtocolError, match="needs a tenant"):
            Request({"op": "repair"})
        with pytest.raises(ProtocolError, match="needs a session"):
            Request({"op": "repair", "tenant": "t"})
        req = Request({"op": "ping"})  # daemon ops need no addressing
        assert req.key is None

    def test_reply_echoes_addressing(self):
        req = Request(
            {"op": "status", "tenant": "t", "session": "s", "seq": 42}
        )
        reply = req.reply(tuples=3)
        assert reply == {
            "ok": True, "op": "status", "tenant": "t", "session": "s",
            "seq": 42, "tuples": 3,
        }
        err = req.error("nope")
        assert err["ok"] is False and err["error"] == "nope"
        # encode() emits exactly one JSON line.
        line = encode(reply)
        assert line.endswith("\n") and json.loads(line) == reply

    def test_apply_session_op_matches_direct_calls(self):
        fds = FDSet("A -> B")
        session = RepairSession(_table([("a", "x", "p")]), fds)
        fields = apply_session_op(
            session, "append", {"rows": [["a", "y", "p"]]}
        )
        assert fields["applied"] == 1 and fields["distance"] == 1.0
        fields = apply_session_op(session, "status", {})
        assert fields["conflicts"] == 1
        fields = apply_session_op(session, "assess", {})
        assert fields["lower_bound"] == fields["upper_bound"] == 1.0
        with pytest.raises(ProtocolError):
            apply_session_op(session, "append", {"rows": 5})
        with pytest.raises(ProtocolError):
            apply_session_op(session, "delete", {"ids": [999]})
        # Payload errors leave the session intact and usable.
        assert apply_session_op(session, "repair", {})["distance"] == 1.0

    def test_result_summary_reports_deleted_ids(self):
        fds = FDSet("A -> B")
        session = RepairSession(
            _table([("a", "x", "p"), ("a", "y", "p")], weights=[2.0, 1.0]),
            fds,
        )
        summary = result_summary(session.repair(), session.table)
        assert summary["deleted_ids"] == [2]  # the lighter tuple


# ---------------------------------------------------------------------------
# SessionManager: admission, accounting, eviction, rehydration
# ---------------------------------------------------------------------------

def _manager(**overrides):
    defaults = dict(workers=0, executor_threads=2)
    defaults.update(overrides)
    return SessionManager(ServerConfig(**defaults))


def _open(manager, tenant, name, **payload):
    payload.setdefault("schema", list(SCHEMA))
    payload.setdefault("fds", "A -> B")
    return manager.open(tenant, name, payload)


class TestSessionManager:
    def test_open_run_close_roundtrip(self):
        manager = _manager()
        try:
            fields = _open(manager, "t1", "s1")
            assert fields["opened"] and fields["tuples"] == 0
            entry = manager.entry("t1", "s1")
            fields = manager.run_op(
                entry, "append", {"rows": [["a", "x", "p"], ["a", "y", "p"]]}
            )
            assert fields["distance"] == 1.0
            assert manager.stats()["tenant_bytes"]["t1"] > 0
            assert manager.close("t1", "s1") == {"closed": True}
            with pytest.raises(ProtocolError, match="no open session"):
                manager.entry("t1", "s1")
            assert manager.stats()["tenant_bytes"] == {}
        finally:
            manager.shutdown()

    def test_admission_limits(self):
        manager = _manager(
            max_sessions=3, max_tenant_sessions=2, max_tenant_bytes=1
        )
        try:
            _open(manager, "t1", "a")
            # t1 now holds ≥ 1 byte, over its (tiny) budget.
            with pytest.raises(ProtocolError, match="memory budget"):
                _open(manager, "t1", "b")
            _open(manager, "t2", "a")
            with pytest.raises(ProtocolError, match="already open"):
                _open(manager, "t2", "a")
            _open(manager, "t3", "a")
            with pytest.raises(ProtocolError, match="session limit"):
                _open(manager, "t4", "a")
        finally:
            manager.shutdown()

    def test_tenant_session_limit(self):
        manager = _manager(max_tenant_sessions=2)
        try:
            _open(manager, "t1", "a")
            _open(manager, "t1", "b")
            with pytest.raises(ProtocolError, match="tenant .* session limit"):
                _open(manager, "t1", "c")
            _open(manager, "t2", "a")  # other tenants unaffected
        finally:
            manager.shutdown()

    def test_open_rejects_bad_payloads(self):
        manager = _manager()
        try:
            with pytest.raises(ProtocolError, match="schema"):
                manager.open("t", "s", {"fds": "A -> B"})
            with pytest.raises(ProtocolError, match="fds"):
                manager.open("t", "s", {"schema": ["A"]})
            with pytest.raises(ProtocolError):
                _open(manager, "t", "s", fds="A -> ")  # unparsable
            # Failed opens release their reserved slot.
            _open(manager, "t", "s")
        finally:
            manager.shutdown()

    def test_eviction_and_rehydration_byte_identical(self):
        rng = random.Random(11)
        table = random_small_table(rng, SCHEMA, 30, domain=2, weighted=True)
        fds = FDSet("A -> B; B -> C")
        manager = _manager(max_resident=1)
        try:
            _open(manager, "t", "a", fds="A -> B; B -> C")
            entry_a = manager.entry("t", "a")
            rows = [list(r) for r in table.rows().values()]
            weights = list(table.weights().values())
            manager.run_op(
                entry_a, "append",
                {"rows": rows, "weights": weights, "repair": False},
            )
            manager.run_op(entry_a, "repair", {})
            _open(manager, "t", "b")
            manager.evict_to_limit()
            stats = manager.stats()
            assert stats["resident"] == 1 and stats["frozen"] == 1
            assert entry_a.live is None and entry_a.frozen is not None
            # Per-tenant rollup mirrors the globals for the lone tenant.
            mine = stats["tenant_sessions"]["t"]
            assert mine["resident"] == 1 and mine["frozen"] == 1
            assert mine["bytes"] == stats["tenant_bytes"]["t"] > 0
            assert mine["evictions"] == 1 and mine["rehydrations"] == 0
            # Rehydration is transparent: the next op rebuilds the
            # session and its repair equals a from-scratch clean.
            fields = manager.run_op(entry_a, "repair", {})
            stats = manager.stats()
            assert stats["rehydrations"] == 1
            assert stats["tenant_sessions"]["t"]["rehydrations"] == 1
            assert stats["cache_evictions"] == manager.solutions.evictions
            fresh = Table(SCHEMA, entry_a.live.table.rows(),
                          entry_a.live.table.weights())
            assert fields["distance"] == clean(fresh, fds).distance
            _assert_identical(entry_a.live.last_result, clean(fresh, fds))
        finally:
            manager.shutdown()

    def test_stats_counts_a_pending_open_as_neither_resident_nor_frozen(self):
        manager = _manager()
        try:
            manager.admit("t", "s")  # admitted, not yet built
            stats = manager.stats()
            assert stats["sessions"] == 1
            assert stats["resident"] == 0 and stats["frozen"] == 0
            mine = stats["tenant_sessions"]["t"]
            assert mine["resident"] == 0 and mine["frozen"] == 0
        finally:
            manager.shutdown()

    def test_eviction_skips_locked_sessions(self):
        manager = _manager(max_resident=0)
        try:
            _open(manager, "t", "a")
            entry = manager.entry("t", "a")

            async def check():
                async with entry.lock:
                    assert manager.evict_to_limit() == 0
                assert manager.evict_to_limit() == 1

            asyncio.run(check())
            assert entry.frozen is not None
        finally:
            manager.shutdown()

    def test_shutdown_is_idempotent(self):
        manager = _manager()
        _open(manager, "t", "a")
        manager.shutdown()
        manager.shutdown()
        with pytest.raises(ProtocolError):
            _open(manager, "t", "b")


# ---------------------------------------------------------------------------
# Session serialisation and the solver-free status bracket
# ---------------------------------------------------------------------------

class TestSessionState:
    def test_export_restore_byte_identical(self):
        rng = random.Random(5)
        table = random_small_table(rng, SCHEMA, 40, domain=2, weighted=True)
        fds = FDSet("A -> B; B -> C")
        session = RepairSession(table, fds)
        session.repair()
        session.append([("q", "q", "q"), ("q", "r", "r")], repair=False)
        blob = pickle.dumps(session.export_state())
        restored = RepairSession.restore(pickle.loads(blob))
        _assert_identical(restored.repair(), session.repair())
        # The id allocator survives: no clashes with pre-snapshot ids.
        restored.append([("z", "z", "z")], repair=False)
        assert len(restored) == len(session) + 1

    def test_restore_onto_shared_cache_serves_hits(self):
        table = _table([("a", "x", "p"), ("a", "y", "p")])
        fds = FDSet("A -> B")
        shared = SolutionCache()
        donor = RepairSession(table, fds, solutions=shared)
        donor.repair()
        state = RepairSession(table, fds).export_state()
        restored = RepairSession.restore(state, solutions=shared)
        restored.repair()
        # The restored session's solve was served by the donor's entry.
        assert restored.stats.cache_hits == 1
        assert restored.stats.cache_misses == 0

    def test_status_never_touches_a_solver(self, monkeypatch):
        import repro.exec as exec_mod

        table = _table(
            [("a", "x", "p"), ("a", "y", "p"), ("b", "z", "q"),
             ("b", "w", "q")]
        )
        session = RepairSession(table, FDSet("A -> B"))

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("status touched a solver")

        monkeypatch.setattr(exec_mod, "_solve_component", boom)
        status = session.status()
        assert status.conflicts == 2 and status.components == 2
        assert status.lower_bound == status.upper_bound == 2.0
        assert not status.consistent

    def test_status_bracket_tracks_deltas(self):
        session = RepairSession(_table([]), FDSet("A -> B"))
        assert session.status().consistent
        session.append([("a", "x", "p"), ("a", "y", "p")], repair=False)
        status = session.status()
        assert status.conflicts == 1
        assert status.lower_bound <= 1.0 <= status.upper_bound
        session.delete([1], repair=False)
        assert session.status().consistent
        # The bracket always contains the realised optimal distance.
        session.append(
            [("c", 1, 1), ("c", 2, 2), ("c", 3, 3)], repair=False
        )
        status = session.status()
        result = session.repair()
        assert status.lower_bound <= result.distance <= status.upper_bound


# ---------------------------------------------------------------------------
# The daemon: ≥ 8 concurrent sessions, byte-identical to isolated runs
# ---------------------------------------------------------------------------

def _tenant_workload(seed, batches=4, rows_per_batch=6):
    """Deterministic per-tenant delta script: mixed appends/deletes."""
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
        script.append(("append", {"rows": rows, "ids": ids}))
        if len(live) > 8 and rng.random() < 0.7:
            victims = rng.sample(live, 3)
            for v in victims:
                live.remove(v)
            script.append(("delete", {"ids": victims}))
    script.append(("repair", {}))
    return script


def _isolated_results(fds_text, script):
    """Replay one tenant's script on a private session, no pool."""
    session = RepairSession(_table([]), FDSet(fds_text))
    outcomes = []
    for op, payload in script:
        outcomes.append(apply_session_op(session, op, dict(payload)))
    final = session.last_result
    return outcomes, table_to_csv(final.cleaned), final


@pytest.mark.parametrize("workers", [0, 2])
def test_daemon_sessions_byte_identical_to_isolated(workers):
    if workers and not _pool_available():
        pytest.skip("subprocess support unavailable")
    fds_text = "A -> B; B -> C"
    tenants = [f"tenant-{i}" for i in range(8)]
    scripts = {t: _tenant_workload(seed) for seed, t in enumerate(tenants)}
    expected = {
        t: _isolated_results(fds_text, scripts[t]) for t in tenants
    }

    manager = SessionManager(
        ServerConfig(workers=workers, executor_threads=8, max_resident=4)
    )
    server = RepairServer(manager)

    async def drive():
        port = await server.serve_tcp()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        lock = asyncio.Lock()
        waiters = {}

        async def dispatch():
            # Responses interleave across sessions; one reader task
            # routes each back to its caller by the echoed seq.
            while True:
                line = await reader.readline()
                if not line:
                    return
                reply = json.loads(line)
                waiter = waiters.pop(reply.get("seq"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(reply)

        dispatcher = asyncio.create_task(dispatch())

        async def rpc(obj):
            fut = asyncio.get_running_loop().create_future()
            waiters[obj["seq"]] = fut
            async with lock:
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
            return await fut

        async def run_tenant(tenant):
            got = []
            await rpc({
                "op": "open", "tenant": tenant, "session": "s",
                "seq": f"{tenant}-open", "schema": list(SCHEMA),
                "fds": fds_text,
            })
            for i, (op, payload) in enumerate(scripts[tenant]):
                reply = await rpc({
                    "op": op, "tenant": tenant, "session": "s",
                    "seq": f"{tenant}-{i}", **payload,
                })
                assert reply["ok"], reply
                got.append(reply)
            return got

        # Interleave all tenants' scripts concurrently (the shared
        # connection serialises writes; the daemon interleaves work).
        results = await asyncio.gather(*(run_tenant(t) for t in tenants))
        stats = await rpc({"op": "stats", "seq": "stats"})
        await rpc({"op": "shutdown", "seq": "bye"})
        writer.close()
        dispatcher.cancel()
        await server.wait_closed()
        return dict(zip(tenants, results)), stats

    got, stats = asyncio.run(drive())
    for tenant in tenants:
        outcomes, _csv, final = expected[tenant]
        for reply, exp in zip(got[tenant], outcomes):
            for field in ("distance", "conflicts", "components", "applied"):
                if field in exp:
                    assert reply[field] == exp[field], (tenant, reply, exp)
        # The daemon's final repair distance equals the isolated run's.
        assert got[tenant][-1]["distance"] == final.distance
    # All eight rode one manager; identical content means shared-cache
    # traffic (every tenant's workload draws from the same tiny domain).
    assert stats["sessions"] == 8
    assert stats["cache_hits"] > 0
    # Per-tenant session rollup and recorder-backed op telemetry: every
    # tenant holds one resident session and shows up in the op counts;
    # the repair latency histogram saw at least one op per tenant.
    for tenant in tenants:
        mine = stats["tenant_sessions"][tenant]
        assert mine["resident"] + mine["frozen"] == 1
        assert stats["tenant_ops"][tenant] >= 1
    repair_hist = stats["op_latency_s"]["op.repair"]
    assert repair_hist["count"] >= len(tenants)
    assert repair_hist["total_s"] > 0
    if workers:
        assert stats["pool_alive"] and stats["pool_workers"] == workers


def test_daemon_error_responses_keep_connection_alive():
    manager = SessionManager(ServerConfig(workers=0, executor_threads=2))
    server = RepairServer(manager)

    async def drive():
        port = await server.serve_tcp()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def rpc(text):
            writer.write((text + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        assert not (await rpc("garbage"))["ok"]
        assert not (await rpc('{"op": "mystery"}'))["ok"]
        reply = await rpc(
            '{"op": "repair", "tenant": "t", "session": "nope"}'
        )
        assert not reply["ok"] and "no open session" in reply["error"]
        # An over-long line is consumed whole and answered with an
        # error, not dropped with the connection.
        pad = "x" * (MAX_LINE_BYTES + 1)
        reply = await rpc('{"op": "ping", "pad": "' + pad + '"}')
        assert not reply["ok"] and "exceeds" in reply["error"]
        # The connection (and daemon) survive all of the above.
        assert (await rpc('{"op": "ping"}'))["pong"]
        await rpc('{"op": "shutdown"}')
        writer.close()
        await server.wait_closed()

    asyncio.run(drive())


def test_daemon_pipelined_ops_queue_behind_open():
    """A client that pipelines ops without awaiting replies (the stdio
    transport's natural shape) must see them queue behind the in-flight
    ``open`` on the session lock — not race the construction and crash
    on a half-built entry.  Ops stranded behind a *failed* open get a
    clean 'is not open' error, and the connection survives."""
    manager = SessionManager(ServerConfig(workers=0, executor_threads=2))
    server = RepairServer(manager)

    async def drive():
        port = await server.serve_tcp()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        def send(obj):
            writer.write((json.dumps(obj) + "\n").encode())

        # Burst 1: open + append + status written before reading any
        # reply.  Replies may interleave; correlate by seq.
        send({"op": "open", "tenant": "t", "session": "s", "seq": 1,
              "schema": ["A", "B"], "fds": "A -> B"})
        send({"op": "append", "tenant": "t", "session": "s", "seq": 2,
              "rows": [["a", "x"], ["a", "y"], ["b", "z"]]})
        send({"op": "status", "tenant": "t", "session": "s", "seq": 3})
        await writer.drain()
        replies = {}
        for _ in range(3):
            reply = json.loads(await reader.readline())
            replies[reply["seq"]] = reply
        assert replies[1]["ok"] and replies[1]["opened"]
        assert replies[2]["ok"] and replies[2]["distance"] == 1.0
        assert replies[3]["ok"] and replies[3]["conflicts"] == 1

        # Burst 2: ops pipelined behind an open that fails admission-
        # -side construction (bad fds) — each gets a reply, the ops a
        # clean "is not open", and the daemon stays up.
        send({"op": "open", "tenant": "t", "session": "s2", "seq": 4,
              "schema": ["A", "B"], "fds": "not an fd"})
        send({"op": "repair", "tenant": "t", "session": "s2", "seq": 5})
        await writer.drain()
        replies = {}
        for _ in range(2):
            reply = json.loads(await reader.readline())
            replies[reply["seq"]] = reply
        assert not replies[4]["ok"]
        assert not replies[5]["ok"]
        assert (
            "is not open" in replies[5]["error"]
            or "no open session" in replies[5]["error"]
        )
        assert (await _rpc(reader, writer, {"op": "ping"}))["pong"]
        await _rpc(reader, writer, {"op": "shutdown"})
        writer.close()
        await server.wait_closed()

    asyncio.run(drive())


def test_daemon_op_is_counted_before_its_reply():
    """``stats`` read when a reply is written already counts that op,
    failed ops included, so a client that has its reply never sees the
    op missing from the latency histogram."""
    manager = SessionManager(ServerConfig(workers=0, executor_threads=2))
    server = RepairServer(manager)
    counted = {}

    async def write(reply):
        hist = manager.stats()["op_latency_s"].get(f"op.{reply['op']}", {})
        counted[reply["seq"]] = (reply["ok"], hist.get("count", 0))

    base = {"tenant": "t", "session": "s"}
    requests = [
        {"op": "open", "seq": 1, "schema": ["A", "B"], "fds": "A -> B",
         "rows": [["a", "x"], ["a", "y"]], **base},
        {"op": "repair", "seq": 2, **base},
        {"op": "status", "seq": 3, "tenant": "t", "session": "nope"},
    ]

    async def drive():
        for request in requests:
            await server.handle_line(json.dumps(request), write)
        await server.aclose()

    asyncio.run(drive())
    assert counted == {1: (True, 1), 2: (True, 1), 3: (False, 1)}


async def _rpc(reader, writer, obj):
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


# ---------------------------------------------------------------------------
# Pool lifecycle regressions
# ---------------------------------------------------------------------------

def test_killed_worker_fails_fast_and_repair_survives():
    """A worker killed mid-stream must not stall ``solve`` for the full
    timeout: the monitor reaps the corpses within its tick,
    the supervisor respawns them (or the serial fallback kicks in), and
    the session still produces a byte-identical repair — promptly."""
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    # Disjoint value spaces per group → several conflict components, so
    # the first repair has > 1 miss and actually spins the pool up.
    rows = []
    for g in range(6):
        rows += [
            (f"a{g}", f"x{g}", "p"),
            (f"a{g}", f"y{g}", "p"),
            (f"b{g}", f"y{g}", "q"),
        ]
    table = _table(rows)
    fds = FDSet("A -> B; B -> C")
    pool = PersistentWorkerPool(2)
    session = RepairSession(table, fds, pool=pool)
    try:
        session.repair()  # warm the pool
        if session.pool is None:
            pytest.skip("pool did not start")
        for slot in pool._slots:
            slot.proc.terminate()
        for slot in pool._slots:
            slot.proc.join(timeout=5.0)
        session.append([("z", 1, 1), ("z", 2, 2)], repair=False)
        start = time.monotonic()
        result = session.repair()
        elapsed = time.monotonic() - start
        # Fail-fast: nowhere near the 120 s get-timeout of old.
        assert elapsed < 20.0, f"dead-worker stall: {elapsed:.1f}s"
        fresh = Table(SCHEMA, session.table.rows(), session.table.weights())
        with closing(PersistentWorkerPool(2)) as batch:
            _assert_identical(result, clean(fresh, fds, executor=batch))
    finally:
        session.close()
        pool.close()


def test_pool_supervisor_heals_worker_death_mid_batch():
    """The acceptance path, driven through ``repro.faults``: a worker
    killed mid-batch does not raise — the supervisor retries its
    in-flight solves, respawns the slot, and the batch result is
    byte-identical to a no-fault run."""
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    from repro.faults import FaultPlan, FaultRule

    fds = FDSet("A -> B")
    rows = {i: ("a" if i % 2 else "b", str(i), "p") for i in range(1, 13)}
    weights = {i: 1.0 for i in rows}
    tasks = [(Table(SCHEMA, rows, weights), "exact", None)] * 4

    with PersistentWorkerPool(2) as baseline:
        if not baseline.alive:
            pytest.skip("pool did not start")
        expected = [(kept, method) for kept, method, _secs
                    in baseline.solve(tasks, timeout=60.0, fds=fds)]

    plan = FaultPlan([FaultRule("worker.solve", "kill",
                                match={"worker": 0, "generation": 0})])
    pool = PersistentWorkerPool(2, faults=plan, backoff_s=0.01)
    assert pool.start()
    try:
        got = [(kept, method) for kept, method, _secs
               in pool.solve(tasks, timeout=60.0, fds=fds)]
        assert got == expected
        deadline = time.monotonic() + 10.0
        while (pool.supervision_stats()["respawns"] < 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
        counters = pool.supervision_stats()
        assert counters["worker_deaths"] == 1
        assert counters["retries"] >= 1
        assert counters["respawns"] == 1
        assert counters["degraded"] == 0
        assert pool.live_workers() == 2
        # The replacement serves solves byte-identically.
        assert ([(kept, method) for kept, method, _secs
                 in pool.solve(tasks, timeout=60.0, fds=fds)] == expected)
    finally:
        pool.close()


def test_pool_shutdown_drains_and_repeated_close_is_nonblocking():
    """Queued solve work left behind by a failed batch must not wedge
    shutdown: ``_shutdown`` drains every queue and cancels feeder
    threads, so ``close()`` — called any number of times, including via
    ``__del__`` — returns promptly."""
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    fds = FDSet("A -> B")
    pool = PersistentWorkerPool(2)
    rows = {i: ("a", str(i), "p") for i in range(1, 40)}
    weights = {i: 1.0 for i in rows}
    assert pool.start()
    # Enqueue a pile of work and close without collecting any of it:
    # items are still queued, results may be mid-flight.
    message = ("solve", 10_000, "k", SCHEMA, fds, DEFAULT_NODE_LIMIT,
               rows, weights, "approx", None)
    for slot in pool._slots:
        for _ in range(10):
            slot.send(message)
    start = time.monotonic()
    pool.close()
    first = time.monotonic() - start
    assert first < 10.0, f"close blocked {first:.1f}s"
    for _ in range(3):
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 0.1
    assert not pool.alive
    # __del__ after close must be a no-op, not a hang or a traceback.
    pool.__del__()


def test_pool_namespaces_isolate_sessions():
    """Two sessions with different Δ share one pool: each solve carries
    its own FD set, so one worker answers both without crosstalk."""
    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    pool = PersistentWorkerPool(1)
    assert pool.start()
    try:
        fds_a = FDSet("A -> B")
        fds_b = FDSet("B -> C")
        # Same rows violate A -> B but satisfy B -> C.
        table = Table(SCHEMA, {1: ("a", "x", "p"), 2: ("a", "y", "p")},
                      {1: 2.0, 2: 1.0})
        tasks = [(table, "exact", None)]
        [(kept_a, _, _)] = pool.solve(tasks, fds=fds_a, key="one")
        assert kept_a == (1,)  # heavier tuple wins under A -> B
        [(kept_b, _, _)] = pool.solve(tasks, fds=fds_b, key="two")
        assert kept_b == (1, 2)  # consistent under B -> C: keep both
        # Session "one" is unaffected by "two" having solved in between.
        [(kept_a2, _, _)] = pool.solve(tasks, fds=fds_a, key="one")
        assert kept_a2 == (1,)
    finally:
        pool.close()


def test_daemon_survives_a_solve_deadline_failover(tmp_path):
    """``serve --solve-timeout``: a solve stalled past its deadline is
    re-sent, then its worker is failed over and respawned — and the
    daemon keeps serving.  The failed-over worker is forked from the
    daemon, so it must be stopped without a signal the daemon's event
    loop would also see as a shutdown request."""
    import os
    import socket
    import subprocess
    import sys

    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), env.get("PYTHONPATH")) if p
    )
    env["FDREPAIR_FAULTS"] = json.dumps([{
        "site": "worker.solve", "action": "delay", "delay_s": 3.0,
        "match": {"generation": 0},
    }])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--parallel", "1", "--solve-timeout", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        port = int(proc.stdout.readline().decode().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
            rfile = sock.makefile("rb")

            def rpc(obj):
                sock.sendall((json.dumps(obj) + "\n").encode())
                return json.loads(rfile.readline())

            base = {"tenant": "t", "session": "s"}
            assert rpc({"op": "open", "schema": ["A", "B"], "fds": "A -> B",
                        **base})["ok"]
            reply = rpc({"op": "append", "rows": [["a", "x"], ["a", "y"]],
                         **base})
            assert reply["ok"] and reply["distance"] == 1.0
            stats = rpc({"op": "stats"})["pool_supervision"]
            assert stats["timeouts"] >= 1 and stats["worker_deaths"] == 1
            assert rpc({"op": "ping"})["pong"]
            assert rpc({"op": "shutdown"})["ok"]
        assert proc.wait(timeout=20) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_stdio_daemon_answers_through_a_worker_kill():
    """``fdrepair serve --stdio --parallel 1`` with its pool worker
    killed at the first solve: the respawn forks while the stdin reader
    thread is live, and ``open`` → ``append`` → ``repair``, an over-long
    line and a ``ping`` must each be answered within a short deadline
    (the CI smoke runs the same script)."""
    import pathlib
    import subprocess
    import sys

    if not _pool_available():
        pytest.skip("subprocess support unavailable")
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "serve_smoke.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--stdio", "--timeout", "10"],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")[-2000:]
    assert b"STDIO SMOKE OK" in proc.stdout


def test_stdio_daemon_replies_like_tcp():
    """``fdrepair serve --stdio`` runs the TCP request loop: bad lines
    get the same error replies, ops pipelined behind an ``open`` queue
    on its session, and EOF without ``shutdown`` drains every in-flight
    op before a clean exit."""
    import os
    import subprocess
    import sys

    base = {"tenant": "t", "session": "s"}
    lines = [
        "garbage",
        json.dumps({"op": "mystery", "seq": 1}),
        json.dumps({"op": "repair", "tenant": "t", "session": "nope",
                    "seq": 2}),
        json.dumps({"op": "open", "seq": 3, "schema": ["A", "B"],
                    "fds": "A -> B", **base}),
        json.dumps({"op": "append", "seq": 4,
                    "rows": [["a", "x"], ["a", "y"], ["b", "z"]], **base}),
        json.dumps({"op": "repair", "seq": 5, **base}),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--stdio",
         "--parallel", "0"],
        input="".join(line + "\n" for line in lines).encode(),
        capture_output=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    stdio = [json.loads(line) for line in proc.stdout.splitlines()]

    server = RepairServer(
        SessionManager(ServerConfig(workers=0, executor_threads=2))
    )

    async def drive():
        port = await server.serve_tcp()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write("".join(line + "\n" for line in lines).encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in lines]
        await _rpc(reader, writer, {"op": "shutdown"})
        writer.close()
        await server.wait_closed()
        return replies

    tcp = asyncio.run(drive())
    by_seq = {r.get("seq"): r for r in stdio}
    assert len(stdio) == len(lines) == len(by_seq)
    assert by_seq == {r.get("seq"): r for r in tcp}
    assert "bad JSON" in by_seq[None]["error"]
    assert by_seq[1]["error"] == "unknown op 'mystery'"
    assert "no open session" in by_seq[2]["error"]
    assert by_seq[3]["opened"] and by_seq[5]["distance"] == 1.0
    assert all(by_seq[seq]["ok"] for seq in (3, 4, 5))


# ---------------------------------------------------------------------------
# CLI: fdrepair stream survives malformed batches
# ---------------------------------------------------------------------------

MIXED_BATCHES = [
    '{"op": "append", "rows": [["a", "x", "p"], ["a", "y", "p"]]}',
    "this is not JSON",
    '{"op": "frobnicate"}',
    '{"op": "append", "rows": 5}',
    '{"op": "delete", "ids": [999]}',
    '{"op": "append", "rows": [["b", "z", "q"]]}',
    '{"op": "repair"}',
]


def test_cli_stream_survives_malformed_batches(tmp_path, capsys):
    from repro.cli import main as cli_main

    batches = tmp_path / "mix.jsonl"
    batches.write_text("\n".join(MIXED_BATCHES) + "\n", encoding="utf-8")
    out = tmp_path / "final.csv"
    code = cli_main([
        "stream", "A -> B", str(batches),
        "--schema", "A,B,C", "--out", str(out),
    ])
    captured = capsys.readouterr()
    # Rejected batches make the exit nonzero, but the stream survived:
    # later valid batches ran and the final table was written.
    assert code == 1
    assert "batch 2: bad JSON" in captured.err
    assert "batch 3: unknown op 'frobnicate'" in captured.err
    assert "batch 4" in captured.err
    assert "batch 5" in captured.err
    assert "4 batches rejected" in captured.err
    assert "batch 6: append" in captured.out
    assert "batch 7: repair" in captured.out
    text = out.read_text(encoding="utf-8")
    assert text.startswith("id,A,B,C,weight")
    assert "b,z,q" in text  # batch 6 made it in despite 4 rejections

    # A fully-valid stream still exits 0.
    batches.write_text(
        '{"op": "append", "rows": [["a", "x", "p"]]}\n', encoding="utf-8"
    )
    assert cli_main([
        "stream", "A -> B", str(batches), "--schema", "A,B,C",
    ]) == 0


def test_cli_stream_rejects_close_and_non_string_ops(tmp_path, capsys):
    from repro.cli import main as cli_main

    batches = tmp_path / "ops.jsonl"
    batches.write_text(
        '{"op": "close"}\n{"op": ["append"]}\n[1]\n', encoding="utf-8"
    )
    assert cli_main([
        "stream", "A -> B", str(batches), "--schema", "A,B,C",
    ]) == 1
    err = capsys.readouterr().err
    assert "batch 1: unknown op 'close'" in err
    assert "batch 2: unknown op ['append']" in err
    assert "batch 3: request must be a JSON object, got list" in err


def test_cli_stream_strict_restores_abort(tmp_path, capsys):
    from repro.cli import main as cli_main

    batches = tmp_path / "mix.jsonl"
    batches.write_text("\n".join(MIXED_BATCHES) + "\n", encoding="utf-8")
    out = tmp_path / "final.csv"
    code = cli_main([
        "stream", "A -> B", str(batches),
        "--schema", "A,B,C", "--strict", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "batch 2: bad JSON" in captured.err
    # Strict mode aborts at the first bad batch: nothing later ran.
    assert "batch 6" not in captured.out
    assert not out.exists()


# ---------------------------------------------------------------------------
# Crash-safe state: the op journal, snapshots, and recovery
# ---------------------------------------------------------------------------

def _export_blobs(manager):
    """Canonical per-key serialisation of every session's exported
    state.  Per-key (not whole-dict) pickling is deliberate: whole-dict
    bytes vary with pickle's identity memoisation of interned strings,
    which is not a semantic difference."""
    out = {}
    for key in sorted(manager._entries):
        entry = manager._entries[key]
        state = manager._ensure_live(entry).export_state()
        out[key] = {
            # Sets iterate in insertion-history order, which is not
            # observable (the session only tests membership) — compare
            # them canonically.
            k: pickle.dumps(sorted(v, key=repr) if isinstance(v, set) else v)
            for k, v in state.items()
        }
    return out


def _crash_ops():
    return [
        ("append", {"rows": [["a", "x", "p"], ["a", "y", "p"],
                             ["b", "x", "q"]], "ids": [1, 2, 3]}),
        ("repair", {}),
        ("append", {"rows": [["b", "z", "q"]], "ids": [4],
                    "repair": False}),
        ("delete", {"ids": [2], "repair": False}),
        ("repair", {}),
    ]


def _drive(manager, tenants=("alpha", "beta")):
    for tenant in tenants:
        manager.open(
            tenant, "tbl", {"schema": list(SCHEMA), "fds": "A -> B"}
        )
        entry = manager.entry(tenant, "tbl")
        for op, payload in _crash_ops():
            manager.run_op(entry, op, dict(payload))


def _oracle_from_journal(state_dir):
    """The recovery contract, stated independently: a stateless manager
    replaying the journal records in acknowledged order."""
    import os

    from repro.state import JOURNAL_NAME, OpJournal

    records = OpJournal.read_chain(os.path.join(state_dir, JOURNAL_NAME))[0]
    oracle = SessionManager(ServerConfig(workers=0))
    for record in records:
        op, tenant, name = record["op"], record["tenant"], record["session"]
        payload = record.get("payload") or {}
        if op == "open":
            oracle.open(tenant, name, payload)
        elif op == "close":
            oracle.close(tenant, name)
        else:
            oracle.run_op(oracle.entry(tenant, name), op, payload)
    return oracle


class TestCrashRecovery:
    def test_state_dir_restart_recovers_sessions_byte_identically(
        self, tmp_path
    ):
        """The acceptance path: hard-kill the daemon (journal handle
        simply abandoned, no shutdown), restart on the same state dir,
        and every tenant session is back byte-identically."""
        state = str(tmp_path / "state")
        m1 = SessionManager(ServerConfig(workers=0, state_dir=state))
        _drive(m1)
        expected = _export_blobs(m1)
        assert m1.stats()["journal"]["seq"] == 12  # 2 × (open + 5 ops)
        del m1  # crash: no shutdown, no final snapshot

        m2 = SessionManager(ServerConfig(workers=0, state_dir=state))
        stats = m2.stats()
        assert stats["recovered_sessions"] == 2
        assert stats["replayed_ops"] == 12
        assert _export_blobs(m2) == expected
        # Recovered sessions keep working (and keep journaling).
        entry = m2.entry("alpha", "tbl")
        reply = m2.run_op(entry, "repair", {})
        assert reply["distance"] > 0
        m2.shutdown()

    def test_shutdown_snapshot_makes_restart_replay_free(self, tmp_path):
        """Clean shutdown compacts; the next start recovers from the
        snapshot alone — zero ops replayed, sessions byte-identical,
        and the warm solution cache rides along."""
        state = str(tmp_path / "state")
        m1 = SessionManager(ServerConfig(workers=0, state_dir=state))
        _drive(m1)
        expected = _export_blobs(m1)
        pre_hits = m1.stats()["cache_hits"]
        m1.shutdown()

        m2 = SessionManager(ServerConfig(workers=0, state_dir=state))
        stats = m2.stats()
        assert stats["recovered_sessions"] == 2
        assert stats["replayed_ops"] == 0
        assert _export_blobs(m2) == expected
        # Cache persistence: a recovered daemon's first repair on known
        # content is a hit, not a re-solve.
        base_hits = m2.stats()["cache_hits"]
        entry = m2.entry("alpha", "tbl")
        m2.run_op(entry, "repair", {})
        assert m2.stats()["cache_hits"] > base_hits
        assert pre_hits >= 0  # both managers count hits independently
        m2.shutdown()

    def test_v1_snapshot_recovers_and_reports_dropped_cache(self, tmp_path):
        """A daemon snapshot in the version-1 format (written by the
        previous release, cache keys scoped by a knob tuple without the
        exact threshold) still recovers: every session comes back with
        its rows, ids, next auto id, options and stats, repairs like
        ``clean``, and the old cache entries — which cannot be re-keyed
        on the SolvePolicy — are dropped and counted, never silently."""
        import os
        import shutil

        from repro.state import SNAPSHOT_NAME, load_snapshot

        fixture = os.path.join(
            os.path.dirname(__file__), "data", "v1", "daemon_snapshot.pkl"
        )
        with open(fixture, "rb") as handle:
            snapshot = pickle.load(handle)
        assert snapshot["version"] == 1 and snapshot["solutions"]
        state = tmp_path / "state"
        state.mkdir()
        shutil.copy(fixture, state / SNAPSHOT_NAME)
        manager = SessionManager(ServerConfig(workers=0, state_dir=str(state)))
        try:
            stats = manager.stats()
            assert stats["recovered_sessions"] == len(snapshot["sessions"])
            assert stats["dropped_cache_entries"] == len(
                snapshot["solutions"]
            )
            for item in snapshot["sessions"]:
                old = pickle.loads(item["blob"])
                session = manager._ensure_live(
                    manager.entry(item["tenant"], item["name"])
                )
                new = session.export_state()
                # The retired options (the per-solve cap, ``parallel``,
                # ``max_cache_entries`` and ``pool_timeout``) are dropped.
                assert new["options"] == {
                    key: old["options"][key] for key in RESTORED_OPTIONS
                }
                for field in ("rows", "weights", "used_ids", "next_auto_id",
                              "stats"):
                    assert new[field] == old[field], field
                assert list(new["rows"]) == list(old["rows"])
                fresh = Table(SCHEMA, old["rows"], old["weights"])
                _assert_identical(session.repair(), clean(
                    fresh, old["fds"],
                    exact_threshold=old["options"]["exact_threshold"],
                ))
        finally:
            manager.shutdown()
        assert load_snapshot(str(state / SNAPSHOT_NAME))["version"] == 3

    def test_unhashable_and_nan_appends_do_not_wedge_a_session(
        self, tmp_path
    ):
        """Daemon appends carrying an unhashable value or a NaN weight
        (Python's ``json`` parses a bare ``NaN``) are rejected without
        touching the session or the journal: the session keeps working,
        and a restart recovers the same state."""
        state = str(tmp_path / "state")
        manager = SessionManager(ServerConfig(workers=0, state_dir=state))
        _open(manager, "t", "s", rows=[["a", "x", "p"], ["a", "y", "p"]])
        entry = manager.entry("t", "s")
        for line in (
            '{"rows": [["a", ["y"], "p"]]}',
            '{"rows": [["a", "z", "p"]], "weights": [NaN]}',
            '{"rows": [["a", "z", "p"]], "weights": [Infinity]}',
        ):
            with pytest.raises(ProtocolError):
                manager.run_op(entry, "append", json.loads(line))
        manager.run_op(entry, "append", {"rows": [["a", "z", "p"]]})
        reply = manager.run_op(entry, "repair", {})
        session = entry.live
        expected = clean(
            Table(SCHEMA, session.table.rows(), session.table.weights()),
            FDSet("A -> B"),
        )
        assert reply == result_summary(expected)
        expected_blobs = _export_blobs(manager)
        del manager  # crash: the journal alone must replay to the same state
        recovered = SessionManager(ServerConfig(workers=0, state_dir=state))
        try:
            assert recovered.stats()["errors"] == 0
            assert _export_blobs(recovered) == expected_blobs
        finally:
            recovered.shutdown()

    def test_compaction_truncates_journal_and_bounds_replay(self, tmp_path):
        state = str(tmp_path / "state")
        m1 = SessionManager(
            ServerConfig(workers=0, state_dir=state, snapshot_every=4)
        )
        _drive(m1, tenants=("alpha",))
        assert m1.stats()["journal"]["since_snapshot"] >= 4
        m1.maybe_compact()
        stats = m1.stats()
        assert stats["snapshots"] == 1
        assert stats["journal"]["since_snapshot"] == 0
        # Post-snapshot ops land in the (now short) journal tail.
        entry = m1.entry("alpha", "tbl")
        m1.run_op(entry, "append",
                  {"rows": [["c", "c", "c"]], "ids": [99],
                   "repair": False})
        expected = _export_blobs(m1)
        del m1  # crash after the snapshot + one tail record

        m2 = SessionManager(ServerConfig(workers=0, state_dir=state))
        stats = m2.stats()
        assert stats["recovered_sessions"] == 1
        assert stats["replayed_ops"] == 1  # the tail, not the history
        assert _export_blobs(m2) == expected
        m2.shutdown()

    def test_compaction_refuses_while_a_session_is_mid_op(self, tmp_path):
        state = str(tmp_path / "state")
        manager = SessionManager(
            ServerConfig(workers=0, state_dir=state, snapshot_every=1)
        )
        _drive(manager, tenants=("alpha",))

        async def locked_compact():
            entry = manager.entry("alpha", "tbl")
            async with entry.lock:
                manager.maybe_compact()

        asyncio.run(locked_compact())
        assert manager.stats()["snapshots"] == 0  # refused: op in flight
        manager.maybe_compact()
        assert manager.stats()["snapshots"] == 1
        manager.shutdown()

    @pytest.mark.parametrize(
        "site", ["journal.append.before", "journal.append.after"]
    )
    def test_journal_crash_sites_recover_exactly_the_journaled_prefix(
        self, site, tmp_path
    ):
        """Kill the daemon process *at the journal write* — just before
        (op executed, never logged) and just after (logged, never
        acknowledged) — via ``repro.faults``, then recover.  The
        recovered state must equal a stateless replay of exactly the
        records on disk: acknowledged ops are always covered, the
        crashed-out op is covered iff its record reached the log."""
        import json as _json
        import os
        import subprocess
        import sys

        from repro.faults import FAULTS_ENV, KILL_EXIT_CODE
        from repro.state import JOURNAL_NAME, OpJournal

        state = str(tmp_path / "state")
        child = (
            "import sys\n"
            "from repro.server import SessionManager, ServerConfig\n"
            "m = SessionManager(ServerConfig(workers=0, state_dir=sys.argv[1]))\n"
            "m.open('t', 's', {'schema': ['A', 'B', 'C'], 'fds': 'A -> B'})\n"
            "print('ack open', flush=True)\n"
            "ops = [\n"
            "    ('append', {'rows': [['a', 'x', 'p'], ['a', 'y', 'p']],\n"
            "                'ids': [1, 2]}),\n"
            "    ('append', {'rows': [['b', 'x', 'q']], 'ids': [3],\n"
            "                'repair': False}),\n"
            "    ('repair', {}),\n"
            "    ('delete', {'ids': [1], 'repair': False}),\n"
            "]\n"
            "e = m.entry('t', 's')\n"
            "for i, (op, payload) in enumerate(ops):\n"
            "    m.run_op(e, op, payload)\n"
            "    print(f'ack {i}', flush=True)\n"
            "print('ack done', flush=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + sys.path
        )
        # Journal appends: open=1, then one per op; kill at the 4th
        # (the 'repair' record).
        env[FAULTS_ENV] = _json.dumps(
            [{"site": site, "action": "kill", "at": 4}]
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, state],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        acked = [l for l in proc.stdout.splitlines() if l.startswith("ack")]
        assert acked == ["ack open", "ack 0", "ack 1"]  # repair never acked

        records = OpJournal.read_chain(os.path.join(state, JOURNAL_NAME))[0]
        journaled = 4 if site.endswith("after") else 3
        assert len(records) == journaled
        # Acknowledged ⇒ journaled (the write precedes the ack).
        assert len(records) >= len(acked)

        oracle = _oracle_from_journal(state)
        recovered = SessionManager(ServerConfig(workers=0, state_dir=state))
        assert recovered.stats()["replayed_ops"] == journaled
        assert _export_blobs(recovered) == _export_blobs(oracle)
        recovered.shutdown()
        oracle.shutdown()


def test_graceful_drain_finishes_inflight_ops_before_closing(tmp_path):
    """``request_shutdown`` (the SIGTERM/SIGINT handler target) drains:
    requests already in flight complete and their responses ship, the
    final snapshot is taken, and a restarted manager sees everything."""
    state = str(tmp_path / "state")
    manager = SessionManager(ServerConfig(workers=0, state_dir=state))
    server = RepairServer(manager)

    async def drive():
        port = await server.serve_tcp()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def send(obj):
            writer.write((json.dumps(obj) + "\n").encode())
            await writer.drain()

        await send({"op": "open", "tenant": "t", "session": "s",
                    "seq": "open", "schema": list(SCHEMA),
                    "fds": "A -> B"})
        replies = [json.loads(await reader.readline())]
        # A conflicted append with repair=True: accepted, then drain is
        # requested while it executes.  ``manager.ops`` ticks when the
        # op *starts* on the executor, so waiting on it pins "in
        # flight" without racing the server's read loop.
        await send({"op": "append", "tenant": "t", "session": "s",
                    "seq": "a1",
                    "rows": [["a", "x", "p"], ["a", "y", "p"]],
                    "ids": [1, 2]})
        deadline = time.monotonic() + 10.0
        while manager.ops < 1 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        assert manager.ops >= 1
        server.request_shutdown()
        closer = asyncio.create_task(server.wait_closed())
        while True:
            line = await reader.readline()
            if not line:
                break
            replies.append(json.loads(line))
        await closer
        writer.close()
        return replies

    replies = asyncio.run(drive())
    by_seq = {r["seq"]: r for r in replies}
    # The in-flight append completed and its response shipped before
    # the connection closed.
    assert set(by_seq) == {"open", "a1"}
    assert all(r["ok"] for r in replies)
    assert by_seq["a1"]["distance"] == 1.0

    # The drain flushed a final snapshot: restart is replay-free and
    # byte-identical (the repair the client saw acknowledged included).
    m2 = SessionManager(ServerConfig(workers=0, state_dir=state))
    stats = m2.stats()
    assert stats["recovered_sessions"] == 1
    assert stats["replayed_ops"] == 0
    entry = m2.entry("t", "s")
    reply = m2.run_op(entry, "status", {})
    assert reply["tuples"] == 2
    m2.shutdown()
